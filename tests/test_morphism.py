import pytest

import latfuzz as lf
from conftest import fs


def witness_set_by_enumeration(cand):
    """Independent route: all l for which either raw form of the scaled
    inequality holds at every declared (block, point) pair."""
    lat = cand.source.lattice
    admitted = []
    for l in lat.elements():
        res_ok = True
        tensor_ok = True
        for j in cand.constrained_blocks():
            block = cand.source.blocks[j]
            image = cand.target.blocks[cand.psi[j]]
            for i, a in enumerate(block.values):
                b = image.values[cand.phi.mapping[i]]
                if not lat.leq[a][lat.residuum[l][b]]:
                    res_ok = False
                if not lat.leq[lat.tensor[a][l]][b]:
                    tensor_ok = False
        assert res_ok == tensor_ok
        if res_ok:
            admitted.append(l)
    return admitted


def test_identity_witness_is_top(w3, p2, q, x2p):
    for p in (w3, p2, q, x2p):
        assert lf.fp_witness(lf.identity_candidate(p)).value == p.lattice.top


def test_m_half_witness(m_half, l3):
    w = lf.fp_witness(m_half)
    assert w.display == "1/2"
    assert w.admissible
    assert w.attained == ("A1", "x2")


def test_broken_m_half_witness(m_half_broken):
    w = lf.fp_witness(m_half_broken)
    assert w.display == "0"
    assert not w.admissible
    assert w.attained == ("A1", "x2")


def test_adjoint_forms_agree_with_witness(m_half, m_half_broken, w3, corpus):
    cands = [m_half, m_half_broken, lf.identity_candidate(w3)]
    cands += [item.cand for item in corpus[:40]]
    for cand in cands:
        lat = cand.source.lattice
        admitted = witness_set_by_enumeration(cand)
        w = lf.fp_witness(cand).value
        assert admitted == [l for l in lat.elements() if lat.leq[l][w]]
        assert max(admitted, key=lambda l: sum(lat.leq[x][l]
                                               for x in lat.elements())) == w


def test_candidate_validation(p2, q, phi_m):
    with pytest.raises(lf.CandidateError, match="misses source block"):
        lf.make_candidate(p2, q, phi_m, {"A1": "B1"})
    with pytest.raises(lf.CandidateError, match="does not cover"):
        lf.make_candidate(p2, q, phi_m, {"A1": "B1", "A2": "B2"},
                          pairs=[("A1", "B1")])
    cand, warnings = lf.make_candidate(
        p2, q, phi_m, {"A1": "B1", "A2": "B2"},
        pairs=[("A1", "B1"), ("A2", "B2"), ("A1", "B2")],
    )
    assert len(warnings) == 1 and "outside the graph" in warnings[0]
    # the off-graph pair constrains nothing
    base, _ = lf.make_candidate(p2, q, phi_m, {"A1": "B1", "A2": "B2"})
    assert lf.fp_witness(cand).value == lf.fp_witness(base).value


def test_unconstrained_block_relaxes_witness(p2, q_bad, phi_m):
    # declaring only the block that is not broken leaves A1 unconstrained
    cand, _ = lf.make_candidate(
        p2, q_bad, phi_m, {"A1": "B1", "A2": "B2"},
        pairs=[("A2", "B2"), ("A1", "B2")],
    )
    assert cand.constrained_blocks() == (1,)
    assert lf.fp_witness(cand).value == cand.source.lattice.top


def test_compose_with_identity_keeps_bound(m_half, q):
    comp = lf.compose_fp(m_half, lf.identity_candidate(q))
    assert comp.bound.display == "1/2"
    assert not comp.zero_divisor_warning
    assert lf.fp_witness(comp.candidate).value >= comp.bound.value


def test_compose_two_identities(w3):
    ident = lf.identity_candidate(w3)
    comp = lf.compose_fp(ident, ident)
    assert comp.bound.value == w3.lattice.top


def test_compose_quarter_witnesses_hits_zero_divisor():
    lat = lf.lukasiewicz_chain(5)
    ux = lf.Universe("CX", ("x1",))
    uy = lf.Universe("CY", ("y1", "y2"))
    uz = lf.Universe("CZ", ("z1", "z2"))

    def mk(uni, *vv):
        return lf.FuzzySet(lat, uni, tuple(lat.parse(v) for v in vv))

    px = lf.validate_partition(ux, [("A", mk(ux, "1"))])
    py = lf.validate_partition(uy, [
        ("B1", mk(uy, "1", "1/4")), ("B2", mk(uy, "3/4", "1")),
    ])
    pz = lf.validate_partition(uz, [
        ("C1", mk(uz, "1", "1/4")), ("C2", mk(uz, "3/4", "1")),
    ])
    phi1 = lf.UniverseMap.from_labels(ux, uy, {"x1": "y2"})
    m1, _ = lf.make_candidate(px, py, phi1, {"A": "B1"})
    assert lf.fp_witness(m1).display == "1/4"
    phi2 = lf.UniverseMap.from_labels(uy, uz, {"y1": "z2", "y2": "z2"})
    m2, _ = lf.make_candidate(py, pz, phi2, {"B1": "C1", "B2": "C2"})
    assert lf.fp_witness(m2).display == "1/4"
    comp = lf.compose_fp(m1, m2)
    assert comp.bound.display == "0"
    assert comp.zero_divisor_warning


def test_composition_bound_on_random_triples(corpus_triples):
    for m1, m2 in corpus_triples:
        comp = lf.compose_fp(m1, m2)
        lat = m1.source.lattice
        assert lat.leq[comp.bound.value][lf.fp_witness(comp.candidate).value]


def test_composition_bound_for_all_four_checkers(corpus_triples):
    """Composing along a chain of universes keeps every category's witness
    above the tensor of the component witnesses."""
    for m1, m2 in corpus_triples[:12]:
        lat = m1.source.lattice
        phi = m1.phi.compose(m2.phi)
        parts = (m1.source, m1.target, m2.target)
        rels = [lf.relation_from_partition(p) for p in parts]
        systems = [lf.system_from_partition(p) for p in parts]
        ops = [lf.operator_from_system(s) for s in systems]
        for check, structs in (
            (lf.fas_witness, rels),
            (lf.fcss_witness, systems),
            (lf.fcs_witness, ops),
        ):
            w1 = check(m1.phi, structs[0], structs[1]).value
            w2 = check(m2.phi, structs[1], structs[2]).value
            whole = check(phi, structs[0], structs[2]).value
            assert lat.leq[lat.tensor[w1][w2]][whole]


def test_ft_inequality_equals_fp(m_half, m_half_broken, w3):
    assert lf.ft_inequality_witness(m_half).display == "1/2"
    assert lf.ft_inequality_witness(m_half_broken).display == "0"
    ident = lf.identity_candidate(w3)
    assert lf.ft_inequality_witness(ident).value == w3.lattice.top
    for cand in (m_half, m_half_broken, ident):
        assert lf.ft_inequality_witness(cand).value == lf.fp_witness(cand).value


def test_ft_forward_bound(m_half, w3):
    lat = w3.lattice
    assert lf.ft_forward_bound(lf.identity_candidate(w3)).value == lat.top
    fwd = lf.ft_forward_bound(m_half).value
    assert lat.leq[lf.fp_witness(m_half).value][fwd]


def test_fas_witness_examples(m_half, swap, x2p):
    rx = lf.relation_from_partition(m_half.source)
    ry = lf.relation_from_partition(m_half.target)
    w = lf.fas_witness(m_half.phi, rx, ry)
    assert w.display == "1/2"
    r2 = lf.relation_from_partition(x2p)
    assert lf.fas_witness(lf.UniverseMap.identity(x2p.universe), r2, r2).value \
        == x2p.lattice.top
    assert lf.fas_witness(swap, r2, r2).value == x2p.lattice.top


def test_fas_operator_equality(m_half, m_half_broken):
    for cand in (m_half, m_half_broken):
        rx = lf.relation_from_partition(cand.source)
        ry = lf.relation_from_partition(cand.target)
        assert lf.fas_witness(cand.phi, rx, ry).value == \
            lf.fas_operator_witness(cand.phi, rx, ry).value


def test_fcss_witness_examples(m_half, l3, uni_x):
    sx = lf.system_from_partition(m_half.source)
    sy = lf.system_from_partition(m_half.target)
    w = lf.fcss_witness(m_half.phi, sx, sy)
    assert w.display == "1/2"
    ident = lf.UniverseMap.identity(uni_x)
    assert lf.fcss_witness(ident, sx, sx).value == l3.top


def test_fcss_zero_when_target_trivial_and_source_rejects(l3, uni_x2):
    trivial = lf.system_from_explicit(l3, uni_x2, [l3.top] * 9)
    rejecting = lf.system_from_explicit(
        l3, uni_x2,
        [l3.top if i == 8 else l3.bottom for i in range(9)],
    )
    ident = lf.UniverseMap.identity(uni_x2)
    assert lf.fcss_witness(ident, rejecting, trivial).value == l3.bottom


def test_fcs_witness_examples(m_half, x2p, swap, l3):
    cx = lf.operator_from_system(lf.system_from_partition(m_half.source))
    cy = lf.operator_from_system(lf.system_from_partition(m_half.target))
    w = lf.fcs_witness(m_half.phi, cx, cy)
    fcss = lf.fcss_witness(
        m_half.phi,
        lf.system_from_partition(m_half.source),
        lf.system_from_partition(m_half.target),
    )
    assert l3.leq[fcss.value][w.value]
    c2 = lf.operator_from_system(lf.system_from_partition(x2p))
    assert lf.fcs_witness(swap, c2, c2).value == l3.top
    ident = lf.UniverseMap.identity(x2p.universe)
    assert lf.fcs_witness(ident, c2, c2).value == l3.top


CHAIN_IDS = ("relation", "system", "system-from-relation",
             "relation-from-system", "operator", "system-from-operator")


def chain_values(item):
    """The six transfer inequalities for one corpus item, as (lhs, rhs)."""
    cand = item.cand
    phi = cand.phi
    fp = lf.fp_witness(cand).value
    fas = lf.fas_witness(phi, item.source.relation, item.target.relation).value
    fcss = lf.fcss_witness(phi, item.source.system, item.target.system).value
    fcs = lf.fcs_witness(phi, item.source.operator, item.target.operator).value
    return [
        (fp, fas),
        (fp, fcss),
        (fas, lf.fcss_witness(phi, item.source.system_from_relation,
                              item.target.system_from_relation).value),
        (fcss, lf.fas_witness(phi, item.source.relation_from_system,
                              item.target.relation_from_system).value),
        (fcss, fcs),
        (fcs, lf.fcss_witness(phi, item.source.system_from_operator,
                              item.target.system_from_operator).value),
    ]


def test_witness_equalities_on_corpus(corpus):
    for item in corpus:
        cand = item.cand
        assert lf.fp_witness(cand).value == \
            lf.ft_inequality_witness(cand).value
        assert lf.fas_witness(
            cand.phi, item.source.relation, item.target.relation
        ).value == lf.fas_operator_witness(
            cand.phi, item.source.relation, item.target.relation
        ).value


def test_chain_inequalities_on_corpus(corpus):
    for item in corpus:
        lat = item.cand.source.lattice
        for k, (lo, hi) in enumerate(chain_values(item)):
            assert lat.leq[lo][hi], (CHAIN_IDS[k], item.cand)


def test_forward_bound_dominates_fp_on_corpus(corpus):
    for item in corpus:
        lat = item.cand.source.lattice
        assert lat.leq[lf.fp_witness(item.cand).value][
            lf.ft_forward_bound(item.cand).value
        ]


def test_misaligned_index_maps_break_relation_transfer():
    """Documented counterexample: with an index map that disagrees with
    where the point map sends cores, the relation-transfer inequality can
    drop below the direct witness.  This is why the random corpus draws
    core-aligned candidates only."""
    lat = lf.lukasiewicz_chain(5)
    ux = lf.Universe("MX", ("x1", "x2"))
    uy = lf.Universe("MY", ("y1", "y2"))

    def mk(uni, *vv):
        return lf.FuzzySet(lat, uni, tuple(lat.parse(v) for v in vv))

    px = lf.validate_partition(ux, [
        ("A1", mk(ux, "1", "3/4")), ("A2", mk(ux, "1/4", "1")),
    ])
    py = lf.validate_partition(uy, [
        ("B1", mk(uy, "1", "1/4")), ("B2", mk(uy, "3/4", "1")),
    ])
    phi = lf.UniverseMap.from_labels(ux, uy, {"x1": "y1", "x2": "y2"})
    cand, _ = lf.make_candidate(px, py, phi, {"A1": "B2", "A2": "B2"})
    fp = lf.fp_witness(cand)
    assert fp.display == "3/4"
    fas = lf.fas_witness(
        phi, lf.relation_from_partition(px), lf.relation_from_partition(py)
    )
    assert fas.display == "1/2"
    assert not lat.leq[fp.value][fas.value]
    assert lf.index_square_diagnostic(cand)


def test_fps_product_projections(w3, x2p, q, p2, m_half):
    prod = lf.fps_product(w3, x2p)
    lat = w3.lattice
    assert prod.proj_left_witness.value == lat.top
    assert prod.proj_right_witness.value == lat.top
    # pairing two identities
    prod_qp = lf.fps_product(q, p2)
    ident_q, ident_p = lf.identity_candidate(q), lf.identity_candidate(p2)
    with pytest.raises(lf.MismatchError):
        prod_qp.pair(ident_q, ident_p)  # different sources
    paired, bound = prod_qp.pair(m_half, lf.identity_candidate(p2))
    assert bound.display == "1/2"
    assert lf.fp_witness(paired).display == "1/2"
    same, bound_top = lf.fps_product(p2, p2).pair(ident_p, ident_p)
    assert bound_top.value == lat.top
    assert lf.fp_witness(same).value == lat.top


def test_product_projection_candidates_check_out(w3, q):
    prod = lf.fps_product(w3, q)
    assert lf.fp_witness(prod.proj_left).value == w3.lattice.top
    assert lf.index_square_diagnostic(prod.proj_left) == ()
    assert lf.index_square_diagnostic(prod.proj_right) == ()


def test_index_square_diagnostic(m_half, w3, corpus):
    assert lf.index_square_diagnostic(lf.identity_candidate(w3)) == ()
    assert lf.index_square_diagnostic(m_half) == (("x2", "B2", "B1"),)
    # witness-top candidates and core-aligned candidates commute the square
    for item in corpus[:60]:
        assert lf.index_square_diagnostic(item.cand) == ()


def test_witness_top_implies_index_square(corpus):
    for item in corpus:
        lat = item.cand.source.lattice
        if lf.fp_witness(item.cand).value == lat.top:
            assert lf.index_square_diagnostic(item.cand) == ()


def test_budget_paths(m_half):
    with pytest.raises(lf.BudgetExceeded):
        lf.ft_inequality_witness(m_half, budget=2)
    with pytest.raises(lf.BudgetExceeded):
        lf.ft_forward_bound(m_half, budget=2)

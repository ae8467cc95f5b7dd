"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact: discrete lattices admit zero tolerance, so each
assertion is equality or a table-level order comparison.  Run with -s to see
the per-criterion lines.
"""

import functools
import json

import pytest

import latfuzz as lf
import oracles
from conftest import FIXTURES, assert_cli_digest, fs
from latfuzz import cli
from latfuzz.document import load_document
from reference import (
    apply_operator,
    constant,
    constant_relation,
    enumerate_sets,
    identity_candidate,
    identity_map,
    le,
    pointwise,
    reference_fas_operator,
    reference_ft_inequality,
    relation_value,
    system_value,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [{title}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{title}]: PASS")
        return wrapper
    return decorate


def grid23():
    coords = [(i, j) for i in range(2) for j in range(3)]
    displays = [f"{i}{j}" for i, j in coords]
    leq = [[a[0] <= b[0] and a[1] <= b[1] for b in coords] for a in coords]
    index = {c: k for k, c in enumerate(coords)}
    tensor = [[index[(min(a[0], b[0]), min(a[1], b[1]))] for b in coords]
              for a in coords]
    return lf.from_tables(displays, leq, tensor, name="grid23")


@criterion(1, "lattice law suite")
def test_criterion_1_lattice_laws():
    lattices = (
        [lf.godel_chain(n) for n in range(3, 7)]
        + [lf.lukasiewicz_chain(n) for n in range(3, 7)]
        + [lf.boolean_algebra(k) for k in range(1, 4)]
        + [grid23()]
    )
    for lat in lattices:
        report = lf.law_suite(lat)
        assert report.all_hold, (lat.name, report)
    # a corrupted table is rejected with a counterexample in the message
    base = grid23()
    tensor = [list(row) for row in base.tensor]
    tensor[1][3] = 5
    with pytest.raises(lf.LatticeBuildError) as err:
        lf.from_tables(base.displays, base.leq, tensor, name="corrupt")
    assert "(01, 10)" in str(err.value)
    # a corrupted residuum is caught by the law suite with a counterexample
    luk = lf.lukasiewicz_chain(5)
    res = [list(row) for row in luk.residuum]
    res[1][0] = 1
    corrupted = lf.replace(
        luk, residuum=tuple(tuple(r) for r in res), name="luk5_corrupt"
    )
    suite = lf.law_suite(corrupted)
    assert not suite.holds("viii")
    assert suite.counterexamples["viii"]


@criterion(2, "transform laws exhaustive")
def test_criterion_2_transform_laws(w3, x2p):
    for p, size in ((w3, 27), (x2p, 9)):
        lat = p.lattice
        sets = list(enumerate_sets(lat, p.universe))
        assert len(sets) == size
        comps = {f: lf.ft_transform(p, f) for f in sets}
        for a in lat.elements():
            const = constant(lat, p.universe, a)
            assert all(v == a for v in comps[const])
        for f in sets:
            for g in sets:
                if le(f, g):
                    assert all(lat.leq[x][y]
                               for x, y in zip(comps[f], comps[g]))
                join = pointwise("join", f, g)
                assert comps[join] == tuple(
                    lat.join[x][y] for x, y in zip(comps[f], comps[g])
                )
                meet = pointwise("meet", f, g)
                assert all(
                    lat.leq[x][lat.meet[y][z]]
                    for x, y, z in zip(comps[meet], comps[f], comps[g])
                )
            for a in lat.elements():
                scaled = pointwise("tensor", constant(lat, p.universe, a), f)
                assert comps[scaled] == tuple(
                    lat.tensor[a][v] for v in comps[f]
                )


@criterion(3, "derived systems are closure systems")
def test_criterion_3_check_system(w3, x2p):
    doc = load_document(FIXTURES / "example31.json")
    parity_window = lf.product_partition(
        doc.partition("PN2"), doc.partition("PZ2")
    )
    for p in (w3, x2p, parity_window):
        report = lf.check_system(lf.system_from_partition(p))
        holds = report.holds
        assert holds("axiom_i") and holds("axiom_ii"), report
        assert holds("enriched") and holds("strong"), report


@criterion(4, "witness equivalences")
def test_criterion_4_witness_equalities(w3, m_half, m_half_broken, corpus):
    cands = [identity_candidate(w3), m_half, m_half_broken]
    cands += [item.cand for item in corpus]
    assert len(cands) == 203
    for cand in cands:
        assert lf.fp_witness(cand).value == reference_ft_inequality(cand)[0]
        rx = lf.relation_from_partition(cand.source)
        ry = lf.relation_from_partition(cand.target)
        assert lf.fas_witness(cand.phi, rx, ry).value == \
            reference_fas_operator(cand.phi, rx, ry)[0]


@criterion(5, "functor chain inequalities")
def test_criterion_5_chain_inequalities(w3, m_half, m_half_broken, corpus):
    from corpus import Side, CorpusItem

    items = [
        CorpusItem(identity_candidate(w3), Side(w3).fill(), Side(w3).fill()),
        CorpusItem(m_half, Side(m_half.source).fill(),
                   Side(m_half.target).fill()),
        CorpusItem(m_half_broken, Side(m_half_broken.source).fill(),
                   Side(m_half_broken.target).fill()),
    ] + list(corpus)
    for item in items:
        cand, phi = item.cand, item.cand.phi
        lat = cand.source.lattice
        fp = lf.fp_witness(cand).value
        fas = lf.fas_witness(phi, item.source.relation,
                             item.target.relation).value
        fcss = lf.fcss_witness(phi, item.source.system,
                               item.target.system).value
        fcs = lf.fcs_witness(phi, item.source.operator,
                             item.target.operator).value
        assert lat.leq[fp][fas]
        assert lat.leq[fp][fcss]
        assert lat.leq[fas][lf.fcss_witness(
            phi, item.source.system_from_relation,
            item.target.system_from_relation).value]
        assert lat.leq[fcss][lf.fas_witness(
            phi, item.source.relation_from_system,
            item.target.relation_from_system).value]
        assert lat.leq[fcss][fcs]
        assert lat.leq[fcs][lf.fcss_witness(
            phi, item.source.system_from_operator,
            item.target.system_from_operator).value]


@criterion(6, "object-map commutation")
def test_criterion_6_object_commutation(w3, x2p, m_half):
    for p in (w3, x2p, m_half.source, m_half.target):
        via_relation = lf.system_from_relation(lf.relation_from_partition(p))
        direct = lf.system_from_partition(p)
        assert via_relation.table == direct.table


@criterion(7, "fixture value pins vs oracle")
def test_criterion_7_pins(l3, uni_x, w3):
    oracle_table = oracles.w3_system_table()
    system = lf.system_from_partition(w3)

    def frac(v):
        return oracles.L3[v]

    ramp = fs(l3, uni_x, "0", "1/2", "1")
    assert system_value(system, ramp) == l3.parse("0")
    assert oracle_table[(oracles.ZERO, oracles.HALF, oracles.ONE)] == \
        oracles.ZERO

    plateau = fs(l3, uni_x, "1", "1/2", "1/2")
    assert system_value(system, plateau) == l3.parse("1")
    assert oracle_table[(oracles.ONE, oracles.HALF, oracles.HALF)] == \
        oracles.ONE

    spike = fs(l3, uni_x, "1", "0", "0")
    op = lf.operator_from_system(system)
    got = tuple(frac(v) for v in apply_operator(op, spike).values)
    oracle_closed = oracles.operator_table(oracle_table, 3)[
        (oracles.ONE, oracles.ZERO, oracles.ZERO)
    ]
    assert got == oracle_closed == (oracles.ONE, oracles.HALF, oracles.HALF)

    rel = lf.relation_from_system(system)
    oracle_rel = oracles.relation_from_system_table(oracle_table, 3)
    assert frac(relation_value(rel, "x1", "x2")) == oracle_rel[0][1] \
        == oracles.HALF
    # the whole derived tables agree with the oracle, not just the pins
    for f, v in zip(enumerate_sets(l3, uni_x), system.table):
        assert frac(v) == oracle_table[tuple(frac(x) for x in f.values)]
    for x in range(3):
        for z in range(3):
            assert frac(rel.rows[x][z]) == oracle_rel[x][z]


@criterion(8, "coalgebra and dialgebra")
def test_criterion_8_algebra(l3, x2p, sp, uni_x2, swap):
    # both views are the identity-indexed partition: currying is the
    # identity on its one table, so there is nothing to convert
    assert lf.identity_indexed(x2p) is x2p
    ident = identity_map(uni_x2)
    collapse = lf.UniverseMap.from_labels(
        uni_x2, sp.universe, {"x1": "s1", "x2": "s1"}
    )
    # witness-top candidate images satisfy both homomorphism checks, and
    # each transfers to the other view where its proviso holds
    for phi, target in ((ident, x2p), (swap, x2p), (collapse, sp)):
        assert lf.check_coa_hom(phi, x2p, target).holds
        assert lf.check_dia_hom(phi, x2p, target).holds
    for phi in (ident, swap):
        for direction in ("coa-dia", "dia-coa"):
            assert lf.morphism_transfer_check(
                phi, x2p, x2p, direction).status == "holds"
    # adjunction triangle verdicts hold for the identity and the swap
    for phi in (ident, swap):
        assert lf.adjunction_check(x2p, x2p, phi) == lf.HomVerdict(True)


@criterion(9, "documented deviations and round-trip reports")
def test_criterion_9_reports(l3, uni_x2, w3, m_half):
    # the index-square diagnostic records the half-witness violation
    assert lf.index_square_diagnostic(m_half) == (("x2", "B2", "B1"),)
    # round-trip reports generate for W3 and a relation fixture; their
    # discrepancies are recorded, never asserted away
    assert lf.roundtrip_relation(lf.relation_from_partition(w3)) == (
        (("x1", "x3"), l3.bottom, l3.parse("1/2")),
    )
    bottom = constant_relation(l3, uni_x2, l3.bottom)
    assert lf.roundtrip_relation(bottom)  # extraction forces reflexivity
    # observed: no gap on this fixture
    assert lf.roundtrip_system(lf.system_from_partition(w3)) == ()


ERROR_PATHS = [
    (("check", "fp", "--cand", "m_half_broken"), "w3.json", 1),
    (("validate",), "errors/bad_order.json", 2),
    (("closure", "from-partition", "--partition", "P10"),
     "errors/over_budget.json", 3),
]

CLI_CORPUS = [
    ("validate",),
    ("ft", "--partition", "W3", "--set", "ramp_up"),
    ("closure", "from-partition", "--partition", "W3"),
    ("operator", "from-system", "--system", "partition:W3"),
    ("relation", "from-partition", "--partition", "W3"),
    ("check", "fp", "--cand", "m_half"),
    ("check", "fas", "--cand", "m_half"),
    ("check", "fcss", "--cand", "m_half"),
    ("check", "fcs", "--cand", "m_half"),
    ("check", "coa-hom", "--map", "swap", "--source-partition", "X2P",
     "--target-partition", "X2P"),
    ("check", "dia-hom", "--map", "swap", "--source-partition", "X2P",
     "--target-partition", "X2P"),
    ("functor", "f1", "--partition", "W3"),
    ("functor", "f2", "--relation", "partition:W3"),
    ("functor", "f2inv", "--system", "partition:W3"),
    ("functor", "f3", "--partition", "W3"),
    ("functor", "f4", "--system", "partition:W3"),
    ("functor", "f4inv", "--system", "partition:W3"),
    ("roundtrip", "f2", "--relation", "partition:W3"),
    ("roundtrip", "f4", "--system", "partition:W3"),
    ("roundtrip", "coa-dia", "--partition", "X2P"),
    ("product", "fps", "--left", "Q", "--right", "P2",
     "--pairing", "pair_mhalf_id"),
    ("diagnostic", "index-square", "--cand", "m_half"),
    ("laws", "lattice",),
    ("laws", "ftransform", "--partition", "W3"),
    ("laws", "closure", "--system", "partition:W3"),
    ("coalg", "--partition", "X2P"),
    ("dialg", "--partition", "X2P"),
    ("adjunction", "--map", "swap", "--source-partition", "X2P",
     "--target-partition", "X2P"),
    ("transfer", "coa-dia", "--map", "swap", "--source-partition", "X2P",
     "--target-partition", "X2P"),
]


@criterion(10, "CLI determinism and exit statuses")
def test_criterion_10_cli(capsys):
    w3_doc = str(FIXTURES / "w3.json")
    for argv in CLI_CORPUS:
        full = [*argv, "--doc", w3_doc, "--no-timing"]
        code1 = cli.run(full)
        out1 = capsys.readouterr().out.encode()
        code2 = cli.run(full)
        out2 = capsys.readouterr().out.encode()
        assert code1 == code2 == 0, (argv, out1)
        assert out1 == out2, argv
        json.loads(out1)  # well-formed
        assert_cli_digest(full, out1, code1)
    for argv, doc, expected in ERROR_PATHS:
        code = cli.run([*argv, "--doc", str(FIXTURES / doc), "--no-timing"])
        capsys.readouterr()
        assert code == expected, (argv, doc, code, expected)

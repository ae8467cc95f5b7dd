import json
import random
from itertools import product
from types import SimpleNamespace

import pytest

import latfuzz as lf
from conftest import FIXTURES, fs
from latfuzz import algebra, cli
from latfuzz.fuzzyset import Space
from reference import (
    backward_image,
    compose_maps,
    constant,
    enumerate_sets,
    forward_image,
    identity_candidate,
    identity_map,
    reference_t1,
    set_index,
)
from test_law_differential import _mutant
from test_space_differential import (
    LATTICES,
    WITH_PRODUCT,
    hom_verdicts,
    random_map,
    random_partition,
    reference_coa_hom,
    reference_dia_hom,
    stand_in,
    universe,
)


@pytest.fixture(scope="module")
def collapse(uni_x2, uni_s):
    return lf.UniverseMap.from_labels(uni_x2, uni_s, {"x1": "s1", "x2": "s1"})


def rows(p):
    """The rows of a partition's structure table, as `coalg` and `dialg`
    print them."""
    return tuple(lf.transform_table(p))


def test_structure_values(l3, uni_x2, x2p, capsys):
    g01 = fs(l3, uni_x2, "0", "1")
    idx = set_index(g01)
    coa = rows(x2p)
    assert l3.displays[coa[0][idx]] == "1/2"
    printed = []  # both views print the one table
    for command, kind in (("coalg", "coalgebra"), ("dialg", "dialgebra")):
        assert cli.run([command, "--doc", str(FIXTURES / "w3.json"),
                        "--partition", "X2P", "--no-timing"]) == 0
        printed.append(json.loads(capsys.readouterr().out)[kind])
    assert printed[0] == printed[1]
    assert printed[0]["table"][0]["values"][idx] == "1/2"
    top_idx = set_index(constant(l3, uni_x2, l3.top))
    bottom_idx = set_index(constant(l3, uni_x2, l3.bottom))
    for x in range(2):
        assert coa[x][top_idx] == l3.top
        assert coa[x][bottom_idx] == l3.bottom


def test_constants_fixed_in_dialgebra(l3, uni_x2, x2p):
    dia = rows(x2p)
    for a in l3.elements():
        idx = set_index(constant(l3, uni_x2, a))
        for x in range(2):
            assert dia[x][idx] == a


def test_requires_identity_indexing(w3, x2p, uni_x):
    assert lf.identity_indexed(x2p) is x2p
    with pytest.raises(lf.PreconditionError,
                       match="^partition on X is not identity-indexed$"):
        lf.identity_indexed(w3)
    ident = identity_map(uni_x)
    for check in (lf.check_coa_hom, lf.check_dia_hom):
        with pytest.raises(lf.PreconditionError, match="identity-indexed"):
            check(ident, w3, w3)


def test_t1_identity_and_constants(l3, uni_x2):
    ident = identity_map(uni_x2)
    lam = tuple(range(3)) * 3
    assert reference_t1(ident, lam, l3) == lam
    const = (l3.parse("1/2"),) * 9
    out = reference_t1(ident, const, l3)
    assert set(out) == {l3.parse("1/2")}


def test_t1_functor_law(l3, uni_x2, uni_s, swap, collapse):
    # phi1 = swap on the pair universe, phi2 = collapse to the singleton
    lam = tuple((i * 2 + 1) % 3 for i in range(9))  # arbitrary table on L^X
    via_composite = reference_t1(compose_maps(swap, collapse), lam, l3)
    via_steps = reference_t1(collapse, reference_t1(swap, lam, l3), l3)
    assert via_composite == via_steps


def test_t2_functor_law(l3, uni_x2, uni_s, swap, collapse):
    # the pair functor acts as (map, pushforward); composition must match
    for f in enumerate_sets(l3, uni_x2):
        one_step = forward_image(compose_maps(swap, collapse), f)
        two_step = forward_image(collapse, forward_image(swap, f))
        assert one_step == two_step
    ident = identity_map(uni_x2)
    for f in enumerate_sets(l3, uni_x2):
        assert forward_image(ident, f) == f


def test_coa_hom_identity_swap_collapse(x2p, sp, swap, collapse, uni_x2):
    ident = identity_map(uni_x2)
    assert lf.check_coa_hom(ident, x2p, x2p).holds
    assert lf.check_coa_hom(swap, x2p, x2p).holds
    assert lf.check_coa_hom(collapse, x2p, sp).holds


def test_swap_hom_holds_with_equality(l3, x2p, swap, uni_x2):
    coa = rows(x2p)
    for i in range(9):
        g = lf.set_at(l3, uni_x2, i)
        pulled = set_index(backward_image(swap, g))
        for x in range(2):
            assert coa[x][pulled] == coa[swap.mapping[x]][i]


def test_dia_hom_identity_swap_collapse(x2p, sp, swap, collapse, uni_x2):
    ident = identity_map(uni_x2)
    assert lf.check_dia_hom(ident, x2p, x2p).holds
    assert lf.check_dia_hom(swap, x2p, x2p).holds
    assert lf.check_dia_hom(collapse, x2p, sp).holds


def test_identity_indexed_images_are_homs(l3, x2p, sp, swap, collapse, uni_x2):
    # witness-top candidates between identity-indexed partitions
    candidates = [
        (identity_candidate(x2p), x2p, x2p,
         identity_map(uni_x2)),
    ]
    swap_cand, _ = lf.make_candidate(x2p, x2p, swap, {"x1": "x2", "x2": "x1"})
    collapse_cand, _ = lf.make_candidate(
        x2p, sp, collapse, {"x1": "s1", "x2": "s1"}
    )
    candidates.append((swap_cand, x2p, x2p, swap))
    candidates.append((collapse_cand, x2p, sp, collapse))
    for cand, px, py, phi in candidates:
        assert lf.fp_witness(cand).value == l3.top
        assert lf.check_coa_hom(phi, px, py).holds
        assert lf.check_dia_hom(phi, px, py).holds


def test_half_witness_image_can_fail_hom_checks():
    """Documented limitation: an admissible identity-indexed candidate whose
    witness is below top need not induce holding homomorphism checks, even
    when indexing commutes with its point map.  The structure-table checks
    genuinely require the witness-top case, which is what the fixture
    morphisms used elsewhere provide."""
    lat = lf.lukasiewicz_chain(5)
    ux = lf.Universe("UX", ("x1", "x2"))
    uy = lf.Universe("UY", ("y1", "y2"))

    def mk(uni, *vv):
        return lf.FuzzySet(lat, uni, tuple(lat.parse(v) for v in vv))

    px = lf.validate_partition(ux, [
        ("x1", mk(ux, "1", "3/4")), ("x2", mk(ux, "1/4", "1")),
    ])
    py = lf.validate_partition(uy, [
        ("y1", mk(uy, "1", "1/4")), ("y2", mk(uy, "3/4", "1")),
    ])
    phi = lf.UniverseMap.from_labels(ux, uy, {"x1": "y1", "x2": "y2"})
    cand, _ = lf.make_candidate(px, py, phi, {"x1": "y1", "x2": "y2"})
    witness = lf.fp_witness(cand)
    assert witness.display == "1/2" and witness.admissible
    assert lf.index_square_diagnostic(cand) == ()
    coa = lf.check_coa_hom(phi, px, py)
    dia = lf.check_dia_hom(phi, px, py)
    assert not coa.holds and coa.violation == ("x1", ("0", "1/2"))
    assert not dia.holds


def test_failing_coa_hom_has_violation(l3, uni_x2, x2p):
    crisp = lf.validate_partition(uni_x2, [
        ("x1", fs(l3, uni_x2, "1", "0")),
        ("x2", fs(l3, uni_x2, "0", "1")),
    ])
    ident = identity_map(uni_x2)
    verdict = lf.check_coa_hom(ident, x2p, crisp)
    assert not verdict.holds
    assert verdict.violation is not None


def test_transfer_checks(x2p, sp, swap, collapse, uni_x2):
    ident = identity_map(uni_x2)
    assert lf.morphism_transfer_check(
        ident, x2p, x2p, "coa-dia"
    ).status == "holds"
    assert lf.morphism_transfer_check(
        swap, x2p, x2p, "coa-dia"
    ).status == "holds"
    assert lf.morphism_transfer_check(
        swap, x2p, x2p, "dia-coa"
    ).status == "holds"
    # non-injective collapse: proviso unmet even though the check holds
    assert lf.morphism_transfer_check(
        collapse, x2p, sp, "coa-dia"
    ).status == "proviso unmet"
    # non-surjective embedding: proviso unmet in the other direction
    embed = lf.UniverseMap.from_labels(sp.universe, uni_x2, {"s1": "x1"})
    assert lf.morphism_transfer_check(
        embed, sp, x2p, "dia-coa"
    ).status == "proviso unmet"
    with pytest.raises(ValueError):
        lf.morphism_transfer_check(ident, x2p, x2p, "sideways")


def test_transfer_source_check_fails(l3, uni_x2, x2p):
    crisp = lf.validate_partition(uni_x2, [
        ("x1", fs(l3, uni_x2, "1", "0")),
        ("x2", fs(l3, uni_x2, "0", "1")),
    ])
    ident = identity_map(uni_x2)
    verdict = lf.morphism_transfer_check(ident, x2p, crisp, "coa-dia")
    assert verdict.status == "source check fails"


def test_adjunction_identity_and_swap(x2p, swap, uni_x2):
    ident = identity_map(uni_x2)
    for phi in (ident, swap):
        assert lf.adjunction_check(x2p, x2p, phi) == lf.HomVerdict(True)


def test_adjunction_precondition(l3, uni_x2, x2p):
    crisp = lf.validate_partition(uni_x2, [
        ("x1", fs(l3, uni_x2, "1", "0")),
        ("x2", fs(l3, uni_x2, "0", "1")),
    ])
    ident = identity_map(uni_x2)
    with pytest.raises(lf.PreconditionError):
        lf.adjunction_check(x2p, crisp, ident)


# the identity from a graded partition G to its crisp twin C on the Gödel
# 3-chain: every check of it fails
GRADED_TO_CRISP = json.dumps({
    "lattice": {"kind": "godel_chain", "n": 3},
    "universes": {"X": ["a", "b"]},
    "partitions": {
        "G": {"universe": "X", "blocks": {"a": {"a": "1", "b": "1/2"},
                                          "b": {"a": "0", "b": "1"}}},
        "C": {"universe": "X", "blocks": {"a": {"a": "1", "b": "0"},
                                          "b": {"a": "0", "b": "1"}}}},
    "maps": {"id": {"source": "X", "target": "X",
                    "values": {"a": "a", "b": "b"}}}})


def test_passing_derived_checks_build_no_table(x2p, sp, swap, collapse,
                                               monkeypatch, capsys):
    """A check between partitions is decided, and a violation named, from
    the blocks: no transform component is folded, whether the check holds
    or fails, in the library or through the CLI."""
    def upper(self, row):
        raise AssertionError("a structure table was built")

    monkeypatch.setattr(Space, "upper", upper)
    for phi, py in ((swap, x2p), (collapse, sp)):
        assert lf.check_coa_hom(phi, x2p, py).holds
        assert lf.check_dia_hom(phi, x2p, py).holds
        assert lf.adjunction_check(x2p, py, phi).holds
    for direction in ("coa-dia", "dia-coa"):
        verdict = lf.morphism_transfer_check(swap, x2p, x2p, direction)
        assert verdict.status == "holds"
    ends = ("--map", "id", "--source-partition", "G",
            "--target-partition", "C", "--doc", GRADED_TO_CRISP, "--no-timing")
    for argv in (("check", "coa-hom"), ("check", "dia-hom"),
                 ("transfer", "coa-dia"), ("transfer", "dia-coa"),
                 ("adjunction",)):
        assert cli.run([*argv, *ends]) == 1
        assert "violation" in capsys.readouterr().out


def test_coa_hom_composition_on_fixture(x2p, sp, swap, collapse):
    # two holding checks compose to a holding check
    assert lf.check_coa_hom(swap, x2p, x2p).holds
    assert lf.check_coa_hom(collapse, x2p, sp).holds
    composed = compose_maps(swap, collapse)
    assert lf.check_coa_hom(composed, x2p, sp).holds


def test_budget_paths(x2p):
    with pytest.raises(lf.BudgetExceeded):
        lf.transform_table(x2p, budget=2)


# ---------------------------------------------------------------------------
# the two homomorphism views agree on monotone tables
#
# Every table latfuzz builds is monotone in its set argument, since its
# entries are components of the direct upper transform.  On monotone tables
# the coalgebra and the dialgebra condition are equivalent for every carrier
# map phi, by the Galois connection f <= phi^-1(phi->f), phi->(phi^-1 g) <= g
# between forward and backward images.  So neither transfer proviso is
# needed on tables built from partitions.

def _all_maps(source, target):
    for mapping in product(range(len(target)), repeat=len(source)):
        yield lf.UniverseMap(source, target, mapping)


def _views_agree(px, py):
    """The verdict of every carrier map X -> Y, after asserting that the two
    views give it on each."""
    verdicts = []
    for phi in _all_maps(px.universe, py.universe):
        coa = lf.check_coa_hom(phi, px, py).holds
        assert lf.check_dia_hom(phi, px, py).holds == coa, phi.mapping
        verdicts.append(coa)
    return verdicts


def test_views_agree_on_every_map_between_fixture_tables(x2p, sp):
    verdicts = [v for px in (x2p, sp) for py in (x2p, sp)
                for v in _views_agree(px, py)]
    assert len(verdicts) == 4 + 1 + 2 + 1


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_views_agree_on_every_map_between_random_tables(name):
    """Random identity-indexed partitions of 1-3 points; on each lattice
    some maps are homomorphisms and some are not."""
    lat, rng = LATTICES[name], random.Random(name)
    verdicts = []
    for _ in range(10):
        px, py = (random_partition(rng, lat, universe(end, rng.randint(1, 3)),
                                   identity=True)
                  for end in ("X", "Y"))
        verdicts += _views_agree(px, py)
    assert True in verdicts and False in verdicts


def test_views_differ_on_a_non_monotone_table():
    """On the 2-chain, X's rows are 0 at the bottom and top sets and 1 in
    between, and Y's single row falls from 1 to 0.  Pulling back along the
    constant map phi only reaches X's constant sets, so the coalgebra check
    holds; pushing forward (0, 1) reaches Y's top set, so the dialgebra
    check fails there.  No command builds such rows, so the per-set sweeps
    decide them."""
    lat = lf.godel_chain(2)
    x, y = universe("X", 2), universe("Y", 1)
    phi = lf.UniverseMap(x, y, (0, 0))
    tx = SimpleNamespace(lattice=lat, universe=x, table=((0, 1, 1, 0),) * 2)
    ty = SimpleNamespace(lattice=lat, universe=y, table=((1, 0),))
    dia = reference_dia_hom(phi, tx, ty)
    assert reference_coa_hom(phi, tx, ty).holds
    assert not dia.holds
    assert dia.violation == ("x0", ("0", "1"))


# ---------------------------------------------------------------------------
# the violation a failing check names
#
# Both sides of either check preserve joins in the swept set, so when bottom
# is ordinal 0 the first violation of the sweep is a generator e(s, a), the
# set that is a at s and bottom elsewhere, and the checks scan only those.

def _namer_matches_references() -> bool:
    """Both checks agree with the per-set sweeps, verdict and violation, on
    a fixed battery of random maps, non-injective and non-surjective ones
    among them."""
    try:
        for name in sorted(WITH_PRODUCT):
            for nx, ny, seed in ((3, 2, 0), (2, 3, 1), (3, 3, 2)):
                lat, rng = WITH_PRODUCT[name], random.Random(seed)
                px = random_partition(rng, lat, universe("X", nx),
                                      identity=True)
                py = random_partition(rng, lat, universe("Y", ny),
                                      identity=True)
                phi = random_map(rng, px.universe, py.universe)
                new, reference = hom_verdicts(phi, px, py)
                if new != reference:
                    return False
    except IndexError:
        return False
    return True


# (owner, function, lines, mutated lines): each mutant changes one step of
# the scan
SCAN_MUTANTS = [
    pytest.param(algebra, "_scan", "for a in lat.elements():",
                 "for a in (lat.top,):", id="only-top-scanned"),
    pytest.param(algebra, "_scan", "for z in fibers[s]:",
                 "for z in fibers[s][:1]:", id="fiber-join-dropped"),
    pytest.param(algebra, "check_dia_hom", "                 phi.mapping, budget)",
                 "                 range(len(phi.mapping)), budget)",
                 id="phi-z-replaced-by-z"),
    pytest.param(algebra, "_scan",
                 "    for s in reversed(range(len(fibers))):"
                 "  # the last point weighs least\n"
                 "        for a in lat.elements():\n"
                 "            for e, (row, image) in"
                 " zip(p.universe.elements, rows):\n",
                 "    for e, (row, image) in zip(p.universe.elements, rows):\n"
                 "        for s in reversed(range(len(fibers))):\n"
                 "            for a in lat.elements():\n",
                 id="points-before-sets"),
]


@pytest.mark.parametrize("owner, name, line, mutated", SCAN_MUTANTS)
def test_scan_mutants_are_caught(monkeypatch, owner, name, line, mutated):
    assert _namer_matches_references()
    monkeypatch.setattr(owner, name, _mutant(owner, name, line, mutated))
    assert not _namer_matches_references()


def _fails_at(phi, tx, ty, view, element, shown) -> bool:
    """Whether the per-set inequality of `view` fails at one point and set,
    on stand-in rows."""
    lat, x = tx.lattice, tx.universe.index(element)
    values = tuple(map(lat.parse, shown))
    if view == "coalgebra":
        g = lf.FuzzySet(lat, ty.universe, values)
        at_x, at_y = set_index(backward_image(phi, g)), set_index(g)
    else:
        f = lf.FuzzySet(lat, tx.universe, values)
        at_x, at_y = set_index(f), set_index(forward_image(phi, f))
    return not lat.leq[tx.table[x][at_x]][ty.table[phi.mapping[x]][at_y]]


def test_bottom_listed_last_keeps_the_verdict_and_names_a_violation():
    """On a table lattice that lists bottom last, the generators need not
    come first in index order, so the named set may not be the sweep's
    first: the Gödel 3-chain listed as 1/2, 1, 0.  The verdicts still agree
    with the per-set sweeps, and the named set is a violation."""
    chain = lf.godel_chain(3)
    order = (1, 2, 0)
    lat = lf.from_tables(
        [chain.displays[a] for a in order],
        [[chain.leq[a][b] for b in order] for a in order],
        [[order.index(chain.tensor[a][b]) for b in order] for a in order],
        name="godel3-bottom-last")
    assert lat.bottom == 2
    named = 0
    for seed in range(30):
        rng = random.Random(seed)
        px, py = (random_partition(rng, lat, universe(end, rng.randint(1, 3)),
                                   identity=True) for end in "XY")
        phi = random_map(rng, px.universe, py.universe)
        new, reference = hom_verdicts(phi, px, py)
        assert [v.holds for v in new] == [v.holds for v in reference]
        for view, verdict in zip(("coalgebra", "dialgebra"), new):
            if not verdict.holds:
                named += 1
                assert _fails_at(phi, stand_in(px), stand_in(py), view,
                                 *verdict.violation)
    assert named

"""Differential test of `operator_from_system` against the defining formula.

`reference_operator` evaluates the closure operator of a system literally:
for every f and every point x, the meet over every g of the space of
(membership(g) tensor inclusion(f, g)) -> g(x), with the inclusion degree
recomputed for each (f, g, x) and no term skipped.  `reference_closure`
gives one row of it, for the sampled rows of a 4096-set space.

The construction instead meets each term into a bucket at the set s -> g,
for every s up to the inclusion degree, and then meets the buckets over the
up-set of f.  The lattices include `boolean(2)`, `grid23` and a product of
the Gödel and Łukasiewicz 3-chains, whose incomparable values meet above
bottom, so an up-set taken by ordinal instead of by the order shows.  The
last test patches one line of the construction at a time and checks that
the comparisons catch each mutant.
"""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from latfuzz import closure
from conftest import FIXTURES
from test_law_differential import _mutant


def reference_closure(system, sets, f):
    lat = system.lattice
    res, tensor = lat.residuum, lat.tensor
    npoints = len(system.universe)
    closed = []
    for x in range(npoints):
        acc = lat.top
        for gi, g in enumerate(sets):
            inclusion = lat.meet_all(res[f[z]][g[z]] for z in range(npoints))
            premise = tensor[system.table[gi]][inclusion]
            acc = lat.meet[acc][res[premise][g[x]]]
        closed.append(acc)
    return tuple(closed)


def all_sets(system):
    return [lf.set_at(system.lattice, system.universe, i).values
            for i in range(len(system.table))]


def reference_operator(system):
    sets = all_sets(system)
    return tuple(reference_closure(system, sets, f) for f in sets)


def product_lattice(left, right, name):
    """The product of two lattices, with the componentwise order and
    tensor, through `from_tables` (the residuum is derived)."""
    pairs = [(a, b) for a in left.elements() for b in right.elements()]
    ordinal = {p: i for i, p in enumerate(pairs)}
    return lf.from_tables(
        [f"{left.displays[a]}|{right.displays[b]}" for a, b in pairs],
        [[left.leq[a][c] and right.leq[b][d] for c, d in pairs]
         for a, b in pairs],
        [[ordinal[left.tensor[a][c], right.tensor[b][d]] for c, d in pairs]
         for a, b in pairs],
        name=name)


# lattice name -> (lattice, largest universe whose space has at most 256 sets)
LATTICES = {
    "godel3": (lf.godel_chain(3), 5),
    "lukasiewicz3": (lf.lukasiewicz_chain(3), 5),
    "boolean2": (lf.boolean_algebra(2), 4),
    "grid23": (lf.build(json.loads((FIXTURES / "grid23.json").read_text())
                        ["lattice"]), 3),
    "godel3xlukasiewicz3": (product_lattice(lf.godel_chain(3),
                                            lf.lukasiewicz_chain(3),
                                            "godel3xlukasiewicz3"), 2),
}

cases = st.sampled_from(sorted(LATTICES)).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.integers(1, LATTICES[name][1]),
                           st.integers(0, 2 ** 32 - 1)))


def _universe(npoints):
    return lf.Universe("U", tuple(f"u{i}" for i in range(npoints)))


def random_partition(lat, npoints, rng):
    """Cores from a random assignment of points to blocks; every non-core
    value is a random non-top element."""
    uni = _universe(npoints)
    labels = [rng.randrange(npoints) for _ in range(npoints)]
    non_top = [a for a in lat.elements() if a != lat.top]
    blocks = []
    for b in sorted(set(labels)):
        values = tuple(lat.top if labels[i] == b else rng.choice(non_top)
                       for i in range(npoints))
        blocks.append((f"B{b}", lf.FuzzySet(lat, uni, values)))
    return lf.validate_partition(uni, blocks)


def random_explicit(lat, npoints, rng):
    """A uniformly random membership table in which bottom and top both
    occur."""
    uni = _universe(npoints)
    size = len(lat) ** npoints
    table = [rng.choice(lat.elements()) for _ in range(size)]
    low, high = rng.sample(range(size), 2)
    table[low] = lat.bottom
    table[high] = lat.top
    return lf.system_from_explicit(lat, uni, table)


@settings(max_examples=10, deadline=None)
@given(cases)
@example(("godel3", 5, 0))
@example(("boolean2", 4, 1))
@example(("godel3xlukasiewicz3", 2, 4))
def test_operator_matches_formula_on_partition_systems(case):
    name, npoints, seed = case
    lat, _ = LATTICES[name]
    system = lf.system_from_partition(
        random_partition(lat, npoints, random.Random(seed)))
    assert lf.operator_from_system(system).table == reference_operator(system)


@settings(max_examples=10, deadline=None)
@given(cases)
@example(("lukasiewicz3", 5, 2))
@example(("grid23", 3, 3))
@example(("godel3xlukasiewicz3", 1, 5))
def test_operator_matches_formula_on_explicit_systems(case):
    name, npoints, seed = case
    lat, _ = LATTICES[name]
    system = random_explicit(lat, npoints, random.Random(seed))
    assert lf.operator_from_system(system).table == reference_operator(system)


def test_product_lattice_meets_incomparable_values_above_bottom():
    lat, _ = LATTICES["godel3xlukasiewicz3"]
    high, half = lat.parse("1|1/2"), lat.parse("1/2|1")
    assert not lat.leq[high][half] and not lat.leq[half][high]
    assert lat.displays[lat.meet[high][half]] == "1/2|1/2"


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_empty_universe_closes_its_one_set(name):
    lat, _ = LATTICES[name]
    system = lf.system_from_explicit(lat, _universe(0), [lat.top])
    assert lf.operator_from_system(system).table == ((),)
    assert reference_operator(system) == ((),)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_all_bottom_system_closes_everything_to_top(name):
    lat, npoints = LATTICES[name]
    npoints = min(npoints, 2)
    system = lf.system_from_explicit(lat, _universe(npoints),
                                     [lat.bottom] * len(lat) ** npoints)
    table = lf.operator_from_system(system).table
    assert table == ((lat.top,) * npoints,) * len(lat) ** npoints
    assert table == reference_operator(system)


def test_sampled_rows_at_4096_sets():
    lat = lf.boolean_algebra(2)
    rng = random.Random(6)
    system = random_explicit(lat, 6, rng)
    table = lf.operator_from_system(system).table
    sets = all_sets(system)
    for i in rng.sample(range(len(sets)), 8):
        assert table[i] == reference_closure(system, sets, sets[i])


# ---------------------------------------------------------------------------
# the comparisons above catch one-line mutants of the construction

def _all_match() -> bool:
    """The construction agrees with the formula on a fixed battery: a
    partition and an explicit system per lattice, on one and two points."""
    for name in sorted(LATTICES):
        lat, _ = LATTICES[name]
        for npoints in (1, 2):
            rng = random.Random(npoints)
            for system in (
                    lf.system_from_partition(
                        random_partition(lat, npoints, rng)),
                    random_explicit(lat, npoints, rng)):
                if closure.operator_from_system(system).table != \
                        reference_operator(system):
                    return False
    return True


# (function, line, mutated line), each with a fixed id
MUTANTS = [
    pytest.param("operator_from_system",
                 "for d in values for u in values if d != u and leq[d][u]]",
                 "for d in values for u in values if d < u]",
                 id="up-set-by-ordinal"),
    pytest.param("operator_from_system",
                 "        if s == lat.bottom:",
                 "        if s != lat.top:",
                 id="s-top-only"),
    pytest.param("operator_from_system",
                 "            for d, u in above:",
                 "            for d, u in above if _ else ():",
                 id="last-point-sweep-skipped"),
]


@pytest.mark.parametrize("name, line, mutated", MUTANTS)
def test_mutants_are_caught(monkeypatch, name, line, mutated):
    assert _all_match()
    monkeypatch.setattr(closure, name, _mutant(closure, name, line, mutated))
    assert not _all_match()

"""Differential test of `operator_from_system` against the defining formula.

`reference_operator` evaluates the closure operator of a system literally:
for every f and every point x, the meet over every g of the space of
(membership(g) tensor inclusion(f, g)) -> g(x), with the inclusion degree
recomputed for each (f, g, x) and no term skipped.  `reference_closure`
gives one row of it, for the sampled rows of a 4096-set space.

The construction instead meets each term into a bucket at the set s -> g,
for every s up to the inclusion degree, and then meets the buckets over the
up-set of f.  The lattices include `boolean(2)`, `grid23` and a product of
the Gödel and Łukasiewicz 3-chains (`lattices.PRODUCT`), whose incomparable
values meet above bottom, so an up-set taken by ordinal instead of by the
order shows.  The last test patches one line of the construction, or of the
up-set meet sweep `Space.meets_above` it calls, at a time and checks that
the comparisons catch each mutant.
"""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from latfuzz import closure
from latfuzz.fuzzyset import Space
from conftest import FIXTURES
from lattices import spaces, with_product
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


LATTICES = with_product({
    "godel3": lf.godel_chain(3),
    "lukasiewicz3": lf.lukasiewicz_chain(3),
    "boolean2": lf.boolean_algebra(2),
    "grid23": lf.build(json.loads((FIXTURES / "grid23.json").read_text())
                       ["lattice"]),
})

cases = spaces(LATTICES, min_points=1)


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
    return lf.ClosureSystem(lat, uni, tuple(table), "explicit")


@settings(max_examples=10, deadline=None)
@given(cases)
@example(("godel3", 5, 0))
@example(("boolean2", 4, 1))
@example(("godel3xlukasiewicz3", 2, 4))
def test_operator_matches_formula_on_partition_systems(case):
    name, npoints, seed = case
    lat = LATTICES[name]
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
    lat = LATTICES[name]
    system = random_explicit(lat, npoints, random.Random(seed))
    assert lf.operator_from_system(system).table == reference_operator(system)


def test_product_lattice_meets_incomparable_values_above_bottom():
    lat = LATTICES["godel3xlukasiewicz3"]
    high, half = lat.parse("1|1/2"), lat.parse("1/2|1")
    assert not lat.leq[high][half] and not lat.leq[half][high]
    assert lat.displays[lat.meet[high][half]] == "1/2|1/2"


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_empty_universe_closes_its_one_set(name):
    lat = LATTICES[name]
    system = lf.ClosureSystem(lat, _universe(0), (lat.top,), "explicit")
    assert lf.operator_from_system(system).table == ((),)
    assert reference_operator(system) == ((),)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_all_bottom_system_closes_everything_to_top(name):
    lat = LATTICES[name]
    npoints = 2
    system = lf.ClosureSystem(lat, _universe(npoints),
                              (lat.bottom,) * len(lat) ** npoints, "explicit")
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
        lat = LATTICES[name]
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


# (owner, function, line, mutated line), each with a fixed id; the up-set
# meets are `Space.meets_above`
MUTANTS = [
    pytest.param(Space, "meets_above",
                 "{u for u in lat.elements() if u != d and leq[d][u]}",
                 "{u for u in lat.elements() if u > d}",
                 id="up-set-by-ordinal"),
    pytest.param(closure, "operator_from_system",
                 "        if s == lat.bottom:",
                 "        if s != lat.top:",
                 id="s-top-only"),
    pytest.param(Space, "meets_above",
                 "            for d, u in steps:",
                 "            for d, u in steps if _ else ():",
                 id="last-point-sweep-skipped"),
]


@pytest.mark.parametrize("owner, name, line, mutated", MUTANTS)
def test_mutants_are_caught(monkeypatch, owner, name, line, mutated):
    assert _all_match()
    monkeypatch.setattr(owner, name, _mutant(owner, name, line, mutated))
    assert not _all_match()

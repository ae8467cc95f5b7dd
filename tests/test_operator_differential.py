"""Differential test of `operator_from_system` against the defining formula.

`reference_operator` evaluates the closure operator of a system literally:
for every f and every point x, the meet over every g of the space of
(membership(g) tensor inclusion(f, g)) -> g(x), with the inclusion degree
recomputed for each (f, g, x) and no term skipped.
"""

import json
import random

from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from conftest import FIXTURES


def reference_operator(system):
    lat = system.lattice
    uni = system.universe
    sets = [lf.set_at(lat, uni, i).values for i in range(len(system.table))]
    res, tensor = lat.residuum, lat.tensor
    npoints = len(uni)
    table = []
    for f in sets:
        closed = []
        for x in range(npoints):
            acc = lat.top
            for gi, g in enumerate(sets):
                inclusion = lat.meet_all(res[f[z]][g[z]] for z in range(npoints))
                premise = tensor[system.table[gi]][inclusion]
                acc = lat.meet[acc][res[premise][g[x]]]
            closed.append(acc)
        table.append(tuple(closed))
    return tuple(table)


# lattice name -> (lattice, largest universe whose space has at most 256 sets)
LATTICES = {
    "godel3": (lf.godel_chain(3), 5),
    "lukasiewicz3": (lf.lukasiewicz_chain(3), 5),
    "boolean2": (lf.boolean_algebra(2), 4),
    "grid23": (lf.build(json.loads((FIXTURES / "grid23.json").read_text())
                        ["lattice"]), 3),
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
def test_operator_matches_formula_on_explicit_systems(case):
    name, npoints, seed = case
    lat, _ = LATTICES[name]
    system = random_explicit(lat, npoints, random.Random(seed))
    assert lf.operator_from_system(system).table == reference_operator(system)

"""Lattice-valued binary relations and the upper approximation operator."""

from __future__ import annotations

from operator import add

from .errors import MismatchError
from .fuzzyset import FuzzySet, Space, Universe
from .lattice import DEFAULT_BUDGET, Lattice
from .record import Record


class FuzzyRelation(Record):
    lattice: Lattice
    universe: Universe
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.universe)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise MismatchError(
                f"relation on {self.universe.name}: table is not {n}x{n}"
            )
        for row in self.rows:
            for v in row:
                self.lattice.check_element(v)


def upper_approx(rel: FuzzyRelation, f: FuzzySet) -> FuzzySet:
    """Row-wise join of tensors: the approximation of f seen from each point."""
    if f.universe != rel.universe:
        raise MismatchError(
            f"upper approximation: set on {f.universe.name}, "
            f"relation on {rel.universe.name}"
        )
    if f.lattice is not rel.lattice:
        raise MismatchError("upper approximation: lattice mismatch")
    lat = rel.lattice
    vals = []
    for row in rel.rows:
        acc = lat.bottom
        for r, v in zip(row, f.values):
            acc = lat.join[acc][lat.tensor[r][v]]
        vals.append(acc)
    return FuzzySet(lat, rel.universe, tuple(vals))


def relation_from_system(system, budget: int = DEFAULT_BUDGET) -> FuzzyRelation:
    """Extract the relation of a closure system: the degree to which
    membership of x in each family member forces membership of z.

    R(x, z) = meet over all f of system(f) -> (f(x) -> f(z)).
    """
    lat: Lattice = system.lattice
    universe: Universe = system.universe
    space = Space(lat, universe, budget, "relation extraction")
    res, meet = lat.residuum, lat.meet
    n = len(lat)
    points = range(len(universe))
    rows = [[lat.top] * len(universe) for _ in points]  # u -> (a -> a) = top
    members = [u * n * n for u in system.table]
    for x in points[:-1]:  # the last point has no z after it
        # each (membership, f(x), f(z)) triple that occurs, coded u*n*n +
        # f(x)*n + f(z): the meet needs each distinct term only once, and
        # R(z, x) the same triples with f(x) and f(z) swapped
        block = [a * n for a in space.digits(x)[:space.weights[x] * n]]
        prefix = list(map(add, members, block * (space.size // len(block))))
        for z in points[x + 1:]:
            to_z = to_x = lat.top
            for code in set(map(add, prefix, space.digits(z))):
                ua, b = divmod(code, n)
                u, a = divmod(ua, n)
                to_z = meet[to_z][res[u][res[a][b]]]
                to_x = meet[to_x][res[u][res[b][a]]]
            rows[x][z], rows[z][x] = to_z, to_x
    return FuzzyRelation(lat, universe, tuple(map(tuple, rows)))

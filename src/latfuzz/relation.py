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

    def value(self, x_label: str, y_label: str) -> int:
        return self.rows[self.universe.index(x_label)][self.universe.index(y_label)]

    def display_rows(self) -> list[list[str]]:
        return [[self.lattice.displays[v] for v in row] for row in self.rows]


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
    rows = []
    for x in points:
        # each (membership, f(x), f(z)) triple that occurs, coded u*n*n +
        # f(x)*n + f(z); the meet needs each distinct term only once
        prefix = [(u * n + a) * n
                  for u, a in zip(system.table, space.digits(x))]
        row = []
        for z in points:
            acc = lat.top
            for code in set(map(add, prefix, space.digits(z))):
                ua, b = divmod(code, n)
                u, a = divmod(ua, n)
                acc = meet[acc][res[u][res[a][b]]]
            row.append(acc)
        rows.append(tuple(row))
    return FuzzyRelation(lat, universe, tuple(rows))

"""Lattice-valued binary relations and the upper approximation operator."""

from __future__ import annotations

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

    R(x, z) = meet over all f of system(f) -> (f(x) -> f(z)).  As u -> c is
    antitone in u, that is the meet over a and b of J(a, b) -> (a -> b),
    where J(a, b) is the join of system(f) over the sets with f(x) = a and
    f(z) = b: the marginal of the table on the axes x and z.  The axes
    before x are joined out by contiguous slices, once per x; those after
    z by strided slices, shared by the pairs from x; those between, once
    per pair.
    """
    lat: Lattice = system.lattice
    universe: Universe = system.universe
    space = Space(lat, universe, budget, "relation extraction")
    res, meet, n = lat.residuum, lat.meet, len(lat)
    join = space.operation(lat.join)

    def drop_last(column):  # the join over the last axis
        return space.reduce([column[c::n] for c in range(n)], join)

    points = range(len(universe))
    rows = [[lat.top] * len(universe) for _ in points]  # u -> (a -> a) = top
    lead = space.column(system.table)  # the axes from x on
    for x in points[:-1]:  # the last point has no z after it
        trail = lead  # the axes x..z
        for z in reversed(points[x + 1:]):
            # the axes z, x, x+1, ..., z-1, then all but the first two out
            marginal = space.concat(trail[b::n] for b in range(n))
            for _ in range(z - x - 1):
                marginal = drop_last(marginal)
            to_z = to_x = lat.top
            for code, u in enumerate(marginal):
                b, a = divmod(code, n)
                to_z = meet[to_z][res[u][res[a][b]]]
                to_x = meet[to_x][res[u][res[b][a]]]
            rows[x][z], rows[z][x] = to_z, to_x
            trail = drop_last(trail)
        lead = space.reduce([lead[k:k + len(lead) // n]
                             for k in range(0, len(lead), len(lead) // n)],
                            join)
    return FuzzyRelation(lat, universe, tuple(map(tuple, rows)))

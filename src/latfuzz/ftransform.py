"""Direct upper transform: block-indexed components and the induced
pointwise operator.

The component of block j is the join over the universe of block(x) tensor
f(x).  The field sends each point to the component of its own block, which
on identity-indexed partitions is precisely the operator on L^X used by the
coalgebra and dialgebra constructions, whose laws `transform_law_suite`
checks by one-point joins.
"""

from __future__ import annotations

from .errors import MismatchError
from .fuzzyset import FuzzySet, Space
from .lattice import DEFAULT_BUDGET, LawReport
from .partition import FuzzyPartition, relation_from_partition
from .relation import upper_approx


def _require_on(p: FuzzyPartition, f: FuzzySet) -> None:
    if f.universe != p.universe:
        raise MismatchError(
            f"transform: set on {f.universe.name}, partition on {p.universe.name}"
        )
    if f.lattice is not p.lattice:
        raise MismatchError("transform: lattice mismatch")


def ft_transform(p: FuzzyPartition, f: FuzzySet) -> tuple[int, ...]:
    """The components of f, one per block, aligned with `p.names`."""
    _require_on(p, f)
    lat = p.lattice
    return tuple(
        lat.join_all(lat.tensor[a][v] for a, v in zip(block.values, f.values))
        for block in p.blocks
    )


def ft_field(p: FuzzyPartition, f: FuzzySet) -> FuzzySet:
    """x maps to the component of x's own block."""
    comps = ft_transform(p, f)
    return FuzzySet(
        p.lattice, p.universe, tuple(comps[p.xi[i]] for i in range(len(p.universe)))
    )


def transform_law_suite(p: FuzzyPartition,
                        budget: int = DEFAULT_BUDGET) -> LawReport:
    """Exhaustive sweep of the component laws over the whole function space:
    constants are fixed, components are monotone, tensor by a constant
    scales through, binary joins are preserved, binary meets only shrink.
    Two structural cross-checks ride along: the field dominates its argument
    and agrees with the upper approximation along the induced relation.

    Every clause is a theorem for any partition on a lattice that
    `from_tables` accepts, so the suite checks the implementation, not the
    partition: a false clause means the lattice tables or this code are
    wrong.

    No clause visits pairs.  Every g >= f is reached from f by one-point
    joins f v e(x, a), e(x, a) being a at x and bottom elsewhere, and every
    set is a join of these.  So the components C are monotone iff
    C(f) <= C(f v e(x, a)), and preserve binary joins iff
    C(f v e(x, a)) = C(f) v C(e(x, a)), for all f, x and a; meets only
    shrink iff C is monotone, as f <= g gives f ^ g = f.
    """
    lat = p.lattice
    space = Space(lat, p.universe, budget, "transform law suite")
    dim, bottom = len(p.universe), lat.bottom
    columns = [space.upper(block.values) for block in p.blocks]
    leq, join, d = lat.leq, lat.join, lat.displays
    found: dict = {}
    fail = found.setdefault  # a clause keeps its first counterexample

    def show(*indices):
        return ", ".join(str(tuple(d[v] for v in space.values_at(i)))
                         for i in indices)

    def first_miss(moved, rows):
        """The first i where some column[moved[i]] != row[column[i]]."""
        return min((next(i for i, (j, v) in enumerate(zip(moved, column))
                         if column[j] != row[v])
                    for column, row in zip(columns, rows)
                    if [column[j] for j in moved] != [row[v] for v in column]),
                   default=None)

    for a in lat.elements():
        i = space.index((a,) * dim)
        got = [column[i] for column in columns]
        if any(v != a for v in got):
            fail("constant",
                 f"constant {d[a]} transforms to {[d[v] for v in got]}")

    for x in range(dim):
        for a in lat.elements():
            joined = space.image_index([join[a if y == x else bottom]
                                        for y in range(dim)])
            e = joined[space.index((bottom,) * dim)]  # e(x, a)
            i = first_miss(joined, [join[column[e]] for column in columns])
            if i is None:
                continue
            fail("join_preserving", f"pair ({show(*sorted((i, e)))})")
            for f, g in enumerate(joined):
                if any(not leq[c[f]][c[g]] for c in columns):
                    fail("monotone", f"{show(f)} <= {show(g)} "
                                     f"but components drop")
                    fail("meet_subhomomorphism",
                         f"pair ({show(*sorted((f, g)))})")
                    break

    for a in lat.elements():
        i = first_miss(space.image_index([lat.tensor[a]] * dim),
                       [lat.tensor[a]] * len(columns))
        if i is not None:
            fail("tensor_scaling", f"constant {d[a]} with {show(i)}")

    # the field against the per-set `upper_approx` along the induced
    # relation: two code paths for one function, so only a defect fails it
    field = [columns[b] for b in p.xi]
    rel = relation_from_partition(p)
    for i, f in enumerate(space.values()):
        fld = tuple(column[i] for column in field)
        if any(not leq[a][b] for a, b in zip(f, fld)):
            fail("inflationary", f"{show(i)} not below its field")
        if upper_approx(rel, FuzzySet(lat, p.universe, f)).values != fld:
            fail("field_equals_upper_approx",
                 f"field of {show(i)} differs from the approximation")

    # the clauses share sweeps, so their counterexamples go in clause order
    clauses = ("constant", "monotone", "tensor_scaling", "join_preserving",
               "meet_subhomomorphism", "inflationary",
               "field_equals_upper_approx")
    return LawReport(p.universe.name, clauses,
                     {k: found[k] for k in clauses if k in found})

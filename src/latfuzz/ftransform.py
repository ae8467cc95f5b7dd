"""Direct upper transform: block-indexed components and the induced
pointwise operator.

The component of block j is the join over the universe of block(x) tensor
f(x).  The field sends each point to the component of its own block, which
on identity-indexed partitions is precisely the operator on L^X used by the
coalgebra and dialgebra constructions.
"""

from __future__ import annotations

from .errors import MismatchError
from .fuzzyset import FuzzySet, Space, Universe
from .lattice import DEFAULT_BUDGET, LawReport, _masks
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

    A law that pairs f with a constant or with every g reads the index of
    the combined set from one `Space.image_index` column, so each pair costs
    one comparison.  The components of set i are read two ways: `image[i]`
    is their index in the space of block values, compared for equality, and
    `down[i]` holds the down-set of block b's component in bits b*n to
    b*n+n-1, so components compare blockwise by `down[i] & ~down[j]` and the
    down-set of a meet is the intersection.
    """
    lat = p.lattice
    space = Space(lat, p.universe, budget, "transform law suite")
    blocks = Space(lat, Universe(p.universe.name, p.names))
    dim = len(p.universe)
    comps = list(zip(*(space.upper(block.values) for block in p.blocks)))
    image = [blocks.index(c) for c in comps]
    down_of = _masks(lat.leq)[0]
    down = [sum(down_of[c] << (b * len(lat)) for b, c in enumerate(cs))
            for cs in comps]
    leq, d = lat.leq, lat.displays

    def show(values):
        return tuple(d[v] for v in values)

    def constants():
        for a in lat.elements():
            got = comps[space.index((a,) * dim)]
            if any(v != a for v in got):
                yield f"constant {d[a]} transforms to {[d[v] for v in got]}"

    def monotone():
        above = [[b for b in lat.elements() if leq[a][b]]
                 for a in lat.elements()]
        for i, f in enumerate(space.values()):
            for j in space.image_index([above[v] for v in f]):
                if down[i] & ~down[j]:
                    yield (f"{show(f)} <= {show(space.values_at(j))} "
                           f"but components drop")

    def tensor_scaling():
        for a in lat.elements():
            scaled = space.image_index([lat.tensor[a]] * dim)
            block_scaled = blocks.image_index([lat.tensor[a]] * len(p.names))
            for i, f in enumerate(space.values()):
                if image[scaled[i]] != block_scaled[image[i]]:
                    yield f"constant {d[a]} with {show(f)}"

    def join_preserving():
        for i, f in enumerate(space.values()):
            joined = space.image_index([lat.join[v] for v in f])
            block_joined = blocks.image_index([lat.join[c] for c in comps[i]])
            for j in range(i, space.size):
                if image[joined[j]] != block_joined[image[j]]:
                    yield f"pair ({show(f)}, {show(space.values_at(j))})"

    def meet_bound():
        for i, f in enumerate(space.values()):
            met = space.image_index([lat.meet[v] for v in f])
            for j in range(i, space.size):
                if down[met[j]] & ~(down[i] & down[j]):
                    yield f"pair ({show(f)}, {show(space.values_at(j))})"

    def inflationary():
        for i, f in enumerate(space.values()):
            fld = tuple(comps[i][p.xi[k]] for k in range(dim))
            if any(not leq[a][b] for a, b in zip(f, fld)):
                yield f"{show(f)} not below its field"

    def field_matches_relation():
        """The field computed from the component columns against the
        per-set `upper_approx` along the induced relation: two code paths
        for one function, so no lattice can make this clause fail, only a
        defect in one of the paths."""
        rel = relation_from_partition(p)
        for i, f in enumerate(space.values()):
            fld = tuple(comps[i][p.xi[k]] for k in range(dim))
            if upper_approx(rel, FuzzySet(lat, p.universe, f)).values != fld:
                yield f"field of {show(f)} differs from the approximation"

    # each clause yields its counterexamples; only the first is drawn
    first = {
        "constant": next(constants(), None),
        "monotone": next(monotone(), None),
        "tensor_scaling": next(tensor_scaling(), None),
        "join_preserving": next(join_preserving(), None),
        "meet_subhomomorphism": next(meet_bound(), None),
        "inflationary": next(inflationary(), None),
        "field_equals_upper_approx": next(field_matches_relation(), None),
    }
    return LawReport(p.universe.name, tuple(first),
                     {k: text for k, text in first.items() if text is not None})

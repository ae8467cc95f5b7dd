"""Direct upper transform: block-indexed components and the induced
pointwise operator.

The component of block j is the join over the universe of block(x) tensor
f(x).  The field sends each point to the component of its own block, which
on identity-indexed partitions is precisely the operator on L^X used by the
coalgebra and dialgebra constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import MismatchError
from .fuzzyset import FuzzySet, Space, constant, ensure_budget
from .lattice import DEFAULT_BUDGET, LawClause
from .partition import FuzzyPartition, relation_from_partition


@dataclass(frozen=True)
class FTransformResult:
    partition: FuzzyPartition
    components: tuple[int, ...]  # aligned with partition.names

    def component(self, name: str) -> int:
        return self.components[self.partition.block_index(name)]

    def display_map(self) -> dict:
        lat = self.partition.lattice
        return {
            name: lat.displays[v]
            for name, v in zip(self.partition.names, self.components)
        }


def _require_on(p: FuzzyPartition, f: FuzzySet) -> None:
    if f.universe != p.universe:
        raise MismatchError(
            f"transform: set on {f.universe.name}, partition on {p.universe.name}"
        )
    if f.lattice is not p.lattice:
        raise MismatchError("transform: lattice mismatch")


def ft_component(p: FuzzyPartition, f: FuzzySet, name: str) -> int:
    _require_on(p, f)
    block = p.block(name)
    lat = p.lattice
    acc = lat.bottom
    for a, v in zip(block.values, f.values):
        acc = lat.join[acc][lat.tensor[a][v]]
    return acc


def ft_transform(p: FuzzyPartition, f: FuzzySet) -> FTransformResult:
    _require_on(p, f)
    return FTransformResult(
        p, tuple(ft_component(p, f, name) for name in p.names)
    )


def ft_field(p: FuzzyPartition, f: FuzzySet) -> FuzzySet:
    """x maps to the component of x's own block."""
    comps = ft_transform(p, f).components
    return FuzzySet(
        p.lattice, p.universe, tuple(comps[p.xi[i]] for i in range(len(p.universe)))
    )


@dataclass(frozen=True)
class TransformLawReport:
    partition_universe: str
    laws: dict

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.laws.values())

    def to_dict(self) -> dict:
        return {
            "universe": self.partition_universe,
            "laws": {
                key: {"passed": c.passed, "counterexample": c.counterexample}
                for key, c in self.laws.items()
            },
            "all_pass": self.all_pass,
        }


def transform_law_suite(p: FuzzyPartition,
                        budget: int = DEFAULT_BUDGET) -> TransformLawReport:
    """Exhaustive sweep of the component laws over the whole function space:
    constants are fixed, components are monotone, tensor by a constant
    scales through, binary joins are preserved, binary meets only shrink.
    Two structural cross-checks ride along: the field dominates its argument
    and agrees with the upper approximation along the induced relation.
    """
    lat = p.lattice
    size = ensure_budget(lat, p.universe, budget, "transform law suite")
    space = Space(lat, p.universe)
    sets = list(space.values())
    comps = list(zip(*(space.upper(block.values) for block in p.blocks)))
    index_of = {f: i for i, f in enumerate(sets)}
    d = lat.displays

    def show(values):
        return tuple(d[v] for v in values)

    laws: dict[str, LawClause] = {}

    def run(key, gen):
        for failure in gen:
            laws[key] = LawClause(False, failure)
            return
        laws[key] = LawClause(True, None)

    def constants():
        for a in lat.elements():
            got = comps[index_of[constant(lat, p.universe, a).values]]
            if any(v != a for v in got):
                yield f"constant {d[a]} transforms to {[d[v] for v in got]}"

    def monotone():
        # The sets above f, in enumeration order, are the product of the
        # up-sets of its values; every other g fails f <= g and is skipped.
        above = [tuple(b for b in lat.elements() if lat.leq[a][b])
                 for a in lat.elements()]
        for i, f in enumerate(sets):
            for gv in product(*(above[v] for v in f)):
                j = index_of[gv]
                if any(not lat.leq[x][y] for x, y in zip(comps[i], comps[j])):
                    yield (f"{show(f)} <= {show(sets[j])} "
                           f"but components drop")
                    return

    def tensor_scaling():
        for a in lat.elements():
            for i, f in enumerate(sets):
                scaled = tuple(lat.tensor[a][v] for v in f)
                got = comps[index_of[scaled]]
                want = tuple(lat.tensor[a][v] for v in comps[i])
                if got != want:
                    yield f"constant {d[a]} with {show(f)}"
                    return

    def join_preserving():
        for i, f in enumerate(sets):
            for j in range(i, size):
                joined = tuple(lat.join[a][b]
                               for a, b in zip(f, sets[j]))
                got = comps[index_of[joined]]
                want = tuple(lat.join[a][b] for a, b in zip(comps[i], comps[j]))
                if got != want:
                    yield f"pair ({show(f)}, {show(sets[j])})"
                    return

    def meet_bound():
        for i, f in enumerate(sets):
            for j in range(i, size):
                met = tuple(lat.meet[a][b]
                            for a, b in zip(f, sets[j]))
                got = comps[index_of[met]]
                want = tuple(lat.meet[a][b] for a, b in zip(comps[i], comps[j]))
                if any(not lat.leq[x][y] for x, y in zip(got, want)):
                    yield f"pair ({show(f)}, {show(sets[j])})"
                    return

    def inflationary():
        for i, f in enumerate(sets):
            fld = tuple(comps[i][p.xi[k]] for k in range(len(p.universe)))
            if any(not lat.leq[a][b] for a, b in zip(f, fld)):
                yield f"{show(f)} not below its field"
                return

    def field_matches_relation():
        from .relation import upper_approx

        rel = relation_from_partition(p)
        for i, f in enumerate(sets):
            fld = tuple(comps[i][p.xi[k]] for k in range(len(p.universe)))
            if upper_approx(rel, FuzzySet(lat, p.universe, f)).values != fld:
                yield f"field of {show(f)} differs from the approximation"
                return

    run("constant", constants())
    run("monotone", monotone())
    run("tensor_scaling", tensor_scaling())
    run("join_preserving", join_preserving())
    run("meet_subhomomorphism", meet_bound())
    run("inflationary", inflationary())
    run("field_equals_upper_approx", field_matches_relation())
    return TransformLawReport(p.universe.name, laws)

"""Per-set reference formulas and fixture builders for the tests.

The package sweeps `L^X` only through `fuzzyset.Space`, whole columns at a
time.  The functions here are the set-by-set forms the differential tests
compare those sweeps against (images along a map, one transform component,
the index of one set, a budget-guarded sweep of every set, the budget rule
itself), lookups of one set in a system or operator table, of one block of
a partition and of one entry of a relation, the pointwise order, cores and
reflexivity, plus builders for hand-made operators and relations.  None of
them is package API.
"""

from latfuzz.closure import ClosureOperator
from latfuzz.errors import BudgetExceeded, MismatchError, PartitionError, quote
from latfuzz.ftransform import _require_on
from latfuzz.fuzzyset import FuzzySet, Space, Universe, UniverseMap
from latfuzz.lattice import DEFAULT_BUDGET, Lattice
from latfuzz.partition import FuzzyPartition
from latfuzz.relation import FuzzyRelation


def ensure_budget(lat: Lattice, universe: Universe, budget: int,
                  what: str = "enumeration of the function space") -> int:
    """The budget rule, stated apart from the package's `Space`."""
    size = len(lat) ** len(universe)
    if size > budget:
        raise BudgetExceeded(size, budget, what)
    return size


def forward_image(phi: UniverseMap, f: FuzzySet) -> FuzzySet:
    """Join over each fiber; empty fibers land on bottom."""
    if f.universe != phi.source:
        raise MismatchError(
            f"forward image: set on {f.universe.name}, map from {phi.source.name}"
        )
    lat = f.lattice
    vals = [lat.bottom] * len(phi.target)
    for i, v in enumerate(f.values):
        t = phi.mapping[i]
        vals[t] = lat.join[vals[t]][v]
    return FuzzySet(lat, phi.target, tuple(vals))


def backward_image(phi: UniverseMap, g: FuzzySet) -> FuzzySet:
    if g.universe != phi.target:
        raise MismatchError(
            f"backward image: set on {g.universe.name}, map into {phi.target.name}"
        )
    return FuzzySet(
        g.lattice, phi.source, tuple(g.values[t] for t in phi.mapping)
    )


def set_index(f: FuzzySet) -> int:
    """Position of f in the lexicographic enumeration (mixed radix)."""
    return Space(f.lattice, f.universe).index(f.values)


def system_value(system, f: FuzzySet) -> int:
    """The membership degree of f in a closure system."""
    return system.table[set_index(f)]


def apply_operator(op: ClosureOperator, f: FuzzySet) -> FuzzySet:
    """The closure of f under an extensional operator."""
    return FuzzySet(op.lattice, op.universe, op.table[set_index(f)])


def le(f: FuzzySet, g: FuzzySet) -> bool:
    """f <= g pointwise."""
    return all(f.lattice.leq[a][b] for a, b in zip(f.values, g.values))


def core(f: FuzzySet) -> tuple[str, ...]:
    """The labels of the points where f is top."""
    return tuple(e for e, v in zip(f.universe.elements, f.values)
                 if v == f.lattice.top)


def block(p: FuzzyPartition, name: str) -> FuzzySet:
    """The block of a partition that `name` names."""
    try:
        return p.blocks[p.names.index(name)]
    except ValueError:
        raise PartitionError(f"unknown block {quote(name)}") from None


def relation_value(rel: FuzzyRelation, x_label: str, y_label: str) -> int:
    """The degree to which `x_label` relates to `y_label`."""
    return rel.rows[rel.universe.index(x_label)][rel.universe.index(y_label)]


def is_reflexive(rel: FuzzyRelation) -> bool:
    return all(row[i] == rel.lattice.top for i, row in enumerate(rel.rows))


def enumerate_sets(lat: Lattice, universe: Universe,
                   budget: int = DEFAULT_BUDGET):
    """Deterministic lexicographic sweep of every fuzzy set on the universe."""
    ensure_budget(lat, universe, budget)
    for values in Space(lat, universe).values():
        yield FuzzySet(lat, universe, values)


def ft_component(p: FuzzyPartition, f: FuzzySet, name: str) -> int:
    _require_on(p, f)
    lat = p.lattice
    acc = lat.bottom
    for a, v in zip(block(p, name).values, f.values):
        acc = lat.join[acc][lat.tensor[a][v]]
    return acc


def operator_from_function(lat: Lattice, universe: Universe, fn,
                           budget: int = DEFAULT_BUDGET,
                           provenance: str = "explicit") -> ClosureOperator:
    """Tabulate an arbitrary L^X -> L^X function (mostly for tests and
    hand-made fixtures)."""
    ensure_budget(lat, universe, budget, "operator tabulation")
    table = [tuple(fn(FuzzySet(lat, universe, values)).values)
             for values in Space(lat, universe).values()]
    return ClosureOperator(lat, universe, tuple(table), provenance)


def identity_operator(lat: Lattice, universe: Universe,
                      budget: int = DEFAULT_BUDGET) -> ClosureOperator:
    return operator_from_function(lat, universe, lambda f: f, budget, "identity")


def identity_relation(lat: Lattice, universe: Universe) -> FuzzyRelation:
    n = len(universe)
    return FuzzyRelation(lat, universe, tuple(
        tuple(lat.top if i == j else lat.bottom for j in range(n))
        for i in range(n)
    ))


def constant_relation(lat: Lattice, universe: Universe, a: int) -> FuzzyRelation:
    lat.check_element(a)
    n = len(universe)
    return FuzzyRelation(lat, universe, ((a,) * n,) * n)

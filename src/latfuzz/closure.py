"""Closure systems and closure operators over an enumerated function space,
with the four cross-constructions between partitions, relations, systems and
operators.

Both structures are stored extensionally: a system is one lattice value per
enumerated fuzzy set, an operator one fuzzy set per enumerated fuzzy set.
Every construction here quantifies over the whole space, so the extensional
table is also the cheapest representation to check laws against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MismatchError
from .fuzzyset import (
    FuzzySet,
    Space,
    Universe,
    constant,
    ensure_budget,
    set_at,
    set_index,
)
from .lattice import DEFAULT_BUDGET, Lattice
from .partition import FuzzyPartition
from .relation import FuzzyRelation, relation_from_system


@dataclass
class ClosureSystem:
    """Degree-valued membership of each fuzzy set in the closed family."""

    lattice: Lattice
    universe: Universe
    table: tuple[int, ...]
    provenance: str
    _check: "SystemCheck | None" = field(default=None, repr=False, compare=False)

    def value_at(self, index: int) -> int:
        return self.table[index]

    def value(self, f: FuzzySet) -> int:
        if f.universe != self.universe or f.lattice is not self.lattice:
            raise MismatchError("closure system applied to a foreign fuzzy set")
        return self.table[set_index(f)]

    def entries(self):
        for i, v in enumerate(self.table):
            yield set_at(self.lattice, self.universe, i), v


@dataclass
class ClosureOperator:
    """Extensional map sending each fuzzy set to its closure."""

    lattice: Lattice
    universe: Universe
    table: tuple[tuple[int, ...], ...]  # value tuple per enumeration index
    provenance: str
    _check: "OperatorCheck | None" = field(default=None, repr=False, compare=False)

    def apply(self, f: FuzzySet) -> FuzzySet:
        if f.universe != self.universe or f.lattice is not self.lattice:
            raise MismatchError("closure operator applied to a foreign fuzzy set")
        return FuzzySet(self.lattice, self.universe, self.table[set_index(f)])


# ---------------------------------------------------------------------------
# constructions

def _meet_residua(space: Space, columns) -> tuple[int, ...]:
    """Membership degree of every f: the meet over x of column_x(f) -> f(x),
    where `columns` yields the (x, column) pairs, each column over the whole
    space in enumeration order."""
    lat = space.lattice
    res, meet = lat.residuum, lat.meet
    table = [lat.top] * space.size
    for x, column in columns:
        table = [meet[t][r[b]] for t, r, b in
                 zip(table, map(res.__getitem__, column), space.digits(x))]
    return tuple(table)


def system_from_partition(p: FuzzyPartition,
                          budget: int = DEFAULT_BUDGET) -> ClosureSystem:
    """Membership degree of f: meet over x of (field(f)(x) -> f(x))."""
    lat = p.lattice
    ensure_budget(lat, p.universe, budget, "closure system construction")
    space = Space(lat, p.universe)

    def field_columns():
        for j, block in enumerate(p.blocks):
            component = space.upper(block.values)
            for x, own in enumerate(p.xi):
                if own == j:
                    yield x, component

    return ClosureSystem(lat, p.universe, _meet_residua(space, field_columns()),
                         "from_partition")


def system_from_relation(rel: FuzzyRelation,
                         budget: int = DEFAULT_BUDGET) -> ClosureSystem:
    lat = rel.lattice
    ensure_budget(lat, rel.universe, budget, "closure system construction")
    space = Space(lat, rel.universe)
    approx = ((x, space.upper(row)) for x, row in enumerate(rel.rows))
    return ClosureSystem(lat, rel.universe, _meet_residua(space, approx),
                         "from_relation")


def system_from_explicit(lat: Lattice, universe: Universe, table,
                         budget: int = DEFAULT_BUDGET) -> ClosureSystem:
    size = ensure_budget(lat, universe, budget, "closure system table")
    table = tuple(table)
    if len(table) != size:
        raise MismatchError(
            f"explicit closure system: expected {size} entries, got {len(table)}"
        )
    for v in table:
        lat.check_element(v)
    return ClosureSystem(lat, universe, table, "explicit")


def operator_from_system(system: ClosureSystem,
                         budget: int = DEFAULT_BUDGET) -> ClosureOperator:
    """Close each f against every member g, weighted by membership and by
    how far f sits below g: closed(x) is the meet over g of
    premise(f, g) -> g(x), where premise(f, g) is membership(g) tensor the
    inclusion degree of f in g.

    A g whose premise is bottom contributes bottom -> g(x), which is top on
    every residuated lattice and so leaves the meet unchanged; such g are
    skipped.  A bottom membership always gives a bottom premise, and so does
    a bottom inclusion degree, so the inclusion meet stops there.
    """
    lat = system.lattice
    uni = system.universe
    size = ensure_budget(lat, uni, budget, "closure operator construction")
    res, tensor, meet = lat.residuum, lat.tensor, lat.meet
    bottom, top = lat.bottom, lat.top
    points = range(len(uni))
    all_sets = list(Space(lat, uni).values())
    members = [(tensor[m], g) for m, g in zip(system.table, all_sets)
               if m != bottom]
    table = []
    for f in all_sets:
        res_f = [res[v] for v in f]
        weighted = []
        for scale, g in members:
            inclusion = top
            for row, v in zip(res_f, g):
                inclusion = meet[inclusion][row[v]]
                if inclusion == bottom:
                    break
            premise = scale[inclusion]
            if premise != bottom:
                weighted.append((res[premise], g))
        closed = []
        for x in points:
            acc = top
            for row, g in weighted:
                acc = meet[acc][row[g[x]]]
            closed.append(acc)
        table.append(tuple(closed))
    return ClosureOperator(lat, uni, tuple(table), "from_system")


def system_from_operator(op: ClosureOperator,
                         budget: int = DEFAULT_BUDGET) -> ClosureSystem:
    lat = op.lattice
    ensure_budget(lat, op.universe, budget, "closure system construction")
    space = Space(lat, op.universe)
    closed = ((x, [c[x] for c in op.table]) for x in range(len(op.universe)))
    return ClosureSystem(lat, op.universe, _meet_residua(space, closed),
                         "from_operator")


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


# ---------------------------------------------------------------------------
# axiom checkers

@dataclass(frozen=True)
class SystemCheck:
    axiom_i: bool
    axiom_ii: bool
    enriched: bool
    strong: bool
    counterexamples: dict

    @property
    def all_ok(self) -> bool:
        return self.axiom_i and self.axiom_ii and self.enriched and self.strong

    def to_dict(self) -> dict:
        return {
            "axiom_i": self.axiom_i,
            "axiom_ii": self.axiom_ii,
            "enriched": self.enriched,
            "strong": self.strong,
            "counterexamples": dict(self.counterexamples),
            "all_ok": self.all_ok,
        }


def check_system(system: ClosureSystem,
                 budget: int = DEFAULT_BUDGET) -> SystemCheck:
    """Full-table check: top membership, meet-superadditivity over all pairs
    (pairwise suffices for finite families; the empty meet is the top-set
    axiom), and stability under residuation/tensor with constants.

    Results are cached on the system after the first run; the budget is
    enforced on every call, cached or not.
    """
    lat = system.lattice
    uni = system.universe
    size = ensure_budget(lat, uni, budget, "closure system check")
    if system._check is not None:
        return system._check
    meet = lat.meet
    counter: dict = {}

    top_index = set_index(constant(lat, uni, lat.top))
    axiom_i = system.table[top_index] == lat.top
    if not axiom_i:
        counter["axiom_i"] = (
            f"membership of the constant-top set is "
            f"{lat.displays[system.table[top_index]]}"
        )

    space = Space(lat, uni)
    index = space.index
    all_vals = list(space.values())
    axiom_ii = True
    for i in range(size):
        if not axiom_ii:
            break
        fi = all_vals[i]
        ui = system.table[i]
        for j in range(i, size):
            mv = tuple(meet[a][b] for a, b in zip(fi, all_vals[j]))
            if not lat.leq[meet[ui][system.table[j]]][
                system.table[index(mv)]
            ]:
                axiom_ii = False
                counter["axiom_ii"] = (
                    f"pair ({_show(lat, fi)}, {_show(lat, all_vals[j])})"
                )
                break

    enriched = True
    strong = True
    res, tensor = lat.residuum, lat.tensor
    for a in lat.elements():
        for i in range(size):
            fi = all_vals[i]
            ui = system.table[i]
            ri = index(tuple(res[a][v] for v in fi))
            if enriched and not lat.leq[ui][system.table[ri]]:
                enriched = False
                counter["enriched"] = (
                    f"constant {lat.displays[a]} with {_show(lat, fi)}"
                )
            ti = index(tuple(tensor[a][v] for v in fi))
            if strong and not lat.leq[ui][system.table[ti]]:
                strong = False
                counter["strong"] = (
                    f"constant {lat.displays[a]} with {_show(lat, fi)}"
                )
        if not enriched and not strong:
            break

    report = SystemCheck(axiom_i, axiom_ii, enriched, strong, counter)
    system._check = report
    return report


def _show(lat: Lattice, values) -> str:
    return "(" + ",".join(lat.displays[v] for v in values) + ")"


@dataclass(frozen=True)
class OperatorCheck:
    axiom_i: bool
    axiom_ii: bool
    axiom_iii: bool
    axiom_iv: bool
    strong: bool
    counterexamples: dict

    @property
    def all_ok(self) -> bool:
        return (self.axiom_i and self.axiom_ii and self.axiom_iii
                and self.axiom_iv and self.strong)

    def to_dict(self) -> dict:
        return {
            "axiom_i": self.axiom_i,
            "axiom_ii": self.axiom_ii,
            "axiom_iii": self.axiom_iii,
            "axiom_iv": self.axiom_iv,
            "strong": self.strong,
            "counterexamples": dict(self.counterexamples),
            "all_ok": self.all_ok,
        }


def check_operator(op: ClosureOperator,
                   budget: int = DEFAULT_BUDGET) -> OperatorCheck:
    """Fix the top set, inflate, preserve binary joins, idempotence (by
    composing the table with itself), plus tensor-stability with constants.

    Results are cached on the operator after the first run; the budget is
    enforced on every call, cached or not."""
    lat = op.lattice
    uni = op.universe
    size = ensure_budget(lat, uni, budget, "closure operator check")
    if op._check is not None:
        return op._check
    counter: dict = {}
    space = Space(lat, uni)
    index = space.index
    all_vals = list(space.values())

    top_index = index((lat.top,) * len(uni))
    axiom_i = op.table[top_index] == (lat.top,) * len(uni)
    if not axiom_i:
        counter["axiom_i"] = f"image of top is {_show(lat, op.table[top_index])}"

    axiom_ii = True
    for i in range(size):
        if all(lat.leq[a][b] for a, b in zip(all_vals[i], op.table[i])):
            continue
        axiom_ii = False
        counter["axiom_ii"] = f"{_show(lat, all_vals[i])} not below its closure"
        break

    join = lat.join
    axiom_iii = True
    for i in range(size):
        if not axiom_iii:
            break
        for j in range(i, size):
            jv = tuple(join[a][b] for a, b in zip(all_vals[i], all_vals[j]))
            lhs = op.table[index(jv)]
            rhs = tuple(join[a][b] for a, b in zip(op.table[i], op.table[j]))
            if lhs != rhs:
                axiom_iii = False
                counter["axiom_iii"] = (
                    f"pair ({_show(lat, all_vals[i])}, {_show(lat, all_vals[j])})"
                )
                break

    axiom_iv = True
    for i in range(size):
        ci = op.table[i]
        if op.table[index(ci)] != ci:
            axiom_iv = False
            counter["axiom_iv"] = f"closure of {_show(lat, all_vals[i])} not fixed"
            break

    strong = True
    tensor = lat.tensor
    for a in lat.elements():
        if not strong:
            break
        for i in range(size):
            scaled = tuple(tensor[a][v] for v in all_vals[i])
            lhs = op.table[index(scaled)]
            rhs = tuple(tensor[a][v] for v in op.table[i])
            if not all(lat.leq[x][y] for x, y in zip(rhs, lhs)):
                strong = False
                counter["strong"] = (
                    f"constant {lat.displays[a]} with {_show(lat, all_vals[i])}"
                )
                break

    report = OperatorCheck(axiom_i, axiom_ii, axiom_iii, axiom_iv, strong, counter)
    op._check = report
    return report


# ---------------------------------------------------------------------------
# round-trip reports (informational: differences are recorded, never asserted)

@dataclass(frozen=True)
class RoundTripReport:
    kind: str
    total: int
    mismatches: tuple[dict, ...]

    @property
    def exact(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "total": self.total,
            "exact": self.exact,
            "mismatches": [dict(m) for m in self.mismatches],
        }


def roundtrip_relation(rel: FuzzyRelation,
                       budget: int = DEFAULT_BUDGET) -> RoundTripReport:
    """relation -> system -> relation, reporting every differing entry."""
    back = relation_from_system(system_from_relation(rel, budget), budget)
    lat = rel.lattice
    labels = rel.universe.elements
    mismatches = []
    for x in range(len(labels)):
        for z in range(len(labels)):
            if rel.rows[x][z] != back.rows[x][z]:
                mismatches.append({
                    "at": [labels[x], labels[z]],
                    "original": lat.displays[rel.rows[x][z]],
                    "mapped_back": lat.displays[back.rows[x][z]],
                })
    return RoundTripReport("relation-system", len(labels) ** 2, tuple(mismatches))


def roundtrip_system(system: ClosureSystem,
                     budget: int = DEFAULT_BUDGET) -> RoundTripReport:
    """system -> operator -> system, reporting every differing entry."""
    back = system_from_operator(operator_from_system(system, budget), budget)
    d = system.lattice.displays
    mismatches = []
    for values, orig, mapped in zip(Space(system.lattice, system.universe)
                                    .values(), system.table, back.table):
        if orig != mapped:
            mismatches.append({
                "at": [d[v] for v in values],
                "original": d[orig],
                "mapped_back": d[mapped],
            })
    return RoundTripReport("system-operator", len(system.table), tuple(mismatches))

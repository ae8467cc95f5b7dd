"""Closure systems and closure operators over an enumerated function space,
with the four cross-constructions between partitions, relations, systems and
operators.

Both structures are stored extensionally: a system is one lattice value per
enumerated fuzzy set, an operator one fuzzy set per enumerated fuzzy set.
Every construction here quantifies over the whole space, so the extensional
table is also the cheapest representation to check laws against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchError
from .fuzzyset import FuzzySet, Space, Universe, ensure_budget
from .lattice import DEFAULT_BUDGET, Lattice
from .partition import FuzzyPartition
from .relation import FuzzyRelation, relation_from_system


@dataclass(frozen=True)
class ClosureSystem:
    """Degree-valued membership of each fuzzy set in the closed family."""

    lattice: Lattice
    universe: Universe
    table: tuple[int, ...]
    provenance: str

    def value(self, f: FuzzySet) -> int:
        if f.universe != self.universe or f.lattice is not self.lattice:
            raise MismatchError("closure system applied to a foreign fuzzy set")
        return self.table[Space(self.lattice, self.universe).index(f.values)]


@dataclass(frozen=True)
class ClosureOperator:
    """Extensional map sending each fuzzy set to its closure."""

    lattice: Lattice
    universe: Universe
    table: tuple[tuple[int, ...], ...]  # value tuple per enumeration index
    provenance: str

    def apply(self, f: FuzzySet) -> FuzzySet:
        if f.universe != self.universe or f.lattice is not self.lattice:
            raise MismatchError("closure operator applied to a foreign fuzzy set")
        index = Space(self.lattice, self.universe).index(f.values)
        return FuzzySet(self.lattice, self.universe, self.table[index])


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
    # one C-level pass; the walk only names the first bad element
    if not ({*map(type, table)} <= {int} and {*table} <= set(lat.elements())):
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


# ---------------------------------------------------------------------------
# axiom checkers
#
# Each pair law is swept one set f at a time: `Space.image_index` gives the
# index of f op g for every g in one fold, so a pair costs one comparison.
# The pairs run (f, g) with g from f on in enumeration order, and each check
# stops at its first counterexample.

@dataclass(frozen=True)
class AxiomCheck:
    """An axiom holds exactly when it has no counterexample."""

    axioms: tuple[str, ...]
    counterexamples: dict

    def holds(self, axiom: str) -> bool:
        return axiom not in self.counterexamples

    @property
    def all_ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        out: dict = {axiom: self.holds(axiom) for axiom in self.axioms}
        out["counterexamples"] = dict(self.counterexamples)
        out["all_ok"] = self.all_ok
        return out


def check_system(system: ClosureSystem,
                 budget: int = DEFAULT_BUDGET) -> AxiomCheck:
    """Full-table check: top membership, meet-superadditivity over all pairs
    (pairwise suffices for finite families; the empty meet is the top-set
    axiom), and stability under residuation/tensor with constants.
    """
    lat = system.lattice
    uni = system.universe
    size = ensure_budget(lat, uni, budget, "closure system check")
    leq, meet = lat.leq, lat.meet
    table = system.table
    space = Space(lat, uni)
    all_vals = list(space.values())
    counter: dict = {}

    top = table[space.index((lat.top,) * len(uni))]
    if top != lat.top:
        counter["axiom_i"] = (
            f"membership of the constant-top set is {lat.displays[top]}"
        )

    for i, f in enumerate(all_vals):
        met = space.image_index([meet[v] for v in f])
        low = meet[table[i]]
        j = next((j for j in range(i, size)
                  if not leq[low[table[j]]][table[met[j]]]), None)
        if j is not None:
            counter["axiom_ii"] = (
                f"pair ({_show(lat, f)}, {_show(lat, all_vals[j])})"
            )
            break

    for a in lat.elements():
        columns = {"enriched": space.image_index([lat.residuum[a]] * len(uni)),
                   "strong": space.image_index([lat.tensor[a]] * len(uni))}
        for i, f in enumerate(all_vals):
            for key, column in columns.items():
                if key not in counter and not leq[table[i]][table[column[i]]]:
                    counter[key] = (
                        f"constant {lat.displays[a]} with {_show(lat, f)}"
                    )
        if "enriched" in counter and "strong" in counter:
            break

    return AxiomCheck(("axiom_i", "axiom_ii", "enriched", "strong"), counter)


def _show(lat: Lattice, values) -> str:
    return "(" + ",".join(lat.displays[v] for v in values) + ")"


def check_operator(op: ClosureOperator,
                   budget: int = DEFAULT_BUDGET) -> AxiomCheck:
    """Fix the top set, inflate, preserve binary joins, idempotence (by
    composing the table with itself), plus tensor-stability with constants.

    Joins are compared as indices: the closure of f join g sits at
    `image[joined[j]]`, and the join of the two closures at
    `closed_joined[image[j]]`."""
    lat = op.lattice
    uni = op.universe
    size = ensure_budget(lat, uni, budget, "closure operator check")
    leq, join = lat.leq, lat.join
    space = Space(lat, uni)
    all_vals = list(space.values())
    image = [space.index(c) for c in op.table]
    counter: dict = {}

    top = op.table[space.index((lat.top,) * len(uni))]
    if top != (lat.top,) * len(uni):
        counter["axiom_i"] = f"image of top is {_show(lat, top)}"

    for f, c in zip(all_vals, op.table):
        if not all(leq[a][b] for a, b in zip(f, c)):
            counter["axiom_ii"] = f"{_show(lat, f)} not below its closure"
            break

    for i, f in enumerate(all_vals):
        joined = space.image_index([join[v] for v in f])
        closed_joined = space.image_index([join[v] for v in op.table[i]])
        j = next((j for j in range(i, size)
                  if image[joined[j]] != closed_joined[image[j]]), None)
        if j is not None:
            counter["axiom_iii"] = (
                f"pair ({_show(lat, f)}, {_show(lat, all_vals[j])})"
            )
            break

    for f, k in zip(all_vals, image):
        if image[k] != k:
            counter["axiom_iv"] = f"closure of {_show(lat, f)} not fixed"
            break

    for a in lat.elements():
        scaled = space.image_index([lat.tensor[a]] * len(uni))
        i = next((i for i, c in enumerate(op.table) if not all(
            leq[lat.tensor[a][v]][w] for v, w in zip(c, op.table[scaled[i]])
        )), None)
        if i is not None:
            counter["strong"] = (
                f"constant {lat.displays[a]} with {_show(lat, all_vals[i])}"
            )
            break

    return AxiomCheck(
        ("axiom_i", "axiom_ii", "axiom_iii", "axiom_iv", "strong"), counter
    )


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

"""Closure systems and closure operators over an enumerated function space,
with the four cross-constructions between partitions, relations, systems and
operators.

Both structures are stored extensionally: a system is one lattice value per
enumerated fuzzy set, an operator one fuzzy set per enumerated fuzzy set.
Every construction here quantifies over the whole space, so the extensional
table is also the cheapest representation to check laws against.
"""

from __future__ import annotations

from .errors import MismatchError
from .fuzzyset import Space, Universe
from .lattice import DEFAULT_BUDGET, Lattice, LawReport
from .partition import FuzzyPartition
from .record import Record
from .relation import FuzzyRelation, relation_from_system


class ClosureSystem(Record):
    """Degree-valued membership of each fuzzy set in the closed family."""

    lattice: Lattice
    universe: Universe
    table: tuple[int, ...]
    provenance: str


class ClosureOperator(Record):
    """Extensional map sending each fuzzy set to its closure."""

    lattice: Lattice
    universe: Universe
    table: tuple[tuple[int, ...], ...]  # value tuple per enumeration index
    provenance: str


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
    space = Space(lat, p.universe, budget, "closure system construction")

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
    space = Space(lat, rel.universe, budget, "closure system construction")
    approx = ((x, space.upper(row)) for x, row in enumerate(rel.rows))
    return ClosureSystem(lat, rel.universe, _meet_residua(space, approx),
                         "from_relation")


def system_from_explicit(lat: Lattice, universe: Universe, table,
                         budget: int = DEFAULT_BUDGET) -> ClosureSystem:
    size = Space(lat, universe, budget, "closure system table").size
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
    space = Space(lat, uni, budget, "closure operator construction")
    res, tensor, meet = lat.residuum, lat.tensor, lat.meet
    bottom, top = lat.bottom, lat.top
    points = range(len(uni))
    all_sets = list(space.values())
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
    space = Space(lat, op.universe, budget, "closure system construction")
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

def check_system(system: ClosureSystem,
                 budget: int = DEFAULT_BUDGET) -> LawReport:
    """Full-table check: top membership, meet-superadditivity over all pairs
    (pairwise suffices for finite families; the empty meet is the top-set
    axiom), and stability under residuation/tensor with constants.

    `enriched` and `strong` are swept together, constant by constant and set
    by set, and their counterexamples are reported in the order found.
    """
    lat = system.lattice
    uni = system.universe
    space = Space(lat, uni, budget, "closure system check")
    leq, meet = lat.leq, lat.meet
    table = system.table
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
        j = next((j for j in range(i, space.size)
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

    return LawReport(uni.name, ("axiom_i", "axiom_ii", "enriched", "strong"),
                     counter)


def _show(lat: Lattice, values) -> str:
    return "(" + ",".join(lat.displays[v] for v in values) + ")"


def check_operator(op: ClosureOperator,
                   budget: int = DEFAULT_BUDGET) -> LawReport:
    """Fix the top set, inflate, preserve binary joins, idempotence (by
    composing the table with itself), plus tensor-stability with constants.
    Joins are compared as indices, by `Space._join_failures`."""
    lat = op.lattice
    uni = op.universe
    space = Space(lat, uni, budget, "closure operator check")
    leq = lat.leq
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

    pair = next(space._join_failures(space, image, op.table), None)
    if pair is not None:
        f, g = (_show(lat, all_vals[k]) for k in pair)
        counter["axiom_iii"] = f"pair ({f}, {g})"

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

    return LawReport(
        uni.name, ("axiom_i", "axiom_ii", "axiom_iii", "axiom_iv", "strong"),
        counter)


# ---------------------------------------------------------------------------
# round-trip reports (informational: differences are recorded, never asserted)

class RoundTripReport(Record):
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

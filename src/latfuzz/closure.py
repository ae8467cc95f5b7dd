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
    (membership(g) tensor S(f, g)) -> g(x), where S(f, g) is the inclusion
    degree of f in g, the meet over y of f(y) -> g(y).

    The term is antitone in S, and by adjointness s <= S(f, g) iff
    f <= s -> g pointwise.  So closed is also the meet of
    (membership(g) tensor s) -> g over the pairs (g, s) with f <= s -> g:
    each pair's term is met into a bucket A at the set s -> g, and closed(f)
    is the meet of A over the sets above f.  A bottom s gives a top term
    and is skipped.  The up-set meet sweeps one point at a time, meeting
    each value with the values above it in the order; the point swept is
    always the last, whose values are strided slices, and each sweep
    rotates the points by one.  That is O(|space| * |L| * |X|^2) steps,
    not |space|^2.
    """
    lat = system.lattice
    uni = system.universe
    space = Space(lat, uni, budget, "closure operator construction")
    res, tensor, meet, leq = lat.residuum, lat.tensor, lat.meet, lat.leq
    n, points, values = space.radix, range(len(uni)), lat.elements()
    digits = [space.digits(x) for x in points]
    buckets = [[lat.top] * space.size for _ in points]
    for s in values:
        if s == lat.bottom:
            continue
        at = space.image_index([res[s]] * len(uni))
        premise = [res[tensor[m][s]] for m in system.table]
        for column, digit in zip(buckets, digits):
            for h, row, v in zip(at, premise, digit):
                column[h] = meet[column[h]][row[v]]
    above = [(d, u) for d in values for u in values if d != u and leq[d][u]]
    for _ in points:
        for x, column in enumerate(buckets):
            parts = [column[d::n] for d in values]
            for d, u in above:
                parts[d] = [meet[a][b] for a, b in zip(parts[d], parts[u])]
            buckets[x] = [a for part in parts for a in part]
    return ClosureOperator(lat, uni, tuple(zip(*buckets)) or ((),),
                           "from_system")


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
# round trips (informational: differences are recorded, never asserted)

def roundtrip_relation(rel: FuzzyRelation,
                       budget: int = DEFAULT_BUDGET) -> tuple:
    """relation -> system -> relation: each entry that differs, as
    ((x, z) labels, original, mapped back), row by row."""
    back = relation_from_system(system_from_relation(rel, budget), budget)
    labels = rel.universe.elements
    return tuple(((labels[x], labels[z]), a, b)
                 for x, (row, back_row) in enumerate(zip(rel.rows, back.rows))
                 for z, (a, b) in enumerate(zip(row, back_row)) if a != b)


def roundtrip_system(system: ClosureSystem,
                     budget: int = DEFAULT_BUDGET) -> tuple:
    """system -> operator -> system: each set whose membership differs, as
    (set values, original, mapped back), in enumeration order."""
    back = system_from_operator(operator_from_system(system, budget), budget)
    return tuple((values, a, b) for values, a, b
                 in zip(Space(system.lattice, system.universe).values(),
                        system.table, back.table) if a != b)

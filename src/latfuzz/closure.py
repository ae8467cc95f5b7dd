"""Closure systems and closure operators over an enumerated function space,
with the four cross-constructions between partitions, relations, systems and
operators.

Both structures are stored extensionally: a system is one lattice value per
enumerated fuzzy set, an operator one fuzzy set per enumerated fuzzy set.
Every construction here quantifies over the whole space, so the extensional
table is also the cheapest representation to check laws against.  The two
record types live in `fuzzyset`, beside the enumeration they follow, so a
document that carries a system loads without this module.
"""

from __future__ import annotations

from .fuzzyset import ClosureOperator, ClosureSystem, Space
from .lattice import DEFAULT_BUDGET, Lattice, LawReport
from .partition import FuzzyPartition, relation_from_partition
from .record import replace
from .relation import FuzzyRelation, relation_from_system


# ---------------------------------------------------------------------------
# constructions

def system_from_partition(p: FuzzyPartition,
                          budget: int = DEFAULT_BUDGET) -> ClosureSystem:
    """F3, which is F2 after F1: the system of the partition's relation.
    The space is charged before the |X|^2 relation is built and checked."""
    Space(p.lattice, p.universe, budget, "closure system construction")
    return replace(system_from_relation(relation_from_partition(p), budget),
                   provenance="from_partition")


def system_from_relation(rel: FuzzyRelation,
                         budget: int = DEFAULT_BUDGET) -> ClosureSystem:
    """Membership degree of f: meet over x of (upper approx(f)(x) -> f(x)),
    with one fold per distinct row, held one column at a time."""
    lat = rel.lattice
    space = Space(lat, rel.universe, budget, "closure system construction")
    columns = ((row, space.upper(row)) for row in dict.fromkeys(rel.rows))
    approx = ((x, column) for row, column in columns
              for x, own in enumerate(rel.rows) if own == row)
    return ClosureSystem(lat, rel.universe, space.meet_residua(approx),
                         "from_relation")


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
    and is skipped.  `Space.meets_above` takes the up-set meets, one
    bucket column per point, in O(|space| * |L| * |X|^2) steps, not
    |space|^2.
    """
    lat = system.lattice
    uni = system.universe
    space = Space(lat, uni, budget, "closure operator construction")
    res, tensor, meet = lat.residuum, lat.tensor, lat.meet
    points = range(len(uni))
    digits = [space.digits(x) for x in points]
    buckets = [[lat.top] * space.size for _ in points]
    for s in lat.elements():
        if s == lat.bottom:
            continue
        at = space.image_index([res[s]] * len(uni))
        premise = [res[tensor[m][s]] for m in system.table]
        for column, digit in zip(buckets, digits):
            for h, row, v in zip(at, premise, digit):
                column[h] = meet[column[h]][row[v]]
    space.meets_above(buckets, meet)
    return ClosureOperator(lat, uni, tuple(zip(*buckets)) or ((),),
                           "from_system")


def system_from_operator(op: ClosureOperator,
                         budget: int = DEFAULT_BUDGET) -> ClosureSystem:
    lat = op.lattice
    space = Space(lat, op.universe, budget, "closure system construction")
    closed = ((x, space.column(c[x] for c in op.table))
              for x in range(len(op.universe)))
    return ClosureSystem(lat, op.universe, space.meet_residua(closed),
                         "from_operator")


# ---------------------------------------------------------------------------
# the axiom checker
#
# The pair law is swept one set f at a time: `Space.image_lookup` gives the
# membership of f meet g for every g in one fold, so a pair costs one
# comparison.  The pairs run (f, g) with g from f on in enumeration order,
# and the sweep stops at its first counterexample.  Past the first |X|^2
# rows the verdict comes from `_cuts_meet_closed`, in about
# |L| * |X|^2 * |space| steps, and the scan resumes only to name the pair,
# so passing input does not pay |space|^2.

def check_system(system: ClosureSystem,
                 budget: int = DEFAULT_BUDGET) -> LawReport:
    """Full-table check: top membership, meet-superadditivity over all pairs
    (pairwise suffices for finite families; the empty meet is the top-set
    axiom), and stability under residuation/tensor with constants.

    `enriched` and `strong` are swept constant by constant, one image
    column at a time; at each constant their counterexamples are reported
    in set order, `enriched` first at one set.
    """
    lat = system.lattice
    uni = system.universe
    space = Space(lat, uni, budget, "closure system check")
    leq, meet = lat.leq, lat.meet
    table = system.table
    counter: dict = {}

    top = table[space.index((lat.top,) * len(uni))]
    if top != lat.top:
        counter["axiom_i"] = (
            f"membership of the constant-top set is {lat.displays[top]}"
        )

    def rows():
        # the first |X|^2 always, as a failing table mostly fails there; the
        # rest only when a cut is not meet-closed, to name the first pair
        prefix = min(len(uni) ** 2, space.size)
        yield from range(prefix)
        if not _cuts_meet_closed(space, table):
            yield from range(prefix, space.size)

    # each scan is a column of whether the law holds at every set
    lane, els = space.column(table), lat.elements()
    for i in rows():
        f = space.values_at(i)
        met = space.image_lookup([meet[v] for v in f], lane)
        low = meet[table[i]]
        holds = space.pointwise(lane, met, space.operation(
            [[leq[low[u]][v] for v in els] for u in els]))
        j = holds.index(0, i) if 0 in holds[i:] else None
        del met, holds  # before the next row's columns are built
        if j is not None:
            counter["axiom_ii"] = (
                f"pair ({_show(lat, f)}, {_show(lat, space.values_at(j))})"
            )
            break

    order = space.operation(leq)
    for a in els:
        found = []
        for key, row in (("enriched", lat.residuum[a]),
                         ("strong", lat.tensor[a])):
            if key not in counter:
                image = space.image_lookup([row] * len(uni), lane)
                holds = space.pointwise(lane, image, order)
                if 0 in holds:
                    found.append((holds.index(0), key))
        for i, key in sorted(found):
            f = space.values_at(i)
            counter[key] = f"constant {lat.displays[a]} with {_show(lat, f)}"
        if "enriched" in counter and "strong" in counter:
            break

    return LawReport(uni.name, ("axiom_i", "axiom_ii", "enriched", "strong"),
                     counter)


def _cuts_meet_closed(space: Space, table) -> bool:
    """Whether the map sending set i to the lattice value `table[i]` is
    meet-superadditive, S(f) meet S(g) <= S(f meet g) for all f and g,
    decided without visiting pairs.  It is iff every cut
    C_a = {f : a <= S(f)} at a non-bottom a is closed under binary meets:
    for f and g, take the cut at S(f) meet S(g).  Cuts only at values S
    takes are not enough off chains.

    A family is meet-closed iff, for every f with a member above it, the
    meet of the members above f is a member: `Space.meets_above` over one
    column per point, each top off the family, and over a column of
    membership, joined, for whether f has a member above at all.
    """
    lat = space.lattice
    if not space.weights:
        return True  # one set, and f meet f = f
    digits = [space.digits(x) for x in range(len(space.weights))]
    # keep[v][m] is v for a member, top for any other set
    keep = space.operation([(lat.top, v) for v in lat.elements()])
    for a in lat.elements():
        if a == lat.bottom:
            continue
        member = space.column(map(lat.leq[a].__getitem__, table))
        above = [member]
        space.meets_above(above, ((0, 1), (1, 1)))
        columns = [space.pointwise(digit, member, keep) for digit in digits]
        space.meets_above(columns, lat.meet)
        at = space.index_of(columns, space.size)
        if not all(member[i] for i, v in zip(at, above[0]) if v):
            return False
    return True


def _show(lat: Lattice, values) -> str:
    return "(" + ",".join(lat.displays[v] for v in values) + ")"


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

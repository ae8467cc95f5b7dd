"""Finite complete residuated lattices as validated lookup tables.

Carrier elements are ordinals into an ordered list of display strings; every
operation is an exact table lookup.  The chain builders compute their tables
on integer numerators over the common denominator n-1, so no floating point
ever enters a law check.

Construction validates every table exhaustively at O(n^2) Python-level steps:
down-sets and up-sets are bitmasks, so bounds and transitivity are mask
operations and dict lookups, and associativity and adjointness compare one
whole row over c per pair (a, b).  Only an explicit table that omits its
residuum pays the n^3 derivation of it.

Builders cover the three stock families (minimum-tensor chains, truncated-sum
chains, powerset algebras) plus fully explicit tables.  A product-style
tensor is deliberately not offered as a chain builder: quantizing it breaks
associativity, and this module never constructs an axiom-violating instance.
Users who want such a tensor must supply an explicit table, which is
validated like any other.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import itemgetter

from .errors import BudgetExceeded, ElementError, LatticeBuildError, quote
from .record import Record

DEFAULT_BUDGET = 4096


class Lattice(Record):
    name: str
    displays: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    tensor: tuple[tuple[int, ...], ...]
    residuum: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    _parse: dict  # display -> ordinal, from __post_init__; not a field

    def __post_init__(self):
        object.__setattr__(
            self, "_parse", {d: i for i, d in enumerate(self.displays)}
        )

    def __len__(self) -> int:
        return len(self.displays)

    def elements(self) -> range:
        return range(len(self.displays))

    def check_element(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < len(self.displays):
            raise ElementError(f"{a!r} is not a carrier ordinal of {self.name}")

    def parse(self, text: str) -> int:
        try:
            return self._parse[text]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ElementError(
                f"{quote(text)} is not an element of lattice {self.name}"
            ) from None

    def meet_all(self, items) -> int:
        out = self.top
        for a in items:
            out = self.meet[out][a]
        return out

    def join_all(self, items) -> int:
        out = self.bottom
        for a in items:
            out = self.join[out][a]
        return out


# ---------------------------------------------------------------------------
# validation
#
# Bit c of down[a] (of up[a]) is set iff c <= a (a <= c).  Every error names
# the same first offending pair or triple as a row-major scan would.

def _square_table(name, what, table, n):
    """Return `table` as a tuple of n rows of n entries, or raise."""
    try:
        rows = tuple(tuple(row) for row in table)
    except TypeError:
        raise LatticeBuildError(f"{name}: {what} must be a table of rows") from None
    if len(rows) != n or any(len(row) != n for row in rows):
        raise LatticeBuildError(f"{name}: {what} table must be {n}x{n}")
    return rows


def _check_ordinals(name, what, table, n):
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                raise LatticeBuildError(
                    f"{name}: {what}[{a}][{b}] = {v!r} is not an ordinal in 0..{n - 1}"
                )


def _masks(leq):
    """Down-set and up-set of every element as bitmasks."""
    n = len(leq)
    up = [sum(1 << b for b in range(n) if row[b]) for row in leq]
    down = [sum(1 << a for a in range(n) if leq[a][b]) for b in range(n)]
    return down, up


def _check_order(name, displays, leq, down, up):
    n = len(displays)
    for a in range(n):
        if not leq[a][a]:
            raise LatticeBuildError(f"{name}: order not reflexive at {displays[a]}")
    for a in range(n):
        both = down[a] & up[a] & ~(1 << a)
        if both:
            b = (both & -both).bit_length() - 1
            raise LatticeBuildError(
                f"{name}: order not antisymmetric at ({displays[a]}, {displays[b]})"
            )
    for a in range(n):
        for b in range(n):
            if not leq[a][b]:
                continue
            missing = up[b] & ~up[a]
            if missing:
                c = (missing & -missing).bit_length() - 1
                raise LatticeBuildError(
                    f"{name}: order not transitive at "
                    f"({displays[a]}, {displays[b]}, {displays[c]})"
                )


def _bound_table(name, displays, masks, what, bound):
    """The table of greatest lower (least upper) bounds: on a partial order
    the bound of a and b is the unique c whose down-set (up-set) equals the
    intersection of theirs."""
    by_mask = {m: c for c, m in enumerate(masks)}
    table = []
    for a, ma in enumerate(masks):
        row = [by_mask.get(ma & mb) for mb in masks]
        if None in row:
            b = row.index(None)
            raise LatticeBuildError(
                f"{name}: order lacks {what}s: no {bound} "
                f"for ({displays[a]}, {displays[b]})"
            )
        table.append(row)
    return table


def _find_bounds(name, displays, down, up):
    full = (1 << len(displays)) - 1
    bottoms = [a for a, m in enumerate(up) if m == full]
    tops = [a for a, m in enumerate(down) if m == full]
    if not bottoms:
        raise LatticeBuildError(f"{name}: order has no least element")
    if not tops:
        raise LatticeBuildError(f"{name}: order has no greatest element")
    return bottoms[0], tops[0]


def _row_pickers(table):
    """picks[b](row) is the tuple (row[table[b][c]] for c), built in C."""
    return [itemgetter(*row) for row in table]


def _first_difference(left, right):
    return next(c for c, (x, y) in enumerate(zip(left, right)) if x != y)


def _check_monoid(name, displays, tensor, top):
    n = len(displays)
    for a in range(n):
        column = tuple(row[a] for row in tensor)
        if tensor[a] != column:
            b = _first_difference(tensor[a], column)
            raise LatticeBuildError(
                f"{name}: tensor not commutative at ({displays[a]}, {displays[b]}): "
                f"{displays[tensor[a][b]]} vs {displays[tensor[b][a]]}"
            )
    for a in range(n):
        if tensor[a][top] != a:
            raise LatticeBuildError(
                f"{name}: top is not a tensor unit at {displays[a]}: "
                f"got {displays[tensor[a][top]]}"
            )
    # (a*b)*c against a*(b*c), one row over c per pair (a, b)
    picks = _row_pickers(tensor)
    for a in range(n):
        for b in range(n):
            left = tensor[tensor[a][b]]
            right = picks[b](tensor[a])
            if left != right:
                c = _first_difference(left, right)
                raise LatticeBuildError(
                    f"{name}: tensor not associative at "
                    f"({displays[a]}, {displays[b]}, {displays[c]})"
                )


def _derive_residuum(displays, leq, join, tensor):
    n = len(displays)
    res = [[0] * n for _ in range(n)]
    for b in range(n):
        for c in range(n):
            out = None
            for a in range(n):
                if leq[tensor[a][b]][c]:
                    out = a if out is None else join[out][a]
            res[b][c] = 0 if out is None else out
    return res


def _check_adjointness(name, displays, leq, tensor, residuum):
    n = len(displays)
    # tensor(a,b) <= c against a <= residuum(b,c), one row over c per (a, b)
    picks = _row_pickers(residuum)
    for a in range(n):
        for b in range(n):
            left = leq[tensor[a][b]]
            right = picks[b](leq[a])
            if left != right:
                c = _first_difference(left, right)
                raise LatticeBuildError(
                    f"{name}: adjointness fails at "
                    f"(a={displays[a]}, b={displays[b]}, c={displays[c]}): "
                    f"tensor(a,b)<=c is {left[c]} but a<=residuum(b,c) is {right[c]}"
                )


def from_tables(
    displays,
    leq,
    tensor,
    residuum=None,
    name: str = "table",
) -> Lattice:
    """Validate explicit tables and return a Lattice.

    Meet and join are always derived from the order; the residuum is derived
    from the tensor when not supplied.  Either way adjointness is verified
    exhaustively, so a non-residuable tensor cannot slip through.  Every
    table must be n x n, and tensor and residuum entries must be carrier
    ordinals 0..n-1.
    """
    displays = tuple(displays)
    n = len(displays)
    if n < 2:
        raise LatticeBuildError(f"{name}: carrier needs at least two elements")
    try:
        distinct = len(set(displays))
    except TypeError:
        raise LatticeBuildError(f"{name}: display strings must be hashable") from None
    if distinct != n:
        raise LatticeBuildError(f"{name}: duplicate display strings")
    leq = tuple(
        tuple(bool(v) for v in row) for row in _square_table(name, "leq", leq, n)
    )
    tensor = _square_table(name, "tensor", tensor, n)
    _check_ordinals(name, "tensor", tensor, n)
    if residuum is not None:
        residuum = _square_table(name, "residuum", residuum, n)
        _check_ordinals(name, "residuum", residuum, n)
    down, up = _masks(leq)
    _check_order(name, displays, leq, down, up)
    # every meet before any join, so a non-lattice order is reported as
    # lacking meets first
    meet = _bound_table(name, displays, down, "meet", "greatest lower bound")
    join = _bound_table(name, displays, up, "join", "least upper bound")
    bottom, top = _find_bounds(name, displays, down, up)
    _check_monoid(name, displays, tensor, top)
    if residuum is None:
        residuum = tuple(
            tuple(row) for row in _derive_residuum(displays, leq, join, tensor)
        )
    _check_adjointness(name, displays, leq, tensor, residuum)
    return Lattice(
        name=name,
        displays=displays,
        leq=leq,
        meet=tuple(tuple(row) for row in meet),
        join=tuple(tuple(row) for row in join),
        tensor=tensor,
        residuum=residuum,
        bottom=bottom,
        top=top,
    )


# ---------------------------------------------------------------------------
# builders

def _fraction_labels(n: int) -> tuple[str, ...]:
    """k/(n-1) for k = 0..n-1 in lowest terms: "0", "1" and "k/d"."""
    labels = []
    for k in range(n):
        g = gcd(k, n - 1)
        num, den = k // g, (n - 1) // g
        labels.append(str(num) if den == 1 else f"{num}/{den}")
    return tuple(labels)


def _chain_leq(n: int):
    return [[a <= b for b in range(n)] for a in range(n)]


def godel_chain(n: int, labels=None) -> Lattice:
    """Equidistant chain with the minimum tensor.

    Only the order matters for min/max/residuum, so custom labels (e.g. the
    raw values of a quantized unit interval) are allowed as long as they are
    listed bottom-up.
    """
    if n < 2:
        raise LatticeBuildError("godel_chain needs n >= 2")
    if labels is None:
        labels = _fraction_labels(n)
    if len(labels) != n:
        raise LatticeBuildError(f"godel_chain: expected {n} labels, got {len(labels)}")
    top = n - 1
    tensor = [[min(a, b) for b in range(n)] for a in range(n)]
    residuum = [[top if a <= b else b for b in range(n)] for a in range(n)]
    return from_tables(
        labels, _chain_leq(n), tensor, residuum, name=f"godel_chain({n})"
    )


def lukasiewicz_chain(n: int) -> Lattice:
    """Chain k/(n-1) with the truncated-sum tensor, computed exactly on the
    integer numerators k over the common denominator n-1."""
    if n < 2:
        raise LatticeBuildError("lukasiewicz_chain needs n >= 2")
    top = n - 1
    tensor = [[max(0, a + b - top) for b in range(n)] for a in range(n)]
    residuum = [[min(top, top - a + b) for b in range(n)] for a in range(n)]
    return from_tables(
        _fraction_labels(n),
        _chain_leq(n),
        tensor,
        residuum,
        name=f"lukasiewicz_chain({n})",
    )


_ATOMS = "abcd"


def boolean_algebra(k: int) -> Lattice:
    """Powerset of k atoms; tensor is intersection, residuum is material
    implication."""
    if not 1 <= k <= 4:
        raise LatticeBuildError("boolean needs 1 <= atoms <= 4")
    n = 1 << k
    full = n - 1

    def show(mask):
        inside = ",".join(_ATOMS[i] for i in range(k) if mask >> i & 1)
        return "{" + inside + "}"

    displays = tuple(show(m) for m in range(n))
    leq = [[(a & b) == a for b in range(n)] for a in range(n)]
    tensor = [[a & b for b in range(n)] for a in range(n)]
    residuum = [[(full ^ a) | b for b in range(n)] for a in range(n)]
    return from_tables(displays, leq, tensor, residuum, name=f"boolean({k})")


def _spec_value(spec, key):
    if key not in spec:
        raise LatticeBuildError(
            f"{spec['kind']} lattice description lacks key {key!r}"
        )
    return spec[key]


def _spec_int(spec, key) -> int:
    """A JSON integer: not a bool, a float or a numeric string."""
    value = _spec_value(spec, key)
    if type(value) is not int:
        raise LatticeBuildError(
            f"{spec['kind']} lattice description: {key!r} must be an integer, "
            f"got {quote(value)}"
        )
    return value


def _spec_list(spec, key, rows: bool = False) -> list:
    value = _spec_value(spec, key)
    if not isinstance(value, list) or (
        rows and not all(isinstance(row, list) for row in value)
    ):
        shape = "a list of lists" if rows else "a list"
        raise LatticeBuildError(
            f"{spec['kind']} lattice description: {key!r} must be {shape}"
        )
    return value


def _charge(n: int, budget: int) -> None:
    """Charge the n x n operation tables of an n-element lattice to the
    budget before any of them is built."""
    if n > 1 and n * n > budget:
        raise BudgetExceeded(n * n, budget, "lattice tables")


def build(spec: dict, budget: int = DEFAULT_BUDGET) -> Lattice:
    """Build from a description dict (the lattice sub-document of an
    instance file).  A missing or malformed key raises LatticeBuildError
    naming the key; a carrier of n elements whose n*n table entries exceed
    `budget` raises BudgetExceeded."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise LatticeBuildError("lattice description must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "godel_chain":
        labels = spec.get("labels")
        if labels is not None:
            labels = _spec_list(spec, "labels")
        n = _spec_int(spec, "n")
        _charge(n, budget)
        return godel_chain(n, labels=labels)
    if kind == "lukasiewicz_chain":
        n = _spec_int(spec, "n")
        _charge(n, budget)
        return lukasiewicz_chain(n)
    if kind == "boolean":
        atoms = _spec_int(spec, "atoms")
        if 1 <= atoms <= 4:  # boolean_algebra names any other count
            _charge(1 << atoms, budget)
        return boolean_algebra(atoms)
    if kind == "table":
        name = spec.get("name", "table")
        displays = _spec_list(spec, "elements")
        _charge(len(displays), budget)
        try:
            index = {d: i for i, d in enumerate(displays)}
        except TypeError:
            raise LatticeBuildError(
                f"{name}: 'elements' must be strings or numbers"
            ) from None

        def ordinal(key, v):
            try:
                return index[v]
            except (KeyError, TypeError):
                raise LatticeBuildError(
                    f"{name}: {key} names unknown element {quote(v)}"
                ) from None

        def op_table(key):
            return [[ordinal(key, v) for v in row]
                    for row in _spec_list(spec, key, rows=True)]

        leq = _spec_list(spec, "leq", rows=True)
        for a, row in enumerate(leq):
            for b, v in enumerate(row):
                if type(v) is not bool:  # from_tables takes any truthy value
                    raise LatticeBuildError(
                        f"{name}: leq[{a}][{b}] = {quote(v)} is not a boolean")
        return from_tables(
            displays,
            leq,
            op_table("tensor"),
            op_table("residuum") if spec.get("residuum") is not None else None,
            name=name,
        )
    raise LatticeBuildError(f"unknown lattice kind {quote(kind)}")


# ---------------------------------------------------------------------------
# reports

def zero_divisor_scan(lat: Lattice) -> tuple[tuple[str, str], ...]:
    """Every pair a, b != 0 with tensor(a, b) = 0, as display pairs, found
    by an exhaustive scan."""
    witnesses = []
    for a in lat.elements():
        if a == lat.bottom:
            continue
        for b in lat.elements():
            if b == lat.bottom:
                continue
            if lat.tensor[a][b] == lat.bottom:
                witnesses.append((lat.displays[a], lat.displays[b]))
    return tuple(witnesses)


class LawReport(Record):
    """The clauses of one law check on `subject`, and the first
    counterexample of each clause that fails: a clause holds exactly when it
    has none.  `counterexamples` keeps the order the check found them in."""

    subject: str
    clauses: tuple[str, ...]
    counterexamples: dict

    def holds(self, clause: str) -> bool:
        return clause not in self.counterexamples

    @property
    def all_hold(self) -> bool:
        return not self.counterexamples


def _subsets(n: int):
    items = list(range(n))
    for size in range(n + 1):
        yield from combinations(items, size)


def law_suite(lat: Lattice, budget: int = DEFAULT_BUDGET) -> LawReport:
    """Check the nine derived-law clauses exhaustively.

    Triple-quantified clauses sweep all |L|^3 triples; the indexed-family
    clauses sweep every subset of the carrier, which suffices on a finite
    lattice (joins and meets of a family only depend on its underlying set).

    Every clause is a theorem on every lattice that `from_tables` accepts,
    so the suite checks the implementation, not the lattice: only tables
    corrupted after validation make a clause fail.
    """
    n = len(lat)
    family_cost = (1 << n) * n
    if n ** 3 > budget or family_cost > budget:
        raise BudgetExceeded(max(n ** 3, family_cost), budget, "law suite")

    d = lat.displays
    tensor, res = lat.tensor, lat.residuum
    le = lat.leq
    bot, top = lat.bottom, lat.top
    found: dict = {}
    fail = found.setdefault  # a clause keeps its first counterexample

    # (i) a*0 = 0 and a*1 = a
    for a in range(n):
        if tensor[a][bot] != bot:
            fail("i", f"tensor({d[a]}, 0) = {d[tensor[a][bot]]}")
        if tensor[a][top] != a:
            fail("i", f"tensor({d[a]}, 1) = {d[tensor[a][top]]}")

    # (ii) a->1 = 1, 1->a = a, a->a = 1
    for a in range(n):
        if res[a][top] != top:
            fail("ii", f"residuum({d[a]}, 1) = {d[res[a][top]]}")
        if res[top][a] != a:
            fail("ii", f"residuum(1, {d[a]}) = {d[res[top][a]]}")
        if res[a][a] != top:
            fail("ii", f"residuum({d[a]}, {d[a]}) = {d[res[a][a]]}")

    # (iii) monotone in the right argument, antitone in the left
    for a in range(n):
        for b in range(n):
            if not le[a][b]:
                continue
            for c in range(n):
                if not le[res[c][a]][res[c][b]]:
                    fail("iii", f"a={d[a]} <= b={d[b]}, c={d[c]}: "
                                f"c->a !<= c->b")
                if not le[res[b][c]][res[a][c]]:
                    fail("iii", f"a={d[a]} <= b={d[b]}, c={d[c]}: "
                                f"a->c !>= b->c")

    # (iv) currying: (a*b)->c = a->(b->c); and a*(b->c) <= (a->b)->c
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if res[tensor[a][b]][c] != res[a][res[b][c]]:
                    fail("iv", f"(a*b)->c != a->(b->c) at "
                               f"({d[a]}, {d[b]}, {d[c]})")
                if not le[tensor[a][res[b][c]]][res[res[a][b]][c]]:
                    fail("iv", f"a*(b->c) !<= (a->b)->c at "
                               f"({d[a]}, {d[b]}, {d[c]})")

    # (v) (a->b)*c <= a->(b*c); a*b->a*c >= b->c
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not le[tensor[res[a][b]][c]][res[a][tensor[b][c]]]:
                    fail("v", f"(a->b)*c !<= a->(b*c) at "
                              f"({d[a]}, {d[b]}, {d[c]})")
                if not le[res[b][c]][res[tensor[a][b]][tensor[a][c]]]:
                    fail("v", f"a*b->a*c !>= b->c at ({d[a]}, {d[b]}, {d[c]})")

    # (vi) (a->b)->(c->b) >= c->a; (a->b)->(a->c) >= b->c
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not le[res[c][a]][res[res[a][b]][res[c][b]]]:
                    fail("vi", f"(a->b)->(c->b) !>= c->a at "
                               f"({d[a]}, {d[b]}, {d[c]})")
                if not le[res[b][c]][res[res[a][b]][res[a][c]]]:
                    fail("vi", f"(a->b)->(a->c) !>= b->c at "
                               f"({d[a]}, {d[b]}, {d[c]})")

    def show_family(fam):
        return "{" + ",".join(d[a] for a in fam) + "}"

    # (vii) join distributes over tensor; meet sub-distributes
    for fam in _subsets(n):
        j = lat.join_all(fam)
        m = lat.meet_all(fam)
        for b in range(n):
            if tensor[j][b] != lat.join_all(tensor[a][b] for a in fam):
                fail("vii", f"(join {show_family(fam)})*{d[b]} mismatch")
            if not le[tensor[m][b]][lat.meet_all(tensor[a][b] for a in fam)]:
                fail("vii", f"(meet {show_family(fam)})*{d[b]} too large")

    # (viii) a->meet = meet of a->; join->b = meet of ->b
    for fam in _subsets(n):
        m = lat.meet_all(fam)
        j = lat.join_all(fam)
        for a in range(n):
            if res[a][m] != lat.meet_all(res[a][x] for x in fam):
                fail("viii", f"{d[a]}->meet {show_family(fam)} mismatch")
            if res[j][a] != lat.meet_all(res[x][a] for x in fam):
                fail("viii", f"join {show_family(fam)}->{d[a]} mismatch")

    # (ix) join of a-> is below a->join
    for fam in _subsets(n):
        j = lat.join_all(fam)
        for a in range(n):
            if not le[lat.join_all(res[a][x] for x in fam)][res[a][j]]:
                fail("ix", f"join of {d[a]}->_ over {show_family(fam)} "
                           f"exceeds {d[a]}->join")

    return LawReport(lat.name, ("i", "ii", "iii", "iv", "v", "vi", "vii",
                                "viii", "ix"), found)

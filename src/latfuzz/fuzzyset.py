"""Lattice-valued sets over named finite universes, and the one enumeration
of their function spaces.

A fuzzy set is a total tuple of carrier ordinals aligned with its universe's
element order.  Sets carry both their universe and their lattice, and every
binary operation checks identity of both, so a mismatch is a hard error
rather than a silent re-indexing.

`Space(lattice, universe)` is the enumeration kernel: it fixes the
lexicographic order of `L^X` and its index arithmetic, and every sweep over
the space in the package goes through it.  Given a budget, `Space(lattice,
universe, budget, what)` charges its exact `|L|^|X|` through the one
budget rule, `errors.charge`.
A sweep reads whole columns over the space (the value at a point, a
transform component, the index of an image set), each computed by a
prefix-shared fold in about `|space|` steps, a `bytes` lane when
`|L| <= 16`, instead of building and validating one `FuzzySet` per index.
`Space.image_index` gives, for a fixed f, the index of f meet g (join,
tensor) for every g: `check_system` scans its pairs with one such column
per set, and the transform laws join every set with one point at a time.
`Space.meets_above` meets columns over the up-set of each f, for the
closure operator of a system and the cut test of its meet axiom.
"""

from __future__ import annotations

from itertools import chain, product

from .errors import ElementError, MismatchError, charge, quote
from .lattice import Lattice
from .record import Record


class Universe(Record):
    name: str
    elements: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise MismatchError(f"universe {self.name}: duplicate element labels")

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise ElementError(
                f"{quote(label)} is not an element of universe {self.name}"
            ) from None


class FuzzySet(Record):
    lattice: Lattice
    universe: Universe
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.universe):
            raise MismatchError(
                f"fuzzy set on {self.universe.name}: expected "
                f"{len(self.universe)} values, got {len(self.values)}"
            )
        for v in self.values:
            self.lattice.check_element(v)

    def displays(self) -> tuple[str, ...]:
        return tuple(self.lattice.displays[v] for v in self.values)

    def is_normal(self) -> bool:
        return self.lattice.top in self.values


def _require_keys(what: str, domain: Universe, mapping: dict) -> None:
    """A label-keyed map names every element of `domain` and nothing else:
    the first missing element is named, then the first unknown key."""
    for e in domain.elements:
        if e not in mapping:
            raise MismatchError(f"{what} missing {quote(e)}")
    if len(mapping) > len(domain):
        known = set(domain.elements)
        extra = next(k for k in mapping if k not in known)
        raise ElementError(f"{what} names unknown element {quote(extra)}")


def from_labels(lat: Lattice, universe: Universe, mapping: dict) -> FuzzySet:
    """Build from a label -> display-string mapping; totality enforced."""
    _require_keys(f"value map on {universe.name}", universe, mapping)
    return FuzzySet(
        lat, universe, tuple(lat.parse(mapping[e]) for e in universe.elements)
    )


# ---------------------------------------------------------------------------
# maps between universes

class UniverseMap(Record):
    source: Universe
    target: Universe
    mapping: tuple[int, ...]  # target index per source element

    def __post_init__(self):
        if len(self.mapping) != len(self.source):
            raise MismatchError(
                f"map {self.source.name} -> {self.target.name} is not total"
            )
        for t in self.mapping:
            if not 0 <= t < len(self.target):
                raise ElementError(
                    f"map {self.source.name} -> {self.target.name}: "
                    f"image index {t} outside codomain"
                )

    @classmethod
    def from_labels(cls, source: Universe, target: Universe, mapping: dict):
        _require_keys(f"map {source.name} -> {target.name}", source, mapping)
        return cls(
            source, target, tuple(target.index(mapping[e]) for e in source.elements)
        )

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == len(self.target)


# ---------------------------------------------------------------------------
# enumeration of the full function space

class Space:
    """The function space L^X in lexicographic (mixed-radix) order: the set
    at index i has digit x of i in base |L| as its value at point x, the
    first point being the most significant digit.

    Sweeps read whole columns over the space instead of building one fuzzy
    set per index.  When |L| <= 16 a column of lattice values is a `bytes`
    lane, one byte per set, and a binary table operation on two lanes is
    one big-int step: the lanes side by side as the bytes 16a + b, mapped
    through the table by `bytes.translate`.  Over a larger lattice a column
    is a list, and the same methods take it a value at a time.  `_fold`
    evaluates `op` over the points of `rows[x][f(x)]` for every f at once,
    sharing each prefix of points between the sets that agree on it, so a
    fold costs about `|space| * n / (n - 1)` steps rather than
    `|space| * |X|`.

    With a `budget`, a space of more sets than that raises BudgetExceeded
    naming `what` before anything else is built.
    """

    def __init__(self, lat: Lattice, universe: Universe,
                 budget: int | None = None,
                 what: str = "enumeration of the function space"):
        self.lattice = lat
        self.universe = universe
        self.radix = n = len(lat)
        dim = len(universe)
        self.size = n ** dim
        if budget is not None:
            charge(self.size, budget, what)
        self.weights = tuple(n ** (dim - 1 - x) for x in range(dim))
        self.lanes = n <= 16
        # a column from values, and one from consecutive columns
        self.column = bytes if self.lanes else list
        self.concat = b"".join if self.lanes else (
            lambda parts: list(chain.from_iterable(parts)))

    def values(self):
        """Every value tuple, in enumeration order."""
        return product(range(self.radix), repeat=len(self.weights))

    def index(self, values) -> int:
        n = self.radix
        index = 0
        for v in values:
            index = index * n + v
        return index

    def values_at(self, index: int) -> tuple[int, ...]:
        return tuple(index // w % self.radix for w in self.weights)

    def digits(self, x: int):
        """f(x) for every f, in enumeration order: repeated blocks."""
        w = self.weights[x]
        block = self.concat(self.column([v]) * w for v in range(self.radix))
        return block * (self.size // (w * self.radix))

    def operation(self, op):
        """The table `op[a][b]` as `pointwise` takes it: on lanes, the
        256-byte translation of 16a + b."""
        if not self.lanes:
            return op
        flat = bytearray(256)
        for a, row in enumerate(op):
            flat[16 * a:16 * a + len(row)] = row
        return bytes(flat)

    def pointwise(self, p, q, table):
        """`op[p[i]][q[i]]` for every i, `table` being `operation(op)`."""
        if not self.lanes:
            return [table[a][b] for a, b in zip(p, q)]
        return ((int.from_bytes(p, "big") << 4) | int.from_bytes(q, "big")) \
            .to_bytes(len(p), "big").translate(table)

    def reduce(self, parts, table):
        """`pointwise` of the parts in turn, left to right."""
        parts = iter(parts)
        acc = next(parts)
        for part in parts:
            acc = self.pointwise(acc, part, table)
        return acc

    def _fold(self, rows, op=None, start: int = 0):
        """`start op rows[0][f(0)] op rows[1][f(1)] ...` for every f, where
        `op` is a lattice operation table (a column), or addition when None
        (a list)."""
        acc = [start] if op is None else self.column([start])
        for row in rows:
            if op is None:
                acc = [a + r for a in acc for r in row]
            else:  # each value of acc followed by every value of row
                after = [self.column(map(ops.__getitem__, row)) for ops in op]
                acc = self.concat(map(after.__getitem__, acc))
        return acc

    def image_index(self, rows) -> list[int]:
        """For every f, the index of the set x -> rows[x][f(x)]: one
        additive fold over the weighted rows."""
        return self._fold([[w * r for r in row]
                           for w, row in zip(self.weights, rows)])

    def image_lookup(self, rows, table):
        """`table[i]` for each i of `image_index(rows)`, read at the last
        fold, as a column."""
        *head, last = rows or [[0]]  # the last point's weight is 1
        return self.column([table[i + r] for i in self.image_index(head)
                            for r in last])

    def index_of(self, columns, size: int) -> list[int]:
        """For each of `size` positions i, the index of the set whose value
        at x is `columns[x][i]`; `columns` may be any iterable of them."""
        out = [0] * size
        for w, column in zip(self.weights, columns):
            out = [i + w * v for i, v in zip(out, column)]
        return out

    def meets_above(self, columns, meet) -> None:
        """Replace every column, in place, by the column that holds at each
        f the meet, by the table `meet`, of its values over the sets above
        f.

        Each sweep meets the values at the last point, strided slices, with
        those at their upper covers, top down, so each cover has already
        met those above it; then it rotates the points by one.  A column costs |X|
        sweeps of about |space| * (1 + covers / |L|) steps."""
        lat = self.lattice
        n, leq = self.radix, lat.leq
        above = [{u for u in lat.elements() if u != d and leq[d][u]}
                 for d in lat.elements()]
        top_down = sorted(lat.elements(), key=lambda d: len(above[d]))
        steps = [(d, u) for d in top_down  # u an upper cover of d
                 for u in above[d].difference(*(above[w] for w in above[d]))]
        table = self.operation(meet)
        columns[:] = map(self.column, columns)
        for _ in range(len(self.weights)):
            for x, column in enumerate(columns):
                parts = [column[d::n] for d in range(n)]
                for d, u in steps:
                    parts[d] = self.pointwise(parts[d], parts[u], table)
                columns[x] = self.concat(parts)

    def meet_residua(self, columns) -> tuple[int, ...]:
        """Membership degree of every f: the meet over x of column_x(f) ->
        f(x), where `columns` yields the (x, column) pairs, each column
        over the whole space in enumeration order."""
        lat = self.lattice
        res, meet = self.operation(lat.residuum), self.operation(lat.meet)
        table = self.column([lat.top]) * self.size
        for x, column in columns:
            table = self.pointwise(
                table, self.pointwise(column, self.digits(x), res), meet)
        return tuple(table)

    def upper(self, row):
        """The join over the points of row[x] tensor f(x), for every f, as
        a column: the transform component of a block, or the upper
        approximation at one point along a relation row."""
        lat = self.lattice
        return self._fold([lat.tensor[a] for a in row], lat.join, lat.bottom)

    def pulled_index(self, phi: "UniverseMap") -> list[int]:
        """For every g on this space's universe (phi's target), the index of
        its backward image in the space over phi's source."""
        n = self.radix
        weight = [0] * len(phi.target)
        for w, y in zip(Space(self.lattice, phi.source).weights, phi.mapping):
            weight[y] += w
        return self._fold([range(0, n * w, w) if w else [0] * n
                          for w in weight])


def set_at(lat: Lattice, universe: Universe, index: int) -> FuzzySet:
    """The set at one index of the space, to name a counterexample."""
    return FuzzySet(lat, universe, Space(lat, universe).values_at(index))


# ---------------------------------------------------------------------------
# closure systems and operators as tables in the space's order, here so a
# document that carries one loads without the constructions in `closure`

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

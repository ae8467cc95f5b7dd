"""Lattice-valued sets over named finite universes.

A fuzzy set is a total tuple of carrier ordinals aligned with its universe's
element order.  Sets carry both their universe and their lattice, and every
binary operation checks identity of both, so a mismatch is a hard error
rather than a silent re-indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, ElementError, MismatchError
from .lattice import DEFAULT_BUDGET, Lattice


@dataclass(frozen=True)
class Universe:
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
                f"{label!r} is not an element of universe {self.name}"
            ) from None


@dataclass(frozen=True)
class CrispSubset:
    universe: Universe
    flags: tuple[bool, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(e for e, f in zip(self.universe.elements, self.flags) if f)


@dataclass(frozen=True)
class FuzzySet:
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

    def value(self, label: str) -> int:
        return self.values[self.universe.index(label)]

    def displays(self) -> tuple[str, ...]:
        return tuple(self.lattice.displays[v] for v in self.values)

    def core(self) -> CrispSubset:
        top = self.lattice.top
        return CrispSubset(self.universe, tuple(v == top for v in self.values))

    def is_normal(self) -> bool:
        return self.lattice.top in self.values

    def le(self, other: "FuzzySet") -> bool:
        _require_same(self, other)
        return all(self.lattice.leq[a][b] for a, b in zip(self.values, other.values))


def _require_same(f: FuzzySet, g: FuzzySet) -> None:
    if f.lattice is not g.lattice:
        raise MismatchError("fuzzy sets live on different lattices")
    if f.universe != g.universe:
        raise MismatchError(
            f"fuzzy sets live on different universes "
            f"({f.universe.name} vs {g.universe.name})"
        )


def constant(lat: Lattice, universe: Universe, a: int) -> FuzzySet:
    lat.check_element(a)
    return FuzzySet(lat, universe, (a,) * len(universe))


def from_labels(lat: Lattice, universe: Universe, mapping: dict) -> FuzzySet:
    """Build from a label -> display-string mapping; totality enforced."""
    missing = [e for e in universe.elements if e not in mapping]
    if missing:
        raise MismatchError(
            f"value map on {universe.name} missing {missing[0]!r}"
        )
    extra = [k for k in mapping if k not in universe.elements]
    if extra:
        raise ElementError(
            f"value map on {universe.name} names unknown element {extra[0]!r}"
        )
    return FuzzySet(
        lat, universe, tuple(lat.parse(mapping[e]) for e in universe.elements)
    )


def pointwise(kind: str, f: FuzzySet, g: FuzzySet) -> FuzzySet:
    _require_same(f, g)
    table = getattr(f.lattice, kind, None)
    if kind not in ("meet", "join", "tensor", "residuum") or table is None:
        raise ElementError(f"unknown pointwise kind {kind!r}")
    return FuzzySet(
        f.lattice,
        f.universe,
        tuple(table[a][b] for a, b in zip(f.values, g.values)),
    )


# ---------------------------------------------------------------------------
# maps between universes and the two image operators

@dataclass(frozen=True)
class UniverseMap:
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
        missing = [e for e in source.elements if e not in mapping]
        if missing:
            raise MismatchError(
                f"map {source.name} -> {target.name} missing {missing[0]!r}"
            )
        return cls(
            source, target, tuple(target.index(mapping[e]) for e in source.elements)
        )

    @classmethod
    def identity(cls, universe: Universe):
        return cls(universe, universe, tuple(range(len(universe))))

    def compose(self, then: "UniverseMap") -> "UniverseMap":
        """self followed by `then`."""
        if then.source != self.target:
            raise MismatchError(
                f"cannot compose: {self.target.name} vs {then.source.name}"
            )
        return UniverseMap(
            self.source, then.target, tuple(then.mapping[t] for t in self.mapping)
        )

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == len(self.target)


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


# ---------------------------------------------------------------------------
# enumeration of the full function space

def space_size(lat: Lattice, universe: Universe) -> int:
    return len(lat) ** len(universe)


def ensure_budget(lat: Lattice, universe: Universe, budget: int,
                  what: str = "enumeration of the function space") -> int:
    size = space_size(lat, universe)
    if size > budget:
        raise BudgetExceeded(size, budget, what)
    return size


def _values_index(lat: Lattice, values) -> int:
    """Position of a value tuple in the lexicographic enumeration (mixed
    radix), for sweeps that hold bare tuples rather than fuzzy sets."""
    n = len(lat)
    idx = 0
    for v in values:
        idx = idx * n + v
    return idx


def set_index(f: FuzzySet) -> int:
    """Position of f in the lexicographic enumeration (mixed radix)."""
    return _values_index(f.lattice, f.values)


def set_at(lat: Lattice, universe: Universe, index: int) -> FuzzySet:
    n = len(lat)
    vals = [0] * len(universe)
    for pos in range(len(universe) - 1, -1, -1):
        index, vals[pos] = divmod(index, n)
    return FuzzySet(lat, universe, tuple(vals))


def enumerate_sets(lat: Lattice, universe: Universe,
                   budget: int = DEFAULT_BUDGET):
    """Deterministic lexicographic sweep of every fuzzy set on the universe."""
    size = ensure_budget(lat, universe, budget)
    for i in range(size):
        yield set_at(lat, universe, i)

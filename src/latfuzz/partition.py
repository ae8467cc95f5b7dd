"""Lattice-valued partitions: families of normal fuzzy sets whose cores
partition the universe, together with the induced index function."""

from __future__ import annotations

from .errors import MismatchError, PartitionError, quote
from .fuzzyset import FuzzySet, Universe
from .lattice import Lattice
from .record import Record
from .relation import FuzzyRelation


class FuzzyPartition(Record):
    universe: Universe
    lattice: Lattice
    names: tuple[str, ...]
    blocks: tuple[FuzzySet, ...]
    xi: tuple[int, ...]  # block ordinal per universe element

    def block_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PartitionError(f"unknown block {quote(name)}") from None


def _name(value) -> str:
    """A label or block name from a document as an error message shows it:
    a short string as it is, anything else quoted and cut by `quote`."""
    if isinstance(value, str) and len(value) <= 60:
        return value
    return quote(value)


def validate_partition(
    universe: Universe,
    named_blocks,
    declared_xi: dict | None = None,
) -> FuzzyPartition:
    """Check normality and the disjoint-cover condition on the cores, then
    derive the index function.

    `named_blocks` is an ordered mapping or list of (name, FuzzySet) pairs.
    A declared index map, when given, is verified against the computed one.
    """
    items = list(named_blocks.items()) if isinstance(named_blocks, dict) \
        else list(named_blocks)
    if not items:
        raise PartitionError(
            f"partition of {_name(universe.name)} has no blocks")
    names = tuple(name for name, _ in items)
    if len(set(names)) != len(names):
        raise PartitionError("duplicate block names")
    blocks = tuple(block for _, block in items)
    lattice = blocks[0].lattice
    for name, block in items:
        if block.universe != universe:
            raise MismatchError(
                f"block {_name(name)} lives on {_name(block.universe.name)}, "
                f"not {_name(universe.name)}"
            )
        if block.lattice is not lattice:
            raise MismatchError(
                f"block {_name(name)} uses a different lattice")
        if not block.is_normal():
            raise PartitionError(
                f"block {_name(name)} not normal (empty core)")

    xi = [-1] * len(universe)
    top = lattice.top
    for b, (name, block) in enumerate(items):
        for i, v in enumerate(block.values):
            if v != top:
                continue
            if xi[i] != -1:
                raise PartitionError(
                    f"core overlap at {_name(universe.elements[i])}: blocks "
                    f"{_name(names[xi[i]])} and {_name(name)}"
                )
            xi[i] = b
    for i, b in enumerate(xi):
        if b == -1:
            raise PartitionError(
                f"element {_name(universe.elements[i])} covered by no core"
            )

    if declared_xi is not None:
        for label, block_name in declared_xi.items():
            i = universe.index(label)
            if names[xi[i]] != block_name:
                raise PartitionError(
                    f"declared index map sends {_name(label)} to "
                    f"{_name(block_name)}, but its core lies in "
                    f"{_name(names[xi[i]])}"
                )

    return FuzzyPartition(universe, lattice, names, blocks, tuple(xi))


def product_partition(p: FuzzyPartition, q: FuzzyPartition) -> FuzzyPartition:
    """Blocks are pairwise pointwise meets on the paired universe."""
    if p.lattice is not q.lattice:
        raise MismatchError("product partition: lattice mismatch")
    lat = p.lattice
    x, y = p.universe, q.universe
    uni = Universe(f"{x.name}*{y.name}",
                   tuple(f"({a},{b})" for a in x.elements for b in y.elements))
    named = []
    for jn, jb in zip(p.names, p.blocks):
        for kn, kb in zip(q.names, q.blocks):
            vals = tuple(
                lat.meet[a][b] for a in jb.values for b in kb.values
            )
            named.append((f"({jn},{kn})", FuzzySet(lat, uni, vals)))
    return validate_partition(uni, named)


def relation_from_partition(p: FuzzyPartition) -> FuzzyRelation:
    """Row of x is x's own block, so the relation's upper approximation
    reproduces the transform field exactly."""
    rows = tuple(p.blocks[p.xi[i]].values for i in range(len(p.universe)))
    return FuzzyRelation(p.lattice, p.universe, rows)


def is_identity_indexed(p: FuzzyPartition) -> bool:
    """True when the index set is the universe itself: every core is the
    singleton of its own name."""
    if len(p.blocks) != len(p.universe):
        return False
    for i, e in enumerate(p.universe.elements):
        if p.names[p.xi[i]] != e:
            return False
    # xi is onto and cores are disjoint, so equal sizes force singletons
    return True

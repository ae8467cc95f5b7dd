"""Coalgebra and dialgebra views of the upper transform on identity-indexed
partitions: structure tables, homomorphism checks, the shape-shuffling
conversions between the two views, and the adjunction verifier.

Both views read the same (point, enumerated set) -> value table; a
coalgebra reads it as point -> (set -> value), a dialgebra as
(point, set) -> value.  So there is one table type, tagged with its view,
and the conversions only flip the tag, which is what makes the isomorphism
and adjunction checks exact.

A table keeps the partition it is derived from; `transform_table` builds
its rows where they are printed.  The homomorphism checks read
only the blocks: both sides of either check preserve joins in the swept
set, so the generators e(s, a), the set that is `a` at point s and bottom
elsewhere, decide it and, when bottom is ordinal 0, also come first in the
sweep's order among its violations (README).
"""

from __future__ import annotations

from .errors import MismatchError, PreconditionError
from .fuzzyset import Space, UniverseMap, Universe
from .lattice import DEFAULT_BUDGET, Lattice
from .partition import FuzzyPartition, is_identity_indexed
from .record import Record, replace


class StructureTable(Record):
    lattice: Lattice
    universe: Universe
    provenance: str
    view: str  # "coalgebra" | "dialgebra"
    partition: FuzzyPartition  # the blocks its rows are derived from


def transform_table(p: FuzzyPartition) -> tuple[tuple[int, ...], ...]:
    """The rows of p's structure table: per point, the transform component
    of its own block at every set of the space, in enumeration order."""
    upper = Space(p.lattice, p.universe).upper
    return tuple(tuple(upper(p.blocks[j].values)) for j in p.xi)


def _from_partition(p: FuzzyPartition, budget: int,
                    view: str) -> StructureTable:
    if not is_identity_indexed(p):
        raise PreconditionError(f"partition on {p.universe.name} is not "
                                "identity-indexed")
    Space(p.lattice, p.universe, budget, "structure table")
    return StructureTable(p.lattice, p.universe, "from_partition", view, p)


def coalgebra_from_partition(p: FuzzyPartition,
                             budget: int = DEFAULT_BUDGET) -> StructureTable:
    return _from_partition(p, budget, "coalgebra")


def dialgebra_from_partition(p: FuzzyPartition,
                             budget: int = DEFAULT_BUDGET) -> StructureTable:
    return _from_partition(p, budget, "dialgebra")


def _require_view(table: StructureTable, view: str, what: str) -> None:
    if table.view != view:
        raise MismatchError(f"{what} needs a {view} table, got a {table.view}")


def coa_to_dia(c: StructureTable) -> StructureTable:
    _require_view(c, "coalgebra", "coa_to_dia")
    return replace(c, view="dialgebra",
                   provenance=f"coa_to_dia({c.provenance})")


def dia_to_coa(d: StructureTable) -> StructureTable:
    _require_view(d, "dialgebra", "dia_to_coa")
    return replace(d, view="coalgebra",
                   provenance=f"dia_to_coa({d.provenance})")


# ---------------------------------------------------------------------------
# homomorphism checks

class HomVerdict(Record):
    holds: bool
    violation: tuple | None = None  # (element label, set displays)


def _scan(phi: UniverseMap, source: StructureTable, target: StructureTable,
          fibers, at) -> HomVerdict:
    """The first generator e(s, a) of the swept space (in index order when
    bottom is ordinal 0), and the first point x of phi's source, at which
        join over z in fibers[s] of A_x(z) tensor a
            <= B_{phi x}(at[s]) tensor a
    fails, A and B being the blocks of the two tables' partitions: |X|^2 |L|
    lookups."""
    p, q = source.partition, target.partition
    lat = p.lattice
    join, tensor, leq, bottom = lat.join, lat.tensor, lat.leq, lat.bottom
    rows = [(p.blocks[j].values, q.blocks[q.xi[t]].values)
            for j, t in zip(p.xi, phi.mapping)]
    for s in reversed(range(len(fibers))):  # the last point weighs least
        for a in lat.elements():
            for e, (row, image) in zip(p.universe.elements, rows):
                lhs = bottom
                for z in fibers[s]:
                    lhs = join[lhs][tensor[row[z]][a]]
                if not leq[lhs][tensor[image[at[s]]][a]]:
                    shown = [lat.displays[bottom]] * len(fibers)
                    shown[s] = lat.displays[a]
                    return HomVerdict(False, (e, tuple(shown)))
    return HomVerdict(True)


def check_coa_hom(phi: UniverseMap, cx: StructureTable,
                  cy: StructureTable) -> HomVerdict:
    """alpha_X(x)(pullback g) <= alpha_Y(phi x)(g) for all x and all g on
    the target universe; the pullback of e(y, a) is `a` on the fiber of y."""
    if cx.universe != phi.source or cy.universe != phi.target:
        raise MismatchError("coalgebra homomorphism: universe mismatch")
    _require_view(cx, "coalgebra", "check_coa_hom")
    _require_view(cy, "coalgebra", "check_coa_hom")
    fibers = [[] for _ in phi.target.elements]
    for z, y in enumerate(phi.mapping):
        fibers[y].append(z)
    return _scan(phi, cx, cy, fibers, range(len(fibers)))


def check_dia_hom(phi: UniverseMap, dx: StructureTable,
                  dy: StructureTable) -> HomVerdict:
    """beta_X(x, f) <= beta_Y(phi x, pushforward f) for all x and all f on
    the source universe; the pushforward of e(z, a) is e(phi z, a)."""
    if dx.universe != phi.source or dy.universe != phi.target:
        raise MismatchError("dialgebra homomorphism: universe mismatch")
    _require_view(dx, "dialgebra", "check_dia_hom")
    _require_view(dy, "dialgebra", "check_dia_hom")
    return _scan(phi, dx, dy, [(z,) for z in range(len(phi.mapping))],
                 phi.mapping)


# ---------------------------------------------------------------------------
# transfer between the two views

class TransferVerdict(Record):
    status: str  # "holds" | "fails" | "proviso unmet" | "source check fails"
    original: HomVerdict | None
    converted: HomVerdict | None


def morphism_transfer_check(phi: UniverseMap, source, target,
                            direction: str) -> TransferVerdict:
    """Convert a holding homomorphism to the other view and re-check it.

    Direction "coa-dia" needs phi injective, "dia-coa" needs phi surjective
    (equivalent to the corresponding image-operator condition on these
    finite carriers).  An unmet proviso skips the check rather than failing.
    """
    paths = {"coa-dia": (phi.is_injective, check_coa_hom, coa_to_dia,
                         check_dia_hom),
             "dia-coa": (phi.is_surjective, check_dia_hom, dia_to_coa,
                         check_coa_hom)}
    if direction not in paths:
        raise ValueError(f"unknown direction {direction!r}")
    proviso, check, convert, recheck = paths[direction]
    if not proviso():
        return TransferVerdict("proviso unmet", None, None)
    original = check(phi, source, target)
    if not original.holds:
        return TransferVerdict("source check fails", original, None)
    converted = recheck(phi, convert(source), convert(target))
    return TransferVerdict(
        "holds" if converted.holds else "fails", original, converted
    )


# ---------------------------------------------------------------------------
# adjunction triangle

def adjunction_check(c: StructureTable, d: StructureTable,
                     phi: UniverseMap) -> HomVerdict:
    """Given a coalgebra morphism phi from c into the coalgebra view of d,
    take rho = phi as the mate and check that it is a dialgebra morphism
    from the dialgebra view of c into d: the verdict of that check.

    The unit is the identity carrier map, so the unit triangle forces rho
    to equal phi: the mate is unique and the triangle commutes by
    construction, and neither is reported.
    """
    pre = check_coa_hom(phi, c, dia_to_coa(d))
    if not pre.holds:
        raise PreconditionError(
            "phi is not a coalgebra morphism into the converted dialgebra; "
            f"violation at {pre.violation}"
        )
    return check_dia_hom(phi, coa_to_dia(c), d)

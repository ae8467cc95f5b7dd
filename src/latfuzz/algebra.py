"""Coalgebra and dialgebra views of the upper transform on identity-indexed
partitions: structure tables, homomorphism checks, the shape-shuffling
conversions between the two views, and the adjunction verifier.

Both views store the same (point, enumerated set) -> value table; a
coalgebra reads it as point -> (set -> value), a dialgebra as
(point, set) -> value.  So there is one table type, tagged with its view,
and the conversions only flip the tag, which is what makes the isomorphism
and adjunction checks exact.
"""

from __future__ import annotations

from .errors import MismatchError, PreconditionError
from .fuzzyset import Space, UniverseMap, Universe, set_at
from .lattice import DEFAULT_BUDGET, Lattice
from .partition import FuzzyPartition, is_identity_indexed
from .record import Record, replace


class StructureTable(Record):
    lattice: Lattice
    universe: Universe
    table: tuple[tuple[int, ...], ...]  # per point, per enumeration index
    provenance: str
    view: str  # "coalgebra" | "dialgebra"


def _transform_table(p: FuzzyPartition, budget: int):
    if not is_identity_indexed(p):
        raise PreconditionError(
            f"partition on {p.universe.name} is not identity-indexed"
        )
    lat = p.lattice
    space = Space(lat, p.universe, budget, "structure table")
    # the field at x is the component of x's own block
    return tuple(tuple(space.upper(p.blocks[j].values)) for j in p.xi)


def coalgebra_from_partition(p: FuzzyPartition,
                             budget: int = DEFAULT_BUDGET) -> StructureTable:
    return StructureTable(p.lattice, p.universe, _transform_table(p, budget),
                          "from_partition", "coalgebra")


def dialgebra_from_partition(p: FuzzyPartition,
                             budget: int = DEFAULT_BUDGET) -> StructureTable:
    return StructureTable(p.lattice, p.universe, _transform_table(p, budget),
                          "from_partition", "dialgebra")


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


def _first_violation(space: Space, phi: UniverseMap,
                     lower: StructureTable, upper: StructureTable,
                     lower_at, upper_at) -> HomVerdict:
    """The first (set, point), sets before points, at which
    lower[x][lower_at[i]] <= upper[phi x][upper_at[i]] fails; `None` for
    either index list reads the set's own index."""
    leq = space.lattice.leq
    first = None
    for x, y in enumerate(phi.mapping):
        lhs, rhs = lower.table[x], upper.table[y]
        if lower_at is not None:
            lhs = map(lhs.__getitem__, lower_at)
        if upper_at is not None:
            rhs = map(rhs.__getitem__, upper_at)
        bad = next((i for i, (a, b) in enumerate(zip(lhs, rhs))
                    if not leq[a][b]), None)
        if bad is not None and (first is None or bad < first[0]):
            first = (bad, x)
    if first is None:
        return HomVerdict(True)
    i, x = first
    return HomVerdict(False, (lower.universe.elements[x],
                              set_at(space.lattice, space.universe, i)
                              .displays()))


def check_coa_hom(phi: UniverseMap, cx: StructureTable, cy: StructureTable,
                  budget: int = DEFAULT_BUDGET) -> HomVerdict:
    """alpha_X(x)(pullback g) <= alpha_Y(phi x)(g) for all x and all g on
    the target universe."""
    if cx.universe != phi.source or cy.universe != phi.target:
        raise MismatchError("coalgebra homomorphism: universe mismatch")
    _require_view(cx, "coalgebra", "check_coa_hom")
    _require_view(cy, "coalgebra", "check_coa_hom")
    space = Space(cx.lattice, cy.universe, budget, "homomorphism check")
    return _first_violation(space, phi, cx, cy, space.pulled_index(phi), None)


def check_dia_hom(phi: UniverseMap, dx: StructureTable, dy: StructureTable,
                  budget: int = DEFAULT_BUDGET) -> HomVerdict:
    """beta_X(x, f) <= beta_Y(phi x, pushforward f) for all x and all f on
    the source universe."""
    if dx.universe != phi.source or dy.universe != phi.target:
        raise MismatchError("dialgebra homomorphism: universe mismatch")
    _require_view(dx, "dialgebra", "check_dia_hom")
    _require_view(dy, "dialgebra", "check_dia_hom")
    lat = dx.lattice
    space = Space(lat, dx.universe, budget, "homomorphism check")
    # only the source is swept, but the target space is charged too
    Space(lat, dy.universe, budget, "homomorphism check")
    return _first_violation(space, phi, dx, dy, None, space.pushed_index(phi))


# ---------------------------------------------------------------------------
# transfer between the two views

class TransferVerdict(Record):
    status: str  # "holds" | "fails" | "proviso unmet" | "source check fails"
    original: HomVerdict | None
    converted: HomVerdict | None


def morphism_transfer_check(phi: UniverseMap, source, target,
                            direction: str,
                            budget: int = DEFAULT_BUDGET) -> TransferVerdict:
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
    original = check(phi, source, target, budget)
    if not original.holds:
        return TransferVerdict("source check fails", original, None)
    converted = recheck(phi, convert(source), convert(target), budget)
    return TransferVerdict(
        "holds" if converted.holds else "fails", original, converted
    )


# ---------------------------------------------------------------------------
# adjunction triangle

def adjunction_check(c: StructureTable, d: StructureTable,
                     phi: UniverseMap,
                     budget: int = DEFAULT_BUDGET) -> HomVerdict:
    """Given a coalgebra morphism phi from c into the coalgebra view of d,
    take rho = phi as the mate and check that it is a dialgebra morphism
    from the dialgebra view of c into d: the verdict of that check.

    The unit is the identity carrier map, so the unit triangle forces rho
    to equal phi: the mate is unique and the triangle commutes by
    construction, and neither is reported.
    """
    pre = check_coa_hom(phi, c, dia_to_coa(d), budget)
    if not pre.holds:
        raise PreconditionError(
            "phi is not a coalgebra morphism into the converted dialgebra; "
            f"violation at {pre.violation}"
        )
    return check_dia_hom(phi, coa_to_dia(c), d, budget)

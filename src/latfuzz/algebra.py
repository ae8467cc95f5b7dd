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

from dataclasses import dataclass, replace

from .errors import MismatchError, PreconditionError
from .fuzzyset import (
    UniverseMap,
    Universe,
    backward_image,
    ensure_budget,
    forward_image,
    set_at,
    set_index,
)
from .ftransform import ft_field
from .lattice import DEFAULT_BUDGET, Lattice
from .partition import FuzzyPartition, is_identity_indexed


@dataclass(frozen=True)
class StructureTable:
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
    size = ensure_budget(lat, p.universe, budget, "structure table")
    rows = [[lat.bottom] * size for _ in p.universe.elements]
    for i in range(size):
        f = set_at(lat, p.universe, i)
        fld = ft_field(p, f)
        for x, v in enumerate(fld.values):
            rows[x][i] = v
    return tuple(tuple(r) for r in rows)


def coalgebra_from_partition(p: FuzzyPartition,
                             budget: int = DEFAULT_BUDGET) -> StructureTable:
    return StructureTable(p.lattice, p.universe, _transform_table(p, budget),
                          "from_partition", "coalgebra")


def dialgebra_from_partition(p: FuzzyPartition,
                             budget: int = DEFAULT_BUDGET) -> StructureTable:
    return StructureTable(p.lattice, p.universe, _transform_table(p, budget),
                          "from_partition", "dialgebra")


def coa_to_dia(c: StructureTable) -> StructureTable:
    return replace(c, view="dialgebra",
                   provenance=f"coa_to_dia({c.provenance})")


def dia_to_coa(d: StructureTable) -> StructureTable:
    return replace(d, view="coalgebra",
                   provenance=f"dia_to_coa({d.provenance})")


# ---------------------------------------------------------------------------
# the set-level functor on tables over the function space

def t1_on_morphism(phi: UniverseMap, lam: tuple[int, ...], lat: Lattice,
                   budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Push a table over the source function space to one over the target
    space by precomposition with the pullback."""
    ensure_budget(lat, phi.source, budget, "functor table")
    size_y = ensure_budget(lat, phi.target, budget, "functor table")
    if len(lam) != len(lat) ** len(phi.source):
        raise MismatchError("table length does not match the source space")
    out = []
    for i in range(size_y):
        g = set_at(lat, phi.target, i)
        out.append(lam[set_index(backward_image(phi, g))])
    return tuple(out)


# ---------------------------------------------------------------------------
# homomorphism checks

@dataclass(frozen=True)
class HomVerdict:
    holds: bool
    violation: tuple | None = None  # (element label, set displays)

    def to_dict(self) -> dict:
        out = {"holds": self.holds}
        if self.violation is not None:
            out["violation"] = {
                "element": self.violation[0],
                "set": list(self.violation[1]),
            }
        return out


def check_coa_hom(phi: UniverseMap, cx: StructureTable, cy: StructureTable,
                  budget: int = DEFAULT_BUDGET) -> HomVerdict:
    """alpha_X(x)(pullback g) <= alpha_Y(phi x)(g) for all x and all g on
    the target universe."""
    if cx.universe != phi.source or cy.universe != phi.target:
        raise MismatchError("coalgebra homomorphism: universe mismatch")
    lat = cx.lattice
    size_y = ensure_budget(lat, cy.universe, budget, "homomorphism check")
    for i in range(size_y):
        g = set_at(lat, cy.universe, i)
        pulled_index = set_index(backward_image(phi, g))
        for x in range(len(cx.universe)):
            if not lat.leq[cx.table[x][pulled_index]][
                cy.table[phi.mapping[x]][i]
            ]:
                return HomVerdict(
                    False, (cx.universe.elements[x], g.displays())
                )
    return HomVerdict(True)


def check_dia_hom(phi: UniverseMap, dx: StructureTable, dy: StructureTable,
                  budget: int = DEFAULT_BUDGET) -> HomVerdict:
    """beta_X(x, f) <= beta_Y(phi x, pushforward f) for all x and all f on
    the source universe."""
    if dx.universe != phi.source or dy.universe != phi.target:
        raise MismatchError("dialgebra homomorphism: universe mismatch")
    lat = dx.lattice
    size_x = ensure_budget(lat, dx.universe, budget, "homomorphism check")
    ensure_budget(lat, dy.universe, budget, "homomorphism check")
    for i in range(size_x):
        f = set_at(lat, dx.universe, i)
        pushed_index = set_index(forward_image(phi, f))
        for x in range(len(dx.universe)):
            if not lat.leq[dx.table[x][i]][
                dy.table[phi.mapping[x]][pushed_index]
            ]:
                return HomVerdict(
                    False, (dx.universe.elements[x], f.displays())
                )
    return HomVerdict(True)


# ---------------------------------------------------------------------------
# transfer between the two views

@dataclass(frozen=True)
class TransferVerdict:
    status: str  # "holds" | "fails" | "proviso unmet" | "source check fails"
    original: HomVerdict | None
    converted: HomVerdict | None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "original": self.original.to_dict() if self.original else None,
            "converted": self.converted.to_dict() if self.converted else None,
        }


def morphism_transfer_check(phi: UniverseMap, source, target,
                            direction: str,
                            budget: int = DEFAULT_BUDGET) -> TransferVerdict:
    """Convert a holding homomorphism to the other view and re-check it.

    Direction "coa-dia" needs phi injective, "dia-coa" needs phi surjective
    (equivalent to the corresponding image-operator condition on these
    finite carriers).  An unmet proviso skips the check rather than failing.
    """
    if direction == "coa-dia":
        if not phi.is_injective():
            return TransferVerdict("proviso unmet", None, None)
        original = check_coa_hom(phi, source, target, budget)
        if not original.holds:
            return TransferVerdict("source check fails", original, None)
        converted = check_dia_hom(
            phi, coa_to_dia(source), coa_to_dia(target), budget
        )
    elif direction == "dia-coa":
        if not phi.is_surjective():
            return TransferVerdict("proviso unmet", None, None)
        original = check_dia_hom(phi, source, target, budget)
        if not original.holds:
            return TransferVerdict("source check fails", original, None)
        converted = check_coa_hom(
            phi, dia_to_coa(source), dia_to_coa(target), budget
        )
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return TransferVerdict(
        "holds" if converted.holds else "fails", original, converted
    )


# ---------------------------------------------------------------------------
# adjunction triangle

@dataclass(frozen=True)
class AdjunctionVerdict:
    holds: bool
    rho_check: HomVerdict
    triangle_commutes: bool
    uniqueness_forced: bool

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "rho_is_dialgebra_morphism": self.rho_check.to_dict(),
            "triangle_commutes": self.triangle_commutes,
            "uniqueness_forced": self.uniqueness_forced,
        }


def adjunction_check(c: StructureTable, d: StructureTable,
                     phi: UniverseMap,
                     budget: int = DEFAULT_BUDGET) -> AdjunctionVerdict:
    """Given a coalgebra morphism phi from c into the coalgebra view of d,
    take rho = phi as the mate, verify it is a dialgebra morphism from the
    dialgebra view of c into d, and verify the unit triangle.

    The unit is the identity carrier map, so the triangle forces rho to
    equal phi; uniqueness holds by construction.
    """
    pre = check_coa_hom(phi, c, dia_to_coa(d), budget)
    if not pre.holds:
        raise PreconditionError(
            "phi is not a coalgebra morphism into the converted dialgebra; "
            f"violation at {pre.violation}"
        )
    rho_check = check_dia_hom(phi, coa_to_dia(c), d, budget)
    # unit is id, so T'(rho) . unit = rho as a carrier map
    triangle = phi.mapping == tuple(phi.mapping)
    return AdjunctionVerdict(
        rho_check.holds and triangle, rho_check, triangle, True
    )

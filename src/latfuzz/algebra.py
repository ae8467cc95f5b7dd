"""Coalgebra and dialgebra views of the upper transform on identity-indexed
partitions: structure tables, homomorphism checks, the transfer between the
two views, and the adjunction verifier.

Both views read the same (point, enumerated set) -> value table; a
coalgebra reads it as point -> (set -> value), a dialgebra as
(point, set) -> value.  Currying is the identity on that table, so each
view is the identity-indexed partition itself, and only the checks tell
the views apart; that is what makes the isomorphism and adjunction checks
exact.

`transform_table` yields a partition's rows one at a time, as the report
prints them, and only it is charged the space.  The homomorphism checks
read only the blocks: both sides of either check preserve joins in the
swept set, so the generators e(s, a), the set that is `a` at point s and
bottom elsewhere, decide it and, when bottom is ordinal 0, also come first
in the sweep's order among its violations (README).  A check is charged
its |X|^2 |L| lookups.
"""

from __future__ import annotations

from .errors import MismatchError, PreconditionError, charge
from .fuzzyset import Space, UniverseMap
from .lattice import DEFAULT_BUDGET
from .partition import FuzzyPartition, is_identity_indexed
from .record import Record


def identity_indexed(p: FuzzyPartition) -> FuzzyPartition:
    """p, whose blocks must be indexed by its own points: the precondition
    of both views."""
    if not is_identity_indexed(p):
        raise PreconditionError(f"partition on {p.universe.name} is not "
                                "identity-indexed")
    return p


def transform_table(p: FuzzyPartition, budget: int = DEFAULT_BUDGET):
    """Each row of p's structure table in turn: per point, the transform
    component of its own block at every set, in enumeration order.  The
    space is charged before the first row."""
    upper = Space(p.lattice, p.universe, budget, "structure table").upper
    return (tuple(upper(p.blocks[j].values)) for j in p.xi)


# ---------------------------------------------------------------------------
# homomorphism checks

class HomVerdict(Record):
    holds: bool
    violation: tuple | None = None  # (element label, set displays)


def _scan(phi: UniverseMap, p: FuzzyPartition, q: FuzzyPartition,
          fibers, at, budget: int) -> HomVerdict:
    """The first generator e(s, a) of the swept space (in index order when
    bottom is ordinal 0), and the first point x of phi's source, at which
        join over z in fibers[s] of A_x(z) tensor a
            <= B_{phi x}(at[s]) tensor a
    fails, A and B being the blocks of p and q: |X|^2 |L| lookups, charged
    before the first."""
    identity_indexed(p)
    identity_indexed(q)
    lat = p.lattice
    charge(len(phi.source) ** 2 * len(lat), budget, "homomorphism check")
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


def check_coa_hom(phi: UniverseMap, px: FuzzyPartition, py: FuzzyPartition,
                  budget: int = DEFAULT_BUDGET) -> HomVerdict:
    """alpha_X(x)(pullback g) <= alpha_Y(phi x)(g) for all x and all g on
    the target universe; the pullback of e(y, a) is `a` on the fiber of y."""
    if px.universe != phi.source or py.universe != phi.target:
        raise MismatchError("coalgebra homomorphism: universe mismatch")
    fibers = [[] for _ in phi.target.elements]
    for z, y in enumerate(phi.mapping):
        fibers[y].append(z)
    return _scan(phi, px, py, fibers, range(len(fibers)), budget)


def check_dia_hom(phi: UniverseMap, px: FuzzyPartition, py: FuzzyPartition,
                  budget: int = DEFAULT_BUDGET) -> HomVerdict:
    """beta_X(x, f) <= beta_Y(phi x, pushforward f) for all x and all f on
    the source universe; the pushforward of e(z, a) is e(phi z, a)."""
    if px.universe != phi.source or py.universe != phi.target:
        raise MismatchError("dialgebra homomorphism: universe mismatch")
    return _scan(phi, px, py, [(z,) for z in range(len(phi.mapping))],
                 phi.mapping, budget)


# ---------------------------------------------------------------------------
# transfer between the two views

class TransferVerdict(Record):
    status: str  # "holds" | "fails" | "proviso unmet" | "source check fails"
    original: HomVerdict | None
    converted: HomVerdict | None


def morphism_transfer_check(phi: UniverseMap, px: FuzzyPartition,
                            py: FuzzyPartition, direction: str,
                            budget: int = DEFAULT_BUDGET) -> TransferVerdict:
    """Re-check a holding homomorphism in the other view, on the same two
    partitions.

    Direction "coa-dia" needs phi injective, "dia-coa" needs phi surjective
    (equivalent to the corresponding image-operator condition on these
    finite carriers).  An unmet proviso skips the check rather than failing.
    """
    paths = {"coa-dia": (phi.is_injective, check_coa_hom, check_dia_hom),
             "dia-coa": (phi.is_surjective, check_dia_hom, check_coa_hom)}
    if direction not in paths:
        raise ValueError(f"unknown direction {direction!r}")
    proviso, check, recheck = paths[direction]
    if not proviso():
        return TransferVerdict("proviso unmet", None, None)
    original = check(phi, px, py, budget)
    if not original.holds:
        return TransferVerdict("source check fails", original, None)
    converted = recheck(phi, px, py, budget)
    return TransferVerdict(
        "holds" if converted.holds else "fails", original, converted
    )


# ---------------------------------------------------------------------------
# adjunction triangle

def adjunction_check(px: FuzzyPartition, py: FuzzyPartition, phi: UniverseMap,
                     budget: int = DEFAULT_BUDGET) -> HomVerdict:
    """Given a coalgebra morphism phi from px into the coalgebra view of py,
    take rho = phi as the mate and check that it is a dialgebra morphism
    from the dialgebra view of px into py: the verdict of that check.

    The unit is the identity carrier map, so the unit triangle forces rho
    to equal phi: the mate is unique and the triangle commutes by
    construction, and neither is reported.
    """
    pre = check_coa_hom(phi, px, py, budget)
    if not pre.holds:
        raise PreconditionError(
            "phi is not a coalgebra morphism into the converted dialgebra; "
            f"violation at {pre.violation}"
        )
    return check_dia_hom(phi, px, py, budget)

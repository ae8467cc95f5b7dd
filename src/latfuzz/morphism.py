"""Greatest-witness computation for the four graded morphism notions, plus
binary products and the index-square diagnostic.

Every checker returns the greatest lattice element l for which its "scaled"
inequality holds everywhere; by adjointness that is a meet of residua, and
the candidate is a morphism exactly when the witness is nonzero.  This turns
each of the transfer propositions into an order comparison between two
computed values.
"""

from __future__ import annotations

from .closure import ClosureOperator, ClosureSystem
from .errors import CandidateError, MismatchError
from .fuzzyset import Space, UniverseMap, set_at
from .lattice import DEFAULT_BUDGET, Lattice
from .partition import FuzzyPartition, _name, product_partition
from .record import Record
from .relation import FuzzyRelation


class Witness(Record):
    """Greatest admissible scaling element; a candidate is a morphism iff
    the value is strictly above bottom."""

    value: int
    lattice: Lattice
    attained: tuple | None = None

    @property
    def admissible(self) -> bool:
        return self.value != self.lattice.bottom

    @property
    def display(self) -> str:
        return self.lattice.displays[self.value]


def _meet_with_site(lat: Lattice, terms):
    """Meet of (term, site) pairs; the site is the first position whose term
    equals the final meet, when one exists (always, on a chain)."""
    items = list(terms)
    value = lat.meet_all(t for t, _ in items)
    attained = next((site for t, site in items if t == value), None)
    return value, attained


def _meet_of_sweep(space: Space, columns, site) -> Witness:
    """Witness of a sweep whose terms at each set of `space` are
    `columns[0][i], columns[1][i], ...`: the meet of every term, attained at
    the first term, sets before columns, equal to it; `site(k, f)` names
    the term of column k at the fuzzy set f."""
    lat = space.lattice
    value = lat.meet_all(set().union(*map(set, columns)))
    first = min(((column.index(value), k) for k, column in enumerate(columns)
                 if value in column), default=None)
    if first is None:
        return Witness(value, lat)
    i, k = first
    return Witness(value, lat, site(k, set_at(lat, space.universe, i)))


# ---------------------------------------------------------------------------
# partition-to-partition candidates

class FPMapCandidate(Record):
    source: FuzzyPartition
    target: FuzzyPartition
    phi: UniverseMap
    psi: tuple[int, ...]            # target block ordinal per source block
    pairs: tuple[tuple[str, str], ...]

    def constrained_blocks(self) -> tuple[int, ...]:
        """Source block ordinals whose (block, psi(block)) pair is declared."""
        declared = set(self.pairs)
        return tuple(
            j for j, name in enumerate(self.source.names)
            if (name, self.target.names[self.psi[j]]) in declared
        )


def make_candidate(
    source: FuzzyPartition,
    target: FuzzyPartition,
    phi: UniverseMap,
    psi_by_name: dict,
    pairs=None,
):
    """Assemble and validate a candidate; returns (candidate, warnings).

    Pairs outside the graph of psi impose no constraint on the witness; they
    are accepted but reported as warnings since they usually indicate an
    input mistake.  When `pairs` is omitted the graph of psi is used.
    """
    if source.lattice is not target.lattice:
        raise MismatchError("candidate: partitions on different lattices")
    if phi.source != source.universe or phi.target != target.universe:
        raise MismatchError(
            f"candidate: map {_name(phi.source.name)}->{_name(phi.target.name)} "
            f"does not match partitions on {_name(source.universe.name)} and "
            f"{_name(target.universe.name)}"
        )
    psi = []
    for name in source.names:
        if name not in psi_by_name:
            raise CandidateError(f"index map misses source block {_name(name)}")
        psi.append(target.block_index(psi_by_name[name]))
    if len(psi_by_name) > len(psi):
        extra = next(n for n in psi_by_name if n not in source.names)
        raise CandidateError(
            f"index map names unknown source block {_name(extra)}")
    if pairs is None:
        pairs = [
            (name, target.names[psi[j]]) for j, name in enumerate(source.names)
        ]
    pairs = [(a, b) for a, b in pairs]
    for a, b in pairs:
        source.block_index(a)
        target.block_index(b)
    covered = {a for a, _ in pairs}
    missing = [n for n in source.names if n not in covered]
    if missing:
        raise CandidateError(
            f"pair relation does not cover source block {_name(missing[0])}"
        )
    warnings = []
    graph = {(name, target.names[psi[j]]) for j, name in enumerate(source.names)}
    for p in pairs:
        if p not in graph:
            warnings.append(
                f"pair ({p[0]}, {p[1]}) is outside the graph of the index map "
                f"and constrains nothing"
            )
    cand = FPMapCandidate(source, target, phi, tuple(psi), tuple(pairs))
    if not cand.constrained_blocks():
        raise CandidateError("no declared pair lies on the graph of the index map")
    return cand, warnings


def fp_witness(cand: FPMapCandidate) -> Witness:
    """Meet over declared (block, point) pairs of
    residuum(block(x), psi-block(phi(x)))."""
    lat = cand.source.lattice
    res = lat.residuum
    terms = []
    for j in cand.constrained_blocks():
        block = cand.source.blocks[j]
        image = cand.target.blocks[cand.psi[j]]
        for i, a in enumerate(block.values):
            b = image.values[cand.phi.mapping[i]]
            terms.append((
                res[a][b],
                (cand.source.names[j], cand.source.universe.elements[i]),
            ))
    value, attained = _meet_with_site(lat, terms)
    return Witness(value, lat, attained)


# ---------------------------------------------------------------------------
# approximation-space and closure-side witnesses

def fas_witness(phi: UniverseMap, rel_x: FuzzyRelation,
                rel_y: FuzzyRelation) -> Witness:
    if rel_x.universe != phi.source or rel_y.universe != phi.target:
        raise MismatchError("order-preservation witness: universe mismatch")
    lat = rel_x.lattice
    res = lat.residuum
    ex, m = rel_x.universe.elements, phi.mapping
    terms = [
        (res[rel_x.rows[x][y]][rel_y.rows[m[x]][m[y]]], (ex[x], ex[y]))
        for x in range(len(ex)) for y in range(len(ex))
    ]
    value, attained = _meet_with_site(lat, terms)
    return Witness(value, lat, attained)


def fcss_witness(phi: UniverseMap, sys_x: ClosureSystem, sys_y: ClosureSystem,
                 budget: int = DEFAULT_BUDGET) -> Witness:
    if sys_x.universe != phi.source or sys_y.universe != phi.target:
        raise MismatchError("continuity witness: universe mismatch")
    lat = sys_x.lattice
    space = Space(lat, sys_y.universe, budget, "continuity witness")
    res = lat.residuum
    column = [res[a][sys_x.table[k]]
              for a, k in zip(sys_y.table, space.pulled_index(phi))]
    return _meet_of_sweep(space, [column], lambda k, f: (f.displays(),))


def fcs_witness(phi: UniverseMap, op_x: ClosureOperator, op_y: ClosureOperator,
                budget: int = DEFAULT_BUDGET) -> Witness:
    if op_x.universe != phi.source or op_y.universe != phi.target:
        raise MismatchError("operator continuity witness: universe mismatch")
    lat = op_x.lattice
    space = Space(lat, op_y.universe, budget, "operator continuity witness")
    res = lat.residuum
    ex = op_x.universe.elements
    closed_x = list(map(op_x.table.__getitem__, space.pulled_index(phi)))
    columns = [
        [res[a[x]][b[y]] for a, b in zip(closed_x, op_y.table)]
        for x, y in enumerate(phi.mapping)
    ]
    return _meet_of_sweep(space, columns, lambda x, f: (ex[x], f.displays()))


# ---------------------------------------------------------------------------
# binary products

class FPSProduct(Record):
    product: FuzzyPartition
    proj_left: FPMapCandidate
    proj_right: FPMapCandidate
    proj_left_witness: Witness
    proj_right_witness: Witness

    def pair(self, m_left: FPMapCandidate, m_right: FPMapCandidate):
        """Tuple two candidates out of a common source; the certified bound
        on the paired witness is the tensor of the component witnesses."""
        if m_left.source != m_right.source:
            raise MismatchError("pairing: candidates have different sources")
        if m_left.target != self.proj_left.target or \
                m_right.target != self.proj_right.target:
            raise MismatchError("pairing: candidates do not land in the factors")
        lat = m_left.source.lattice
        ny = len(self.proj_right.target.universe)
        phi = UniverseMap(
            m_left.source.universe,
            self.product.universe,
            tuple(
                m_left.phi.mapping[z] * ny + m_right.phi.mapping[z]
                for z in range(len(m_left.source.universe))
            ),
        )
        nk = len(self.proj_right.target.names)
        psi_by_name = {
            name: self.product.names[m_left.psi[j] * nk + m_right.psi[j]]
            for j, name in enumerate(m_left.source.names)
        }
        cand, _ = make_candidate(m_left.source, self.product, phi, psi_by_name)
        w1, w2 = fp_witness(m_left), fp_witness(m_right)
        return cand, Witness(lat.tensor[w1.value][w2.value], lat)


def fps_product(p: FuzzyPartition, q: FuzzyPartition) -> FPSProduct:
    """Product object plus its two projection candidates (witness top)."""
    prod = product_partition(p, q)
    nx, ny = len(p.universe), len(q.universe)
    flat = range(nx * ny)
    left_map = UniverseMap(
        prod.universe, p.universe, tuple(i // ny for i in flat)
    )
    right_map = UniverseMap(
        prod.universe, q.universe, tuple(i % ny for i in flat)
    )
    nk = len(q.names)
    left_psi = {
        name: p.names[b // nk] for b, name in enumerate(prod.names)
    }
    right_psi = {
        name: q.names[b % nk] for b, name in enumerate(prod.names)
    }
    proj_left, _ = make_candidate(prod, p, left_map, left_psi)
    proj_right, _ = make_candidate(prod, q, right_map, right_psi)
    return FPSProduct(
        prod, proj_left, proj_right, fp_witness(proj_left), fp_witness(proj_right)
    )


# ---------------------------------------------------------------------------
# index-square diagnostic (reported, never asserted)

def index_square_diagnostic(cand: FPMapCandidate) -> tuple:
    """Where indexing fails to commute with the point map: one (element,
    target index of its image, psi of its index) per failing element, none
    when the square commutes.  Commuting is guaranteed when the witness is
    top, but admissible candidates in general may break it (the shipped
    half-witness fixture does), so this reports and never asserts."""
    failures = []
    src, tgt = cand.source, cand.target
    for i, label in enumerate(src.universe.elements):
        got = tgt.names[tgt.xi[cand.phi.mapping[i]]]
        expected = tgt.names[cand.psi[src.xi[i]]]
        if got != expected:
            failures.append((label, got, expected))
    return tuple(failures)

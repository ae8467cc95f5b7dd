"""Greatest-witness computation for the four graded morphism notions, plus
binary products and the index-square diagnostic.

Every checker returns the greatest lattice element l for which its "scaled"
inequality holds everywhere; by adjointness that is a meet of residua, and
the candidate is a morphism exactly when the witness is nonzero.  This turns
each of the transfer propositions into an order comparison between two
computed values.
"""

from __future__ import annotations

from .errors import CandidateError, MismatchError
from .fuzzyset import (ClosureOperator, ClosureSystem, Space, UniverseMap,
                       set_at)
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


def _meet_of_sweep(lat: Lattice, columns, site) -> Witness:
    """Witness of the terms `columns[k][i]`: the meet of every term,
    attained at the first term, positions before columns, equal to it;
    `site(k, i)` names the term of column k at position i."""
    value = lat.meet_all(set().union(*map(set, columns)))
    first = min(((column.index(value), k) for k, column in enumerate(columns)
                 if value in column), default=None)
    if first is None:
        return Witness(value, lat)
    i, k = first
    return Witness(value, lat, site(k, i))


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


def index_map(source: FuzzyPartition, target: FuzzyPartition,
              psi_by_name: dict) -> tuple[int, ...]:
    """The target block ordinal of each source block, from a map keyed by
    block name: it must name every source block, then no other, then only
    target blocks."""
    for name in source.names:
        if name not in psi_by_name:
            raise CandidateError(f"index map misses source block {_name(name)}")
    if len(psi_by_name) > len(source.names):
        extra = next(n for n in psi_by_name if n not in source.names)
        raise CandidateError(
            f"index map names unknown source block {_name(extra)}")
    return tuple(target.block_index(psi_by_name[n]) for n in source.names)


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
    psi = index_map(source, target, psi_by_name)
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
    cand = FPMapCandidate(source, target, phi, psi, tuple(pairs))
    if not cand.constrained_blocks():
        raise CandidateError("no declared pair lies on the graph of the index map")
    return cand, warnings


def fp_witness(cand: FPMapCandidate) -> Witness:
    """Meet over declared (block, point) pairs of
    residuum(block(x), psi-block(phi(x)))."""
    src, tgt = cand.source, cand.target
    res = src.lattice.residuum
    blocks = cand.constrained_blocks()
    # a column per point, an entry per block: the first site in (block,
    # point) order
    columns = [[res[src.blocks[j].values[x]][tgt.blocks[cand.psi[j]].values[y]]
                for j in blocks] for x, y in enumerate(cand.phi.mapping)]
    return _meet_of_sweep(src.lattice, columns, lambda x, k: (
        src.names[blocks[k]], src.universe.elements[x]))


# ---------------------------------------------------------------------------
# approximation-space and closure-side witnesses

def fas_witness(phi: UniverseMap, rel_x: FuzzyRelation,
                rel_y: FuzzyRelation) -> Witness:
    if rel_x.universe != phi.source or rel_y.universe != phi.target:
        raise MismatchError("order-preservation witness: universe mismatch")
    res = rel_x.lattice.residuum
    ex, m = rel_x.universe.elements, phi.mapping
    # a column per y, an entry per x: the first site in (x, y) order
    columns = [[res[row[y]][rel_y.rows[m[x]][m[y]]]
                for x, row in enumerate(rel_x.rows)] for y in range(len(ex))]
    return _meet_of_sweep(rel_x.lattice, columns,
                          lambda y, x: (ex[x], ex[y]))


def fcss_witness(phi: UniverseMap, sys_x: ClosureSystem, sys_y: ClosureSystem,
                 budget: int = DEFAULT_BUDGET) -> Witness:
    if sys_x.universe != phi.source or sys_y.universe != phi.target:
        raise MismatchError("continuity witness: universe mismatch")
    lat = sys_x.lattice
    space = Space(lat, sys_y.universe, budget, "continuity witness")
    res = lat.residuum
    column = [res[a][sys_x.table[k]]
              for a, k in zip(sys_y.table, space.pulled_index(phi))]
    return _meet_of_sweep(lat, [column], lambda k, i: (
        set_at(lat, space.universe, i).displays(),))


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
    return _meet_of_sweep(lat, columns, lambda x, i: (
        ex[x], set_at(lat, space.universe, i).displays()))


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

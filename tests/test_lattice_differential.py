"""Differential test of lattice validation against the direct scans.

The reference below is the validator and builder code as it stood before
construction switched to bitmask bounds and row-wise law checks: a plain
scan over every pair or triple, in row-major order, raising at the first
offender.  For every generated table, `from_tables` must return the same
Lattice fields as the reference or raise LatticeBuildError with the same
text, and the stock builders must return the same fields.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from latfuzz.errors import LatticeBuildError
from latfuzz.lattice import Lattice


# ---------------------------------------------------------------------------
# reference: the direct scans, kept literally

def _check_order(name, displays, leq):
    n = len(displays)
    for a in range(n):
        if not leq[a][a]:
            raise LatticeBuildError(f"{name}: order not reflexive at {displays[a]}")
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise LatticeBuildError(
                    f"{name}: order not antisymmetric at ({displays[a]}, {displays[b]})"
                )
    for a in range(n):
        for b in range(n):
            if not leq[a][b]:
                continue
            for c in range(n):
                if leq[b][c] and not leq[a][c]:
                    raise LatticeBuildError(
                        f"{name}: order not transitive at "
                        f"({displays[a]}, {displays[b]}, {displays[c]})"
                    )


def _bound_tables(name, displays, leq):
    """Derive meet/join tables; error if some pair lacks a bound.  All meets
    are checked before any join so a non-lattice order is reported as
    lacking meets first."""
    n = len(displays)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lowers = [c for c in range(n) if leq[c][a] and leq[c][b]]
            greatest = [c for c in lowers if all(leq[d][c] for d in lowers)]
            if not greatest:
                raise LatticeBuildError(
                    f"{name}: order lacks meets: no greatest lower bound "
                    f"for ({displays[a]}, {displays[b]})"
                )
            meet[a][b] = greatest[0]
    for a in range(n):
        for b in range(n):
            uppers = [c for c in range(n) if leq[a][c] and leq[b][c]]
            least = [c for c in uppers if all(leq[c][d] for d in uppers)]
            if not least:
                raise LatticeBuildError(
                    f"{name}: order lacks joins: no least upper bound "
                    f"for ({displays[a]}, {displays[b]})"
                )
            join[a][b] = least[0]
    return meet, join


def _find_bounds(name, displays, leq):
    n = len(displays)
    bottoms = [a for a in range(n) if all(leq[a][b] for b in range(n))]
    tops = [a for a in range(n) if all(leq[b][a] for b in range(n))]
    if not bottoms:
        raise LatticeBuildError(f"{name}: order has no least element")
    if not tops:
        raise LatticeBuildError(f"{name}: order has no greatest element")
    return bottoms[0], tops[0]


def _check_monoid(name, displays, tensor, top):
    n = len(displays)
    for a in range(n):
        for b in range(n):
            if tensor[a][b] != tensor[b][a]:
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
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if tensor[tensor[a][b]][c] != tensor[a][tensor[b][c]]:
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
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = leq[tensor[a][b]][c]
                right = leq[a][residuum[b][c]]
                if left != right:
                    raise LatticeBuildError(
                        f"{name}: adjointness fails at "
                        f"(a={displays[a]}, b={displays[b]}, c={displays[c]}): "
                        f"tensor(a,b)<=c is {left} but a<=residuum(b,c) is {right}"
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
    exhaustively, so a non-residuable tensor cannot slip through.
    """
    displays = tuple(displays)
    if len(displays) < 2:
        raise LatticeBuildError(f"{name}: carrier needs at least two elements")
    if len(set(displays)) != len(displays):
        raise LatticeBuildError(f"{name}: duplicate display strings")
    leq = tuple(tuple(bool(v) for v in row) for row in leq)
    tensor = tuple(tuple(row) for row in tensor)
    _check_order(name, displays, leq)
    meet, join = _bound_tables(name, displays, leq)
    bottom, top = _find_bounds(name, displays, leq)
    _check_monoid(name, displays, tensor, top)
    if residuum is None:
        residuum = _derive_residuum(displays, leq, join, tensor)
    residuum = tuple(tuple(row) for row in residuum)
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



def _fraction_labels(n: int) -> tuple[str, ...]:
    return tuple(str(Fraction(k, n - 1)) for k in range(n))


def _chain_leq(n: int):
    return [[a <= b for b in range(n)] for a in range(n)]


def godel_chain(n: int, labels=None, name: str | None = None) -> Lattice:
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
    tensor = [[min(a, b) for b in range(n)] for a in range(n)]
    return from_tables(labels, _chain_leq(n), tensor, name=name or f"godel_chain({n})")


def lukasiewicz_chain(n: int, name: str | None = None) -> Lattice:
    """Chain k/(n-1) with the truncated-sum tensor, built with exact rationals."""
    if n < 2:
        raise LatticeBuildError("lukasiewicz_chain needs n >= 2")
    vals = [Fraction(k, n - 1) for k in range(n)]
    idx = {v: i for i, v in enumerate(vals)}
    tensor = [[idx[max(Fraction(0), a + b - 1)] for b in vals] for a in vals]
    residuum = [[idx[min(Fraction(1), 1 - a + b)] for b in vals] for a in vals]
    return from_tables(
        _fraction_labels(n),
        _chain_leq(n),
        tensor,
        residuum,
        name=name or f"lukasiewicz_chain({n})",
    )


_ATOMS = "abcd"


def boolean_algebra(k: int, name: str | None = None) -> Lattice:
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
    return from_tables(displays, leq, tensor, residuum, name=name or f"boolean({k})")




# ---------------------------------------------------------------------------
# generated tables

CUBE = range(8)  # subsets of a 3-element set, as bitmasks


def shuffled_chain(n, rng):
    rank = rng.sample(range(n), n)
    return [[rank[a] <= rank[b] for b in range(n)] for a in range(n)]


def cube_subposet(n, rng):
    """n distinct subsets of a 3-element set under inclusion, in random
    order; bottom, top or both may be missing."""
    masks = rng.sample(CUBE, n)
    return [[a & b == a for b in masks] for a in masks]


def random_reflexive(n, rng):
    return [[a == b or rng.random() < 0.4 for b in range(n)] for a in range(n)]


ORDERS = {
    "chain": shuffled_chain,
    "cube": cube_subposet,
    "relation": random_reflexive,
}


def meet_tensor(leq, rng):
    """The meet of the order where it exists, a random element elsewhere."""
    n = len(leq)
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            lowers = [c for c in range(n) if leq[c][a] and leq[c][b]]
            greatest = [c for c in lowers if all(leq[d][c] for d in lowers)]
            row.append(greatest[0] if greatest else rng.randrange(n))
        table.append(row)
    return table


def symmetric_tensor(leq, rng):
    """Random and commutative, with the top (if any) as unit."""
    n = len(leq)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            table[a][b] = table[b][a] = rng.randrange(n)
    for top in range(n):
        if all(leq[b][top] for b in range(n)):
            for a in range(n):
                table[a][top] = table[top][a] = a
    return table


def corrupted_tensor(leq, rng):
    """The meet tensor with one entry, or one symmetric pair, replaced."""
    table = meet_tensor(leq, rng)
    n = len(leq)
    a, b, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    table[a][b] = v
    if rng.random() < 0.5:
        table[b][a] = v
    return table


TENSORS = {
    "meet": meet_tensor,
    "symmetric": symmetric_tensor,
    "corrupted": corrupted_tensor,
}


def derived_residuum(leq, tensor):
    """The residuum the reference derives, or None where it cannot."""
    try:
        displays = tuple(range(len(leq)))
        _check_order("r", displays, leq)
        _, join = _bound_tables("r", displays, leq)
    except LatticeBuildError:
        return None
    return _derive_residuum(displays, leq, join, tensor)


def residuum_for(kind, leq, tensor, rng):
    n = len(leq)
    if kind == "none":
        return None
    res = derived_residuum(leq, tensor)
    if kind == "random" or res is None:
        return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if kind == "corrupted":
        res[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return res


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except LatticeBuildError as exc:
        return f"LatticeBuildError: {exc}"


cases = st.tuples(
    st.integers(2, 6),
    st.sampled_from(sorted(ORDERS)),
    st.booleans(),
    st.sampled_from(sorted(TENSORS)),
    st.sampled_from(["none", "random", "derived", "corrupted"]),
    st.integers(0, 2 ** 32 - 1),
)


def tables(case):
    n, order, flip, tensor_kind, residuum_kind, seed = case
    rng = random.Random(seed)
    leq = ORDERS[order](n, rng)
    if flip:
        a, b = rng.randrange(n), rng.randrange(n)
        leq[a][b] = not leq[a][b]
    tensor = TENSORS[tensor_kind](leq, rng)
    residuum = residuum_for(residuum_kind, leq, tensor, rng)
    displays = [f"e{i}" for i in range(n)]
    return displays, leq, tensor, residuum


@settings(max_examples=400, deadline=None)
@given(cases)
@example((4, "chain", False, "meet", "none", 0))
@example((6, "cube", False, "meet", "derived", 1))
@example((5, "relation", True, "symmetric", "random", 2))
@example((6, "chain", False, "corrupted", "corrupted", 3))
@example((6, "chain", False, "symmetric", "derived", 0))  # associativity
@example((6, "chain", False, "corrupted", "derived", 24))  # adjointness
def test_from_tables_matches_direct_scans(case):
    args = tables(case)
    expected = outcome(from_tables, *args, name="t")
    assert outcome(lf.from_tables, *args, name="t") == expected


FAILURES = ("order not reflexive", "order not antisymmetric",
            "order not transitive", "order lacks meets", "order lacks joins",
            "tensor not commutative", "top is not a tensor unit",
            "tensor not associative", "adjointness fails")


def test_generated_tables_reach_every_outcome():
    """The generators produce valid lattices and every reachable failure."""
    seen = set()
    rng = random.Random(0)
    for _ in range(2000):
        case = (rng.randint(2, 6), rng.choice(sorted(ORDERS)),
                rng.random() < 0.5, rng.choice(sorted(TENSORS)),
                rng.choice(["none", "random", "derived", "corrupted"]),
                rng.randrange(2 ** 32))
        result = outcome(from_tables, *tables(case), name="t")
        if isinstance(result, str):
            seen.update(kind for kind in FAILURES if kind in result)
        else:
            seen.add("valid")
    assert seen == {"valid", *FAILURES}


@pytest.mark.parametrize("n", [2, 3, 5, 12, 21, 32, 64])
def test_chain_builders_match(n):
    assert lf.godel_chain(n) == godel_chain(n)
    assert lf.lukasiewicz_chain(n) == lukasiewicz_chain(n)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_boolean_algebra_matches(k):
    assert lf.boolean_algebra(k) == boolean_algebra(k)

"""Differential tests of the enumeration kernel, `fuzzyset.Space`.

Every sweep over `L^X` goes through the kernel's prefix-shared folds and
index arithmetic.  Each `reference_*` function below is the per-set formula
the sweep replaced, kept as it was: one `set_at` fuzzy set per index, pushed
through the per-set operators (`ft_field`, `upper_approx`, the image maps,
`set_index`).  The rerouted functions must return the same tables, the same
verdicts with the same first violation or attained site, and raise the same
`BudgetExceeded`, on Gödel and Łukasiewicz chains, `boolean(2)` and
`grid23`, over universes of 0 to 4 points and random maps between them.
The homomorphism checks, both transfers and the adjunction are decided,
and a violation named, from the blocks; they must agree with the per-set
sweeps, which read a stand-in holding the reference rows, on
`lattices.PRODUCT` too, on maps that are not injective or not surjective,
and on cases built to hold.

The column primitives `Space.meets_above` and `Space.index_of` are also
compared on their own, with a brute-force meet over the up-set of each set
and with `Space.index` at each position, on these lattices and on
`lattices.PRODUCT`, over universes of 0 to 3 points.  Every column method
is compared with the per-set sweep on both of its paths: `bytes` lanes on
those lattices, lists on `CHAIN17`, past the lanes' 16 values; so is the
relation of a system, read from its join marginals.

The last test patches one line of the kernel at a time (a wrong weight, a
wrong row order, reversed weights, swapped operands of a table operation,
digit blocks one set late, a marginal without its last slice) and checks
that the comparisons catch each mutant.
"""

import inspect
import json
import random
import textwrap
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from latfuzz import algebra, relation
from conftest import FIXTURES
from latfuzz.document import load_document
from latfuzz.fuzzyset import Space
from lattices import PRODUCT, spaces, with_product
from reference import (
    backward_image,
    ensure_budget,
    enumerate_sets,
    forward_image,
    identity_map,
    meet_with_site,
    reference_t1,
    set_index,
)

SPECS = {
    "godel3": {"kind": "godel_chain", "n": 3},
    "lukasiewicz4": {"kind": "lukasiewicz_chain", "n": 4},
    "boolean2": {"kind": "boolean", "atoms": 2},
    "grid23": json.loads((FIXTURES / "grid23.json").read_text())["lattice"],
}
LATTICES = {name: lf.build(spec) for name, spec in SPECS.items()}
# a chain of more values than a lane can pair, so its columns are lists
CHAIN17 = lf.godel_chain(17)


# ---------------------------------------------------------------------------
# the per-set formulas the kernel replaced

def reference_transform_table(p, budget=lf.DEFAULT_BUDGET):
    lat = p.lattice
    size = ensure_budget(lat, p.universe, budget, "structure table")
    rows = [[lat.bottom] * size for _ in p.universe.elements]
    for i in range(size):
        f = lf.set_at(lat, p.universe, i)
        fld = lf.ft_field(p, f)
        for x, v in enumerate(fld.values):
            rows[x][i] = v
    return tuple(tuple(r) for r in rows)


def reference_coa_hom(phi, cx, cy, budget=lf.DEFAULT_BUDGET):
    lat = cx.lattice
    size_y = ensure_budget(lat, cy.universe, budget, "homomorphism check")
    for i in range(size_y):
        g = lf.set_at(lat, cy.universe, i)
        pulled_index = set_index(backward_image(phi, g))
        for x in range(len(cx.universe)):
            if not lat.leq[cx.table[x][pulled_index]][
                cy.table[phi.mapping[x]][i]
            ]:
                return lf.HomVerdict(
                    False, (cx.universe.elements[x], g.displays())
                )
    return lf.HomVerdict(True)


def reference_dia_hom(phi, dx, dy, budget=lf.DEFAULT_BUDGET):
    lat = dx.lattice
    size_x = ensure_budget(lat, dx.universe, budget, "homomorphism check")
    ensure_budget(lat, dy.universe, budget, "homomorphism check")
    for i in range(size_x):
        f = lf.set_at(lat, dx.universe, i)
        pushed_index = set_index(forward_image(phi, f))
        for x in range(len(dx.universe)):
            if not lat.leq[dx.table[x][i]][
                dy.table[phi.mapping[x]][pushed_index]
            ]:
                return lf.HomVerdict(
                    False, (dx.universe.elements[x], f.displays())
                )
    return lf.HomVerdict(True)


def reference_system_from_partition(p, budget=lf.DEFAULT_BUDGET):
    lat = p.lattice
    size = ensure_budget(lat, p.universe, budget,
                         "closure system construction")
    res = lat.residuum
    table = []
    for i in range(size):
        f = lf.set_at(lat, p.universe, i)
        fld = lf.ft_field(p, f)
        table.append(lat.meet_all(
            res[a][b] for a, b in zip(fld.values, f.values)
        ))
    return tuple(table)


def reference_system_from_relation(rel, budget=lf.DEFAULT_BUDGET):
    lat = rel.lattice
    size = ensure_budget(lat, rel.universe, budget,
                         "closure system construction")
    res = lat.residuum
    table = []
    for i in range(size):
        f = lf.set_at(lat, rel.universe, i)
        approx = lf.upper_approx(rel, f)
        table.append(lat.meet_all(
            res[a][b] for a, b in zip(approx.values, f.values)
        ))
    return tuple(table)


def reference_system_from_operator(op, budget=lf.DEFAULT_BUDGET):
    lat = op.lattice
    size = ensure_budget(lat, op.universe, budget,
                         "closure system construction")
    res = lat.residuum
    table = []
    for i in range(size):
        f = lf.set_at(lat, op.universe, i)
        cf = op.table[i]
        table.append(lat.meet_all(
            res[a][b] for a, b in zip(cf, f.values)
        ))
    return tuple(table)


def reference_relation_from_system(system, budget=lf.DEFAULT_BUDGET):
    lat = system.lattice
    universe = system.universe
    size = ensure_budget(lat, universe, budget, "relation extraction")
    res = lat.residuum
    n = len(universe)
    acc = [[lat.top] * n for _ in range(n)]
    for i in range(size):
        f = lf.set_at(lat, universe, i)
        u = system.table[i]
        for x in range(n):
            fx = f.values[x]
            for z in range(n):
                term = res[u][res[fx][f.values[z]]]
                acc[x][z] = lat.meet[acc[x][z]][term]
    return tuple(tuple(r) for r in acc)


def reference_fcss(phi, sys_x, sys_y, budget=lf.DEFAULT_BUDGET):
    lat = sys_x.lattice
    size = ensure_budget(lat, sys_y.universe, budget, "continuity witness")
    res = lat.residuum
    terms = []
    for i in range(size):
        f = lf.set_at(lat, sys_y.universe, i)
        pulled = backward_image(phi, f)
        terms.append((
            res[sys_y.table[i]][sys_x.table[set_index(pulled)]],
            (f.displays(),),
        ))
    return meet_with_site(lat, terms)


def reference_fcs(phi, op_x, op_y, budget=lf.DEFAULT_BUDGET):
    lat = op_x.lattice
    size = ensure_budget(lat, op_y.universe, budget,
                         "operator continuity witness")
    res = lat.residuum
    ex = op_x.universe.elements
    terms = []
    for i in range(size):
        f = lf.set_at(lat, op_y.universe, i)
        pulled = backward_image(phi, f)
        closed_x = op_x.table[set_index(pulled)]
        closed_y = op_y.table[i]
        for x in range(len(ex)):
            terms.append((
                res[closed_x[x]][closed_y[phi.mapping[x]]],
                (ex[x], f.displays()),
            ))
    return meet_with_site(lat, terms)


# ---------------------------------------------------------------------------
# random inputs

def universe(name, npoints):
    return lf.Universe(name, tuple(f"{name.lower()}{i}" for i in range(npoints)))


def random_map(rng, source, target):
    return lf.UniverseMap(source, target, tuple(
        rng.randrange(len(target)) for _ in source.elements))


def random_partition(rng, lat, uni, identity=False):
    """A partition whose non-core values are random non-top elements; with
    `identity`, every point is the core of its own block, named after it."""
    n = len(uni)
    owner = list(range(n)) if identity else [rng.randrange(n) for _ in range(n)]
    non_top = [a for a in lat.elements() if a != lat.top]
    blocks = []
    for b in sorted(set(owner)):
        values = tuple(lat.top if owner[i] == b else rng.choice(non_top)
                       for i in range(n))
        name = uni.elements[b] if identity else f"B{b}"
        blocks.append((name, lf.FuzzySet(lat, uni, values)))
    return lf.validate_partition(uni, blocks)


def random_relation(rng, lat, uni):
    n = len(uni)
    return lf.FuzzyRelation(lat, uni, tuple(
        tuple(rng.choice(lat.elements()) for _ in range(n)) for _ in range(n)))


def random_system(rng, lat, uni):
    size = len(lat) ** len(uni)
    return lf.ClosureSystem(lat, uni, tuple(
        rng.choice(lat.elements()) for _ in range(size)), "explicit")


def random_operator(rng, lat, uni):
    size = len(lat) ** len(uni)
    return lf.ClosureOperator(lat, uni, tuple(
        tuple(rng.choice(lat.elements()) for _ in uni.elements)
        for _ in range(size)), "random")


def random_table(rng, lat, uni, high):
    """Rows as the reference hom checks read them, whose entries are top
    with probability `high` and random otherwise, so the checks fail at
    varying first sites or hold.  No command builds such a table."""
    size = len(lat) ** len(uni)
    return SimpleNamespace(lattice=lat, universe=uni, table=tuple(
        tuple(lat.top if rng.random() < high else rng.choice(lat.elements())
              for _ in range(size))
        for _ in uni.elements))


def stand_in(p):
    """The rows of p's structure table by the per-set formula, as the
    reference hom checks read them."""
    return SimpleNamespace(lattice=p.lattice, universe=p.universe,
                           table=reference_transform_table(p))


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type, text and cardinality of the budget
    error it raises."""
    try:
        return fn(*args, **kwargs)
    except lf.BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc), exc.cardinality, exc.budget)


def witness(w):
    return w.value, w.attained


# one lattice, one universe size (0-4 points) and one seed per case
single = st.tuples(st.sampled_from(sorted(LATTICES)), st.integers(0, 4),
                   st.integers(0, 2 ** 32 - 1))
# one lattice, source and target sizes (0-4 points) and one seed per case
paired = st.tuples(st.sampled_from(sorted(LATTICES)), st.integers(0, 4),
                   st.integers(0, 4), st.integers(0, 2 ** 32 - 1)).filter(
    lambda c: c[2] > 0 or c[1] == 0)


# ---------------------------------------------------------------------------
# the kernel itself

@settings(max_examples=40, deadline=None)
@given(paired)
@example(("boolean2", 0, 0, 0))
@example(("grid23", 3, 2, 1))
def test_space_indices_match_per_set_images(case):
    name, nx, ny, seed = case
    lat, rng = LATTICES[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    phi = random_map(rng, ux, uy)
    sx, sy = Space(lat, ux), Space(lat, uy)
    assert list(sx.values()) == [lf.set_at(lat, ux, i).values
                                 for i in range(sx.size)]
    assert [sx.index(v) for v in sx.values()] == list(range(sx.size))
    assert [sx.values_at(i) for i in range(sx.size)] == list(sx.values())
    assert sy.pulled_index(phi) == [
        set_index(backward_image(phi, lf.set_at(lat, uy, i)))
        for i in range(sy.size)]
    for x in range(nx):
        assert list(sx.digits(x)) == [v[x] for v in sx.values()]


# one lattice, the product among them, one universe size (0-3 points) and
# one seed per case
WITH_PRODUCT = with_product(LATTICES)
small = spaces(WITH_PRODUCT, max_sets=729).filter(lambda c: c[1] <= 3)


def reference_meets_above(lat, npoints, column, meet):
    """For every f, the meet of `column` over the sets g >= f."""
    sets = list(product(lat.elements(), repeat=npoints))
    leq = lat.leq
    out = []
    for f in sets:
        above = [v for g, v in zip(sets, column)
                 if all(leq[a][b] for a, b in zip(f, g))]
        acc = above[0]
        for v in above[1:]:
            acc = meet[acc][v]
        out.append(acc)
    return out


@settings(max_examples=30, deadline=None)
@given(small)
@example(("godel3xlukasiewicz3", 3, 0))
@example(("grid23", 0, 1))
def test_meets_above_matches_the_up_set_meet(case):
    name, npoints, seed = case
    lat = WITH_PRODUCT[name]
    rng, space = random.Random(seed), Space(lat, universe("X", npoints))
    n = len(lat)
    # the lattice's own meet, and the meet extended by a sentinel n that
    # every value meets to itself
    sentinel = [(*row, v) for v, row in enumerate(lat.meet)]
    sentinel.append(tuple(range(n + 1)))
    for meet, values in ((lat.meet, n), (sentinel, n + 1)):
        columns = [[rng.randrange(values) for _ in range(space.size)]
                   for _ in range(rng.randint(1, 3))]
        expected = [reference_meets_above(lat, npoints, c, meet)
                    for c in columns]
        space.meets_above(columns, meet)
        assert [list(column) for column in columns] == expected


@settings(max_examples=40, deadline=None)
@given(small, st.integers(0, 3))
@example(("godel3xlukasiewicz3", 2, 0), 3)
@example(("boolean2", 0, 1), 2)
@example(("grid23", 3, 2), 0)
def test_index_of_matches_index_at_each_position(case, source_points):
    """Columns as a generator, one per point of the space, over as many
    positions as another space has sets."""
    name, npoints, seed = case
    lat = WITH_PRODUCT[name]
    rng, space = random.Random(seed), Space(lat, universe("Y", npoints))
    size = Space(lat, universe("X", source_points)).size
    columns = [[rng.randrange(len(lat)) for _ in range(size)]
               for _ in range(npoints)]
    assert space.index_of(iter(columns), size) == [
        space.index(tuple(column[i] for column in columns))
        for i in range(size)]


KERNEL_LATTICES = {**WITH_PRODUCT, CHAIN17.name: CHAIN17}


@pytest.mark.parametrize("name", sorted(KERNEL_LATTICES))
def test_both_kernel_paths_match_the_per_set_sweeps(name):
    """Each column method against the same value taken set by set, on
    universes of 0 to 2 points (3 below 10 values)."""
    lat, rng = KERNEL_LATTICES[name], random.Random(name)
    els = lat.elements()
    for npoints in range(4 if len(lat) < 10 else 3):
        uni = universe("X", npoints)
        space = Space(lat, uni)
        assert space.lanes == (len(lat) <= 16)
        sets = [f.values for f in enumerate_sets(lat, uni)]

        def column():
            return [rng.choice(els) for _ in sets]

        for x in range(npoints):
            assert list(space.digits(x)) == [f[x] for f in sets]
        for op in (lat.meet, lat.join, lat.residuum, lat.tensor, lat.leq):
            p, q, r = column(), column(), column()
            table = space.operation(op)
            assert list(space.pointwise(space.column(p), space.column(q),
                                        table)) == \
                [op[a][b] for a, b in zip(p, q)]
            assert list(space.reduce(map(space.column, (p, q, r)),
                                     table)) == \
                [op[op[a][b]][c] for a, b, c in zip(p, q, r)]
        row = [rng.choice(els) for _ in range(npoints)]
        assert list(space.upper(row)) == [
            lat.join_all(lat.tensor[a][v] for a, v in zip(row, f))
            for f in sets]
        rows = [[rng.choice(els) for _ in els] for _ in range(npoints)]
        table = column()
        assert list(space.image_lookup(rows, space.column(table))) == [
            table[set_index(lf.FuzzySet(lat, uni, tuple(
                r[v] for r, v in zip(rows, f))))] for f in sets]
        columns = [(x, column()) for x in range(npoints)]
        assert space.meet_residua(
            (x, space.column(c)) for x, c in columns) == tuple(
            lat.meet_all(lat.residuum[c[i]][f[x]] for x, c in columns)
            for i, f in enumerate(sets))
        if npoints <= 2:
            meets = [column()]
            expected = reference_meets_above(lat, npoints, meets[0], lat.meet)
            space.meets_above(meets, lat.meet)
            assert list(meets[0]) == expected


# ---------------------------------------------------------------------------
# structure tables, the functor table and the hom checks

@settings(max_examples=30, deadline=None)
@given(paired)
@example(("godel3", 2, 2, 0))
@example(("grid23", 4, 1, 7))
def test_structure_tables_and_t1(case):
    name, nx, ny, seed = case
    lat, rng = LATTICES[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    if nx:
        p = random_partition(rng, lat, ux, identity=True)
        assert tuple(lf.transform_table(p)) == reference_transform_table(p)
        assert lf.identity_indexed(p) is p
    # a coalgebra homomorphism is a map along which T1 carries each row of
    # the source table below the target's row at the image point
    phi = random_map(rng, ux, uy)
    cx = random_table(rng, lat, ux, 0.0)
    cy = random_table(rng, lat, uy, 0.9)
    below = all(lat.leq[a][b] for x, y in enumerate(phi.mapping)
                for a, b in zip(reference_t1(phi, cx.table[x], lat),
                                cy.table[y]))
    assert reference_coa_hom(phi, cx, cy).holds == below


def hom_verdicts(phi, px, py):
    """The verdicts of both checks, coalgebra view first, on px and py, and
    those of the per-set sweeps on stand-ins.  The checks are looked up on
    `algebra`, where a test may patch them."""
    hx, hy = stand_in(px), stand_in(py)
    return ((algebra.check_coa_hom(phi, px, py),
             algebra.check_dia_hom(phi, px, py)),
            (reference_coa_hom(phi, hx, hy), reference_dia_hom(phi, hx, hy)))


# one lattice, the product among them, source and target sizes (1-3
# points) and one seed per case
namer_cases = st.tuples(st.sampled_from(sorted(WITH_PRODUCT)),
                        st.integers(1, 3), st.integers(1, 3),
                        st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(namer_cases)
@example((PRODUCT.name, 3, 2, 3))  # not injective
@example(("lukasiewicz4", 2, 3, 4))  # not surjective
@example(("grid23", 3, 3, 5))
def test_hom_checks_report_the_same_first_violation(case):
    """Both checks name a violation from the blocks: the same verdict and
    first violation as the per-set sweeps, on random maps between random
    identity-indexed partitions, most of which fail."""
    name, nx, ny, seed = case
    lat, rng = WITH_PRODUCT[name], random.Random(seed)
    px = random_partition(rng, lat, universe("X", nx), identity=True)
    py = random_partition(rng, lat, universe("Y", ny), identity=True)
    new, reference = hom_verdicts(random_map(rng, px.universe, py.universe),
                                  px, py)
    assert new == reference


def reference_transfer(phi, source, target, direction):
    """`morphism_transfer_check` by the per-set checks: a table's rows are
    the same in either view, so the re-check reads them as given."""
    proviso, check, recheck = {
        "coa-dia": (phi.is_injective, reference_coa_hom, reference_dia_hom),
        "dia-coa": (phi.is_surjective, reference_dia_hom, reference_coa_hom),
    }[direction]
    if not proviso():
        return lf.TransferVerdict("proviso unmet", None, None)
    original = check(phi, source, target)
    if not original.holds:
        return lf.TransferVerdict("source check fails", original, None)
    converted = recheck(phi, source, target)
    return lf.TransferVerdict("holds" if converted.holds else "fails",
                              original, converted)


def reference_adjunction(phi, c, d):
    pre = reference_coa_hom(phi, c, d)
    if not pre.holds:
        return ("PreconditionError", "phi is not a coalgebra morphism into "
                f"the converted dialgebra; violation at {pre.violation}")
    return reference_dia_hom(phi, c, d)


def adjunction_outcome(phi, c, d):
    try:
        return lf.adjunction_check(c, d, phi)
    except lf.PreconditionError as exc:
        return ("PreconditionError", str(exc))


def permuted_partition(rng, p, target):
    """`p` moved onto `target` along a random bijection sigma, so that the
    block at sigma x takes A_x(z) at sigma z, and sigma."""
    order = list(range(len(target)))
    rng.shuffle(order)
    sigma = lf.UniverseMap(p.universe, target, tuple(order))
    blocks = [None] * len(target)
    for x, j in enumerate(p.xi):
        values = [None] * len(target)
        for z, v in enumerate(p.blocks[j].values):
            values[order[z]] = v
        blocks[order[x]] = (target.elements[order[x]],
                            lf.FuzzySet(p.lattice, target, tuple(values)))
    return lf.validate_partition(target, blocks), sigma


def retraction(rng, p, target):
    """For a target of at most |X| points: `p` cut down to the first points
    and onto `target`, and a map that keeps those points and sends the rest
    at random.  On those points the map is the identity, so the check turns
    on the blocks' values at the other points."""
    n = len(target)
    blocks = [(e, lf.FuzzySet(p.lattice, target, p.blocks[j].values[:n]))
              for e, j in zip(target.elements, p.xi)]
    keep = tuple(x if x < n else rng.randrange(n)
                 for x in range(len(p.universe)))
    return lf.validate_partition(target, blocks), lf.UniverseMap(
        p.universe, target, keep)


def crisp_partition(lat, uni):
    return lf.validate_partition(uni, [
        (e, lf.FuzzySet(lat, uni, tuple(
            lat.top if z == x else lat.bottom for z in range(len(uni)))))
        for x, e in enumerate(uni.elements)])


def hom_case(name):
    """`name`, source and target sizes of 1-4 points (1-3 on PRODUCT, so
    that no space passes 1296 sets), and a seed."""
    sizes = st.integers(1, 3 if name == PRODUCT.name else 4)
    return st.tuples(st.just(name), sizes, sizes, st.integers(0, 2 ** 32 - 1))


# chains, non-chains and PRODUCT among the lattices
hom_cases = st.sampled_from(sorted(WITH_PRODUCT)).flatmap(hom_case)


@settings(max_examples=40, deadline=None)
@given(hom_cases)
@example(("grid23", 3, 3, 11))
@example((PRODUCT.name, 3, 2, 0))  # not injective
@example((PRODUCT.name, 1, 3, 1))  # not surjective
def test_hom_checks_on_partition_tables(case):
    """The checks decide derived tables from the blocks.  On random maps,
    on retractions, on an isomorphism onto a permuted partition and on the
    identity from the crisp partition (the last two hold), they must agree
    with the per-set sweeps, in both transfer directions and the
    adjunction too."""
    name, nx, ny, seed = case
    lat, rng = WITH_PRODUCT[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    px = random_partition(rng, lat, ux, identity=True)
    py = random_partition(rng, lat, uy, identity=True)
    permuted, sigma = permuted_partition(rng, px, universe("Z", nx))
    cases = [(random_map(rng, ux, uy), px, py, False),
             (sigma, px, permuted, True),
             (identity_map(ux), crisp_partition(lat, ux), px, True)]
    if ny <= nx:
        cut, keep = retraction(rng, px, uy)
        cases.append((keep, px, cut, False))
    for phi, p, q, must_hold in cases:
        hx, hy = stand_in(p), stand_in(q)
        coa = reference_coa_hom(phi, hx, hy)
        assert lf.check_coa_hom(phi, p, q) == coa
        assert lf.check_dia_hom(phi, p, q) == reference_dia_hom(phi, hx, hy)
        assert lf.morphism_transfer_check(phi, p, q, "coa-dia") == \
            reference_transfer(phi, hx, hy, "coa-dia")
        assert lf.morphism_transfer_check(phi, p, q, "dia-coa") == \
            reference_transfer(phi, hx, hy, "dia-coa")
        assert adjunction_outcome(phi, p, q) == \
            reference_adjunction(phi, hx, hy)
        assert coa.holds or not must_hold


# ---------------------------------------------------------------------------
# derived systems and relations

@settings(max_examples=40, deadline=None)
@given(single)
@example(("boolean2", 0, 0))
@example(("grid23", 4, 1))
def test_systems_and_relations(case):
    name, npoints, seed = case
    lat, rng = LATTICES[name], random.Random(seed)
    uni = universe("X", npoints)
    if npoints:
        p = random_partition(rng, lat, uni)
        assert lf.system_from_partition(p).table == \
            reference_system_from_partition(p)
    rel = random_relation(rng, lat, uni)
    assert lf.system_from_relation(rel).table == \
        reference_system_from_relation(rel)
    op = random_operator(rng, lat, uni)
    assert lf.system_from_operator(op).table == \
        reference_system_from_operator(op)
    system = random_system(rng, lat, uni)
    assert lf.relation_from_system(system).rows == \
        reference_relation_from_system(system)
    derived = lf.system_from_relation(rel)
    assert lf.relation_from_system(derived).rows == \
        reference_relation_from_system(derived)


@pytest.mark.parametrize("name", sorted(KERNEL_LATTICES))
def test_relation_of_asymmetric_systems_matches_the_per_set_sweep(name):
    """The extraction reads each unordered pair's join marginal once and
    fills R(z, x) from it swapped: on explicit systems whose relation is
    not symmetric, chains and non-chains alike, on lanes and on lists, both
    halves match the sweep."""
    lat, rng = KERNEL_LATTICES[name], random.Random(name)
    asymmetric = 0
    for npoints in (2, 3, 3) if len(lat) < 16 else (2, 2, 2):
        # the system of a random relation, with a random tenth of its
        # memberships dropped to bottom
        table = list(lf.system_from_relation(random_relation(
            rng, lat, universe("X", npoints))).table)
        for i in rng.sample(range(len(table)), len(table) // 10):
            table[i] = lat.bottom
        system = lf.ClosureSystem(lat, universe("X", npoints), tuple(table),
                                  "explicit")
        rows = lf.relation_from_system(system).rows
        assert rows == reference_relation_from_system(system)
        asymmetric += rows != tuple(zip(*rows))
    assert asymmetric >= 2


# ---------------------------------------------------------------------------
# greatest witnesses: value and first attained site

@settings(max_examples=40, deadline=None)
@given(paired)
@example(("boolean2", 3, 2, 0))
@example(("godel3", 0, 3, 1))
def test_sweep_witnesses(case):
    name, nx, ny, seed = case
    lat, rng = LATTICES[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    phi = random_map(rng, ux, uy)
    sx, sy = random_system(rng, lat, ux), random_system(rng, lat, uy)
    assert witness(lf.fcss_witness(phi, sx, sy)) == \
        reference_fcss(phi, sx, sy)
    ox, oy = random_operator(rng, lat, ux), random_operator(rng, lat, uy)
    assert witness(lf.fcs_witness(phi, ox, oy)) == reference_fcs(phi, ox, oy)


def random_candidate(rng, source, target):
    """A candidate between two partitions: a random point map and index
    map, and per source block its graph pair, an off-graph pair, or both."""
    psi = {name: rng.choice(target.names) for name in source.names}
    pairs = []
    for name in source.names:
        on, off = (name, psi[name]), (name, rng.choice(target.names))
        pairs += rng.choice([[on], [off], [on, off]])
    if not any(pair in pairs for pair in psi.items()):
        pairs.append(next(iter(psi.items())))
    return lf.make_candidate(source, target,
                             random_map(rng, source.universe, target.universe),
                             psi, pairs)[0]


@settings(max_examples=60, deadline=None)
@given(paired)
@example(("godel3", 3, 2, 0))
@example(("boolean2", 2, 2, 1))
def test_point_witnesses(case):
    """fp over its (block, point) terms and fas over its (x, y) terms, each
    against the meet and first attained site of the term list; small
    lattices give ties, non-chain ones meets that no term attains."""
    name, nx, ny, seed = case
    lat, rng = LATTICES[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    res = lat.residuum
    if nx:
        cand = random_candidate(rng, random_partition(rng, lat, ux),
                                random_partition(rng, lat, uy))
        src, tgt = cand.source, cand.target
        terms = [(res[a][tgt.blocks[cand.psi[j]].values[cand.phi.mapping[i]]],
                  (src.names[j], ux.elements[i]))
                 for j in cand.constrained_blocks()
                 for i, a in enumerate(src.blocks[j].values)]
        assert witness(lf.fp_witness(cand)) == meet_with_site(lat, terms)
    phi = random_map(rng, ux, ux)
    rx, ry = random_relation(rng, lat, ux), random_relation(rng, lat, ux)
    terms = [(res[rx.rows[x][y]][ry.rows[phi.mapping[x]][phi.mapping[y]]],
              (ux.elements[x], ux.elements[y]))
             for x in range(nx) for y in range(nx)]
    assert witness(lf.fas_witness(phi, rx, ry)) == meet_with_site(lat, terms)


# ---------------------------------------------------------------------------
# budget errors come first and read the same

@settings(max_examples=20, deadline=None)
@given(paired)
@example(("boolean2", 3, 3, 0))
def test_over_budget_raises_the_same_error(case):
    name, nx, ny, seed = case
    if not (nx and ny):
        return
    lat, rng = LATTICES[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    phi = random_map(rng, ux, uy)
    px = random_partition(rng, lat, ux, identity=True)
    rel, system = random_relation(rng, lat, ux), random_system(rng, lat, ux)
    op = random_operator(rng, lat, ux)
    sy, oy = random_system(rng, lat, uy), random_operator(rng, lat, uy)
    sizes = sorted({len(lat) ** nx, len(lat) ** ny})
    pairs = [
        (lambda *a, budget: tuple(lf.transform_table(*a, budget)),
         reference_transform_table, (px,)),
        (lambda *a, budget: lf.system_from_partition(*a, budget).table,
         reference_system_from_partition, (px,)),
        (lambda *a, budget: lf.system_from_relation(*a, budget).table,
         reference_system_from_relation, (rel,)),
        (lambda *a, budget: lf.system_from_operator(*a, budget).table,
         reference_system_from_operator, (op,)),
        (lambda *a, budget: lf.relation_from_system(*a, budget).rows,
         reference_relation_from_system, (system,)),
        (lambda *a, budget: witness(lf.fcss_witness(*a, budget)),
         reference_fcss, (phi, system, sy)),
        (lambda *a, budget: witness(lf.fcs_witness(*a, budget)),
         reference_fcs, (phi, op, oy)),
    ]
    for budget in {1, max(sizes[0] - 1, 1), max(sizes[-1] - 1, 1)}:
        for new, old, args in pairs:
            assert outcome(new, *args, budget=budget) == \
                outcome(old, *args, budget=budget)


# ---------------------------------------------------------------------------
# explicit systems in documents

@settings(max_examples=25, deadline=None)
@given(single, st.integers(0, 3))
@example(("grid23", 2, 0), 2)
def test_explicit_system_load_reports_the_first_missing_entry(case, dropped):
    name, npoints, seed = case
    lat, rng = LATTICES[name], random.Random(seed)
    uni = universe("X", npoints)
    system = random_system(rng, lat, uni)
    entries = [[list(f.displays()), lat.displays[v]]
               for f, v in zip(enumerate_sets(lat, uni), system.table)]
    for _ in range(min(dropped, len(entries))):
        entries.pop(rng.randrange(len(entries)))
    rng.shuffle(entries)
    present = {tuple(lat.parse(v) for v in key) for key, _ in entries}
    missing = next((lf.set_at(lat, uni, i).values
                    for i in range(len(system.table))
                    if lf.set_at(lat, uni, i).values not in present), None)
    doc = {"lattice": SPECS[name], "universes": {"X": list(uni.elements)},
           "systems": {"S": {"universe": "X", "entries": entries}}}
    if missing is None:
        assert load_document(doc).system("S").table == system.table
    else:
        with pytest.raises(lf.DocumentError) as err:
            load_document(doc)
        assert str(err.value) == (
            f"system S: missing entry for {[lat.displays[v] for v in missing]}")


# ---------------------------------------------------------------------------
# the comparisons above catch one-line mutants of the kernel

_fold, _pointwise, _digits = Space._fold, Space.pointwise, Space.digits


def _fold_wrong_row(self, rows, op=None, start=0):
    return _fold(self, rows[::-1], op, start)  # mutant: points reversed


def _pointwise_swapped(self, p, q, table):
    return _pointwise(self, q, p, table)  # mutant: operands swapped


def _digits_one_late(self, x):
    digits = _digits(self, x)
    return digits[-1:] + digits[:-1]  # mutant: every block one set late


def _relation_short_marginal():
    """`relation_from_system` with the last slice of each join over the
    last axis dropped."""
    source = textwrap.dedent(inspect.getsource(relation.relation_from_system))
    line = "[column[c::n] for c in range(n)]"
    assert source.count(line) == 1
    namespace = dict(vars(relation))
    exec(compile(source.replace(line, "[column[c::n] for c in range(n - 1)]"),
                 relation.__file__, "exec"), namespace)
    return namespace["relation_from_system"]


def _pulled_index_wrong_weight(self, phi):
    n = self.radix
    dim = len(phi.source)
    weight = [0] * len(phi.target)
    for x, y in enumerate(phi.mapping):
        weight[y] += n ** (dim - x)  # mutant: exponent one too high
    return self._fold([range(0, n * w, w) if w else [0] * n
                      for w in weight])


def _index_of_reversed_weights(self, columns, size):
    out = [0] * size
    for w, column in zip(reversed(self.weights), columns):  # mutant
        out = [i + w * v for i, v in zip(out, column)]
    return out


def _kernel_matches_references() -> bool:
    """Every rerouted sweep agrees with its reference on a fixed battery,
    and `index_of`, which only the law checks read, with `index`."""
    try:
        for name, nx, ny, seed in [("boolean2", 3, 2, 0), ("godel3", 3, 3, 1),
                                   ("grid23", 2, 3, 2)]:
            lat, rng = LATTICES[name], random.Random(seed)
            ux, uy = universe("X", nx), universe("Y", ny)
            phi = random_map(rng, ux, uy)
            px = random_partition(rng, lat, ux, identity=True)
            if tuple(lf.transform_table(px)) != reference_transform_table(px):
                return False
            sx, sy = random_system(rng, lat, ux), random_system(rng, lat, uy)
            if witness(lf.fcss_witness(phi, sx, sy)) != \
                    reference_fcss(phi, sx, sy):
                return False
            space = Space(lat, uy)
            columns = [[rng.randrange(len(lat)) for _ in range(space.size)]
                       for _ in uy.elements]
            if space.index_of(columns, space.size) != list(map(
                    space.index, zip(*columns))):
                return False
            rel = random_relation(rng, lat, ux)
            if lf.system_from_relation(rel).table != \
                    reference_system_from_relation(rel):
                return False
            # systems mostly bottom, whose marginals join few values
            for _ in range(4):
                sparse = lf.ClosureSystem(lat, ux, tuple(
                    rng.choice(lat.elements()) if rng.random() < 0.1
                    else lat.bottom for _ in range(len(lat) ** nx)),
                    "explicit")
                if relation.relation_from_system(sparse).rows != \
                        reference_relation_from_system(sparse):
                    return False
    except (IndexError, ValueError):
        return False
    return True


@pytest.mark.parametrize("method, mutant", [
    ("_fold", _fold_wrong_row),
    ("pulled_index", _pulled_index_wrong_weight),
    ("index_of", _index_of_reversed_weights),
    ("pointwise", _pointwise_swapped),
    ("digits", _digits_one_late),
])
def test_kernel_mutants_are_caught(monkeypatch, method, mutant):
    assert _kernel_matches_references()
    monkeypatch.setattr(Space, method, mutant)
    assert not _kernel_matches_references()


def test_marginal_mutant_is_caught(monkeypatch):
    assert _kernel_matches_references()
    monkeypatch.setattr(relation, "relation_from_system",
                        _relation_short_marginal())
    assert not _kernel_matches_references()

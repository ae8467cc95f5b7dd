"""Differential tests of the enumeration kernel, `fuzzyset.Space`.

Every sweep over `L^X` goes through the kernel's prefix-shared folds and
index arithmetic.  Each `reference_*` function below is the per-set formula
the sweep replaced, kept as it was: one `set_at` fuzzy set per index, pushed
through the per-set operators (`ft_field`, `upper_approx`, the image maps,
`set_index`).  The rerouted functions must return the same tables, the same
verdicts with the same first violation or attained site, and raise the same
`BudgetExceeded`, on Gödel and Łukasiewicz chains, `boolean(2)` and
`grid23`, over universes of 0 to 4 points and random maps between them.

The last test patches one line of the kernel at a time (a wrong weight, a
wrong row order, an off-by-one radix) and checks that the comparisons catch
each mutant.
"""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from conftest import FIXTURES
from latfuzz.document import load_document
from latfuzz.fuzzyset import Space, ensure_budget

SPECS = {
    "godel3": {"kind": "godel_chain", "n": 3},
    "lukasiewicz4": {"kind": "lukasiewicz_chain", "n": 4},
    "boolean2": {"kind": "boolean", "atoms": 2},
    "grid23": json.loads((FIXTURES / "grid23.json").read_text())["lattice"],
}
LATTICES = {name: lf.build(spec) for name, spec in SPECS.items()}


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


def reference_t1(phi, lam, lat, budget=lf.DEFAULT_BUDGET):
    ensure_budget(lat, phi.source, budget, "functor table")
    size_y = ensure_budget(lat, phi.target, budget, "functor table")
    if len(lam) != len(lat) ** len(phi.source):
        raise lf.MismatchError("table length does not match the source space")
    out = []
    for i in range(size_y):
        g = lf.set_at(lat, phi.target, i)
        out.append(lam[lf.set_index(lf.backward_image(phi, g))])
    return tuple(out)


def reference_coa_hom(phi, cx, cy, budget=lf.DEFAULT_BUDGET):
    lat = cx.lattice
    size_y = ensure_budget(lat, cy.universe, budget, "homomorphism check")
    for i in range(size_y):
        g = lf.set_at(lat, cy.universe, i)
        pulled_index = lf.set_index(lf.backward_image(phi, g))
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
        pushed_index = lf.set_index(lf.forward_image(phi, f))
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
        u = system.value_at(i)
        for x in range(n):
            fx = f.values[x]
            for z in range(n):
                term = res[u][res[fx][f.values[z]]]
                acc[x][z] = lat.meet[acc[x][z]][term]
    return tuple(tuple(r) for r in acc)


def _meet_with_site(lat, terms):
    items = list(terms)
    value = lat.meet_all(t for t, _ in items)
    attained = next((site for t, site in items if t == value), None)
    return value, attained


def reference_fcss(phi, sys_x, sys_y, budget=lf.DEFAULT_BUDGET):
    lat = sys_x.lattice
    size = ensure_budget(lat, sys_y.universe, budget, "continuity witness")
    res = lat.residuum
    terms = []
    for i in range(size):
        f = lf.set_at(lat, sys_y.universe, i)
        pulled = lf.backward_image(phi, f)
        terms.append((
            res[sys_y.table[i]][sys_x.table[lf.set_index(pulled)]],
            (f.displays(),),
        ))
    return _meet_with_site(lat, terms)


def reference_fcs(phi, op_x, op_y, budget=lf.DEFAULT_BUDGET):
    lat = op_x.lattice
    size = ensure_budget(lat, op_y.universe, budget,
                         "operator continuity witness")
    res = lat.residuum
    ex = op_x.universe.elements
    terms = []
    for i in range(size):
        f = lf.set_at(lat, op_y.universe, i)
        pulled = lf.backward_image(phi, f)
        closed_x = op_x.table[lf.set_index(pulled)]
        closed_y = op_y.table[i]
        for x in range(len(ex)):
            terms.append((
                res[closed_x[x]][closed_y[phi.mapping[x]]],
                (ex[x], f.displays()),
            ))
    return _meet_with_site(lat, terms)


def reference_fas_operator(phi, rel_x, rel_y, budget=lf.DEFAULT_BUDGET):
    lat = rel_x.lattice
    size = ensure_budget(lat, rel_y.universe, budget, "operator witness")
    res = lat.residuum
    ex = rel_x.universe.elements
    terms = []
    for i in range(size):
        f = lf.set_at(lat, rel_y.universe, i)
        pulled = lf.backward_image(phi, f)
        lhs = lf.upper_approx(rel_x, pulled)
        rhs = lf.upper_approx(rel_y, f)
        for x in range(len(ex)):
            terms.append((
                res[lhs.values[x]][rhs.values[phi.mapping[x]]],
                (ex[x], f.displays()),
            ))
    return _meet_with_site(lat, terms)


def reference_ft_inequality(cand, budget=lf.DEFAULT_BUDGET):
    lat = cand.source.lattice
    size = ensure_budget(lat, cand.target.universe, budget,
                         "transform witness")
    res = lat.residuum
    blocks = cand.constrained_blocks()
    terms = []
    for i in range(size):
        f = lf.set_at(lat, cand.target.universe, i)
        pulled = lf.backward_image(cand.phi, f)
        for j in blocks:
            lhs = lf.ft_component(cand.source, pulled, cand.source.names[j])
            rhs = lf.ft_component(
                cand.target, f, cand.target.names[cand.psi[j]]
            )
            terms.append((res[lhs][rhs], (cand.source.names[j], f.displays())))
    return _meet_with_site(lat, terms)


def reference_ft_forward(cand, budget=lf.DEFAULT_BUDGET):
    lat = cand.source.lattice
    size = ensure_budget(lat, cand.source.universe, budget, "transform bound")
    res = lat.residuum
    blocks = cand.constrained_blocks()
    terms = []
    for i in range(size):
        f = lf.set_at(lat, cand.source.universe, i)
        pushed = lf.forward_image(cand.phi, f)
        for j in blocks:
            lhs = lf.ft_component(cand.source, f, cand.source.names[j])
            rhs = lf.ft_component(
                cand.target, pushed, cand.target.names[cand.psi[j]]
            )
            terms.append((res[lhs][rhs], (cand.source.names[j], f.displays())))
    return _meet_with_site(lat, terms)


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
    return lf.system_from_explicit(
        lat, uni, [rng.choice(lat.elements()) for _ in range(size)])


def random_operator(rng, lat, uni):
    size = len(lat) ** len(uni)
    return lf.ClosureOperator(lat, uni, tuple(
        tuple(rng.choice(lat.elements()) for _ in uni.elements)
        for _ in range(size)), "random")


def random_table(rng, lat, uni, view, high):
    """A structure table whose entries are top with probability `high` and
    random otherwise, so hom checks fail at varying first sites or hold."""
    size = len(lat) ** len(uni)
    return lf.StructureTable(lat, uni, tuple(
        tuple(lat.top if rng.random() < high else rng.choice(lat.elements())
              for _ in range(size))
        for _ in uni.elements), "random", view)


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
        lf.set_index(lf.backward_image(phi, lf.set_at(lat, uy, i)))
        for i in range(sy.size)]
    assert sx.pushed_index(phi) == [
        lf.set_index(lf.forward_image(phi, lf.set_at(lat, ux, i)))
        for i in range(sx.size)]
    for x in range(nx):
        assert sx.digits(x) == [v[x] for v in sx.values()]


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
        assert lf.coalgebra_from_partition(p).table == \
            reference_transform_table(p)
        assert lf.dialgebra_from_partition(p).table == \
            reference_transform_table(p)
    phi = random_map(rng, ux, uy)
    lam = tuple(rng.choice(lat.elements()) for _ in range(len(lat) ** nx))
    assert lf.t1_on_morphism(phi, lam, lat) == reference_t1(phi, lam, lat)


@settings(max_examples=60, deadline=None)
@given(paired, st.sampled_from([0.5, 0.9, 0.99, 1.0]))
@example(("boolean2", 3, 2, 3), 0.9)
@example(("lukasiewicz4", 0, 2, 4), 0.5)
@example(("godel3", 0, 0, 5), 0.5)
def test_hom_checks_report_the_same_first_violation(case, high):
    name, nx, ny, seed = case
    lat, rng = LATTICES[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    phi = random_map(rng, ux, uy)
    cx = random_table(rng, lat, ux, "coalgebra", 0.0)
    cy = random_table(rng, lat, uy, "coalgebra", high)
    assert lf.check_coa_hom(phi, cx, cy) == reference_coa_hom(phi, cx, cy)
    dx = random_table(rng, lat, ux, "dialgebra", 0.0)
    dy = random_table(rng, lat, uy, "dialgebra", high)
    assert lf.check_dia_hom(phi, dx, dy) == reference_dia_hom(phi, dx, dy)


@settings(max_examples=25, deadline=None)
@given(paired)
@example(("grid23", 3, 3, 11))
def test_hom_checks_on_partition_tables(case):
    name, nx, ny, seed = case
    if not (nx and ny):
        return
    lat, rng = LATTICES[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    phi = random_map(rng, ux, uy)
    px = random_partition(rng, lat, ux, identity=True)
    py = random_partition(rng, lat, uy, identity=True)
    cx, cy = (lf.coalgebra_from_partition(px),
              lf.coalgebra_from_partition(py))
    dx, dy = lf.coa_to_dia(cx), lf.coa_to_dia(cy)
    assert lf.check_coa_hom(phi, cx, cy) == reference_coa_hom(phi, cx, cy)
    assert lf.check_dia_hom(phi, dx, dy) == reference_dia_hom(phi, dx, dy)


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
    rx, ry = random_relation(rng, lat, ux), random_relation(rng, lat, uy)
    assert witness(lf.fas_operator_witness(phi, rx, ry)) == \
        reference_fas_operator(phi, rx, ry)


@settings(max_examples=30, deadline=None)
@given(paired)
@example(("grid23", 3, 2, 2))
def test_transform_witnesses(case):
    name, nx, ny, seed = case
    if not (nx and ny):
        return
    lat, rng = LATTICES[name], random.Random(seed)
    ux, uy = universe("X", nx), universe("Y", ny)
    phi = random_map(rng, ux, uy)
    p, q = random_partition(rng, lat, ux), random_partition(rng, lat, uy)
    psi = {name: rng.choice(q.names) for name in p.names}
    cand, _ = lf.make_candidate(p, q, phi, psi)
    assert witness(lf.ft_inequality_witness(cand)) == \
        reference_ft_inequality(cand)
    assert witness(lf.ft_forward_bound(cand)) == reference_ft_forward(cand)


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
    cx, cy = (random_table(rng, lat, ux, "coalgebra", 0.5),
              random_table(rng, lat, uy, "coalgebra", 0.5))
    dx, dy = lf.coa_to_dia(cx), lf.coa_to_dia(cy)
    rel, system = random_relation(rng, lat, ux), random_system(rng, lat, ux)
    op = random_operator(rng, lat, ux)
    lam = tuple(rng.choice(lat.elements()) for _ in range(len(lat) ** nx))
    sy, oy = random_system(rng, lat, uy), random_operator(rng, lat, uy)
    sizes = sorted({len(lat) ** nx, len(lat) ** ny})
    pairs = [
        (lf.coalgebra_from_partition,
         lambda *a, budget: lf.StructureTable(
             lat, ux, reference_transform_table(*a, budget), "from_partition",
             "coalgebra"),
         (px,)),
        (lf.t1_on_morphism, reference_t1, (phi, lam, lat)),
        (lf.check_coa_hom, reference_coa_hom, (phi, cx, cy)),
        (lf.check_dia_hom, reference_dia_hom, (phi, dx, dy)),
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
               for f, v in system.entries()]
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

def _fold_wrong_row(self, rows, op=None, start=0):
    acc = [start]
    for row in reversed(rows):  # mutant: points folded in reverse
        if op is None:
            acc = [a + r for a in acc for r in row]
        else:
            acc = [ops[r] for ops in map(op.__getitem__, acc) for r in row]
    return acc


def _pulled_index_wrong_weight(self, phi):
    n = self.radix
    dim = len(phi.source)
    weight = [0] * len(phi.target)
    for x, y in enumerate(phi.mapping):
        weight[y] += n ** (dim - x)  # mutant: exponent one too high
    return self._fold([range(0, n * w, w) if w else [0] * n
                      for w in weight])


def _pushed_index_off_by_one_radix(self, phi):
    n = self.radix
    dim = len(phi.target)
    out = [0] * self.size
    for y in range(dim):
        w = (n + 1) ** (dim - 1 - y)  # mutant: radix one too high
        out = [i + w * v for i, v in zip(out, self.fiber_join(phi, y))]
    return out


def _kernel_matches_references() -> bool:
    """Every rerouted sweep agrees with its reference on a fixed battery."""
    try:
        for name, nx, ny, seed in [("boolean2", 3, 2, 0), ("godel3", 3, 3, 1),
                                   ("grid23", 2, 3, 2)]:
            lat, rng = LATTICES[name], random.Random(seed)
            ux, uy = universe("X", nx), universe("Y", ny)
            phi = random_map(rng, ux, uy)
            px = random_partition(rng, lat, ux, identity=True)
            if lf.coalgebra_from_partition(px).table != \
                    reference_transform_table(px):
                return False
            lam = tuple(rng.choice(lat.elements())
                        for _ in range(len(lat) ** nx))
            if lf.t1_on_morphism(phi, lam, lat) != reference_t1(phi, lam, lat):
                return False
            dx = random_table(rng, lat, ux, "dialgebra", 0.0)
            dy = random_table(rng, lat, uy, "dialgebra", 0.9)
            if lf.check_dia_hom(phi, dx, dy) != reference_dia_hom(phi, dx, dy):
                return False
            rel = random_relation(rng, lat, ux)
            if lf.system_from_relation(rel).table != \
                    reference_system_from_relation(rel):
                return False
    except (IndexError, ValueError):
        return False
    return True


@pytest.mark.parametrize("method, mutant", [
    ("_fold", _fold_wrong_row),
    ("pulled_index", _pulled_index_wrong_weight),
    ("pushed_index", _pushed_index_off_by_one_radix),
])
def test_kernel_mutants_are_caught(monkeypatch, method, mutant):
    assert _kernel_matches_references()
    monkeypatch.setattr(Space, method, mutant)
    assert not _kernel_matches_references()

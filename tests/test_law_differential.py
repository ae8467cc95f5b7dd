"""Differential tests of the law sweeps: `check_system`,
`transform_law_suite` and `law_suite`.

Each sweep reads the index of every combined set (f meet g, f join g, a
tensor f, ...) from one `Space.image_index` column, or for `check_system`
its membership from one `Space.image_lookup` column, instead of building
the set's value tuple and looking its index up, pair by pair.  The functions
below are those pairwise sweeps as they were before, kept verbatim apart
from their names, the result cache the checkers no longer keep, and their
return type: each now returns a `LawReport`.  The rewritten `check_system`
must print the same report bytes in the CLI's layout (every flag, every
counterexample text, in the same key order) on Gödel and Łukasiewicz
chains, `boolean(2)` and `grid23`, over universes of 0 to 4 points: random
explicit systems, partition-derived ones as they are and with random
entries perturbed.  Among the explicit systems are ones where `strong`
fails before `enriched`, whose counterexamples `check_system` reports in
the order it finds them, not in clause order.  The closure-operator axioms
have no package checker; their pairwise sweep is
`reference_check_operator` in `tests/reference.py`.

`transform_law_suite` decides `monotone`, `join_preserving` and
`meet_subhomomorphism` by one-point joins f v e(x, a), visiting no pair,
so where they fail it may name another pair than the pair sweep's first.
On random partitions over the same lattices, with and without a corrupted
tensor, every clause must get the reference's verdict, the clauses swept
set by set its text, and those three clauses a named pair that breaks the
clause by its own definition on the components `ft_transform` gives.

`law_suite` checks its nine clauses in two sweeps, one of the carrier
and one of the triples, and checks the indexed-family clauses on the
empty family and on pairs only.  `reference_law_suite` is its nine
sweeps as they were, one per clause, the family clauses over every subset
of the carrier; on lattices with one to three corrupted tensor or residuum
entries, both must give each clause the same verdict and counterexample
text, listed in clause order.

Past its first |X|^2 rows, `check_system` takes axiom (ii)'s verdict from
`closure._cuts_meet_closed`, the meet lemma's cut test, and scans pairs only
to name the first failing one.  Most failing tables of at most 256 sets
fail within those rows, so the cut test is also compared on its own, on
the lattices above and on `lattices.PRODUCT`, including the one-point
`grid23` system whose failure no cut at a value the system takes shows.

The last test patches one line of the new code at a time and checks that
the comparisons catch each mutant.
"""
import inspect
import random
import textwrap
from ast import literal_eval
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from latfuzz import cli, closure, ftransform, lattice
from latfuzz.closure import ClosureSystem
from latfuzz.errors import BudgetExceeded
from latfuzz.fuzzyset import FuzzySet, Space
from latfuzz.lattice import DEFAULT_BUDGET, Lattice, LawReport
from latfuzz.partition import FuzzyPartition, relation_from_partition
from lattices import spaces, with_product
from reference import constant, ensure_budget, set_index, show_set
from test_ftransform import CORRUPTED_TENSORS, corrupted_partition
from test_space_differential import (
    LATTICES,
    random_partition,
    random_system,
    universe,
)


# ---------------------------------------------------------------------------
# the pairwise sweeps the columns replaced

def reference_check_system(system: ClosureSystem,
                 budget: int = DEFAULT_BUDGET) -> LawReport:
    """Full-table check: top membership, meet-superadditivity over all pairs
    (pairwise suffices for finite families; the empty meet is the top-set
    axiom), and stability under residuation/tensor with constants.
    """
    lat = system.lattice
    uni = system.universe
    size = ensure_budget(lat, uni, budget, "closure system check")
    meet = lat.meet
    counter: dict = {}

    top_index = set_index(constant(lat, uni, lat.top))
    axiom_i = system.table[top_index] == lat.top
    if not axiom_i:
        counter["axiom_i"] = (
            f"membership of the constant-top set is "
            f"{lat.displays[system.table[top_index]]}"
        )

    space = Space(lat, uni)
    index = space.index
    all_vals = list(space.values())
    axiom_ii = True
    for i in range(size):
        if not axiom_ii:
            break
        fi = all_vals[i]
        ui = system.table[i]
        for j in range(i, size):
            mv = tuple(meet[a][b] for a, b in zip(fi, all_vals[j]))
            if not lat.leq[meet[ui][system.table[j]]][
                system.table[index(mv)]
            ]:
                axiom_ii = False
                counter["axiom_ii"] = (
                    f"pair ({show_set(lat, fi)}, {show_set(lat, all_vals[j])})"
                )
                break

    enriched = True
    strong = True
    res, tensor = lat.residuum, lat.tensor
    for a in lat.elements():
        for i in range(size):
            fi = all_vals[i]
            ui = system.table[i]
            ri = index(tuple(res[a][v] for v in fi))
            if enriched and not lat.leq[ui][system.table[ri]]:
                enriched = False
                counter["enriched"] = (
                    f"constant {lat.displays[a]} with {show_set(lat, fi)}"
                )
            ti = index(tuple(tensor[a][v] for v in fi))
            if strong and not lat.leq[ui][system.table[ti]]:
                strong = False
                counter["strong"] = (
                    f"constant {lat.displays[a]} with {show_set(lat, fi)}"
                )
        if not enriched and not strong:
            break

    return LawReport(uni.name, ("axiom_i", "axiom_ii", "enriched", "strong"),
                     counter)


def reference_transform_law_suite(p: FuzzyPartition,
                        budget: int = DEFAULT_BUDGET) -> LawReport:
    """Exhaustive sweep of the component laws over the whole function space:
    constants are fixed, components are monotone, tensor by a constant
    scales through, binary joins are preserved, binary meets only shrink.
    Two structural cross-checks ride along: the field dominates its argument
    and agrees with the upper approximation along the induced relation.
    """
    lat = p.lattice
    size = ensure_budget(lat, p.universe, budget, "transform law suite")
    space = Space(lat, p.universe)
    sets = list(space.values())
    comps = list(zip(*(space.upper(block.values) for block in p.blocks)))
    index_of = {f: i for i, f in enumerate(sets)}
    d = lat.displays

    def show(values):
        return tuple(d[v] for v in values)

    laws: dict = {}

    def run(key, gen):
        laws[key] = next(gen, None)

    def constants():
        for a in lat.elements():
            got = comps[index_of[constant(lat, p.universe, a).values]]
            if any(v != a for v in got):
                yield f"constant {d[a]} transforms to {[d[v] for v in got]}"

    def monotone():
        # The sets above f, in enumeration order, are the product of the
        # up-sets of its values; every other g fails f <= g and is skipped.
        above = [tuple(b for b in lat.elements() if lat.leq[a][b])
                 for a in lat.elements()]
        for i, f in enumerate(sets):
            for gv in product(*(above[v] for v in f)):
                j = index_of[gv]
                if any(not lat.leq[x][y] for x, y in zip(comps[i], comps[j])):
                    yield (f"{show(f)} <= {show(sets[j])} "
                           f"but components drop")
                    return

    def tensor_scaling():
        for a in lat.elements():
            for i, f in enumerate(sets):
                scaled = tuple(lat.tensor[a][v] for v in f)
                got = comps[index_of[scaled]]
                want = tuple(lat.tensor[a][v] for v in comps[i])
                if got != want:
                    yield f"constant {d[a]} with {show(f)}"
                    return

    def join_preserving():
        for i, f in enumerate(sets):
            for j in range(i, size):
                joined = tuple(lat.join[a][b]
                               for a, b in zip(f, sets[j]))
                got = comps[index_of[joined]]
                want = tuple(lat.join[a][b] for a, b in zip(comps[i], comps[j]))
                if got != want:
                    yield f"pair ({show(f)}, {show(sets[j])})"
                    return

    def meet_bound():
        for i, f in enumerate(sets):
            for j in range(i, size):
                met = tuple(lat.meet[a][b]
                            for a, b in zip(f, sets[j]))
                got = comps[index_of[met]]
                want = tuple(lat.meet[a][b] for a, b in zip(comps[i], comps[j]))
                if any(not lat.leq[x][y] for x, y in zip(got, want)):
                    yield f"pair ({show(f)}, {show(sets[j])})"
                    return

    def inflationary():
        for i, f in enumerate(sets):
            fld = tuple(comps[i][p.xi[k]] for k in range(len(p.universe)))
            if any(not lat.leq[a][b] for a, b in zip(f, fld)):
                yield f"{show(f)} not below its field"
                return

    def field_matches_relation():
        from latfuzz.relation import upper_approx

        rel = relation_from_partition(p)
        for i, f in enumerate(sets):
            fld = tuple(comps[i][p.xi[k]] for k in range(len(p.universe)))
            if upper_approx(rel, FuzzySet(lat, p.universe, f)).values != fld:
                yield f"field of {show(f)} differs from the approximation"
                return

    run("constant", constants())
    run("monotone", monotone())
    run("tensor_scaling", tensor_scaling())
    run("join_preserving", join_preserving())
    run("meet_subhomomorphism", meet_bound())
    run("inflationary", inflationary())
    run("field_equals_upper_approx", field_matches_relation())
    return LawReport(p.universe.name, tuple(laws),
                     {k: v for k, v in laws.items() if v is not None})


def _subsets(n: int):
    """Every subset of range(n), by size, each size in lexicographic
    order."""
    items = list(range(n))
    for size in range(n + 1):
        yield from combinations(items, size)


def reference_law_suite(lat: Lattice,
                        budget: int = DEFAULT_BUDGET) -> LawReport:
    """Check the nine derived-law clauses exhaustively.

    Triple-quantified clauses sweep all |L|^3 triples; the indexed-family
    clauses sweep every subset of the carrier, which suffices on a finite
    lattice (joins and meets of a family only depend on its underlying set).

    Every clause is a theorem on every lattice that `from_tables` accepts,
    so the suite checks the implementation, not the lattice: only tables
    corrupted after validation make a clause fail.
    """
    n = len(lat)
    family_cost = (1 << n) * n
    if n ** 3 > budget or family_cost > budget:
        raise BudgetExceeded(max(n ** 3, family_cost), budget, "law suite")

    d = lat.displays
    tensor, res = lat.tensor, lat.residuum
    le = lat.leq
    bot, top = lat.bottom, lat.top
    found: dict = {}
    fail = found.setdefault  # a clause keeps its first counterexample

    # (i) a*0 = 0 and a*1 = a
    for a in range(n):
        if tensor[a][bot] != bot:
            fail("i", f"tensor({d[a]}, 0) = {d[tensor[a][bot]]}")
        if tensor[a][top] != a:
            fail("i", f"tensor({d[a]}, 1) = {d[tensor[a][top]]}")

    # (ii) a->1 = 1, 1->a = a, a->a = 1
    for a in range(n):
        if res[a][top] != top:
            fail("ii", f"residuum({d[a]}, 1) = {d[res[a][top]]}")
        if res[top][a] != a:
            fail("ii", f"residuum(1, {d[a]}) = {d[res[top][a]]}")
        if res[a][a] != top:
            fail("ii", f"residuum({d[a]}, {d[a]}) = {d[res[a][a]]}")

    # (iii) monotone in the right argument, antitone in the left
    for a in range(n):
        for b in range(n):
            if not le[a][b]:
                continue
            for c in range(n):
                if not le[res[c][a]][res[c][b]]:
                    fail("iii", f"a={d[a]} <= b={d[b]}, c={d[c]}: "
                                f"c->a !<= c->b")
                if not le[res[b][c]][res[a][c]]:
                    fail("iii", f"a={d[a]} <= b={d[b]}, c={d[c]}: "
                                f"a->c !>= b->c")

    # (iv) currying: (a*b)->c = a->(b->c); and a*(b->c) <= (a->b)->c
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if res[tensor[a][b]][c] != res[a][res[b][c]]:
                    fail("iv", f"(a*b)->c != a->(b->c) at "
                               f"({d[a]}, {d[b]}, {d[c]})")
                if not le[tensor[a][res[b][c]]][res[res[a][b]][c]]:
                    fail("iv", f"a*(b->c) !<= (a->b)->c at "
                               f"({d[a]}, {d[b]}, {d[c]})")

    # (v) (a->b)*c <= a->(b*c); a*b->a*c >= b->c
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not le[tensor[res[a][b]][c]][res[a][tensor[b][c]]]:
                    fail("v", f"(a->b)*c !<= a->(b*c) at "
                              f"({d[a]}, {d[b]}, {d[c]})")
                if not le[res[b][c]][res[tensor[a][b]][tensor[a][c]]]:
                    fail("v", f"a*b->a*c !>= b->c at ({d[a]}, {d[b]}, {d[c]})")

    # (vi) (a->b)->(c->b) >= c->a; (a->b)->(a->c) >= b->c
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not le[res[c][a]][res[res[a][b]][res[c][b]]]:
                    fail("vi", f"(a->b)->(c->b) !>= c->a at "
                               f"({d[a]}, {d[b]}, {d[c]})")
                if not le[res[b][c]][res[res[a][b]][res[a][c]]]:
                    fail("vi", f"(a->b)->(a->c) !>= b->c at "
                               f"({d[a]}, {d[b]}, {d[c]})")

    def show_family(fam):
        return "{" + ",".join(d[a] for a in fam) + "}"

    # (vii) join distributes over tensor; meet sub-distributes
    for fam in _subsets(n):
        j = lat.join_all(fam)
        m = lat.meet_all(fam)
        for b in range(n):
            if tensor[j][b] != lat.join_all(tensor[a][b] for a in fam):
                fail("vii", f"(join {show_family(fam)})*{d[b]} mismatch")
            if not le[tensor[m][b]][lat.meet_all(tensor[a][b] for a in fam)]:
                fail("vii", f"(meet {show_family(fam)})*{d[b]} too large")

    # (viii) a->meet = meet of a->; join->b = meet of ->b
    for fam in _subsets(n):
        m = lat.meet_all(fam)
        j = lat.join_all(fam)
        for a in range(n):
            if res[a][m] != lat.meet_all(res[a][x] for x in fam):
                fail("viii", f"{d[a]}->meet {show_family(fam)} mismatch")
            if res[j][a] != lat.meet_all(res[x][a] for x in fam):
                fail("viii", f"join {show_family(fam)}->{d[a]} mismatch")

    # (ix) join of a-> is below a->join
    for fam in _subsets(n):
        j = lat.join_all(fam)
        for a in range(n):
            if not le[lat.join_all(res[a][x] for x in fam)][res[a][j]]:
                fail("ix", f"join of {d[a]}->_ over {show_family(fam)} "
                           f"exceeds {d[a]}->join")

    return LawReport(lat.name, ("i", "ii", "iii", "iv", "v", "vi", "vii",
                                "viii", "ix"), found)


# ---------------------------------------------------------------------------
# random inputs

def corrupted(rng, lat):
    """`lat` with one to three random tensor entries overwritten; the tables
    are no longer validated, so the transform laws may fail."""
    tensor = [list(row) for row in lat.tensor]
    for _ in range(rng.randint(1, 3)):
        tensor[rng.randrange(len(lat))][rng.randrange(len(lat))] = \
            rng.choice(lat.elements())
    return lf.replace(lat, tensor=tuple(map(tuple, tensor)))


def corrupted_tables(rng, lat):
    """`lat` with one to three random tensor or residuum entries
    overwritten, so the derived laws may fail."""
    tables = {"tensor": [list(row) for row in lat.tensor],
              "residuum": [list(row) for row in lat.residuum]}
    for _ in range(rng.randint(1, 3)):
        table = tables[rng.choice(sorted(tables))]
        table[rng.randrange(len(lat))][rng.randrange(len(lat))] = \
            rng.choice(lat.elements())
    return lf.replace(lat, **{k: tuple(map(tuple, t))
                              for k, t in tables.items()})


def perturbed_system(rng, system):
    lat, table = system.lattice, list(system.table)
    for _ in range(rng.randint(1, 3)):
        table[rng.randrange(len(table))] = rng.choice(lat.elements())
    return lf.ClosureSystem(lat, system.universe, tuple(table), "explicit")


def top_lowered(rng, system):
    """`system` with the top set's membership moved below top: axiom (i)
    fails, and so does every cut above the new value, yet (ii) holds when
    it held, since f meet top = f."""
    lat, table = system.lattice, list(system.table)
    table[-1] = rng.choice([a for a in lat.elements() if a != lat.top])
    return lf.ClosureSystem(lat, system.universe, tuple(table), "explicit")


def crisp_system(rng, lat, uni):
    """Membership top on a random family of crisp sets (values bottom and
    top only), bottom elsewhere.  Off the two-element chain, a crisp set
    reaches the members above it only across values strictly between, so
    an up-set meet that stops one value up misses them."""
    crisp = (lat.bottom, lat.top)
    return lf.ClosureSystem(lat, uni, tuple(
        lat.top if all(v in crisp for v in f) and rng.random() < 0.5
        else lat.bottom for f in Space(lat, uni).values()), "explicit")


def make_system(rng, lat, uni, kind):
    if kind == "random":
        return random_system(rng, lat, uni)
    if kind == "crisp":
        return crisp_system(rng, lat, uni)
    system = lf.system_from_partition(random_partition(rng, lat, uni))
    if kind == "top-lowered":
        return top_lowered(rng, system)
    return perturbed_system(rng, system) if kind == "perturbed" else system


def report_text(payload) -> str:
    """`payload` as the CLI writes it, its chunks joined."""
    chunks = []
    cli._write_json(payload, chunks.append)
    return "".join(chunks)


def axioms_text(report) -> str:
    return report_text(cli._axioms_json(report))


def system_reports(system):
    """The rewritten and the reference report, as the CLI prints them."""
    return (axioms_text(closure.check_system(system)),
            axioms_text(reference_check_system(system)))


def cut_verdict(system) -> bool:
    """Axiom (ii) as the cut test decides it, on the whole table."""
    space = Space(system.lattice, system.universe)
    return closure._cuts_meet_closed(space, system.table)


def system_matches(system) -> bool:
    """The report and the cut test's verdict agree with the pair sweep."""
    reference = reference_check_system(system)
    return (axioms_text(closure.check_system(system))
            == axioms_text(reference)
            and cut_verdict(system) == reference.holds("axiom_ii"))


# the clauses swept set by set, whose texts the pair sweep's must equal
SET_CLAUSES = ("constant", "tensor_scaling", "inflationary",
               "field_equals_upper_approx")


def named_pair(p, text):
    """The two value tuples a `monotone` or pair counterexample names."""
    text = text.removeprefix("pair ").removesuffix(" but components drop")
    return [tuple(map(p.lattice.parse, s))
            for s in literal_eval(text.replace(" <= ", ", "))]


def breaks(p, clause, text) -> bool:
    """The pair `text` names breaks `clause` by the clause's own definition
    on the components `ft_transform` gives: for `monotone` f <= g and some
    component drops; for a pair, written lower index first, C(f v g) !=
    C(f) v C(g), or C(f ^ g) !<= C(f) ^ C(g)."""
    lat = p.lattice
    f, g = named_pair(p, text)

    def comps(values):
        return lf.ft_transform(p, FuzzySet(lat, p.universe, values))

    def pointwise(table, u, v):
        return tuple(table[a][b] for a, b in zip(u, v))

    def below(u, v):
        return all(lat.leq[a][b] for a, b in zip(u, v))

    if clause == "monotone":
        return below(f, g) and not below(comps(f), comps(g))
    space = Space(lat, p.universe)
    if space.index(f) > space.index(g):
        return False
    if clause == "join_preserving":
        return (comps(pointwise(lat.join, f, g))
                != pointwise(lat.join, comps(f), comps(g)))
    return not below(comps(pointwise(lat.meet, f, g)),
                     pointwise(lat.meet, comps(f), comps(g)))


def transform_mismatches(p) -> list:
    """Where `transform_law_suite` and the pair sweep disagree: the clauses
    whose verdicts differ, whose texts differ for a clause swept set by
    set, or whose named pair breaks no law; "order" when the
    counterexamples are listed in another order."""
    new = ftransform.transform_law_suite(p)
    reference = reference_transform_law_suite(p)
    mismatches = [] if list(new.counterexamples) == \
        list(reference.counterexamples) else ["order"]
    for clause in reference.clauses:
        text = new.counterexamples.get(clause)
        if clause in SET_CLAUSES:
            same = text == reference.counterexamples.get(clause)
        else:
            same = (text is None) == reference.holds(clause) and \
                (text is None or breaks(p, clause, text))
        if not same:
            mismatches.append(clause)
    return mismatches


# one lattice, one universe size (0-4 points, at most 256 sets, so the
# reference sweeps stay quick), one seed and whether to corrupt the tensor
case = st.tuples(
    st.sampled_from(sorted(LATTICES)), st.integers(0, 4),
    st.integers(0, 2 ** 32 - 1), st.booleans(),
).filter(lambda c: len(LATTICES[c[0]]) ** c[1] <= 256)
kinds = st.sampled_from(["random", "partition", "perturbed"])


def setup(case, min_points=0):
    name, npoints, seed, corrupt = case
    rng = random.Random(seed)
    lat = corrupted(rng, LATTICES[name]) if corrupt else LATTICES[name]
    return lat, universe("X", max(npoints, min_points)), rng


# ---------------------------------------------------------------------------
# the comparisons

@settings(max_examples=60, deadline=None)
@given(case, kinds)
@example(("godel3", 0, 0, False), "random")
@example(("boolean2", 4, 1, False), "partition")
@example(("grid23", 3, 2, False), "perturbed")
@example(("boolean2", 1, 3, False), "random")  # strong fails before enriched
def test_check_system_matches_the_pairwise_sweep(case, kind):
    lat, uni, rng = setup(case, min_points=0 if kind == "random" else 1)
    new, reference = system_reports(make_system(rng, lat, uni, kind))
    assert new == reference


@settings(max_examples=60, deadline=None)
@given(case)
@example(("boolean2", 4, 1, False))
@example(("godel3", 4, 3, True))
def test_transform_law_suite_matches_the_pairwise_sweep(case):
    lat, uni, rng = setup(case, min_points=1)
    assert transform_mismatches(random_partition(rng, lat, uni)) == []


def lattice_reports(lat):
    """Each clause's verdict and counterexample, in the order reported, from
    `law_suite` and from the nine sweeps it merged."""
    return tuple((report.clauses, list(report.counterexamples.items()))
                 for report in (lattice.law_suite(lat),
                                reference_law_suite(lat)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(LATTICES)), st.integers(0, 2 ** 32 - 1))
@example("grid23", 0)
def test_law_suite_matches_the_nine_sweeps(name, seed):
    new, reference = lattice_reports(
        corrupted_tables(random.Random(seed), LATTICES[name]))
    assert new == reference


# the lattices above and the Gödel x Łukasiewicz product
WIDE_LATTICES = with_product(LATTICES)
CUT_KINDS = ["random", "crisp", "partition", "perturbed", "top-lowered"]


@st.composite
def systems(draw):
    """A system over `WIDE_LATTICES` with at most 256 sets, of any kind;
    explicit on 0 points, where no partition exists."""
    name, npoints, seed = draw(spaces(WIDE_LATTICES))
    kind = draw(st.sampled_from(CUT_KINDS if npoints else CUT_KINDS[:2]))
    return make_system(random.Random(seed), WIDE_LATTICES[name],
                       universe("X", npoints), kind)


def grid_system():
    """The one-point `grid23` system with S(11)=11, S(02)=02, S(12)=12 and
    00 elsewhere.  Axiom (ii) fails at the pair ((02), (11)), whose meet is
    01, yet every cut at a value S takes is meet-closed, as S never takes
    01."""
    lat = LATTICES["grid23"]
    table = [lat.bottom] * len(lat)
    for v in ("11", "02", "12"):
        table[lat.parse(v)] = lat.parse(v)
    return lf.ClosureSystem(lat, universe("X", 1), tuple(table), "explicit")


@settings(max_examples=100, deadline=None)
@given(systems())
@example(grid_system())
def test_cut_test_matches_the_pairwise_sweep(system):
    reference = reference_check_system(system)
    assert cut_verdict(system) == reference.holds("axiom_ii")
    assert axioms_text(closure.check_system(system)) == \
        axioms_text(reference)


@pytest.fixture
def folds(monkeypatch):
    """A count, in `folds[0]`, of the `Space.image_index` columns folded
    from here on."""
    count = [0]
    image_index = Space.image_index

    def counted(self, rows):
        count[0] += 1
        return image_index(self, rows)

    monkeypatch.setattr(Space, "image_index", counted)
    return count


def test_passing_system_folds_at_most_the_first_rows(folds):
    """On a passing 4096-set system, the pair scan folds only its first
    |X|^2 rows: the cut test decides the rest."""
    lat, uni = lf.boolean_algebra(2), universe("X", 6)
    system = lf.system_from_partition(random_partition(random.Random(5),
                                                       lat, uni))
    assert closure.check_system(system).all_hold
    # less the enriched and strong columns, one each per constant
    assert folds[0] - 2 * len(lat) <= len(uni) ** 2


def test_transform_law_suite_folds_once_per_point_and_value(folds):
    """On a passing 4096-set partition, the transform laws fold one column
    per point and value, for the one-point joins, and one per constant,
    for tensor scaling: |X|.|L| + |L| in all, where a pair sweep folds
    columns per set."""
    lat, uni = lf.boolean_algebra(2), universe("X", 6)
    p = random_partition(random.Random(5), lat, uni)
    assert ftransform.transform_law_suite(p).all_hold
    assert folds[0] <= len(uni) * len(lat) + len(lat)


def interleaved_system():
    """The explicit system of the CLI tests' `laws closure` case on an
    inline document: `strong` fails at constant 0, before `enriched` fails
    at constant 1/2."""
    lat = lf.lukasiewicz_chain(3)
    return lf.ClosureSystem(lat, universe("X", 1), (1, 0, 2), "explicit")


def test_check_system_reports_counterexamples_in_the_order_found():
    system = interleaved_system()
    assert list(closure.check_system(system).counterexamples) == \
        ["strong", "enriched"]
    new, reference = system_reports(system)
    assert new == reference


# ---------------------------------------------------------------------------
# the comparisons above catch one-line mutants of the rewritten sweeps

def _all_match() -> bool:
    """Every check agrees with its reference on a fixed battery, the
    transform laws also on the hand-corrupted tensors; the cut test also
    on its own, on the kinds of system made for it."""
    try:
        if not (system_matches(interleaved_system())
                and system_matches(grid_system())):
            return False
        for rows, _ in CORRUPTED_TENSORS:
            if transform_mismatches(corrupted_partition(rows)):
                return False
        for name in sorted(LATTICES):
            for seed in range(6):
                new, reference = lattice_reports(
                    corrupted_tables(random.Random(seed), LATTICES[name]))
                if new != reference:
                    return False
        for name in sorted(LATTICES):
            for seed in range(6):
                rng = random.Random(seed)
                npoints = 2 if len(LATTICES[name]) > 4 else 3
                lat = corrupted(rng, LATTICES[name]) if seed % 2 \
                    else LATTICES[name]
                uni = universe("X", npoints)
                for kind in ("random", "partition", "perturbed"):
                    if not system_matches(make_system(rng, lat, uni, kind)):
                        return False
                if transform_mismatches(random_partition(rng, lat, uni)):
                    return False
        for name in sorted(WIDE_LATTICES):
            lat = WIDE_LATTICES[name]
            uni = universe("X", 2 if len(lat) > 4 else 3)
            for seed in range(2):
                rng = random.Random(seed)
                for kind in ("crisp", "top-lowered"):
                    if not system_matches(make_system(rng, lat, uni, kind)):
                        return False
    except IndexError:
        return False
    return True


# (module, function, line, mutated line), each with a fixed id: inserting a
# mutant renames no other.  Each mutant changes one line.
# A scan that starts at j = i + 1 is no mutant: the diagonal pair (f, f)
# satisfies every pair law on any table, since f meet f = f join f = f.
MUTANTS = [
    pytest.param(closure, "check_system",
                 "        j = holds.index(0, i) if 0 in holds[i:] else None",
                 "        j = holds.index(0, i + 2) if 0 in holds[i + 2:] "
                 "else None",
                 id="check_system-0"),
    # the image column scan: the inequality read the wrong way round; a
    # constant's misses in clause order, not in set order
    pytest.param(closure, "check_system",
                 "holds = space.pointwise(lane, image, order)",
                 "holds = space.pointwise(image, lane, order)",
                 id="check_system-1"),
    pytest.param(closure, "check_system",
                 "for i, key in sorted(found):", "for i, key in found:",
                 id="check_system-clause-order"),
    # transform_law_suite's one-point sweep: steps at the first point only;
    # a step by meet, not join; meet_subhomomorphism not failed with
    # monotone; the drop tested the wrong way; the join law's pair named
    # as (f, f v e(x, a)), not (f, e(x, a))
    pytest.param(ftransform, "transform_law_suite",
                 "for x in range(dim):", "for x in range(min(dim, 1)):",
                 id="transform_law_suite-first-point-only"),
    pytest.param(ftransform, "transform_law_suite",
                 "joined = space.image_index([join[a if y == x else bottom]",
                 "joined = space.image_index([lat.meet[a if y == x else "
                 "lat.top]",
                 id="transform_law_suite-meet-step"),
    pytest.param(ftransform, "transform_law_suite",
                 'fail("meet_subhomomorphism",',
                 'found.get("meet_subhomomorphism",',
                 id="transform_law_suite-meet-not-with-monotone"),
    pytest.param(ftransform, "transform_law_suite",
                 "if any(not leq[c[f]][c[g]] for c in columns):",
                 "if any(not leq[c[g]][c[f]] for c in columns):",
                 id="transform_law_suite-drop-reversed"),
    pytest.param(ftransform, "transform_law_suite",
                 "show(*sorted((i, e)))", "show(*sorted((i, joined[i])))",
                 id="transform_law_suite-join-pair-not-generator"),
    pytest.param(lf.fuzzyset.Space, "image_index", "zip(self.weights, rows)",
                 "zip(reversed(self.weights), rows)",
                 id="image_index-4"),
    # counterexamples written in clause order, not in the order found
    pytest.param(closure, "check_system", "                     counter)",
                 "                     dict(sorted(counter.items())))",
                 id="check_system-5"),
    # the cut test: cuts only at values the table takes; a set with no
    # member above taken as having the top set above it; upper covers
    # swept bottom up by the up-set meet, so a value meets covers not yet
    # met with theirs
    pytest.param(closure, "_cuts_meet_closed",
                 "for a in lat.elements():", "for a in {*table}:",
                 id="cuts-image-only"),
    pytest.param(closure, "_cuts_meet_closed",
                 "zip(at, above[0]) if v)", "zip(at, above[0]))",
                 id="cuts-sentinel-dropped"),
    pytest.param(Space, "meets_above",
                 "key=lambda d: len(above[d])", "key=lambda d: -len(above[d])",
                 id="cuts-covers-bottom-up"),
    # the family clauses: the empty family's 0*a = 0 not checked; only
    # pairs of adjacent ordinals checked; the pair's meet taken for its join
    pytest.param(lattice, "law_suite",
                 "        if tensor[bot][a] != bot:\n",
                 "        if False:\n",
                 id="law_suite-empty-family"),
    pytest.param(lattice, "law_suite", "if a >= b:", "if a + 1 != b:",
                 id="law_suite-adjacent-pairs"),
    pytest.param(lattice, "law_suite", "j, m = join[a][b], meet[a][b]",
                 "j, m = meet[a][b], meet[a][b]",
                 id="law_suite-pair-meet-for-join"),
]


def _mutant(owner, name, line, mutated):
    """`owner.name` recompiled with `line` replaced by `mutated`."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(line) == 1
    module = inspect.getmodule(getattr(owner, name))
    namespace = dict(vars(module))
    exec(compile(source.replace(line, mutated), module.__file__, "exec"),
         namespace)
    return namespace[name]


@pytest.mark.parametrize("owner, name, line, mutated", MUTANTS)
def test_mutants_are_caught(monkeypatch, owner, name, line, mutated):
    assert _all_match()
    monkeypatch.setattr(owner, name, _mutant(owner, name, line, mutated))
    assert not _all_match()

"""Per-set reference formulas and fixture builders for the tests.

The package sweeps `L^X` only through `fuzzyset.Space`, whole columns at a
time.  The functions here are the set-by-set forms the differential tests
compare those sweeps against (images along a map, one transform component,
the index of one set, a budget-guarded sweep of every set, the budget rule
itself), lookups of one set in a system or operator table, of one block of
a partition and of one entry of a relation, the pointwise order, cores and
reflexivity, plus builders for hand-made sets, maps, candidates, operators
and relations (composites included).  None of them is package API.

The last section holds the per-set sweeps behind claims the CLI does not
report: the set-level functor T1 on tables, the two transfer witnesses
(the F-transform inequality and the approximation-operator inequality), the
forward transform bound, and the closure-operator axioms.  The paper-claim
tests assert those claims through them.
"""

from latfuzz.closure import ClosureOperator
from latfuzz.errors import BudgetExceeded, MismatchError, PartitionError, quote
from latfuzz.ftransform import _require_on
from latfuzz.fuzzyset import FuzzySet, Space, Universe, UniverseMap, set_at
from latfuzz.lattice import DEFAULT_BUDGET, Lattice, LawReport
from latfuzz.morphism import FPMapCandidate, make_candidate
from latfuzz.partition import FuzzyPartition
from latfuzz.relation import FuzzyRelation, upper_approx


def ensure_budget(lat: Lattice, universe: Universe, budget: int,
                  what: str = "enumeration of the function space") -> int:
    """The budget rule, stated apart from the package's `Space`."""
    size = len(lat) ** len(universe)
    if size > budget:
        raise BudgetExceeded(size, budget, what)
    return size


def forward_image(phi: UniverseMap, f: FuzzySet) -> FuzzySet:
    """Join over each fiber; empty fibers land on bottom."""
    if f.universe != phi.source:
        raise MismatchError(
            f"forward image: set on {f.universe.name}, map from {phi.source.name}"
        )
    lat = f.lattice
    vals = [lat.bottom] * len(phi.target)
    for i, v in enumerate(f.values):
        t = phi.mapping[i]
        vals[t] = lat.join[vals[t]][v]
    return FuzzySet(lat, phi.target, tuple(vals))


def backward_image(phi: UniverseMap, g: FuzzySet) -> FuzzySet:
    if g.universe != phi.target:
        raise MismatchError(
            f"backward image: set on {g.universe.name}, map into {phi.target.name}"
        )
    return FuzzySet(
        g.lattice, phi.source, tuple(g.values[t] for t in phi.mapping)
    )


def set_index(f: FuzzySet) -> int:
    """Position of f in the lexicographic enumeration (mixed radix)."""
    return Space(f.lattice, f.universe).index(f.values)


def system_value(system, f: FuzzySet) -> int:
    """The membership degree of f in a closure system."""
    return system.table[set_index(f)]


def apply_operator(op: ClosureOperator, f: FuzzySet) -> FuzzySet:
    """The closure of f under an extensional operator."""
    return FuzzySet(op.lattice, op.universe, op.table[set_index(f)])


def le(f: FuzzySet, g: FuzzySet) -> bool:
    """f <= g pointwise."""
    return all(f.lattice.leq[a][b] for a, b in zip(f.values, g.values))


def core(f: FuzzySet) -> tuple[str, ...]:
    """The labels of the points where f is top."""
    return tuple(e for e, v in zip(f.universe.elements, f.values)
                 if v == f.lattice.top)


def block(p: FuzzyPartition, name: str) -> FuzzySet:
    """The block of a partition that `name` names."""
    try:
        return p.blocks[p.names.index(name)]
    except ValueError:
        raise PartitionError(f"unknown block {quote(name)}") from None


def relation_value(rel: FuzzyRelation, x_label: str, y_label: str) -> int:
    """The degree to which `x_label` relates to `y_label`."""
    return rel.rows[rel.universe.index(x_label)][rel.universe.index(y_label)]


def is_reflexive(rel: FuzzyRelation) -> bool:
    return all(row[i] == rel.lattice.top for i, row in enumerate(rel.rows))


def enumerate_sets(lat: Lattice, universe: Universe,
                   budget: int = DEFAULT_BUDGET):
    """Deterministic lexicographic sweep of every fuzzy set on the universe."""
    ensure_budget(lat, universe, budget)
    for values in Space(lat, universe).values():
        yield FuzzySet(lat, universe, values)


def ft_component(p: FuzzyPartition, f: FuzzySet, name: str) -> int:
    _require_on(p, f)
    lat = p.lattice
    acc = lat.bottom
    for a, v in zip(block(p, name).values, f.values):
        acc = lat.join[acc][lat.tensor[a][v]]
    return acc


def operator_from_function(lat: Lattice, universe: Universe, fn,
                           budget: int = DEFAULT_BUDGET,
                           provenance: str = "explicit") -> ClosureOperator:
    """Tabulate an arbitrary L^X -> L^X function (mostly for tests and
    hand-made fixtures)."""
    ensure_budget(lat, universe, budget, "operator tabulation")
    table = [tuple(fn(FuzzySet(lat, universe, values)).values)
             for values in Space(lat, universe).values()]
    return ClosureOperator(lat, universe, tuple(table), provenance)


def identity_operator(lat: Lattice, universe: Universe,
                      budget: int = DEFAULT_BUDGET) -> ClosureOperator:
    return operator_from_function(lat, universe, lambda f: f, budget, "identity")


def identity_relation(lat: Lattice, universe: Universe) -> FuzzyRelation:
    n = len(universe)
    return FuzzyRelation(lat, universe, tuple(
        tuple(lat.top if i == j else lat.bottom for j in range(n))
        for i in range(n)
    ))


def constant_relation(lat: Lattice, universe: Universe, a: int) -> FuzzyRelation:
    lat.check_element(a)
    n = len(universe)
    return FuzzyRelation(lat, universe, ((a,) * n,) * n)


def constant(lat: Lattice, universe: Universe, a: int) -> FuzzySet:
    lat.check_element(a)
    return FuzzySet(lat, universe, (a,) * len(universe))


def pointwise(kind: str, f: FuzzySet, g: FuzzySet) -> FuzzySet:
    """f and g combined point by point by the lattice table `kind`."""
    table = getattr(f.lattice, kind)
    return FuzzySet(f.lattice, f.universe,
                    tuple(table[a][b] for a, b in zip(f.values, g.values)))


def identity_map(universe: Universe) -> UniverseMap:
    return UniverseMap(universe, universe, tuple(range(len(universe))))


def compose_maps(phi: UniverseMap, then: UniverseMap) -> UniverseMap:
    """phi followed by `then`."""
    return UniverseMap(phi.source, then.target,
                       tuple(then.mapping[t] for t in phi.mapping))


def identity_candidate(p: FuzzyPartition) -> FPMapCandidate:
    cand, _ = make_candidate(p, p, identity_map(p.universe),
                             {n: n for n in p.names})
    return cand


def compose_candidates(m1: FPMapCandidate,
                       m2: FPMapCandidate) -> FPMapCandidate:
    """m1 followed by m2: the maps and the index maps composed, and a pair
    (a, c) for each pair (a, b) of m1 and (b, c) of m2.  The paper bounds
    its witness below by the tensor of theirs."""
    psi_by_name = {name: m2.target.names[m2.psi[m1.psi[j]]]
                   for j, name in enumerate(m1.source.names)}
    pairs = []
    for a, b in m1.pairs:
        for b2, c in m2.pairs:
            if b == b2 and (a, c) not in pairs:
                pairs.append((a, c))
    cand, _ = make_candidate(m1.source, m2.target, compose_maps(m1.phi, m2.phi),
                             psi_by_name, pairs)
    return cand


# ---------------------------------------------------------------------------
# per-set sweeps behind the claims no command reports

def reference_t1(phi, lam, lat, budget=DEFAULT_BUDGET):
    """The functor T1 on a table over the source function space: the table
    over the target space read at the backward image of each set."""
    ensure_budget(lat, phi.source, budget, "functor table")
    size_y = ensure_budget(lat, phi.target, budget, "functor table")
    if len(lam) != len(lat) ** len(phi.source):
        raise MismatchError("table length does not match the source space")
    out = []
    for i in range(size_y):
        g = set_at(lat, phi.target, i)
        out.append(lam[set_index(backward_image(phi, g))])
    return tuple(out)


def meet_with_site(lat, terms):
    """The meet of (term, site) pairs, and the site of the first term equal
    to it (None when no term is)."""
    items = list(terms)
    value = lat.meet_all(t for t, _ in items)
    attained = next((site for t, site in items if t == value), None)
    return value, attained


def reference_fas_operator(phi, rel_x, rel_y, budget=DEFAULT_BUDGET):
    """Greatest l for the approximation-operator inequality, swept over every
    fuzzy set on the target universe, as (value, attained site)."""
    lat = rel_x.lattice
    size = ensure_budget(lat, rel_y.universe, budget, "operator witness")
    res = lat.residuum
    ex = rel_x.universe.elements
    terms = []
    for i in range(size):
        f = set_at(lat, rel_y.universe, i)
        pulled = backward_image(phi, f)
        lhs = upper_approx(rel_x, pulled)
        rhs = upper_approx(rel_y, f)
        for x in range(len(ex)):
            terms.append((
                res[lhs.values[x]][rhs.values[phi.mapping[x]]],
                (ex[x], f.displays()),
            ))
    return meet_with_site(lat, terms)


def reference_ft_inequality(cand, budget=DEFAULT_BUDGET):
    """Greatest l with component(psi(j))[f] >= component(j)[pullback f] . l
    for every f on the target universe and every declared block, as (value,
    attained site)."""
    lat = cand.source.lattice
    size = ensure_budget(lat, cand.target.universe, budget,
                         "transform witness")
    res = lat.residuum
    blocks = cand.constrained_blocks()
    terms = []
    for i in range(size):
        f = set_at(lat, cand.target.universe, i)
        pulled = backward_image(cand.phi, f)
        for j in blocks:
            lhs = ft_component(cand.source, pulled, cand.source.names[j])
            rhs = ft_component(
                cand.target, f, cand.target.names[cand.psi[j]]
            )
            terms.append((res[lhs][rhs], (cand.source.names[j], f.displays())))
    return meet_with_site(lat, terms)


def reference_ft_forward(cand, budget=DEFAULT_BUDGET):
    """Greatest l with component(psi(j))[pushforward f] >= component(j)[f] . l
    over all f on the source universe, a one-directional bound, as (value,
    attained site)."""
    lat = cand.source.lattice
    size = ensure_budget(lat, cand.source.universe, budget, "transform bound")
    res = lat.residuum
    blocks = cand.constrained_blocks()
    terms = []
    for i in range(size):
        f = set_at(lat, cand.source.universe, i)
        pushed = forward_image(cand.phi, f)
        for j in blocks:
            lhs = ft_component(cand.source, f, cand.source.names[j])
            rhs = ft_component(
                cand.target, pushed, cand.target.names[cand.psi[j]]
            )
            terms.append((res[lhs][rhs], (cand.source.names[j], f.displays())))
    return meet_with_site(lat, terms)


def show_set(lat: Lattice, values) -> str:
    """A value tuple as the law reports print it."""
    return "(" + ",".join(lat.displays[v] for v in values) + ")"


def reference_check_operator(op: ClosureOperator,
                             budget: int = DEFAULT_BUDGET) -> LawReport:
    """Fix the top set, inflate, preserve binary joins, idempotence (by
    composing the table with itself), plus tensor-stability with constants.
    """
    lat = op.lattice
    uni = op.universe
    size = ensure_budget(lat, uni, budget, "closure operator check")
    counter: dict = {}
    space = Space(lat, uni)
    index = space.index
    all_vals = list(space.values())

    top_index = index((lat.top,) * len(uni))
    axiom_i = op.table[top_index] == (lat.top,) * len(uni)
    if not axiom_i:
        counter["axiom_i"] = \
            f"image of top is {show_set(lat, op.table[top_index])}"

    axiom_ii = True
    for i in range(size):
        if all(lat.leq[a][b] for a, b in zip(all_vals[i], op.table[i])):
            continue
        axiom_ii = False
        counter["axiom_ii"] = \
            f"{show_set(lat, all_vals[i])} not below its closure"
        break

    join = lat.join
    axiom_iii = True
    for i in range(size):
        if not axiom_iii:
            break
        for j in range(i, size):
            jv = tuple(join[a][b] for a, b in zip(all_vals[i], all_vals[j]))
            lhs = op.table[index(jv)]
            rhs = tuple(join[a][b] for a, b in zip(op.table[i], op.table[j]))
            if lhs != rhs:
                axiom_iii = False
                counter["axiom_iii"] = (
                    f"pair ({show_set(lat, all_vals[i])}, "
                    f"{show_set(lat, all_vals[j])})"
                )
                break

    axiom_iv = True
    for i in range(size):
        ci = op.table[i]
        if op.table[index(ci)] != ci:
            axiom_iv = False
            counter["axiom_iv"] = \
                f"closure of {show_set(lat, all_vals[i])} not fixed"
            break

    strong = True
    tensor = lat.tensor
    for a in lat.elements():
        if not strong:
            break
        for i in range(size):
            scaled = tuple(tensor[a][v] for v in all_vals[i])
            lhs = op.table[index(scaled)]
            rhs = tuple(tensor[a][v] for v in op.table[i])
            if not all(lat.leq[x][y] for x, y in zip(rhs, lhs)):
                strong = False
                counter["strong"] = (
                    f"constant {lat.displays[a]} with {show_set(lat, all_vals[i])}"
                )
                break

    return LawReport(
        uni.name, ("axiom_i", "axiom_ii", "axiom_iii", "axiom_iv", "strong"),
        counter)

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pikdom.errors import ParamError, PreconditionError, TooLargeError
from pikdom.fast import solve_fast
from pikdom.frontier import solve_frontier
from pikdom.model import (
    derive_graph,
    generate_random,
    min_degree,
    parse_model,
    serialize_model,
    with_costs,
)
from pikdom.oracle import (
    VertexSet,
    brute_force_min,
    check_k,
    check_lemma_components,
    find_violation,
    is_k_dominating,
    is_total_k_dominating,
)
from pikdom.reduction import solve_naive

from conftest import (
    bench_run,
    chain_model,
    complete_model,
    frontier_min_literal,
    make_model,
    oracle_min_set,
    pairwise_adjacency,
)


def vs(*ids):
    return VertexSet.of(ids)


# --------------------------------------------------------------- predicates

def test_k_dominating_clique():
    g = derive_graph(complete_model(4))
    for pair in itertools.combinations(range(1, 5), 2):
        assert is_k_dominating(g, vs(*pair), 2)


def test_k_dominating_chain_examples():
    g = derive_graph(chain_model(6))
    # outside vertices 1,3,4,6 each checked against {2,5}
    assert is_k_dominating(g, vs(2, 5), 1)
    assert not is_k_dominating(g, vs(), 1)


def test_total_k_dominating_examples():
    k3 = derive_graph(complete_model(3))
    assert is_total_k_dominating(k3, vs(1, 2, 3), 2)
    p6 = derive_graph(chain_model(6))
    assert is_total_k_dominating(p6, vs(2, 3, 5, 6), 1)
    assert not is_total_k_dominating(p6, vs(), 1)
    # members need neighbors too: {2,5} leaves both members uncovered
    assert not is_total_k_dominating(p6, vs(2, 5), 1)
    assert find_violation(p6, vs(2, 5), 1, "total") == (2, 0)


def test_predicate_validation():
    g = derive_graph(chain_model(3))
    with pytest.raises(ParamError):
        is_k_dominating(g, vs(1), 0)
    from pikdom.errors import VertexIndexError

    with pytest.raises(VertexIndexError):
        is_k_dominating(g, vs(9), 1)


@pytest.mark.parametrize("k", [True, False])
def test_check_k_rejects_bool(k):
    with pytest.raises(ParamError):
        check_k(k)


# --------------------------------------------------------------- brute force

def test_brute_clique_closed_forms():
    for k in (1, 2, 3):
        for n in range(k + 1, 7):
            m = complete_model(n)
            assert brute_force_min(m, k, "kdom").cost == k
            assert brute_force_min(m, k, "total").cost == k + 1


def test_brute_chain_p6_total():
    m = chain_model(6)
    sol = brute_force_min(m, 1, "total")
    pairs = [(iv.left, iv.right) for iv in m.intervals]
    want = oracle_min_set(pairwise_adjacency(pairs), 1, "total")
    assert want[0] == 4  # independent subset scan
    assert sol.cost == 4
    assert sol.feasible
    assert is_total_k_dominating(derive_graph(m), sol.vertices, 1)


def test_brute_matches_independent_scan_random():
    for seed in range(25):
        n = 4 + seed % 5
        m = generate_random(n, 555 + seed, [2, 3, 5][seed % 3])
        pairs = [(iv.left, iv.right) for iv in m.intervals]
        adj = pairwise_adjacency(pairs)
        rng = random.Random(seed)
        costs = [rng.randint(0, 6) for _ in range(n)]
        mw = with_costs(m, costs)
        for k in (1, 2):
            for variant in ("kdom", "total"):
                want = oracle_min_set(adj, k, variant)
                got = brute_force_min(m, k, variant)
                assert (want is None) == (not got.feasible)
                if want is not None:
                    assert got.cost == want[0]
                want_w = oracle_min_set(adj, k, variant, costs)
                got_w = brute_force_min(mw, k, variant, weighted=True)
                if want_w is not None:
                    assert got_w.cost == want_w[0]


def test_brute_tie_breaking_deterministic():
    # P_4, kdom, k=1: several optima of size 2; scan order must pick {1,3}
    m = chain_model(4)
    sol = brute_force_min(m, 1, "kdom")
    assert sol.vertices.members == (1, 3)
    assert sol.cost == 2
    assert brute_force_min(m, 1, "kdom") == sol


def test_brute_total_infeasible_iff_low_degree():
    for seed in range(20):
        n = 4 + seed % 6
        m = generate_random(n, 777 + seed, [1, 2, 4][seed % 3])
        deg = min_degree(derive_graph(m))
        for k in (1, 2, 3):
            sol = brute_force_min(m, k, "total")
            assert sol.feasible == (deg >= k)
            assert brute_force_min(m, k, "kdom").feasible  # V(G) always works


def test_brute_kdom_cost_bounds():
    for seed in range(10):
        n = 5 + seed % 4
        m = generate_random(n, 31 + seed, 3)
        rng = random.Random(seed)
        mw = with_costs(m, [rng.randint(0, 9) for _ in range(n)])
        sol = brute_force_min(mw, 2, "kdom", weighted=True)
        assert sol.cost <= sum(mw.costs)
        unit = brute_force_min(m, 2, "kdom")
        assert unit.cost == unit.vertices.size


def test_brute_cap():
    m = generate_random(21, 1, 3)
    with pytest.raises(TooLargeError):
        brute_force_min(m, 1, "kdom")
    m6 = generate_random(6, 1, 3)
    assert brute_force_min(m6, 1, "kdom", cap=6).feasible


def _scan_reference(m, k, variant, weighted):
    """(feasible, cost, members, subsets scanned) by the literal scan: every
    subset by size, then lexicographically.  A subset is scanned iff it costs
    less than the cheapest feasible subset found before it, and only then is
    it checked vertex by vertex; so the first strictly cheaper feasible
    subset wins.  Costs are summed in integer units, each cost times the
    least common multiple of the denominators.  Under the total variant a
    line whose full set fails is answered before any subset is scanned, as
    brute answers it."""
    n, ids = m.n, range(1, m.n + 1)
    nbrs = [0, *(sum(1 << (u - 1) for u in adj) for adj in derive_graph(m).adj)]
    costs = (weighted and m.cost_by_original()) or (Fraction(1),) * n
    scale = math.lcm(*(c.denominator for c in costs))
    units = [0, *(int(c * scale) for c in costs)]

    def ok(mask):
        needy = [v for v in ids if variant == "total" or not mask >> (v - 1) & 1]
        return all((nbrs[v] & mask).bit_count() >= k for v in needy)

    if variant == "total" and n and not ok((1 << n) - 1):
        return False, None, (), 0
    best, scanned = None, 0
    for size in range(n + 1):
        for combo in itertools.combinations(ids, size):
            cost = sum(map(units.__getitem__, combo))
            if best is None or cost < best[0]:
                scanned += 1
                if ok(sum(1 << (v - 1) for v in combo)):
                    best = (cost, combo)
    if best is None:
        return False, None, (), scanned
    return True, Fraction(best[0], scale), best[1], scanned


def test_brute_matches_literal_scan():
    # generate_random models at n 1-12 and k 1-3, both variants, each unit,
    # weighted with no costs (as the unit run, stats too), weighted with
    # zeros and ties, weighted and unweighted with mixed denominators, and
    # weighted with every cost 3.
    rng = random.Random(2903)
    runs = weighted_feasible = 0
    for case in range(84):
        n, k = rng.randint(1, 12), 1 + case % 3
        seed = rng.randrange(10**6)
        m = generate_random(n, seed, rng.choice((1, 2, 3, Fraction(7, 2), 5)))
        tied = with_costs(m, [rng.choice((0, 0, 1, 2, 2)) for _ in range(n)])
        mixed = with_costs(m, [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7)))
                               for _ in range(n)])
        tripled = with_costs(m, [3] * n)
        unit_runs = {}
        for model, weighted in ((m, False), (m, True), (tied, True), (mixed, True),
                                (mixed, False), (tripled, True)):
            for variant in ("kdom", "total"):
                want = _scan_reference(model, k, variant, weighted)
                sol = brute_force_min(model, k, variant, weighted)
                got = (sol.feasible, sol.cost, sol.vertices.members,
                       sol.stats["subsets_scanned"])
                where = (f"seed={seed} k={k} variant={variant} weighted={weighted}\n"
                         f"{serialize_model(model)}")
                assert got == want, where
                assert sol.cost is None or type(sol.cost) is Fraction, where
                if model is m and not weighted:
                    unit_runs[variant] = got
                if model is m and weighted:  # no costs: the unit run, stats too
                    assert got == unit_runs[variant], where
                if model is tripled:  # every cost 3: the unit optimum at 3x
                    ok, cost, members, _ = unit_runs[variant]
                    assert got[:3] == (ok, cost and 3 * cost, members), where
                runs += 1
                weighted_feasible += weighted and want[0]
    assert runs >= 500 and weighted_feasible > 100, (runs, weighted_feasible)


# -------------------------------------------------- monotonicity / lemma

@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=3, max_value=10),
    k=st.integers(min_value=1, max_value=2),
    extra=st.integers(min_value=0, max_value=2**10),
)
def test_superset_monotonicity(seed, n, k, extra):
    m = generate_random(n, seed, 4)
    g = derive_graph(m)
    sol = brute_force_min(m, k, "total")
    if not sol.feasible:
        return
    grown = set(sol.vertices)
    rng = random.Random(extra)
    grown.update(rng.sample(range(1, n + 1), rng.randint(0, n)))
    assert is_total_k_dominating(g, VertexSet.of(grown), k)
    assert is_k_dominating(g, VertexSet.of(grown), k)


def test_lemma_components_examples():
    k3 = derive_graph(complete_model(3))
    assert check_lemma_components(k3, vs(1, 2, 3), 2)
    p6 = derive_graph(chain_model(6))
    assert check_lemma_components(p6, vs(2, 3, 5, 6), 1)
    with pytest.raises(PreconditionError):
        check_lemma_components(p6, vs(1), 1)


def test_lemma_holds_for_all_brute_optima():
    for seed in range(30):
        n = 4 + seed % 7
        m = generate_random(n, 2024 + seed, [3, 5, 8][seed % 3])
        g = derive_graph(m)
        for k in (1, 2):
            sol = brute_force_min(m, k, "total")
            if sol.feasible:
                assert check_lemma_components(g, sol.vertices, k)


def test_empty_model_solutions():
    from pikdom.model import ProperIntervalModel

    empty = ProperIntervalModel(())
    for variant in ("kdom", "total"):
        sol = brute_force_min(empty, 1, variant)
        assert sol.feasible and sol.cost == 0 and sol.vertices.size == 0


# ------------------------------------------- weighted agreement past the corpus

def test_weighted_engines_agree_with_brute_at_n_15_to_18():
    # The acceptance corpus stops at n 14.  Each k and variant at n 15-18,
    # with costs in {0..9}/{1, 2, 3, 7}.
    feasible = 0
    for case, (k, variant, n) in enumerate(
        itertools.product((1, 2, 3), ("kdom", "total"), range(15, 19))
    ):
        seed = 2904 + case
        rng = random.Random(seed)
        m = generate_random(n, seed, rng.choice((4, 5, 6, 8)))
        m = with_costs(m, [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7)))
                           for _ in range(n)])
        where = f"seed={seed} k={k} variant={variant}\n{serialize_model(m)}"
        want = brute_force_min(m, k, variant, weighted=True)
        g = derive_graph(m)
        for sol in (want, solve_fast(m, k, variant, True), solve_naive(m, k, variant, True)):
            assert (sol.feasible, sol.cost) == (want.feasible, want.cost), (sol.engine, where)
            if sol.feasible:
                assert find_violation(g, sol.vertices, k, variant) is None, (sol.engine, where)
        feasible += want.feasible
    assert feasible >= 12, feasible


def test_engines_agree_with_brute_at_k_4_to_6():
    # Answers past k=3: n 2k-2 to 14 at stretches 5, 8 and 13/2, each with
    # unit costs and, solved weighted, costs in {0..9}/{1, 2, 3, 7}.
    runs = feasible = 0
    for case, (k, stretch) in enumerate(
        itertools.product((4, 5, 6), (5, 8, Fraction(13, 2)))
    ):
        for n in range(2 * k - 2, 15):
            seed = 3100 + 100 * case + n
            rng = random.Random(seed)
            m = generate_random(n, seed, stretch)
            mixed = with_costs(m, [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7)))
                                   for _ in range(n)])
            g = derive_graph(m)
            for model, weighted in ((m, False), (mixed, True)):
                for variant in ("kdom", "total"):
                    where = (f"seed={seed} k={k} variant={variant} weighted={weighted}\n"
                             f"{serialize_model(model)}")
                    want = brute_force_min(model, k, variant, weighted)
                    for sol in (want, solve_fast(model, k, variant, weighted),
                                solve_naive(model, k, variant, weighted),
                                solve_frontier(model, k, variant, weighted)):
                        assert (sol.feasible, sol.cost) == (want.feasible, want.cost), (
                            sol.engine, where)
                        if sol.feasible:
                            assert find_violation(g, sol.vertices, k, variant) is None, (
                                sol.engine, where)
                    runs += 1
                    feasible += want.feasible
    assert runs == 252 and 100 <= feasible < runs, (runs, feasible)


# ----------------------------------------- literal oracle past brute's range

def _literal_cases(salt, count, max_n, ks=(1, 2, 3)):
    """(seed, k, model) triples from ``generate_random`` at stretch <= 8, k
    cycling through ``ks``; alternate runs of three cases get
    mixed-denominator costs (zeros among them), so with k 1-3 every k, and
    every fourth case, comes both ways."""
    rng = random.Random(salt)
    for case in range(count):
        k = ks[case % len(ks)]
        n = rng.randint(1, max_n(case, k))
        seed = rng.randrange(10**6)
        m = generate_random(n, seed, rng.choice((1, 2, 3, Fraction(7, 2), 5, 8)))
        if case // 3 % 2:
            m = with_costs(m, [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 5, 7)))
                               for _ in range(n)])
        yield seed, k, m


def _literal_where(seed, k, variant, m):
    return f"seed={seed} k={k} variant={variant}\n{serialize_model(m)}"


def test_literal_oracle_matches_brute():
    runs = feasible = 0
    for seed, k, m in _literal_cases(2301, 120, lambda case, k: 11):
        for variant in ("kdom", "total"):
            want = brute_force_min(m, k, variant, m.weighted)
            got = frontier_min_literal(m, k, variant, m.weighted)
            assert got == want.cost, _literal_where(seed, k, variant, m)
            runs += 1
            feasible += want.feasible
    assert 60 < feasible < runs, (runs, feasible)


def test_literal_oracle_matches_fast_past_brute():
    # One case in four runs at n up to 400 (200 at k=3), the rest up to 80.
    def max_n(case, k):
        return (200 if k == 3 else 400) if case % 4 == 0 else 80

    runs = feasible = big = 0
    for seed, k, m in _literal_cases(2302, 48, max_n):
        big += m.n > 100
        for variant in ("kdom", "total"):
            want = solve_fast(m, k, variant, m.weighted)
            got = frontier_min_literal(m, k, variant, m.weighted)
            assert got == want.cost, _literal_where(seed, k, variant, m)
            runs += 1
            feasible += want.feasible
    assert big >= 8 and 30 < feasible < runs, (big, runs, feasible)
    # k=4 at n up to 60, on its own stream.
    runs = feasible = 0
    for seed, k, m in _literal_cases(2304, 24, lambda case, k: 60, ks=(4,)):
        for variant in ("kdom", "total"):
            want = solve_fast(m, k, variant, m.weighted)
            got = frontier_min_literal(m, k, variant, m.weighted)
            assert got == want.cost, _literal_where(seed, k, variant, m)
            runs += 1
            feasible += want.feasible
    assert 12 < feasible < runs, (runs, feasible)


# ------------------------------------------- the benchmark's instance shapes

def test_literal_oracle_on_benchmark_shapes():
    # Every spec of every workload at the benchmark's instance seeds for
    # seeds 1 and 2: varied lengths, gaps, clusters, touching rational
    # endpoints, zero costs and shuffled rows.  fast and the frontier run
    # every instance and naive the ones its workloads give it.
    run = bench_run()
    count = 0
    for name, workload in sorted(run.WORKLOADS.items()):
        naive = "naive" in workload.engines
        for i, spec in enumerate(workload.specs):
            for seed in (1, 2):
                inst = run.generate(spec, seed * 1000 + i, f"{name}-{i:02d}")
                where = f"workload={name} spec={i} seed={seed}\n{inst.text}"
                m = parse_model(inst.text)
                k, variant = spec.k, spec.variant
                want = frontier_min_literal(m, k, variant, m.weighted)
                sol = solve_fast(m, k, variant, m.weighted)
                assert sol.cost == want, where
                assert find_violation(derive_graph(m), sol.vertices, k, variant) is None, where
                if naive:
                    assert solve_naive(m, k, variant, m.weighted).cost == want, where
                fr = solve_frontier(m, k, variant, m.weighted)
                assert fr.cost == want, where
                assert find_violation(derive_graph(m), fr.vertices, k, variant) is None, where
                count += 1
    assert count == 112

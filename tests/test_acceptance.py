"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The shared corpus is 300 seeded random proper interval models spanning
n in [4, 14], k in {1, 2, 3}, both problem variants, unweighted and with
integer costs in [0, 10].
"""

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from pikdom.fast import (
    representative_independence_check,
    search_fast,
    solve_fast,
    topo_order,
)
from pikdom.frontier import solve_frontier
from pikdom.model import derive_graph, generate_random, min_degree, with_costs
from pikdom.oracle import (
    Solution,
    brute_force_min,
    check_lemma_components,
    find_violation,
    is_total_k_dominating,
)
from pikdom.reduction import build_digraph, engine_plan, solve_naive

from conftest import EXAMPLE8_PAIRS, complete_model, make_model, printed_rule_cost

CORPUS_SIZE = 300

STRETCH_POOLS = {
    1: [1, 2, 3, 5, 8, Fraction(3, 2)],
    2: [2, 3, 5, Fraction(5, 2), 8],
    3: [2, 3, 4, 5, 6],
}


@dataclass
class Entry:
    idx: int
    n: int
    k: int
    model: object
    weighted_model: object
    graph: object


@dataclass
class Run:
    entry: Entry
    variant: str
    weighted: bool
    brute: Solution
    naive: Solution
    fast: Solution
    frontier: Solution

    @property
    def solutions(self):
        return (self.brute, self.naive, self.fast, self.frontier)


def _entry(i: int) -> Entry:
    n = 4 + (i % 11)
    k = 1 + (i % 3)
    pool = STRETCH_POOLS[k]
    stretch = pool[(i // 3) % len(pool)]
    model = generate_random(n, 20000 + i, stretch)
    rng = random.Random(91 + i)
    weighted = with_costs(model, [rng.randint(0, 10) for _ in range(n)])
    return Entry(i, n, k, model, weighted, derive_graph(model))


@pytest.fixture(scope="module")
def corpus():
    return [_entry(i) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def engine_runs(corpus):
    runs = []
    for e in corpus:
        for variant in ("kdom", "total"):
            for model, weighted in ((e.model, False), (e.weighted_model, True)):
                runs.append(
                    Run(
                        e,
                        variant,
                        weighted,
                        brute_force_min(model, e.k, variant, weighted),
                        solve_naive(model, e.k, variant, weighted),
                        solve_fast(model, e.k, variant, weighted),
                        solve_frontier(model, e.k, variant, weighted),
                    )
                )
    return runs


def test_criterion_1_three_engine_agreement(engine_runs):
    mismatches = 0
    verified = 0
    for run in engine_runs:
        feas = {s.feasible for s in run.solutions}
        if len(feas) != 1:
            mismatches += 1
            continue
        if run.brute.feasible:
            if len({s.cost for s in run.solutions}) != 1:
                mismatches += 1
                continue
            for sol in run.solutions:
                assert (
                    find_violation(run.entry.graph, sol.vertices, run.entry.k, run.variant)
                    is None
                ), (run.entry.idx, run.variant, run.weighted, sol.engine)
                verified += 1
    assert mismatches == 0
    n_models = len({r.entry.idx for r in engine_runs})
    print(
        f"ACCEPTANCE 1: PASS - {n_models} models, {len(engine_runs)} runs of 4 engines, "
        f"0 cost mismatches, {verified} sets verified"
    )


def test_criterion_2_feasibility_characterization(engine_runs):
    mismatches = 0
    checked = 0
    for run in engine_runs:
        if run.variant != "total":
            continue
        expect = min_degree(run.entry.graph) >= run.entry.k
        for sol in run.solutions:
            checked += 1
            if sol.feasible != expect:
                mismatches += 1
    assert mismatches == 0
    print(f"ACCEPTANCE 2: PASS - {checked} total-variant reports, 0 mismatches")


def test_criterion_3_component_sizes(engine_runs):
    violations = 0
    checked = 0
    for run in engine_runs:
        if run.variant != "total":
            continue
        for sol in run.solutions:
            if not sol.feasible:
                continue
            checked += 1
            if not check_lemma_components(run.entry.graph, sol.vertices, run.entry.k):
                violations += 1
    assert violations == 0
    print(f"ACCEPTANCE 3: PASS - {checked} optimal total solutions, 0 small components")


def test_criterion_4_clique_closed_forms():
    checked = 0
    for k in (1, 2, 3):
        for n in range(k + 1, 11):
            m = complete_model(n)
            assert solve_fast(m, k, "kdom").cost == k
            assert solve_fast(m, k, "total").cost == k + 1
            assert solve_naive(m, k, "kdom").cost == k
            assert solve_naive(m, k, "total").cost == k + 1
            checked += 1
    print(f"ACCEPTANCE 4: PASS - {checked} cliques, optima k and k+1 exactly")


def test_criterion_5_weighted_consistency(corpus):
    lam = 7
    unit_checked = scale_checked = 0
    for e in corpus:
        for variant in ("kdom", "total"):
            plain = solve_fast(e.model, e.k, variant, weighted=False)
            unit = solve_fast(e.model, e.k, variant, weighted=True)
            assert plain.feasible == unit.feasible and plain.cost == unit.cost
            plain_nv = solve_naive(e.model, e.k, variant, weighted=False)
            unit_nv = solve_naive(e.model, e.k, variant, weighted=True)
            assert plain_nv.feasible == unit_nv.feasible and plain_nv.cost == unit_nv.cost
            unit_checked += 1
            if e.idx % 5 == 0:
                base = solve_fast(e.weighted_model, e.k, variant, weighted=True)
                scaled_model = with_costs(
                    e.model, [lam * c for c in e.weighted_model.costs]
                )
                scaled = solve_fast(scaled_model, e.k, variant, weighted=True)
                assert base.feasible == scaled.feasible
                if base.feasible:
                    assert scaled.cost == lam * base.cost
                scale_checked += 1
    print(
        f"ACCEPTANCE 5: PASS - unit-cost parity on {unit_checked} runs, "
        f"cost scaling (x{lam}) on {scale_checked} runs"
    )


def test_criterion_6_suffix_order_and_representatives(corpus):
    order_checked = arcs_checked = indep_checked = 0
    for e in corpus:
        if e.n > 12:
            continue
        for variant in ("kdom", "total"):
            dg = build_digraph(e.model, e.k, variant)
            pos = {nid: p for p, nid in enumerate(topo_order(dg.nodes, e.k))}
            for a in dg.arcs:
                assert pos[a.tail] < pos[a.head], (e.idx, variant, a)
            order_checked += 1
            arcs_checked += len(dg.arcs)
            assert representative_independence_check(e.model, e.k, variant)
            indep_checked += 1
    assert order_checked > 0
    print(
        f"ACCEPTANCE 6: PASS - {order_checked} digraphs, {arcs_checked} arcs respect "
        f"the suffix order, representative independence on {indep_checked} runs"
    )


def _counter_ok(stats):
    middle = stats["small_nodes"] + stats["big_nodes"]
    return stats["representative_tests"] <= (middle + 2) * stats["suffix_classes"]


def test_criterion_7_complexity_trend(corpus):
    m_large = generate_random(200, 42, 6)
    t0 = time.perf_counter()
    sol1 = solve_fast(m_large, 1, "total")
    t1 = time.perf_counter() - t0
    assert sol1.feasible and t1 < 30.0
    assert _counter_ok(sol1.stats)

    m_mid = generate_random(20, 43, 9)
    t0 = time.perf_counter()
    sol2 = solve_fast(m_mid, 2, "total")
    t2 = time.perf_counter() - t0
    assert sol2.feasible and t2 < 60.0
    assert _counter_ok(sol2.stats)

    bound_checked = 0
    for e in corpus:
        for variant in ("kdom", "total"):
            sol = solve_fast(e.model, e.k, variant)
            if sol.stats is not None:
                assert _counter_ok(sol.stats), (e.idx, variant)
                bound_checked += 1
    print(
        f"ACCEPTANCE 7: PASS - n=200 k=1 in {t1:.2f}s (<30s), n=20 k=2 in "
        f"{t2:.2f}s (<60s), counter bound on {bound_checked} corpus runs"
    )


def test_criterion_8_eight_vertex_instance():
    # The original figure's endpoints are not machine-readable, so per the
    # stated fallback this criterion runs the engine-agreement check on an
    # 8-vertex sub-corpus; additionally, a reconstructed 8-interval model
    # consistent with the worked example's printed facts is pinned exactly.
    sub = 0
    for j in range(40):
        m = generate_random(8, 40000 + j, [2, 3, 5, 8][j % 4])
        rng = random.Random(j)
        mw = with_costs(m, [rng.randint(0, 10) for _ in range(8)])
        for variant in ("kdom", "total"):
            for model, weighted in ((m, False), (mw, True)):
                b = brute_force_min(model, 2, variant, weighted)
                nv = solve_naive(model, 2, variant, weighted)
                fs = solve_fast(model, 2, variant, weighted)
                assert b.feasible == nv.feasible == fs.feasible
                if b.feasible:
                    assert b.cost == nv.cost == fs.cost
                sub += 1

    m8 = make_model(EXAMPLE8_PAIRS)
    graph = derive_graph(m8)
    # independent uniqueness scan over all 5-subsets
    feasible_5sets = [
        combo
        for combo in itertools.combinations(range(1, 9), 5)
        if find_violation(graph, __import__("pikdom").VertexSet.of(combo), 2, "total") is None
    ]
    assert feasible_5sets == [(2, 3, 5, 6, 7)]
    assert brute_force_min(m8, 2, "total").cost == 5
    for variant_sol in (solve_naive(m8, 2, "total"), solve_fast(m8, 2, "total")):
        assert variant_sol.cost == 5
        assert variant_sol.vertices.members == (2, 3, 5, 6, 7)
    _, path = search_fast(engine_plan(m8, 2, "total"))
    assert [nd.seq for nd in path] == [(0,), (2, 3, 5, 6), (3, 5, 6, 7), (9,)]
    print(
        f"ACCEPTANCE 8: PASS - fallback agreement on {sub} eight-vertex runs; "
        f"reconstructed instance pinned (optimum 5, unique set {{2,3,5,6,7}}, "
        f"window chain path). Figure endpoints unavailable; see decisions ledger."
    )


def test_criterion_9_weighted_slide_charge_regression():
    crafted = make_model(
        [(i, Fraction(i) + Fraction(6, 5)) for i in range(1, 6)],
        costs=(9, 1, 1, 5, 9),
    )
    instances = [crafted]
    j = 0
    while len(instances) < 60:
        n = 5 + (j % 8)
        m = generate_random(n, 70000 + j, [3, 5, 8][j % 3])
        rng = random.Random(500 + j)
        costs = [rng.randint(0, 10) for _ in range(n)]
        j += 1
        if len(set(costs)) == 1:
            continue
        instances.append(with_costs(m, costs))
    assert len(instances) >= 50

    amended_mismatch = 0
    printed_disagreements = 0
    runs = 0
    for mw in instances:
        for k in (1, 2):
            for variant in ("kdom", "total"):
                b = brute_force_min(mw, k, variant, weighted=True)
                good = solve_fast(mw, k, variant, weighted=True)
                runs += 1
                if b.feasible != good.feasible or (
                    b.feasible and b.cost != good.cost
                ):
                    amended_mismatch += 1
                bad = printed_rule_cost(mw, k, variant)
                if b.feasible != (bad is not None) or (b.feasible and b.cost != bad):
                    printed_disagreements += 1
    assert amended_mismatch == 0
    assert printed_disagreements >= 1
    print(
        f"ACCEPTANCE 9: PASS - {len(instances)} weighted instances, {runs} runs: "
        f"amended slide charge matched the oracle everywhere; the printed "
        f"variant disagreed {printed_disagreements} times"
    )

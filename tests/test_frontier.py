"""The frontier engine's own contract: its tie-break, its sets, its stats
and its state cap.  Its agreement with brute force, ``fast``, ``naive`` and
the literal scan is tested beside theirs (``test_acceptance``,
``test_oracle``, ``test_fast``)."""

import random
from fractions import Fraction

import pytest

from pikdom.errors import TooLargeError
from pikdom.frontier import solve_frontier
from pikdom.model import (
    Interval,
    ProperIntervalModel,
    build_model,
    derive_graph,
    generate_random,
    serialize_model,
    with_costs,
)
from pikdom.oracle import VertexSet, brute_force_min, find_violation


def _optimal_sets(model, k, variant, costs, cost):
    """The first two optimal sets in the order the tie-break states, by a
    subset scan: a mask's bit v-1 stands for sorted vertex v, so rising
    masks compare sets at the highest vertex where they differ, the set
    without it first."""
    graph = derive_graph(model)
    found = []
    for mask in range(1 << model.n):
        members = [v for v in range(1, model.n + 1) if mask >> (v - 1) & 1]
        if sum(costs[v - 1] for v in members) != cost:
            continue
        if find_violation(graph, VertexSet.of(members), k, variant) is None:
            found.append(tuple(members))
            if len(found) == 2:
                break
    return found


def test_frontier_returns_the_set_its_tie_break_names():
    # generate_random numbers its vertices in sorted order, so the mask
    # scan reads sorted positions.  Costs in {0..3}/{1, 2} leave many ties.
    rng = random.Random(41)
    runs = tied = 0
    for case in range(120):
        n = rng.randint(1, 10)
        k = rng.randint(1, 3)
        m = generate_random(n, 4100 + case, rng.choice((1, 2, 3, Fraction(7, 2), 5)))
        mw = with_costs(m, [Fraction(rng.randint(0, 3), rng.choice((1, 2)))
                            for _ in range(n)])
        for model, weighted in ((m, False), (mw, True)):
            costs = model.costs if weighted else (1,) * n
            for variant in ("kdom", "total"):
                sol = solve_frontier(model, k, variant, weighted)
                want = brute_force_min(model, k, variant, weighted)
                where = f"k={k} variant={variant}\n{serialize_model(model)}"
                assert (sol.feasible, sol.cost) == (want.feasible, want.cost), where
                if not sol.feasible:
                    continue
                optimal = _optimal_sets(model, k, variant, costs, sol.cost)
                assert sol.vertices.members == optimal[0], where
                runs += 1
                tied += len(optimal) > 1
    assert runs >= 250 and tied >= 100, (runs, tied)


def test_frontier_sets_are_valid_and_sum_to_their_cost():
    # Past brute force's range, with shuffled rows, so the set is reported
    # in the caller's numbering.
    rng = random.Random(42)
    checked = 0
    for case in range(40):
        k = 1 + case % 3
        n = rng.randint(10, 90 if k < 3 else 40)
        m = generate_random(n, 4200 + case, rng.choice((2, 3, 5, Fraction(13, 2))))
        order = rng.sample(range(n), n)
        costs = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)]
        shuffled = build_model([m.intervals[i] for i in order], [costs[i] for i in order])
        graph = derive_graph(shuffled)
        for variant in ("kdom", "total"):
            for weighted in (False, True):
                sol = solve_frontier(shuffled, k, variant, weighted)
                if not sol.feasible:
                    assert sol.cost is None and sol.vertices.size == 0
                    continue
                by_id = shuffled.cost_by_original() if weighted else (1,) * n
                assert find_violation(graph, sol.vertices, k, variant) is None
                assert sol.cost == sum(by_id[v - 1] for v in sol.vertices)
                checked += 1
    assert checked >= 100, checked


def test_frontier_stats_and_state_cap():
    m = generate_random(60, 7, 5)
    sol = solve_frontier(m, 2, "kdom")
    peak, total = sol.stats["states_peak"], sol.stats["states_total"]
    assert sol.stats == {"states_peak": peak, "states_total": total}
    assert 1 < peak < total
    # The same run repeats exactly, and a cap at the peak still answers.
    assert solve_frontier(m, 2, "kdom", cap_states=peak) == sol
    for cap in (peak - 1, 0, -1):
        with pytest.raises(TooLargeError) as err:
            solve_frontier(m, 2, "kdom", cap_states=cap)
        assert err.value.code == "E_TOO_LARGE"


def test_frontier_small_inputs():
    empty = ProperIntervalModel(())
    for variant in ("kdom", "total"):
        sol = solve_frontier(empty, 1, variant)
        assert (sol.feasible, sol.cost, sol.vertices.size) == (True, 0, 0)
        assert sol.engine == "frontier"
    one = ProperIntervalModel((Interval(Fraction(0), Fraction(1)),))
    assert solve_frontier(one, 1, "kdom").vertices.members == (1,)
    total = solve_frontier(one, 1, "total")
    assert not total.feasible and total.stats["states_total"] == 0

"""Shared instance builders.

Expected values in the tests marked "derived" are computed by independent
in-test enumeration (direct interval arithmetic, subset scans), never by the
code paths under test.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pikdom.model import Interval, ProperIntervalModel
from pikdom.reduction import ARC_E1, build_digraph


def make_model(pairs, costs=None):
    iv = tuple(Interval(Fraction(a), Fraction(b)) for a, b in pairs)
    c = tuple(Fraction(x) for x in costs) if costs is not None else None
    return ProperIntervalModel(iv, c)


def chain_model(n, costs=None):
    """Path graph P_n: unit-step lefts, length 1.2, only neighbors overlap."""
    return make_model([(Fraction(i), Fraction(i) + Fraction(6, 5)) for i in range(1, n + 1)], costs)


def complete_model(n, costs=None):
    """All intervals pairwise overlapping."""
    return make_model([(i, i + n) for i in range(1, n + 1)], costs)


def disjoint_model(n):
    return make_model([(3 * i, 3 * i + 1) for i in range(n)])


def printed_rule_cost(model, k, variant):
    """Weighted optimum under the paper's printed slide charge, which is wrong.

    Every slide arc is re-lengthened to the cost of its head's leftmost
    vertex instead of the vertex it appends; one sweep over the arcs then
    finds the shortest path, since arcs come sorted by tail and node ids are
    topological.  ``None`` when the sink is unreachable.
    """
    dg = build_digraph(model, k, variant, weighted=True)
    dist = [None] * len(dg.nodes)
    dist[0] = Fraction(0)
    for arc in dg.arcs:
        if dist[arc.tail] is None:
            continue
        length = arc.length
        if arc.cls == ARC_E1:
            length = model.costs[dg.nodes[arc.head].lo - 1]
        if dist[arc.head] is None or dist[arc.tail] + length < dist[arc.head]:
            dist[arc.head] = dist[arc.tail] + length
    return dist[-1]


# Reconstruction of an 8-interval instance consistent with the worked
# textual facts asserted in the acceptance suite: the total 2-domination
# optimum is 5, uniquely attained by {2,3,5,6,7}, via the window chain
# (2,3,5,6) -> (3,5,6,7).
EXAMPLE8_PAIRS = [
    (Fraction(0), Fraction(2)),
    (Fraction("1.2"), Fraction("3.2")),
    (Fraction("1.9"), Fraction("3.9")),
    (Fraction("2.8"), Fraction("4.8")),
    (Fraction("3.1"), Fraction("5.1")),
    (Fraction(5), Fraction(7)),
    (Fraction("5.05"), Fraction("7.05")),
    (Fraction(7), Fraction(9)),
]


@pytest.fixture
def example8():
    return make_model(EXAMPLE8_PAIRS)


def pairwise_adjacency(pairs):
    """Adjacency dict straight from closed-interval overlap (test oracle)."""
    n = len(pairs)
    adj = {v: set() for v in range(1, n + 1)}
    for i in range(n):
        for j in range(i + 1, n):
            a = max(pairs[i][0], pairs[j][0])
            b = min(pairs[i][1], pairs[j][1])
            if a <= b:
                adj[i + 1].add(j + 1)
                adj[j + 1].add(i + 1)
    return adj


def oracle_min_set(adj, k, variant, costs=None):
    """Tiny independent optimizer: scan all subsets, definitions verbatim."""
    import itertools

    n = len(adj)
    best = None
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            s = set(combo)
            ok = True
            for v in range(1, n + 1):
                if variant == "kdom" and v in s:
                    continue
                if len(adj[v] & s) < k:
                    ok = False
                    break
            if not ok:
                continue
            cost = size if costs is None else sum(costs[v - 1] for v in combo)
            if best is None or cost < best[0]:
                best = (cost, combo)
    return best


_FRONTIER_STATE_CAP = 20_000


def frontier_min_literal(model, k, variant, weighted):
    """Least cost of a k-dominating (``kdom``) or total k-dominating set, or
    None when there is none, by a left-to-right scan of in/out decisions
    that checks the definitions verbatim and shares nothing with the DAG.

    Vertices are decided in sorted order.  Before vertex i is decided, the
    decided vertices that still meet an undecided one are those meeting i:
    in a proper model they are one block, ``lo .. i-1``.  The state keeps
    (chosen, chosen neighbours capped at k) for each of them, with the least
    cost per state.  A vertex is checked when it leaves the block, since all
    its neighbours are decided by then.  More than ``_FRONTIER_STATE_CAP``
    states at one vertex fail the test rather than run away.
    """
    ivs, n = model.intervals, model.n
    costs = model.costs if weighted and model.costs is not None else (1,) * n
    total = variant == "total"

    def meets(a, b):
        return max(ivs[a].left, ivs[b].left) <= min(ivs[a].right, ivs[b].right)

    states = {(): 0}
    lo = 0  # the block's first vertex
    for i in range(n):
        nxt_lo = i + 1
        if i + 1 < n:
            nxt_lo = lo
            while not meets(nxt_lo, i + 1):
                nxt_lo += 1
        out = {}
        for block, cost in states.items():
            hits = min(sum(chosen for chosen, _ in block), k)
            for x in (0, 1):
                grown = [(chosen, min(h + x, k)) for chosen, h in block]
                grown.append((x, hits))
                left, kept = grown[:nxt_lo - lo], tuple(grown[nxt_lo - lo:])
                if any(h < (0 if chosen and not total else k) for chosen, h in left):
                    continue
                c = cost + x * costs[i]
                if kept not in out or c < out[kept]:
                    out[kept] = c
        if len(out) > _FRONTIER_STATE_CAP:
            pytest.fail(f"more than {_FRONTIER_STATE_CAP} states at vertex {i + 1}")
        states, lo = out, nxt_lo
    return Fraction(states[()]) if states else None


def bench_run():
    """``perfbench/run.py`` as a module, for its workload table and the
    generator it imports; ``perfbench/`` is on ``sys.path`` for the import
    alone, and nothing there is written."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look their module up here
    sys.path.insert(0, str(bench))
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
    return run

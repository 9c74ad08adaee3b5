import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import pikdom.fast as fast_module
import pikdom.reduction as reduction_module
from pikdom.fast import _best_class, _sweep, search_fast, solve_fast
from pikdom.cli import main
from pikdom.frontier import solve_frontier
from pikdom.literal import (
    SuffixClass,
    _e0_arc,
    _e0_head_window,
    _head_ok,
    _tail_ok,
    arc_length,
    eligible_tail_bigs,
    enumerate_nodes,
    is_e0_arc,
    is_e1_arc,
    representative_independence_check,
    suffix_key,
    suffix_partition,
    topo_order,
)
from pikdom.model import (
    derive_graph,
    generate_random,
    parse_model,
    serialize_model,
    with_costs,
)
from pikdom.oracle import brute_force_min, check_lemma_components, find_violation
from pikdom.reduction import (
    ARC_E0,
    ARC_E1,
    KIND_BIG,
    DagNode,
    _Ctx,
    _Plan,
    _gap_covered,
    build_digraph,
    dump_digraph,
    engine_plan,
    path_to_vertex_set,
    search_naive,
    solve_naive,
)

from conftest import (
    bench_run,
    chain_model,
    complete_model,
    frontier_min_literal,
    make_model,
    printed_rule_cost,
)


# ------------------------------------------------------------- tail bigs

def test_k1_every_big_is_tail_eligible():
    m = generate_random(10, 2, 4)
    nodes = enumerate_nodes(m, 1, "total")
    bigs = {nd.id for nd in nodes if nd.kind == "big"}
    assert eligible_tail_bigs(nodes, m, 1, "total") == bigs


def test_chain_window_excluded_from_tails():
    # P_4, k=2: (1,2,3,4) is a big node but its last three vertices do not
    # pairwise intersect (1st and 3rd of them are non-adjacent)
    m = chain_model(4)
    nodes = enumerate_nodes(m, 2, "total")
    big = [nd for nd in nodes if nd.kind == "big"]
    assert [nd.seq for nd in big] == [(1, 2, 3, 4)]
    assert eligible_tail_bigs(nodes, m, 2, "total") == frozenset()


def test_dense_window_is_tail_eligible():
    m = complete_model(6)
    nodes = enumerate_nodes(m, 2, "total")
    ids = {nd.seq: nd.id for nd in nodes if nd.kind == "big"}
    assert (2, 3, 5, 6) in ids
    assert ids[(2, 3, 5, 6)] in eligible_tail_bigs(nodes, m, 2, "total")


# -------------------------------------------------------- suffix partition

def test_suffix_key():
    assert suffix_key((1, 3, 4, 5), 2) == (4, 5)
    assert suffix_key((3,), 2) == (3,)  # shorter than k: the whole sequence
    assert suffix_key((1, 2), 2) == (1, 2)


def test_suffix_partition_groups_by_last_k():
    m = complete_model(5)
    nodes = enumerate_nodes(m, 2, "total")
    eligible = eligible_tail_bigs(nodes, m, 2, "total")
    classes = suffix_partition(nodes, 2, eligible)
    by_key = {cl.key: cl for cl in classes}
    a = next(nd for nd in nodes if nd.seq == (1, 3, 4, 5))
    b = next(nd for nd in nodes if nd.seq == (2, 3, 4, 5))
    assert a.id in by_key[(4, 5)].members and b.id in by_key[(4, 5)].members
    assert [cl.key for cl in classes] == sorted(cl.key for cl in classes)
    for cl in classes:
        assert cl.members == tuple(sorted(cl.members))


def test_suffix_partition_empty():
    m = make_model([(0, 1), (5, 6)])
    nodes = enumerate_nodes(m, 1, "total")
    assert suffix_partition(nodes, 1, frozenset()) == []


def test_no_arcs_inside_a_class():
    for seed in range(10):
        m = generate_random(4 + seed % 5, 808 + seed, [3, 5][seed % 2])
        for k in (1, 2):
            for variant in ("kdom", "total"):
                nodes = enumerate_nodes(m, k, variant)
                eligible = eligible_tail_bigs(nodes, m, k, variant)
                classes = suffix_partition(nodes, k, eligible)
                for cl in classes:
                    members = [nodes[i] for i in cl.members]
                    for a in members:
                        for b in members:
                            if a.id == b.id:
                                continue
                            assert not is_e1_arc(k, a, b)
                            assert not is_e0_arc(m, k, variant, a, b)


# -------------------------------------------------------------- topo order

def test_topo_order_tiny():
    m = make_model([(0, 2), (1, 3)])
    nodes = enumerate_nodes(m, 1, "total")
    assert topo_order(nodes, 1) == [0, 1, 2]


def test_topo_order_suffix_sorted():
    m = chain_model(3)
    nodes = enumerate_nodes(m, 1, "kdom")
    order = topo_order(nodes, 1)
    seqs = [nodes[i].seq for i in order[1:-1]]
    keys = [suffix_key(s, 1) for s in seqs]
    assert keys == sorted(keys)
    a = next(nd.id for nd in nodes if nd.seq == (1, 2))
    b = next(nd.id for nd in nodes if nd.seq == (2, 3))
    assert order.index(a) < order.index(b)


def test_topo_order_valid_against_built_digraph():
    for seed in range(12):
        n = 4 + seed % 7
        m = generate_random(n, 4242 + seed, [2, 3, 5][seed % 3])
        for k in (1, 2):
            for variant in ("kdom", "total"):
                dg = build_digraph(m, k, variant)
                pos = {nid: p for p, nid in enumerate(topo_order(dg.nodes, k))}
                for a in dg.arcs:
                    assert pos[a.tail] < pos[a.head]


# -------------------------------------------------------------- solve_fast

def test_fast_tiny_examples():
    sol = solve_fast(make_model([(0, 2), (1, 3)]), 1, "total")
    assert sol.cost == 2 and sol.vertices.members == (1, 2)
    assert solve_fast(complete_model(5), 2, "total").cost == 3


def test_fast_three_engine_agreement_random():
    rng_master = random.Random(7)
    for seed in range(50):
        n = 4 + seed % 9
        m = generate_random(n, 6000 + seed, [1, 2, 3, 5, Fraction(5, 2)][seed % 5])
        costs = [rng_master.randint(0, 10) for _ in range(n)]
        mw = with_costs(m, costs)
        g = derive_graph(m)
        ks = (1, 2, 3) if seed % 6 == 0 else (1, 2)
        for k in ks:
            for variant in ("kdom", "total"):
                for model, weighted in ((m, False), (mw, True)):
                    b = brute_force_min(model, k, variant, weighted)
                    nv = solve_naive(model, k, variant, weighted)
                    fs = solve_fast(model, k, variant, weighted)
                    assert b.feasible == nv.feasible == fs.feasible
                    if b.feasible:
                        assert b.cost == nv.cost == fs.cost
                        for sol in (nv, fs):
                            assert find_violation(g, sol.vertices, k, variant) is None
                            # reported cost is the sum of member costs
                            per_vertex = (
                                model.cost_by_original()
                                if weighted
                                else [Fraction(1)] * n
                            )
                            assert sol.cost == sum(
                                per_vertex[v - 1] for v in sol.vertices
                            )
                        if variant == "total":
                            assert check_lemma_components(g, fs.vertices, k)


def test_fast_agrees_with_brute_at_k4():
    # At k >= 4 a position inside a chain's span can lack two hits, which
    # fails every last index of its big nodes; no other tier-1 solve reaches
    # k = 4.
    feasible = 0
    for n in range(1, 15):
        for seed in range(4):
            for stretch in (1, 2, 3, 5, 8, Fraction(7, 2)):
                m = generate_random(n, 4400 + 10 * n + seed, stretch)
                for variant in ("kdom", "total"):
                    b = brute_force_min(m, 4, variant)
                    fs = solve_fast(m, 4, variant)
                    assert (fs.feasible, fs.cost) == (b.feasible, b.cost), (
                        n, seed, stretch, variant
                    )
                    feasible += b.feasible
    assert feasible > 300


def test_sweep_runs_no_literal_window_check(monkeypatch):
    # The sweep reads conditions (3) and (4) from the plan's role bytes; the
    # window checks run while the plan is built, never during the search.
    assert not hasattr(fast_module, "_head_ok")
    assert not hasattr(fast_module, "_tail_ok")
    plan = engine_plan(generate_random(30, 3, 8), 3, "kdom")
    calls = []
    real = reduction_module._dominated
    monkeypatch.setattr(reduction_module, "_dominated",
                        lambda *args: calls.append(args) or real(*args))
    sol, _ = search_fast(plan)
    # sink 1, source 2, small 3, and big nodes with every answer to (4), (3)
    assert sol.feasible and set(plan.roles) == {1, 2, 3, 4, 5, 6, 7}
    assert calls == []


def test_naive_runs_no_literal_window_check(monkeypatch):
    # naive reads conditions (3) and (4) from the plan's role bytes too, as
    # it finds each tail's arcs; the literal checks live in pikdom.literal.
    assert not hasattr(reduction_module, "_head_ok")
    assert not hasattr(reduction_module, "_tail_ok")
    plan = engine_plan(generate_random(30, 3, 8), 3, "kdom")
    calls = []
    real = reduction_module._dominated
    monkeypatch.setattr(reduction_module, "_dominated",
                        lambda *args: calls.append(args) or real(*args))
    sol, path = search_naive(plan)
    assert sol.feasible and len(path) > 2
    assert set(plan.roles) == {1, 2, 3, 4, 5, 6, 7}
    assert calls == []


def test_fast_builds_no_per_id_lists(monkeypatch):
    # The sweep decides each run of big nodes once and never builds the
    # plan's per-id sequence and role lists, nor naive's arc index; naive
    # and plan.nodes build them, and still list every node in id order.
    m = generate_random(30, 1, 8)
    costs = [Fraction(1 + i % 4, 1 + i % 3) for i in range(m.n)]
    for model, weighted in ((m, False), (with_costs(m, costs), True)):
        for variant in ("kdom", "total"):
            plan = engine_plan(model, 3, variant, weighted)
            with monkeypatch.context() as mp:

                def no_lists(self):
                    raise AssertionError("solve_fast built the per-id lists")

                for name in ("seqs", "roles", "_arc_index"):
                    mp.setattr(_Plan, name, property(no_lists))
                sol, path = search_fast(plan)
                assert sol == solve_fast(model, 3, variant, weighted)
            assert sol.feasible and sol.stats["big_nodes"] > 1000
            assert sum(len(t) == 5 for t, *_ in plan.items) > 300  # runs, at k=3
            nodes = plan.nodes
            assert [nd.id for nd in nodes] == list(range(plan.size))
            seqs = [nd.seq for nd in nodes]
            assert seqs == sorted(set(seqs)) and len(seqs) == sol.stats["nodes"]
            assert path == [nodes[nd.id] for nd in path]
            naive, naive_path = search_naive(plan)
            assert (naive.cost, naive.stats["nodes"]) == (sol.cost, plan.size)
            assert naive_path == [nodes[nd.id] for nd in naive_path]


def test_prefix_classes_are_id_runs():
    # The sweep runs in id order and keeps only the last prefix class it
    # probed, so the heads sharing their first k indices must have
    # consecutive ids.  Corpus of test_plan_flags_match_literal_checks.
    assert not hasattr(fast_module, "_hi_order")
    assert not hasattr(fast_module, "topo_order")  # the hi order is literal's
    runs = 0
    for n in range(1, 40):
        for seed in range(3):
            for stretch in (1, 2, 3, 5, 8, Fraction(7, 2)):
                m = generate_random(n, 100 * n + seed, stretch)
                for k in (1, 2, 3, 4):
                    if stretch == 8 and n > {3: 24, 4: 14}.get(k, n):
                        continue
                    for variant in ("kdom", "total"):
                        plan = _Plan(m, k, variant, False, 10**18)
                        seen = set()
                        last = None
                        for seq in plan.seqs[1:]:
                            if seq[:k] != last:
                                last = seq[:k]
                                assert last not in seen, (n, seed, stretch, k, variant, seq)
                                seen.add(last)
                                runs += 1
                        if seed:  # search one seed in three, to keep the run short
                            continue
                        # the sweep counts one prefix class per distinct
                        # first k indices among the heads it probes
                        heads = {
                            nd.seq[:k]
                            for nd, role in zip(plan.nodes, plan.roles)
                            if nd.kind != KIND_BIG or role & 1
                        }
                        sol, path = search_fast(plan)
                        assert sol.stats["prefix_classes"] == len(heads) - 1  # not the source
                        assert (path is None) == (not sol.feasible)
    assert runs > 100_000


def test_fast_reconstructed_path_is_genuine():
    for seed in range(15):
        n = 4 + seed % 7
        m = generate_random(n, 9100 + seed, [3, 5, 8][seed % 3])
        for k in (1, 2):
            for variant in ("kdom", "total"):
                sol, path = search_fast(engine_plan(m, k, variant))
                if not sol.feasible:
                    assert path is None
                    continue
                assert path[0].kind == "source" and path[-1].kind == "sink"
                for a, b in zip(path, path[1:]):
                    assert is_e1_arc(k, a, b) or is_e0_arc(m, k, variant, a, b)


def _swept(model, k, variant, weighted=False):
    """The plan ``solve_fast`` searches and what ``_sweep`` makes of it,
    ``(plan, dist, pred, stats)``, or None when there is no plan."""
    plan = engine_plan(model, k, variant, weighted)
    return None if plan is None else (plan, *_sweep(plan))


def _class_reps(model, k, variant, nodes, dist, unreachable):
    """``(least dist, representative)`` for the source and for every suffix
    class with a reached member, one whose dist is below ``unreachable``:
    the class minimum recomputed from ``dist``, and the class's first
    member."""
    middle = nodes[1:-1]
    eligible = eligible_tail_bigs(middle, model, k, variant)
    reps = [(0, nodes[0])]
    for cl in suffix_partition(middle, k, eligible):
        values = [dist[i] for i in cl.members if dist[i] < unreachable]
        if values:
            reps.append((min(values), nodes[cl.members[0]]))
    return reps


def _literal_jump_value(ctx, reps, head, charge):
    """The best path into ``head`` ending in a jump arc, by the literal
    jump-arc test on each representative, or None when there is none."""
    return min((best + charge for best, rep in reps if _e0_arc(ctx, rep, head)),
               default=None)


def test_fast_dp_invariants_via_sweep():
    # Every reached node's value is its predecessor's plus the length of a
    # genuine arc between them, and the sink's value is the best explicit
    # jump into it from any node.
    for seed in range(10):
        m = generate_random(5 + seed % 5, 777 + seed, [3, 6][seed % 2])
        for k in (1, 2):
            for variant in ("kdom", "total"):
                swept = _swept(m, k, variant)
                if swept is None:
                    continue
                plan, dist, pred, _ = swept
                nodes = plan.nodes
                assert (dist[0], pred[0]) == (0, None)
                for nd in nodes[1:]:
                    if dist[nd.id] >= plan.unreachable:
                        assert pred[nd.id] is None
                        continue
                    t = nodes[pred[nd.id]]
                    if is_e1_arc(k, t, nd):
                        length = arc_length(t, nd, ARC_E1)
                    else:
                        assert is_e0_arc(m, k, variant, t, nd)
                        length = arc_length(t, nd, ARC_E0)
                    assert dist[nd.id] == dist[t.id] + length
                sink = nodes[-1]
                cands = [
                    dist[nd.id]
                    for nd in nodes[:-1]
                    if dist[nd.id] < plan.unreachable and is_e0_arc(m, k, variant, nd, sink)
                ]
                assert dist[sink.id] == min(cands, default=plan.unreachable)


def test_fast_dist_matches_literal_recomputation():
    # Each middle node's dist is the least of two literal values.  Its best
    # path ending in a jump arc comes from the literal jump-arc test on the
    # source and on every class representative, each class's minimum
    # recomputed from dist.  Its best path ending in a slide arc comes from
    # the literal slide-arc test on every big tail.  Also counts the prefix
    # classes the DP must probe: heads that pass condition (4), by their
    # first k indices, plus the sink.
    rng = random.Random(5)
    checked = {True: 0, False: 0}
    for n, (seed, stretch) in product(range(4, 15), ((0, 3), (1, Fraction(9, 2)), (2, 7))):
        m = generate_random(n, 5500 + 10 * n + seed, stretch)
        costs = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 5))) for _ in range(n)]
        mw = with_costs(m, costs)
        scale = lcm(*(c.denominator for c in costs))
        for k in (1, 2, 3):
            for variant in ("kdom", "total"):
                ctx = _Ctx(m, k, variant)
                for model, weighted in ((m, False), (mw, True)):
                    swept = _swept(model, k, variant, weighted)
                    if swept is None:  # no plan: infeasible by minimum degree
                        continue
                    plan, dist, _, stats = swept
                    nodes = plan.nodes
                    assert len(dist) == len(nodes)
                    reps = _class_reps(model, k, variant, nodes, dist, plan.unreachable)
                    bigs = [t for t in nodes
                            if t.kind == KIND_BIG and dist[t.id] < plan.unreachable]
                    prefixes = {nodes[-1].seq[:k]}
                    for nd in nodes[1:-1]:
                        if weighted:
                            charge = sum(costs[i - 1] for i in nd.seq) * scale
                            step = costs[nd.seq[-1] - 1] * scale
                        else:
                            charge, step = len(nd.seq), 1
                        jump = _literal_jump_value(ctx, reps, nd, charge)
                        slides = [dist[t.id] + step for t in bigs if is_e1_arc(k, t, nd)]
                        want = min([v for v in (jump, *slides) if v is not None], default=None)
                        if nd.kind == "small" or _head_ok(ctx, nd.seq):
                            prefixes.add(nd.seq[:k])
                        got = dist[nd.id] if dist[nd.id] < plan.unreachable else None
                        assert got == want, (n, k, variant, weighted, nd.seq)
                        checked[jump is None] += 1
                    assert stats["prefix_classes"] == len(prefixes)
    assert min(checked.values()) > 5000


def test_fast_work_counter_bound():
    for seed in range(10):
        m = generate_random(6 + seed, 818 + seed, [3, 5, 9][seed % 3])
        for k in (1, 2):
            sol = solve_fast(m, k, "kdom")
            st = sol.stats
            middle = st["small_nodes"] + st["big_nodes"]
            assert st["representative_tests"] <= middle * st["suffix_classes"]
            # Each probe tests each reached class at most once, the
            # source's class included.
            assert st["representative_tests"] <= (
                st["prefix_classes"] * (st["suffix_classes"] + 1)
            )


def _literal_node_counts(m, k, variant):
    """The node-count stats of ``solve_fast``, counted from the literal
    enumeration, tail check and suffix partition."""
    nodes = enumerate_nodes(m, k, variant)
    middle = nodes[1:-1]
    eligible = eligible_tail_bigs(middle, m, k, variant)
    bigs = sum(nd.kind == KIND_BIG for nd in middle)
    return {
        "nodes": len(nodes),
        "small_nodes": len(middle) - bigs,
        "big_nodes": bigs,
        "tail_eligible_bigs": len(eligible),
        "suffix_classes": len(suffix_partition(middle, k, eligible)),
    }


def test_fast_node_counts_match_literal_counts():
    runs = 0
    for n in range(5, 31):
        m = generate_random(n, 2400 + n, [2, 3, 5, 8][n % 4])
        for k in (1, 2, 3):
            for variant in ("kdom", "total"):
                sol = solve_fast(m, k, variant)
                if sol.stats is None:  # no plan: some vertex has under k neighbors
                    continue
                want = _literal_node_counts(m, k, variant)
                assert {key: sol.stats[key] for key in want} == want, (n, k, variant)
                runs += 1
    assert runs > 100


def test_fast_node_counts_match_literal_counts_on_bench_shapes():
    run = bench_run()
    tails = 0
    for name, workload in sorted(run.WORKLOADS.items()):
        for i, spec in enumerate(workload.specs):
            for seed in (1, 2):
                inst = run.generate(spec, seed * 1000 + i, f"{name}-{i:02d}")
                m = parse_model(inst.text)
                sol = solve_fast(m, spec.k, spec.variant, m.weighted)
                want = _literal_node_counts(m, spec.k, spec.variant)
                assert {key: sol.stats[key] for key in want} == want, (inst.name, seed)
                tails += want["tail_eligible_bigs"]
    assert tails > 0


@pytest.mark.parametrize(
    "n, seed, stretch, k, variant, cost, probes",
    [
        (30, 5, 6, 2, "total", 15, 143),
        (40, 7, 3, 1, "kdom", 11, 93),
    ],
)
def test_fast_representative_tests_pinned(n, seed, stretch, k, variant, cost, probes):
    sol = solve_fast(generate_random(n, seed, stretch), k, variant)
    assert sol.cost == cost
    assert sol.stats["representative_tests"] == probes


def _probe_table(ctx, classes):
    """A ``_best_class`` table holding only ``classes``, (key, member id)
    pairs, each reached at length 0, keyed as ``_sweep`` keys its own."""
    by_hi = [{} for _ in range(ctx.n + 2)]
    for key, member in classes:
        by_hi[key[-1]][key[:-1]] = [0, member, key]
    return by_hi


def test_threshold_probe_matches_jump_arc_test():
    # For every head that passes condition (4) and every class, the probe
    # of a table holding that class alone tests it iff its hi lies in the
    # head's window, and returns it iff the literal jump-arc test finds an
    # arc from the class representative.  The heads are the middle nodes
    # and the sink; the classes are the suffix classes and the source's own
    # class (key (0,), hi 0), as in the DP.  A big node that fails (4) is
    # never probed: the literal test finds no jump arc into it from any class
    # in its window.
    checked = {True: 0, False: 0}
    dummies = {"source": {True: 0, False: 0}, "sink": {True: 0, False: 0}}
    failing_pairs = 0
    short_keys = 0
    for n in range(4, 15):
        for seed, stretch in ((0, 3), (1, Fraction(9, 2)), (2, 7)):
            m = generate_random(n, 3300 + 10 * n + seed, stretch)
            for k in (1, 2, 3):
                for variant in ("kdom", "total"):
                    ctx = _Ctx(m, k, variant)
                    nodes = enumerate_nodes(m, k, variant)
                    middle = nodes[1:-1]
                    eligible = eligible_tail_bigs(middle, m, k, variant)
                    classes = [SuffixClass((0,), (nodes[0].id,)),
                               *suffix_partition(middle, k, eligible)]
                    for nd in middle + [nodes[-1]]:
                        hi_min, hi_max = _e0_head_window(ctx, nd.lo)
                        if nd.kind == KIND_BIG and not _head_ok(ctx, nd.seq):
                            for cl in classes:
                                if hi_min <= cl.key[-1] <= hi_max:
                                    for t in cl.members:
                                        assert not _e0_arc(ctx, nodes[t], nd)
                                        failing_pairs += 1
                            continue
                        for cl in classes:
                            rep = cl.members[0]
                            table = _probe_table(ctx, [(cl.key, rep)])
                            hit, tests = _best_class(ctx, table, nd.seq[:k], 1)
                            want = _e0_arc(ctx, nodes[rep], nd)
                            where = (n, seed, k, variant, cl.key, nd.seq)
                            assert tests == (hi_min <= cl.key[-1] <= hi_max), where
                            assert hit == (table[cl.key[-1]][cl.key[:-1]] if want else None), where
                            if not tests:
                                continue
                            checked[want] += 1
                            short_keys += len(cl.key) < k
                            if cl.key == (0,):
                                dummies["source"][want] += 1
                            if nd is nodes[-1]:
                                dummies["sink"][want] += 1
    assert min(checked.values()) > 1000
    assert min(dummies["source"].values()) > 500
    assert min(dummies["sink"].values()) > 100
    assert failing_pairs > 100
    assert short_keys > 100


@pytest.mark.parametrize("first, second, winner", [
    ((4, 7), (5, 6), (4, 7)),  # the lesser key is walked first, at hi 7
    ((5, 7), (4, 6), (4, 6)),  # the lesser key is walked second, at hi 6
])
def test_threshold_probe_ties_go_to_the_lesser_key(first, second, winner):
    # Two classes at different hi, both with a jump arc into the sink and
    # both reached at the same length: the probe returns the lesser key,
    # whichever of the two its walk down the window meets first.
    m = make_model([(0, 3), (3, 6), (5, 8), (9, 12), (10, 13), (11, 14), (12, 15)])
    k = 2
    ctx = _Ctx(m, k, "kdom")
    nodes = enumerate_nodes(m, k, "kdom")
    middle = nodes[1:-1]
    classes = suffix_partition(middle, k, eligible_tail_bigs(middle, m, k, "kdom"))
    reps = {cl.key: cl.members[0] for cl in classes if cl.key in (first, second)}
    sink = nodes[-1]
    for key, rep in reps.items():
        assert _e0_arc(ctx, nodes[rep], sink), key
    table = _probe_table(ctx, reps.items())
    hit, tests = _best_class(ctx, table, sink.seq[:k], 1)
    assert tests == 2
    assert hit == [0, reps[winner], winner]


def test_every_probe_of_a_sweep_matches_a_literal_scan(monkeypatch):
    # Each probe a real sweep makes, against a scan of the table as the
    # sweep holds it then.  The probe counts exactly the reached classes
    # whose hi lies in the head's window (_e0_head_window), and returns the
    # least by (cost, key) of those whose representative, the member whose cost
    # the class keeps, passes condition (1) and the literal gap cover into
    # the prefix (_gap_covered).  The heads pass (4) and every class member
    # (3), so those are the jump arcs.  The corpus is perfbench's shapes and
    # random instances, unit and weighted.
    real = fast_module._best_class
    many = 0  # probes that see two or more reached classes
    seqs = []

    def probe(ctx, by_hi, prefix, unreachable):
        nonlocal many
        hit, tests = real(ctx, by_hi, prefix, unreachable)
        hi_min, hi_max = _e0_head_window(ctx, prefix[0])
        reached = [
            entry
            for hi in range(hi_min, hi_max + 1)
            for entry in by_hi[hi].values()
            if entry[0] < unreachable
        ]
        arcs = []
        for entry in reached:
            rep = seqs[entry[1]]
            assert rep[-ctx.k:] == entry[2], (rep, entry)
            if (ctx.reach_r[rep[-1]] < prefix[0]
                    and _gap_covered(ctx, rep, [(entry[1], prefix)])):
                arcs.append(entry)
        want = min(arcs, key=lambda entry: (entry[0], entry[2]), default=None)
        assert tests == len(reached), (prefix, tests, reached)
        assert hit is want, (prefix, hit, want)
        many += len(reached) >= 2
        return hit, tests

    monkeypatch.setattr(fast_module, "_best_class", probe)
    cases = []
    run = bench_run()
    for name, workload in sorted(run.WORKLOADS.items()):
        for i, spec in enumerate(workload.specs):
            m = parse_model(run.generate(spec, 1000 + i, f"{name}-{i:02d}").text)
            cases.append((m, spec.k, spec.variant, m.weighted))
    for n in range(5, 31):
        m = generate_random(n, 4100 + n, [2, 3, 5, 8][n % 4])
        mw = with_costs(m, [Fraction(1 + (i * 5) % 7, 1 + i % 3) for i in range(n)])
        for k in (1, 2, 3):
            for variant in ("kdom", "total"):
                cases += [(m, k, variant, False), (mw, k, variant, True)]
    for model, k, variant, weighted in cases:
        plan = engine_plan(model, k, variant, weighted)
        if plan is None:
            continue
        seqs[:] = plan.seqs
        search_fast(plan)
    assert many > 1000, many


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _prime_denominator_costs(n, rng):
    """Zero costs plus rationals whose denominators split the primes up to
    47 among them, so the denominators' LCM is their product (~6.1e17)."""
    nonzero = sorted(rng.sample(range(n), max(1, n - n // 4)))
    costs = [Fraction(0)] * n
    for i, pos in enumerate(nonzero):
        den = 1
        for p in _PRIMES[i::len(nonzero)]:
            den *= p
        costs[pos] = Fraction(den * rng.randint(0, 2) + 1, den)
    return costs


def test_exact_costs_with_huge_denominator_lcm():
    rng = random.Random(47)
    for n in range(4, 13):
        m = generate_random(n, 4700 + n, [2, 3, Fraction(7, 2)][n % 3])
        mw = with_costs(m, _prime_denominator_costs(n, rng))
        assert lcm(*(c.denominator for c in mw.costs)) > 10**17
        for k in (1, 2):
            for variant in ("kdom", "total"):
                for model, weighted in ((m, False), (mw, True)):
                    sols = [
                        brute_force_min(model, k, variant, weighted),
                        solve_naive(model, k, variant, weighted),
                        solve_fast(model, k, variant, weighted),
                    ]
                    assert len({s.feasible for s in sols}) == 1
                    if sols[0].feasible:
                        assert len({s.cost for s in sols}) == 1
                        assert all(type(s.cost) is Fraction for s in sols)
                dg = build_digraph(mw, k, variant, weighted=True)
                for a in dg.arcs:
                    t, h = dg.nodes[a.tail], dg.nodes[a.head]
                    assert type(a.length) is Fraction
                    assert a.length == arc_length(t, h, a.cls, mw.costs)


@pytest.mark.parametrize(
    "k, n_min, n_max, stretch_max", [(1, 30, 80, 10), (2, 20, 40, 6), (3, 12, 24, 5)]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fast_matches_naive_mid_scale(k, n_min, n_max, stretch_max, data):
    # Past brute force's range, with a rational stretch and mixed-denominator
    # costs; the stretch cap keeps naive's arc count small for k=2.
    seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
    n = data.draw(st.integers(min_value=n_min, max_value=n_max), label="n")
    stretch = data.draw(
        st.fractions(min_value=1, max_value=stretch_max, max_denominator=4),
        label="stretch",
    )
    m = generate_random(n, seed, stretch)
    rng = random.Random(seed)
    costs = [
        Fraction(rng.randint(0, 20), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)
    ]
    mw = with_costs(m, costs)
    g = derive_graph(mw)
    for variant in ("kdom", "total"):
        plan = engine_plan(mw, k, variant, weighted=True)
        fs, _ = search_fast(plan)
        nv, _ = search_naive(plan)
        where = (
            f"seed={seed} n={n} k={k} stretch={stretch} variant={variant}\n"
            + serialize_model(mw)
        )
        # Both engines read (3) and (4) from the role byte, so their
        # agreement cannot see a wrong bit; the literal checks can.
        if plan is not None:
            for seq, role in zip(plan.seqs, plan.roles):
                if role & 4:
                    literal = _head_ok(plan.ctx, seq) | _tail_ok(plan.ctx, seq) << 1
                    assert role & 3 == literal, (where, seq)
        assert (fs.feasible, fs.cost) == (nv.feasible, nv.cost), where
        if fs.feasible:
            assert find_violation(g, fs.vertices, k, variant) is None, where
            assert fs.cost == sum(costs[v - 1] for v in fs.vertices), where
        # The frontier shares no code with the DAG; the literal scan checks
        # the definitions verbatim.
        fr = solve_frontier(mw, k, variant, weighted=True)
        assert (fr.feasible, fr.cost) == (fs.feasible, fs.cost), where
        assert fr.cost == frontier_min_literal(mw, k, variant, True), where
        if fr.feasible:
            assert find_violation(g, fr.vertices, k, variant) is None, where
            assert fr.cost == sum(costs[v - 1] for v in fr.vertices), where


def test_fast_e1_count_matches_naive_digraph():
    for seed in range(8):
        m = generate_random(5 + seed % 6, 27 + seed, [4, 8][seed % 2])
        for k in (1, 2):
            dg = build_digraph(m, k, "total")
            e1 = sum(1 for a in dg.arcs if a.cls == "E1")
            sol = solve_fast(m, k, "total")
            if sol.stats is not None:
                assert sol.stats["e1_arcs"] == e1


def test_fast_e1_count_matches_naive_digraph_all_variants():
    # k up to 3, both variants, unweighted and with mixed-denominator costs:
    # fast counts slide arcs at its slide-class lookups, naive builds them.
    rng = random.Random(31)
    counted = 0
    for seed in range(8):
        n = 6 + seed % 5
        m = generate_random(n, 3100 + seed, [4, Fraction(11, 2), 8][seed % 3])
        mw = with_costs(m, [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7)))
                            for _ in range(n)])
        for k in (1, 2, 3):
            for variant in ("kdom", "total"):
                for model, weighted in ((m, False), (mw, True)):
                    dg = build_digraph(model, k, variant, weighted)
                    e1 = sum(1 for a in dg.arcs if a.cls == "E1")
                    sol = solve_fast(model, k, variant, weighted)
                    if sol.stats is not None:
                        assert sol.stats["e1_arcs"] == e1, (seed, k, variant, weighted)
                        counted += e1 > 0 and k == 3
    assert counted >= 10


def test_fast_slide_steps_take_the_first_least_tail():
    # A slide step on fast's path comes from the lowest-id tail among the
    # big nodes with a slide arc into its head whose dist is least, and
    # only when it beats the literal best jump into the head strictly.
    # Dense models with many zero costs give long components, and so slides.
    rng = random.Random(37)
    steps = ties = 0
    for n, stretch in product(range(8, 41, 4), (4, Fraction(13, 2), 8)):
        m = generate_random(n, 3700 + n, stretch)
        costs = [Fraction(rng.choice((0, 0, 1, 2)), rng.choice((1, 2))) for _ in range(n)]
        mw = with_costs(m, costs)
        scale = lcm(*(c.denominator for c in costs))
        for k in (1, 2, 3):
            for variant in ("kdom", "total"):
                for model, weighted in ((m, False), (mw, True)):
                    swept = _swept(model, k, variant, weighted)
                    if swept is None or swept[1][-1] >= swept[0].unreachable:
                        continue
                    plan, dist, pred, _ = swept
                    nodes = plan.nodes
                    reps = _class_reps(model, k, variant, nodes, dist, plan.unreachable)
                    by_overlap = {}
                    for nd in nodes:
                        if nd.kind == KIND_BIG:
                            by_overlap.setdefault(nd.seq[1:], []).append(nd.id)
                    path = [nodes[-1]]  # fast's path, back from the sink
                    while pred[path[-1].id] is not None:
                        path.append(nodes[pred[path[-1].id]])
                    path.reverse()
                    assert path == search_fast(engine_plan(model, k, variant, weighted))[1]
                    for a, b in zip(path, path[1:]):
                        if not is_e1_arc(k, a, b):
                            continue
                        tails = [t for t in by_overlap[b.seq[:-1]]
                                 if dist[t] < plan.unreachable]
                        least = min(dist[t] for t in tails)
                        firsts = [t for t in tails if dist[t] == least]
                        assert a.id == min(firsts), (n, k, variant, weighted, b.seq)
                        if weighted:
                            charge = sum(costs[i - 1] for i in b.seq) * scale
                        else:
                            charge = len(b.seq)
                        jump = _literal_jump_value(plan.ctx, reps, b, charge)
                        assert jump is None or dist[b.id] < jump
                        steps += 1
                        ties += len(firsts) > 1
    assert steps > 200
    assert ties > 40


def test_fast_builds_dag_nodes_only_for_its_path(monkeypatch, capsys, tmp_path):
    m = generate_random(60, 3, 8)
    built = []
    init = DagNode.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(DagNode, "__init__", counted_init)
    sol, path = search_fast(engine_plan(m, 2, "total"))
    assert sol.stats["nodes"] > 1000
    assert len(built) == len(path)
    # naive builds nodes only for its own path too
    nv, naive_path = search_naive(engine_plan(m, 2, "total"))
    assert nv.cost == sol.cost
    assert len(built) == len(path) + len(naive_path)
    monkeypatch.undo()
    assert naive_path[0].id == 0 and naive_path[-1].id == sol.stats["nodes"] - 1
    assert path_to_vertex_set(naive_path, m) == nv.vertices
    inst = tmp_path / "m.txt"
    inst.write_text(serialize_model(m))
    dump = tmp_path / "dag.txt"
    assert main(["solve", str(inst), "--variant", "total", "--k", "2",
                 "--dump-dag", str(dump)]) == 0
    capsys.readouterr()
    assert dump.read_text() == dump_digraph(build_digraph(m, 2, "total"))


# --------------------------------------------- weighted slide-arc charge

def test_printed_slide_rule_disagrees_on_crafted_chain():
    # cost vector makes the three-vertex component optimal; charging the
    # head's leftmost vertex undercounts and breaks oracle agreement
    m = chain_model(5, costs=(9, 1, 1, 5, 9))
    b = brute_force_min(m, 1, "total", weighted=True)
    assert b.cost == 7 and b.vertices.members == (2, 3, 4)
    good = solve_fast(m, 1, "total", weighted=True)
    assert good.cost == 7
    assert printed_rule_cost(m, 1, "total") == 3


def test_amended_rule_matches_oracle_on_weighted_randoms():
    rng = random.Random(3)
    for seed in range(25):
        n = 4 + seed % 8
        m = generate_random(n, 5150 + seed, [2, 3, 5][seed % 3])
        mw = with_costs(m, [rng.randint(0, 10) for _ in range(n)])
        for k in (1, 2):
            for variant in ("kdom", "total"):
                b = brute_force_min(mw, k, variant, weighted=True)
                f = solve_fast(mw, k, variant, weighted=True)
                assert b.feasible == f.feasible
                if b.feasible:
                    assert b.cost == f.cost


# --------------------------------------- representative independence

def test_representative_independence_random():
    for seed in range(20):
        n = 4 + seed % 7
        m = generate_random(n, 2222 + seed, [1, 2, 3, 5][seed % 4])
        for k in (1, 2):
            for variant in ("kdom", "total"):
                assert representative_independence_check(m, k, variant)


@pytest.mark.parametrize(
    "k, ns", [(1, (30, 200)), (2, (20, 60)), (3, (12, 20))], ids=["k1", "k2", "k3"]
)
def test_representative_independence_mid_scale(k, ns):
    # Past brute force's range: the check reads the plan's classes and
    # arcs, so it takes no size cap of its own.
    for n in ns:
        for stretch in (3, Fraction(11, 2), 8):
            m = generate_random(n, n + k, stretch)
            for variant in ("kdom", "total"):
                assert representative_independence_check(m, k, variant), (n, stretch, variant)


def test_representative_independence_sees_planted_dependence(monkeypatch):
    # A gap cover that reads a tail's first index, which no suffix class
    # shares, must split some class's successors.
    real = reduction_module._gap_covered

    def planted(ctx, tail, heads):
        if tail[0] % 2 == 0 and len(tail) > ctx.k:
            return list(heads)
        return real(ctx, tail, heads)

    monkeypatch.setattr(reduction_module, "_gap_covered", planted)
    verdicts = [
        representative_independence_check(generate_random(n, n, stretch), k, variant)
        for n in (6, 8, 10)
        for stretch in (3, 5)
        for k in (1, 2)
        for variant in ("kdom", "total")
    ]
    assert not all(verdicts)


def test_fast_deterministic():
    m = generate_random(10, 12, 5)
    assert solve_fast(m, 2, "total") == solve_fast(m, 2, "total")

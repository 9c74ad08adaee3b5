import bisect
import collections
import dataclasses
import itertools
import random
import tracemalloc
import types
from fractions import Fraction
from math import comb, lcm

import pytest

import pikdom.reduction as reduction_module
from pikdom.errors import BudgetError, NotArcError, NotPathError, ParamError
from pikdom.fast import search_fast, solve_fast
from pikdom.frontier import solve_frontier
from pikdom.literal import (
    _e0_arc,
    _e0_head_window,
    _head_ok,
    _hits,
    _tail_ok,
    arc_length,
    enumerate_nodes,
    is_e0_arc,
    is_e1_arc,
    projected_node_count,
)
from pikdom.model import (
    Interval,
    ProperIntervalModel,
    derive_graph,
    generate_random,
    intersects,
    min_degree,
    parse_model,
    with_costs,
)
from pikdom.oracle import brute_force_min, find_violation
from pikdom.reduction import (
    ARC_E0,
    ARC_E1,
    DEFAULT_NODE_CAP,
    DagNode,
    _Ctx,
    _HEAD,
    _Plan,
    _chain_count,
    _dominated,
    _e0_window,
    build_digraph,
    dump_digraph,
    engine_plan,
    path_to_vertex_set,
    search_naive,
    solve_naive,
)

from conftest import bench_run, chain_model, complete_model, disjoint_model, make_model
from test_acceptance import CORPUS_SIZE as ACCEPTANCE_SIZE, _entry as acceptance_entry


def kinds(nodes):
    return [(nd.kind, nd.seq) for nd in nodes]


def node_by_seq(nodes, seq):
    for nd in nodes:
        if nd.seq == seq:
            return nd
    raise AssertionError(f"no node with seq {seq}")


# ------------------------------------------------------------- enumeration

def test_enumerate_two_disjoint_total():
    nodes = enumerate_nodes(disjoint_model(2), 1, "total")
    assert kinds(nodes) == [("source", (0,)), ("sink", (3,))]


def test_enumerate_two_overlapping_total():
    nodes = enumerate_nodes(make_model([(0, 2), (1, 3)]), 1, "total")
    assert kinds(nodes) == [("source", (0,)), ("big", (1, 2)), ("sink", (3,))]


def test_enumerate_p6_kdom_k1_matches_direct_scan():
    # independent scan: singletons always qualify; pairs must intersect and
    # have every skipped vertex between them adjacent to one endpoint
    m = chain_model(6)
    touch = {(i, j) for i in range(1, 7) for j in range(1, 7)
             if i != j and abs(i - j) == 1}  # P_6 adjacency
    expect = {(i,) for i in range(1, 7)}
    for i, j in itertools.combinations(range(1, 7), 2):
        if (i, j) not in touch:
            continue
        between_ok = all(
            sum(1 for t in (i, j) if (m2, t) in touch) >= 1
            for m2 in range(i + 1, j)
        )
        if between_ok:
            expect.add((i, j))
    nodes = enumerate_nodes(m, 1, "kdom")
    got_small = {nd.seq for nd in nodes if nd.kind == "small"}
    got_big = {nd.seq for nd in nodes if nd.kind == "big"}
    assert got_small == {(i,) for i in range(1, 7)}
    assert got_small | got_big == expect
    assert got_big == {(i, i + 1) for i in range(1, 6)}


def test_enumerate_lexicographic_ids():
    # Ids follow tuple order over the whole list, the source (0,) first and
    # the sink (n+1,) last; naive's slide arcs are found by that order.
    m = generate_random(8, 3, 4)
    for k in (1, 2, 3):
        for variant in ("kdom", "total"):
            nodes = enumerate_nodes(m, k, variant)
            seqs = [nd.seq for nd in nodes]
            assert seqs == sorted(set(seqs))
            assert seqs[0] == (0,) and seqs[-1] == (m.n + 1,)
            assert [nd.id for nd in nodes] == list(range(len(nodes)))


def test_small_nodes_empty_for_k1_total():
    m = generate_random(10, 11, 5)
    nodes = enumerate_nodes(m, 1, "total")
    assert all(nd.kind != "small" for nd in nodes)


def test_projected_count_budget():
    assert projected_node_count(2, 1, "total") == 2 + 1  # C(2,2) big candidates
    # The chain count here is 77, so a cap of 50 refuses it.
    with pytest.raises(BudgetError):
        enumerate_nodes(generate_random(40, 1, 3), 3, "total", cap_nodes=50)
    with pytest.raises(BudgetError):
        build_digraph(generate_random(40, 1, 3), 3, "total", cap_nodes=50)


def test_chain_count_bounds_the_plan():
    # The enumeration builds consecutively-intersecting chains of the node
    # lengths and drops some, so their count bounds the node count; at k=1
    # plain k-domination every chain is a node.
    for e in map(acceptance_entry, range(ACCEPTANCE_SIZE)):
        for variant in ("kdom", "total"):
            count = _chain_count(_Ctx(e.model, e.k, variant), 10**18)
            size = _Plan(e.model, e.k, variant, False, 10**18).size
            assert count >= size, (e.idx, variant, count, size)
            if e.k == 1 and variant == "kdom":
                assert count == size, (e.idx, count, size)


@pytest.mark.parametrize("n, k, variant", [
    (300, 2, "total"), (400, 2, "total"), (100, 3, "total"), (20_000, 1, "kdom"),
])
def test_budget_admits_sparse_instances_the_binomial_refuses(n, k, variant):
    model = generate_random(n, 1, 8)
    assert projected_node_count(n, k, variant) > DEFAULT_NODE_CAP
    plan = _Plan(model, k, variant, False, DEFAULT_NODE_CAP)
    assert 0 < plan.size <= _chain_count(plan.ctx, DEFAULT_NODE_CAP) <= DEFAULT_NODE_CAP


def test_budget_at_huge_k_stops_early():
    # The chain count stops at the first length with no chain, so a huge k
    # costs a few passes over the positions.
    n, k = 20_000, 10**6
    plan = _Plan(generate_random(n, 1, 2), k, "kdom", False, DEFAULT_NODE_CAP)
    assert 0 < plan.size <= _chain_count(plan.ctx, DEFAULT_NODE_CAP) <= DEFAULT_NODE_CAP


def test_budget_refuses_a_dense_runaway():
    # Stretch near n: every k=3 chain of up to 6 of 300 near-clique
    # intervals is a candidate, far over the cap; the count stops there.
    model = generate_random(300, 1, 290)
    assert _chain_count(_Ctx(model, 3, "kdom"), DEFAULT_NODE_CAP) > DEFAULT_NODE_CAP
    with pytest.raises(BudgetError):
        solve_fast(model, 3, "kdom")


def test_deep_chain_is_a_budget_error():
    # The enumeration recurses once per member of its longest chain, at
    # most 2k-1 deep: a chain deeper than the recursion limit allows ends in
    # BudgetError, not a RecursionError traceback.  A long k over short
    # chains is solved as before.
    huge = 10**1000
    with pytest.raises(BudgetError, match="recursion limit"):
        _Plan(generate_random(1100, 1, 4), 600, "kdom", False, huge)
    sparse = generate_random(1100, 1, Fraction(1, 2))  # no two intervals meet
    sol = solve_fast(sparse, 600, "kdom", cap_nodes=huge)
    assert sol.feasible and sol.cost == 1100


def test_projection_cost_does_not_grow_with_k():
    # Node lengths run up to 2k, but only lengths up to n have sequences.
    for n in range(1, 13):
        for k in range(1, 8):
            for variant in ("kdom", "total"):
                first = 1 if variant == "kdom" else k + 1
                qs = [q for q in range(first, 2 * k + 1) if q <= n]
                assert projected_node_count(n, k, variant) == 2 + sum(
                    comb(n, q) for q in qs
                )
    tracemalloc.start()
    try:
        assert projected_node_count(3, 10**5, "kdom") == 2 + 3 + 3 + 1
        assert projected_node_count(3, 10**5, "total") == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("solve", [solve_fast, solve_naive, solve_frontier])
def test_huge_k_answers_on_three_intervals(solve):
    # Every vertex inside the set is k-dominated, so the whole line is the
    # only k-dominating set once k exceeds every degree; no total one exists.
    # Every engine clamps k to n + 1, so neither k allocates anything of
    # its size.
    m = chain_model(3)
    for k in (10**8, 10**18):
        sol = solve(m, k, "kdom")
        assert sol.feasible and sol.cost == 3 and list(sol.vertices) == [1, 2, 3]
        assert not solve(m, k, "total").feasible


def _engine_outputs(model, k, variant, weighted):
    """All that the engines report at k: fast's and naive's answers with
    their stats and node paths, the dumped DAG, and the frontier's answer
    with its stats."""
    plan = engine_plan(model, k, variant, weighted)
    return (
        search_fast(plan),
        search_naive(plan),
        dump_digraph(build_digraph(model, k, variant, weighted)),
        solve_frontier(model, k, variant, weighted),
    )


def test_k_past_n_plus_one_asks_what_n_plus_one_asks():
    # No vertex has n neighbours, so any k past n + 1 asks what n + 1 asks:
    # every engine's full output is the one at n + 1.  n 0-9, both
    # variants, unit and mixed-denominator costs.
    rng = random.Random(43)
    runs = 0
    for n in range(10):
        for seed, stretch in ((0, 2), (1, Fraction(9, 2)), (2, 7)):
            m = generate_random(n, 4300 + 10 * n + seed, stretch) if n else ProperIntervalModel(())
            mw = with_costs(m, [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7)))
                                for _ in range(n)])
            for variant in ("kdom", "total"):
                for model, weighted in ((m, False), (mw, True)):
                    want = _engine_outputs(model, n + 1, variant, weighted)
                    # fast's and the frontier's sets: the whole line, or
                    # none for total past the empty graph
                    sets = [list(sol.vertices) for sol in (want[0][0], want[3])
                            if sol.feasible]
                    whole = [*range(1, n + 1)]
                    assert sets == ([whole, whole] if variant == "kdom" or n == 0 else [])
                    for k in (n + 2, n + 5, 4 * n + 3):
                        got = _engine_outputs(model, k, variant, weighted)
                        assert got == want, (n, seed, k, variant, weighted)
                        runs += 1
    assert runs == 10 * 3 * 2 * 2 * 3


def test_min_degree_shortcut_runs_before_budget():
    # Every vertex needs k neighbors for a total k-dominating set to exist;
    # both engines answer that without nodes, so the cap never applies.
    m = generate_random(40, 1, 1)
    for solve in (solve_fast, solve_naive):
        sol = solve(m, 3, "total", cap_nodes=100)
        assert not sol.feasible and sol.stats is None
        with pytest.raises(BudgetError):
            solve(m, 3, "kdom", cap_nodes=50)  # the chain count is 60


def test_bad_k_is_param_error_before_budget():
    # the budget projection would otherwise fail on comb(n, 2k) with k < 0
    m = generate_random(8, 1, 3)
    for build in (enumerate_nodes, build_digraph):
        with pytest.raises(ParamError):
            build(m, -1, "total")


# ---------------------------------------------------------------- E0 / E1

def test_source_to_sink_never_an_arc_on_nonempty():
    for n in (1, 2, 5):
        m = generate_random(n, n, 3)
        nodes = enumerate_nodes(m, 1, "total")
        assert not is_e0_arc(m, 1, "total", nodes[0], nodes[-1])


def test_source_to_big_arc_two_overlapping():
    m = make_model([(0, 2), (1, 3)])
    nodes = enumerate_nodes(m, 1, "total")
    src, big, sink = nodes
    assert is_e0_arc(m, 1, "total", src, big)
    assert is_e0_arc(m, 1, "total", big, sink)


def test_p6_kdom_small_to_small_arc():
    m = chain_model(6)
    nodes = enumerate_nodes(m, 1, "kdom")
    s2 = node_by_seq(nodes, (2,))
    s5 = node_by_seq(nodes, (5,))
    assert is_e0_arc(m, 1, "kdom", s2, s5)
    # but 2 -> 6 fails: vertex 4 intersects neither 2 nor 6
    s6 = node_by_seq(nodes, (6,))
    assert not is_e0_arc(m, 1, "kdom", s2, s6)


def test_e0_arcs_lie_in_windows():
    # every jump arc t -> s, dummies included, has t.hi in the window set by
    # s.lo and s.lo in the window set by t.hi
    arcs = 0
    for seed in range(24):
        n = 4 + seed % 9
        m = generate_random(n, 606 + seed, [1, 2, 3, 5, Fraction(3, 2), 8][seed % 6])
        for k in (1, 2, 3):
            for variant in ("kdom", "total"):
                ctx = _Ctx(m, k, variant)
                nodes = enumerate_nodes(m, k, variant)
                for t, s in itertools.product(nodes, repeat=2):
                    if not _e0_arc(ctx, t, s):
                        continue
                    arcs += 1
                    lo_min, lo_max = _e0_window(ctx, tail_hi=t.hi)
                    hi_min, hi_max = _e0_head_window(ctx, s.lo)
                    assert hi_min <= t.hi <= hi_max, (seed, k, variant, t, s)
                    assert lo_min <= s.lo <= lo_max, (seed, k, variant, t, s)
    assert arcs > 1000


def _definition_nodes(m, k, variant):
    """Every (seq, kind) node straight from the definitions, by pairwise
    interval intersection only."""
    smalls = range(k + 1, 2 * k) if variant == "total" else range(1, 2 * k)

    def covers(seq, first, last):
        # total: a member does not count itself; kdom: members are skipped
        for p in range(first, last + 1):
            if variant == "kdom" and p in seq:
                continue
            if sum(1 for x in seq if x != p and intersects(m, p, x)) < k:
                return False
        return True

    want = set()
    for q in range(1, 2 * k + 1):
        for seq in itertools.combinations(range(1, m.n + 1), q):
            if not all(intersects(m, a, b) for a, b in zip(seq, seq[1:])):
                continue  # not a chain
            if q in smalls and covers(seq, seq[0], seq[-1]):
                want.add((seq, "small"))
            if q == 2 * k and covers(seq, seq[k - 1], seq[k]):
                want.add((seq, "big"))
    return want


def _gap_covered(m, k, t, s):
    ends = t.real_seq + s.real_seq
    return all(sum(1 for x in ends if intersects(m, p, x)) >= k
               for p in range(t.hi + 1, s.lo))


def test_window_conditions_match_definitions():
    # Enumeration and the jump arcs' gap cover at k 1-3 in both variants,
    # against a reference that never reads the reach arrays.
    counts = {"small": 0, "big": 0, "arc": 0, "uncovered": 0}
    for n in range(4, 11):
        for j, stretch in enumerate((2, 4, Fraction(13, 2))):
            m = generate_random(n, 300 + 3 * n + j, stretch)
            for k in (1, 2, 3):
                for variant in ("kdom", "total"):
                    nodes = enumerate_nodes(m, k, variant)
                    got = {(nd.seq, nd.kind) for nd in nodes[1:-1]}
                    assert got == _definition_nodes(m, k, variant), (n, j, k, variant)
                    for _, kind in got:
                        counts[kind] += 1
                    for t, s in itertools.product(nodes, repeat=2):
                        disjoint = t.hi < s.lo and (
                            t.kind == "source" or s.kind == "sink"
                            or not intersects(m, t.hi, s.lo))
                        if not disjoint:
                            continue
                        covered = _gap_covered(m, k, t, s)
                        arc = is_e0_arc(m, k, variant, t, s)
                        # (3)/(4) only constrain big ends; otherwise (1)+(2)
                        # are the whole test
                        if "big" in (t.kind, s.kind):
                            assert covered or not arc, (n, j, k, variant, t, s)
                        else:
                            assert arc == covered, (n, j, k, variant, t, s)
                        counts["arc"] += arc
                        counts["uncovered"] += not covered
    assert counts["small"] > 1000 and counts["big"] > 1000, counts
    assert counts["arc"] > 3000 and counts["uncovered"] > 5000, counts


def _gap_cover_by_definition(ctx, tail, head):
    return all(_hits(ctx, tail, m) + _hits(ctx, head, m) >= ctx.k
               for m in range(tail[-1] + 1, head[0]))


def test_gap_covered_matches_definition():
    # _gap_covered against the gap cover written out vertex by vertex, for
    # every tail (the source included) and every head in its jump window
    # (the sink included), on generate_random models at k 1-3 and on the
    # acceptance corpus at each entry's k, both variants.  The heads are
    # passed in id order, reversed, shuffled and one at a time.
    rng = random.Random(26)
    models = [
        (generate_random(n, 700 + 3 * n + j, stretch), (1, 2, 3))
        for n in range(4, 13)
        for j, stretch in enumerate((2, 4, Fraction(13, 2)))
    ]
    models += [(e.model, (e.k,)) for e in map(acceptance_entry, range(ACCEPTANCE_SIZE))]
    counts = collections.Counter()
    for m, ks in models:
        for k in ks:
            for variant in ("kdom", "total"):
                ctx = _Ctx(m, k, variant)
                nodes = enumerate_nodes(m, k, variant)
                los = [nd.lo for nd in nodes]
                for t in nodes[:-1]:
                    lo_min, lo_max = _e0_window(ctx, tail_hi=t.hi)
                    window = nodes[bisect.bisect_left(los, lo_min):
                                   bisect.bisect_right(los, lo_max)]
                    heads = [(h.id, h.seq) for h in window]
                    want = {h: _gap_cover_by_definition(ctx, t.seq, h[1]) for h in heads}
                    shuffled = rng.sample(heads, len(heads))
                    for order in (heads, heads[::-1], shuffled):
                        got = reduction_module._gap_covered(ctx, t.seq, order)
                        assert got == [h for h in order if want[h]], (k, variant, t)
                    for h in heads:
                        got = reduction_module._gap_covered(ctx, t.seq, [h])
                        assert got == ([h] if want[h] else []), (k, variant, t, h)
                        counts["covered" if want[h] else "uncovered"] += 1
                        counts["source tail"] += t.kind == "source"
                        if h[1] == (ctx.n + 1,):
                            counts["sink head"] += 1
                        elif any(len(h[1]) < k - _hits(ctx, t.seq, v)
                                 for v in range(t.hi + 1, h[1][0])):
                            # fewer members than some gap vertex needs
                            counts["short head"] += 1
    assert counts["covered"] > 40_000 and counts["uncovered"] > 40_000, counts
    assert min(counts["source tail"], counts["sink head"], counts["short head"]) > 5_000, counts


def _literal_role(ctx, node):
    """The role byte ``_Plan`` must give ``node``: sink 1, source 2, small
    3, and for a big node 4 plus condition (4) in bit 0 and (3) in bit 1,
    by the literal checks."""
    if node.kind != "big":
        return {"sink": 1, "source": 2, "small": 3}[node.kind]
    return 4 | _head_ok(ctx, node.seq) | _tail_ok(ctx, node.seq) << 1


def _reference_nodes(ctx, counts):
    """Every (seq, kind) middle node in enumeration order, from every
    consecutively-intersecting chain of length up to 2k, each one checked
    in full by the window checks: the enumeration without its cuts.
    ``counts`` gathers how often each cut would fire."""
    n, k = ctx.n, ctx.k
    smalls = range(k + 1, 2 * k) if ctx.variant == "total" else range(1, 2 * k)
    seqs = []

    def grow(seq):
        q = len(seq)
        t = tuple(seq)
        if q in smalls:
            m = _dominated(ctx, t, t[0], t[-1])
            if m is None:
                seqs.append((t, "small"))
            elif m < ctx.reach_l[t[-1] + 1]:
                counts["small_cut"] += 1
        if q == 2 * k:
            counts[f"chains_k{k}"] += 1
            if _dominated(ctx, t, t[k - 1], t[k]) is None:
                seqs.append((t, "big"))
            else:
                counts[f"rejected_k{k}"] += 1
            return
        last = seq[-1]
        for nxt in range(last + 1, ctx.reach_r[last] + 1):
            if nxt > n:
                break
            seq.append(nxt)
            grow(seq)
            seq.pop()

    for start in range(1, n + 1):
        grow([start])
    return seqs


def test_plan_flags_match_literal_checks():
    # The plan decides condition (4) once per chain of k members (_caps)
    # and (3) once per chain of 2k-1 (_tail_bound); roles[i] must be what
    # the literal checks give node i (_literal_role).  The dense stretch is
    # capped in n at k >= 3 to keep the run short.
    counts = collections.Counter()
    for n in range(1, 40):
        for seed in range(3):
            for stretch in (1, 2, 3, 5, 8, Fraction(7, 2)):
                m = generate_random(n, 100 * n + seed, stretch)
                for k in (1, 2, 3, 4):
                    if stretch == 8 and n > {3: 24, 4: 14}.get(k, n):
                        continue
                    for variant in ("kdom", "total"):
                        plan = _Plan(m, k, variant, False, 10**18)
                        ctx = plan.ctx
                        for nd, role in zip(plan.nodes, plan.roles):
                            want = _literal_role(ctx, nd)
                            if nd.kind == "big":
                                counts[k, variant, want & 3] += 1
                            assert role == want, (n, seed, stretch, k, variant, nd.seq)
    for k in (3, 4):
        for want in range(4):
            assert counts[k, "kdom", want] > 2000, counts
    assert min(counts[2, "total", want] for want in range(4)) > 5000, counts


def _check_first_ids(plan, k, label):
    # Item j's nodes take consecutive ids from its first id, a running sum
    # of the run lengths before it.  Naive's arc index keeps each big run's
    # first id with its chain, and its heads and their los are the literal
    # per-id formula's.
    nodes, runs_by_chain = plan.nodes, plan._arc_index[0]
    first = 0
    for j, (t, lo, hi, _, _) in enumerate(plan.items):
        got = nodes[first:first + hi - lo + 1]
        assert [nd.id for nd in got] == list(range(first, first + hi - lo + 1)), (label, j)
        assert [nd.seq for nd in got] == [t + (x,) for x in range(lo, hi + 1)], (label, j)
        if len(t) == 2 * k - 1:
            assert runs_by_chain[t] == (first, range(lo, hi + 1)), (label, j)
        first += hi - lo + 1
    assert first == plan.size == len(plan.seqs), label
    assert len(runs_by_chain) == sum(len(t) == 2 * k - 1 for t, *_ in plan.items), label
    units = plan.units
    want = [
        (i, s, sum(units[p] for p in s))
        for i, (s, r) in enumerate(zip(plan.seqs, plan.roles))
        if r & _HEAD
    ]
    _, by_lo, los = plan._arc_index
    assert by_lo == want and los == [s[0] for _, s, _ in want], label
    return len(runs_by_chain)  # the big runs


def test_plan_starts_are_first_ids():
    # Each item's nodes start at its first id, counted as the runs are
    # walked, and naive's arc index is the literal per-id one.  Corpus of
    # test_plan_flags_match_literal_checks, then perfbench's shapes, whose
    # rational costs make the jump charges differ from plain lengths.
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
                        runs += _check_first_ids(plan, k, (n, seed, stretch, k, variant))
    assert runs > 10_000, runs
    run = bench_run()
    weighted = 0
    for name, workload in sorted(run.WORKLOADS.items()):
        for i, spec in enumerate(workload.specs):
            m = parse_model(run.generate(spec, 1000 + i, f"{name}-{i:02d}").text)
            plan = engine_plan(m, spec.k, spec.variant, m.weighted)
            if plan is not None:
                _check_first_ids(plan, spec.k, (name, i))
                weighted += plan.scale > 1
    assert weighted > 0, weighted


def test_enumeration_cuts_lose_no_node():
    # The leaf bound and the small-check subtree cut against the uncut
    # enumeration, kinds and order included.  At k <= 2 every chain passes
    # the middle check, so the leaf bound there is the chain's own reach.
    counts = collections.Counter()
    for k, n_max in ((1, 40), (2, 40), (3, 24), (4, 16)):
        for n in range(2, n_max + 1, 2):
            for stretch in (2, 3, Fraction(7, 2), 4, 5):
                m = generate_random(n, 400 + 7 * n + k, stretch)
                for variant in ("kdom", "total"):
                    nodes = enumerate_nodes(m, k, variant, cap_nodes=10**18)
                    got = [(nd.seq, nd.kind) for nd in nodes[1:-1]]
                    want = _reference_nodes(_Ctx(m, k, variant), counts)
                    assert got == want, (n, stretch, k, variant)
    assert counts["chains_k1"] > 1000 and counts["rejected_k1"] == 0, counts
    assert counts["chains_k2"] > 1000 and counts["rejected_k2"] == 0, counts
    assert counts["rejected_k3"] > 1000 and counts["rejected_k4"] > 500, counts
    assert counts["small_cut"] > 5000, counts


def test_middle_caps_lose_no_node(monkeypatch):
    # The middle caps (_caps at each chain of k+1 members) against the
    # uncut enumeration, kinds and order included, with the role bytes
    # against the literal checks: at k=5, where the caps have four ranks,
    # and at k=3 on the denser stretch 6.  Every walk starts at a chain's
    # clean position, so each position before it must meet as many members
    # of the chain as it needs; a _caps walk starts at its range's first
    # position instead when that comes later.
    real = reduction_module._dominated
    counts = collections.Counter()

    def check_clean(ctx, t, clean):
        assert real(ctx, t, t[0], clean - 1) is None, (t, clean)
        counts["clean"] += clean > t[0]

    def spy(mp, name, wrap):
        inner = getattr(reduction_module, name)
        mp.setattr(reduction_module, name, lambda *args: wrap(inner, *args))

    def dominated(inner, ctx, t, first, last):
        check_clean(ctx, t, first)
        return inner(ctx, t, first, last)

    def caps_walk(inner, ctx, t, first, last, ranks):
        # The range's first position: the head at k members, the middle at
        # k+1 and the tail at 2k-1.
        k = ctx.k
        start = t[{k: 0, k + 1: k - 1, 2 * k - 1: k}[len(t)]]
        assert first >= start, (t, first)
        if first > start:
            check_clean(ctx, t, first)
        caps = inner(ctx, t, first, last, ranks)
        if len(t) == k + 1:  # a middle
            ranks = None if caps is None else sum(c < ctx.n for c in caps)
            counts["no_caps" if caps is None else f"ranks_{ranks}"] += 1
        return caps

    def tail_bound(inner, ctx, t, clean):
        check_clean(ctx, t, clean)
        return inner(ctx, t, clean)

    for k, n_max, stretches in ((5, 16, (4, 5, 6, 7)), (3, 26, (6,))):
        for n in range(k, n_max + 1):
            for stretch in stretches:
                m = generate_random(n, 500 + 11 * n + k, stretch)
                for variant in ("kdom", "total"):
                    with monkeypatch.context() as mp:
                        spy(mp, "_dominated", dominated)
                        spy(mp, "_caps", caps_walk)
                        spy(mp, "_tail_bound", tail_bound)
                        plan = _Plan(m, k, variant, False, 10**18)
                    ctx = plan.ctx
                    nodes = plan.nodes
                    got = [(nd.seq, nd.kind) for nd in nodes[1:-1]]
                    want = _reference_nodes(ctx, counts)
                    assert got == want, (n, stretch, k, variant)
                    for nd, role in zip(nodes, plan.roles):
                        want = _literal_role(ctx, nd)
                        if nd.kind == "big":
                            counts[k, want & 3] += 1
                        assert role == want, (n, stretch, k, variant, nd.seq)
    assert counts["rejected_k5"] > 5000 and counts["rejected_k3"] > 2000, counts
    assert counts["no_caps"] > 1000 and counts["ranks_4"] > 100, counts
    assert min(counts[k, want] for k in (3, 5) for want in range(4)) > 100, counts
    assert counts["clean"] > 1000, counts


def test_middle_caps_halve_the_plans_hits(monkeypatch):
    # The middle check is decided once per chain of k+1 members, so no
    # chain of 2k-1 walks the middle and each small check resumes where its
    # parent's stopped: the k=3 plan below took 150,980 hit counts when
    # every chain of 2k-1 walked it.  Total-variant head and tail bounds
    # read no window, so a total plan calls _caps only for middles.  The
    # walks count each position's hits in place, as _hits does, with one
    # bisect_right each, and nothing else in the plan's build bisects
    # right, so a counting stand-in for the module's bisect counts hits.
    calls = collections.Counter()
    real_caps = reduction_module._caps

    def bisect_right(*args):
        calls["hits"] += 1
        return bisect.bisect_right(*args)

    def caps(ctx, t, first, last, ranks):
        calls["middle" if len(t) == ctx.k + 1 else "other"] += 1
        return real_caps(ctx, t, first, last, ranks)

    counting = types.SimpleNamespace(bisect_left=bisect.bisect_left, bisect_right=bisect_right)
    monkeypatch.setattr(reduction_module, "bisect", counting)
    monkeypatch.setattr(reduction_module, "_caps", caps)
    m = generate_random(100, 1, 12)
    plan = _Plan(m, 3, "kdom", False, 10**18)
    assert calls["hits"] < 100_000 and len(plan.seqs) > 100_000, calls
    calls.clear()
    plan = _Plan(m, 3, "total", False, 10**18)
    assert calls["other"] == 0 and calls["middle"] > 0, calls
    assert calls["hits"] > 0 and len(plan.seqs) > 50_000, calls


def test_head_checks_once_per_chain_of_k(monkeypatch):
    # Condition (4) reads the head t[0]..t[k-1], fixed once a chain has k
    # members, so plain k-domination at k >= 3 walks it once per chain of k:
    # the plan below walked it 23,896 times when every chain of 2k-1 did.
    # Some heads fail for every extension, and then _caps gives None.
    counts = collections.Counter()
    real = reduction_module._caps

    def caps(ctx, t, first, last, ranks):
        got = real(ctx, t, first, last, ranks)
        if len(t) == ctx.k:
            assert ranks == ctx.k and last == t[-1], (t, ranks, last)
            counts["heads"] += 1
            counts["none"] += got is None
        return got

    monkeypatch.setattr(reduction_module, "_caps", caps)
    m = generate_random(100, 1, 12)
    plan = _Plan(m, 3, "kdom", False, 10**18)
    reach_r = plan.ctx.reach_r
    chains = sum(
        1
        for a in range(1, m.n + 1)
        for b in range(a + 1, min(reach_r[a], m.n) + 1)
        for _ in range(b + 1, min(reach_r[b], m.n) + 1)
    )
    assert 0 < counts["heads"] <= chains < 5_000, (counts, chains)
    assert counts["none"] > 100, counts


def _dummy_extended_reach(model):
    """The context's reach arrays as first built: the model between a source
    interval left of everything and a sink interval right of everything,
    each position's reach read off by pairwise overlap."""
    a1 = model.intervals[0].left if model.n else Fraction(0)
    bn = model.intervals[-1].right if model.n else Fraction(0)
    ext = [Interval(a1 - 2, a1 - 1), *model.intervals, Interval(bn + 1, bn + 2)]
    meets = [[j for j, b in enumerate(ext) if max(a.left, b.left) <= min(a.right, b.right)]
             for a in ext]
    return [m[0] for m in meets], [m[-1] for m in meets]


def test_flat_plan_matches_node_view():
    # The per-id lists the plan builds from its runs are the public node
    # view.  Its cost table is the per-vertex units between the dummies'
    # zeros, and every jump arc it lists is as long as arc_length says, with
    # and without costs (zero costs among them, arcs into the sink included).
    rng = random.Random(17)
    zero_costs = 0
    for n in (*range(1, 16), 20, 30):
        m = generate_random(n, 1700 + n, [2, Fraction(7, 2), 5][n % 3])
        costs = [Fraction(rng.randint(0, 6), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)]
        zero_costs += costs.count(0)
        mw = with_costs(m, costs)
        scale = lcm(*(c.denominator for c in costs))
        units = [c.numerator * (scale // c.denominator) for c in costs]
        runs = ((m, False, None), (m, True, [1] * n), (mw, True, units))
        for k in (1, 2, 3):
            for variant in ("kdom", "total"):
                nodes = enumerate_nodes(m, k, variant, cap_nodes=10**18)
                for model, weighted, per_vertex in runs:
                    plan = _Plan(model, k, variant, weighted, 10**18)
                    kinds = [{1: "sink", 2: "source", 3: "small"}.get(role, "big")
                             for role in plan.roles]
                    flat = list(map(DagNode, range(len(kinds)), kinds, plan.seqs))
                    assert flat == nodes
                    assert plan.units == [0, *(per_vertex or [1] * n), 0]
                    for tail, head, cls, length in plan.arcs():
                        if cls == ARC_E0:
                            want = arc_length(nodes[tail], nodes[head], ARC_E0, per_vertex)
                            assert length == want, (tail, head)
                    assert plan.nodes == nodes
    assert zero_costs > 10


def test_runs_hold_their_invariants():
    # Every plan item is (t, lo, hi, head, tail): the nodes t + (x,) for
    # lo <= x <= hi, with the head bit iff x <= head, the tail bit iff
    # x <= tail, and the big bit iff t has 2k-1 members.  A run of big
    # nodes starts one past t[-1]; every other item is one node, with the
    # source's role byte (2), a small node's (3) or the sink's (1).  On
    # mid-scale instances, with and without costs: a run's head bits and
    # its tail bits each form a prefix of it, and at x = bound and
    # x = bound + 1, where they lie in the run, the literal checks agree
    # with the bits.
    counts = collections.Counter()
    rng = random.Random(28)
    for k, ns, stretches in (
        (1, (30, 55, 80), (3, Fraction(17, 2), 10)),
        (2, (20, 30, 40), (Fraction(7, 2), 5, 6)),
        (3, (12, 18, 24), (3, Fraction(9, 2), 5)),
    ):
        for n, seed, stretch in itertools.product(ns, range(2), stretches):
            m = generate_random(n, 2800 + 10 * n + k + seed, stretch)
            costs = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in range(n)]
            for model, weighted in ((m, False), (with_costs(m, costs), True)):
                for variant in ("kdom", "total"):
                    plan = _Plan(model, k, variant, weighted, 10**18)
                    ctx, seqs, roles = plan.ctx, plan.seqs, plan.roles
                    start = 0
                    for item in plan.items:
                        t, lo, hi, head, tail = item
                        xs = range(lo, hi + 1)
                        ids = range(start, start + len(xs))
                        assert len(xs) > 0, item
                        assert [seqs[i] for i in ids] == [t + (x,) for x in xs]
                        start += len(xs)
                        if len(t) != 2 * k - 1:
                            # The source, a small node or the sink.
                            want = 2 if ids[0] == 0 else 1 if start == plan.size else 3
                            assert lo == hi and roles[ids[0]] == want, item
                            continue
                        assert lo == t[-1] + 1, item
                        for bit, bound, literal in ((1, head, _head_ok), (2, tail, _tail_ok)):
                            bits = [bool(roles[i] & bit) for i in ids]
                            assert bits == sorted(bits, reverse=True), item
                            assert bits == [x <= bound for x in xs], item
                            for x in (bound, bound + 1):
                                if x in xs:
                                    assert literal(ctx, t + (x,)) == (x <= bound), item
                                    counts[bit, x - bound] += 1
                        assert all(roles[i] & 4 for i in ids), item
                        counts["runs"] += 1
                    assert start == plan.size == len(seqs)
    assert counts["runs"] > 5000, counts
    assert min(counts[bit, off] for bit in (1, 2) for off in (0, 1)) > 1000, counts


@pytest.mark.parametrize(
    "model",
    [
        ProperIntervalModel(()),
        make_model([(Fraction(-1, 2), Fraction(3, 4))]),
        make_model([(0, 1), (1, 2)]),
        chain_model(6),
        complete_model(5),
        disjoint_model(4),
        parse_model("3\n1/3 2/3\n0.33333333333333333334 2\n2 5/2\n"),  # tied keys
        *(generate_random(n, 90 + n, s) for n, s in ((2, 1), (9, 3), (17, Fraction(7, 2)), (30, 8))),
    ],
    ids=lambda m: f"n{m.n}",
)
def test_ctx_reach_matches_dummy_extended_sweep(model):
    for k, variant in ((1, "kdom"), (2, "total")):
        ctx = _Ctx(model, k, variant)
        assert (ctx.reach_l, ctx.reach_r) == _dummy_extended_reach(model)


def test_dag_node_has_slots_and_is_frozen():
    nd = DagNode(1, "big", (1, 2))
    assert not hasattr(nd, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        nd.kind = "small"


def test_e1_arc_shift():
    mk = lambda seq: DagNode(0, "big", seq)
    assert is_e1_arc(1, mk((1, 2)), mk((2, 3)))
    assert not is_e1_arc(1, mk((1, 2)), mk((3, 4)))
    small = DagNode(0, "small", (2, 3))
    assert not is_e1_arc(1, small, mk((3, 4)))
    assert is_e1_arc(2, mk((1, 3, 4, 6)), mk((3, 4, 6, 7)))
    assert not is_e1_arc(2, mk((1, 3, 4, 6)), mk((4, 6, 7, 8)))


# -------------------------------------------------------------- arc_length

def test_arc_length_unweighted():
    tail = DagNode(0, "small", (1, 2, 3))
    head = DagNode(1, "big", (5, 6, 7, 8))  # k = 2
    sink = DagNode(2, "sink", (9,))
    assert arc_length(tail, head, ARC_E0) == 4
    assert arc_length(head, sink, ARC_E0) == 0
    b1 = DagNode(3, "big", (5, 6, 7, 9))
    b2 = DagNode(4, "big", (6, 7, 9, 10))
    assert arc_length(b1, b2, ARC_E1) == 1


def test_arc_length_weighted():
    costs = tuple(Fraction(c) for c in (5, 1, 2, 7, 3))
    tail = DagNode(0, "big", (1, 2, 3, 4))
    head = DagNode(1, "big", (2, 3, 4, 5))
    assert arc_length(tail, head, ARC_E1, costs) == 3           # new vertex 5
    unit = (Fraction(1),) * 5
    assert arc_length(tail, head, ARC_E1, unit) == 1
    src = DagNode(2, "source", (0,))
    assert arc_length(src, tail, ARC_E0, costs) == 5 + 1 + 2 + 7


def test_arc_length_not_arc():
    a = DagNode(0, "big", (1, 2))
    b = DagNode(1, "big", (3, 4))
    with pytest.raises(NotArcError):
        arc_length(a, b, ARC_E1)
    sink = DagNode(2, "sink", (5,))
    with pytest.raises(NotArcError):
        arc_length(sink, a, ARC_E0)
    with pytest.raises(NotArcError):
        arc_length(a, b, "E9")


# ------------------------------------------------------------ build_digraph

def test_build_two_overlapping_golden_dump():
    m = make_model([(0, 2), (1, 3)])
    dg = build_digraph(m, 1, "total")
    assert dump_digraph(dg) == (
        "0 source 0\n"
        "1 big 1 2\n"
        "2 sink 3\n"
        "0 1 E0 2\n"
        "1 2 E0 0\n"
    )


def test_build_two_disjoint_no_arcs():
    dg = build_digraph(disjoint_model(2), 1, "total")
    assert len(dg.nodes) == 2
    assert dg.arcs == ()


def kahn_is_acyclic(dg):
    n = len(dg.nodes)
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for a in dg.arcs:
        indeg[a.head] += 1
        out[a.tail].append(a.head)
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return seen == n


def test_digraph_acyclic_and_monotone_random():
    for seed in range(15):
        m = generate_random(4 + seed % 6, 42 + seed, [2, 3, 6][seed % 3])
        for k in (1, 2):
            for variant in ("kdom", "total"):
                dg = build_digraph(m, k, variant)
                assert kahn_is_acyclic(dg)
                for a in dg.arcs:
                    assert dg.nodes[a.tail].hi < dg.nodes[a.head].hi
                    assert a.tail < a.head  # ids are a topological order


def test_e0_arcs_match_exhaustive_pair_scan():
    # Slide arcs too: both arc sets against every ordered node pair, every
    # arc length against arc_length on a weighted copy, and the arcs in
    # (tail, head) order, which naive's backward pass reads.
    cases = [(4 + seed % 4, 99 + seed, [2, 4][seed % 2], seed, (1, 2)) for seed in range(8)]
    cases += [(n, 99 + n, 6, n, (3,)) for n in (8, 9, 10)]
    for n, model_seed, stretch, seed, ks in cases:
        m = generate_random(n, model_seed, stretch)
        rng = random.Random(seed)
        mw = with_costs(m, [rng.randint(0, 10) for _ in range(n)])
        for k in ks:
            for variant in ("kdom", "total"):
                ctx = _Ctx(m, k, variant)
                dg = build_digraph(m, k, variant)
                pairs = [(a.tail, a.head) for a in dg.arcs]
                assert pairs == sorted(set(pairs))
                for cls, is_arc in (
                    (ARC_E0, lambda t, h: _e0_arc(ctx, t, h)),
                    (ARC_E1, lambda t, h: is_e1_arc(k, t, h)),
                ):
                    got = {(a.tail, a.head) for a in dg.arcs if a.cls == cls}
                    want = set()
                    for t in dg.nodes:
                        for h in dg.nodes:
                            if t.id != h.id and is_arc(t, h):
                                want.add((t.id, h.id))
                    assert got == want
                dgw = build_digraph(mw, k, variant, weighted=True)
                for a in dgw.arcs:
                    t, h = dgw.nodes[a.tail], dgw.nodes[a.head]
                    assert a.length == arc_length(t, h, a.cls, mw.costs)


# -------------------------------------------------------------- solve_naive

def test_naive_clique_total_k1():
    assert solve_naive(complete_model(5), 1, "total").cost == 2


def test_naive_p6_total_matches_brute():
    m = chain_model(6)
    sol = solve_naive(m, 1, "total")
    assert sol.cost == 4 == brute_force_min(m, 1, "total").cost


def test_naive_infeasible_low_degree():
    m = chain_model(6)  # endpoints have degree 1
    sol = solve_naive(m, 2, "total")
    assert not sol.feasible and sol.cost is None and sol.vertices.size == 0


def test_naive_agrees_with_brute_random():
    for seed in range(40):
        n = 4 + seed % 9
        m = generate_random(n, 1234 + seed, [1, 2, 3, 5, Fraction(3, 2)][seed % 5])
        rng = random.Random(seed)
        mw = with_costs(m, [rng.randint(0, 10) for _ in range(n)])
        g = derive_graph(m)
        for k in (1, 2):
            for variant in ("kdom", "total"):
                b = brute_force_min(m, k, variant)
                s = solve_naive(m, k, variant)
                assert b.feasible == s.feasible
                if b.feasible:
                    assert b.cost == s.cost
                    assert s.cost == s.vertices.size  # unweighted cost = |set|
                    assert find_violation(g, s.vertices, k, variant) is None
                bw = brute_force_min(mw, k, variant, weighted=True)
                sw = solve_naive(mw, k, variant, weighted=True)
                assert bw.feasible == sw.feasible
                if bw.feasible:
                    assert bw.cost == sw.cost


def test_naive_weighted_unit_equals_unweighted():
    for seed in range(10):
        m = generate_random(5 + seed % 5, 555 + seed, 3)
        for variant in ("kdom", "total"):
            a = solve_naive(m, 1, variant, weighted=False)
            b = solve_naive(m, 1, variant, weighted=True)  # implicit unit costs
            assert a.feasible == b.feasible and a.cost == b.cost


def test_sink_reachable_iff_min_degree_total():
    # checked on the raw digraph, without the solver's shortcut
    for seed in range(25):
        n = 3 + seed % 8
        m = generate_random(n, 31337 + seed, [1, 2, 4, 7][seed % 4])
        deg = min_degree(derive_graph(m))
        for k in (1, 2, 3):
            dg = build_digraph(m, k, "total")
            reachable = {0}
            for a in dg.arcs:  # arcs sorted by tail; ids are topological
                if a.tail in reachable:
                    reachable.add(a.head)
            assert (len(dg.nodes) - 1 in reachable) == (deg >= k)


def test_naive_reports_original_numbering():
    text = "3\n5 9\n0 4\n3.5 6\n"  # original ids: sorted order is 2,3,1
    m = parse_model(text)
    sol = solve_naive(m, 1, "kdom")
    assert sol.cost == 1
    assert sol.vertices.members == (3,)  # middle vertex in original numbering
    b = brute_force_min(m, 1, "kdom")
    assert b.vertices.members == (3,)


def _every_path(dg):
    """Every source-to-sink path of ``dg`` as (length, node-id tuple)."""
    out = [[] for _ in dg.nodes]
    for a in dg.arcs:
        out[a.tail].append(a)
    sink = len(dg.nodes) - 1
    stack = [(0, (0,))]
    while stack:
        length, ids = stack.pop()
        if ids[-1] == sink:
            yield length, ids
            continue
        for a in out[ids[-1]]:
            stack.append((length + a.length, ids + (a.head,)))


def test_naive_answer_is_least_optimal_path():
    # naive's tie-break by its definition: the path it returns is the least
    # (cost, node ids) path among every source-to-sink path of the digraph,
    # at k=3 too for n <= 8.
    feasible = tied = k3 = 0
    for n in range(1, 11):
        for seed in range(3):
            for stretch in (1, 2, 3):
                m = generate_random(n, 100 * n + 10 * seed + stretch, stretch)
                rng = random.Random(1000 * n + 10 * seed + stretch)
                mw = with_costs(
                    m, [Fraction(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(n)]
                )
                for k, variant, (model, weighted) in itertools.product(
                    (1, 2, 3) if n <= 8 else (1, 2), ("kdom", "total"),
                    ((m, False), (mw, True)),
                ):
                    dg = build_digraph(model, k, variant, weighted)
                    paths = list(_every_path(dg))
                    sol, path = search_naive(engine_plan(model, k, variant, weighted))
                    assert sol.feasible == bool(paths) == (path is not None)
                    if not paths:
                        continue
                    feasible += 1
                    k3 += k == 3
                    cost, ids = min(paths)
                    assert sol.cost == cost
                    assert tuple(nd.id for nd in path) == ids
                    assert sol.vertices == path_to_vertex_set(path, model)
                    optimal_sets = {
                        path_to_vertex_set([dg.nodes[i] for i in p], model)
                        for c, p in paths if c == cost
                    }
                    tied += len(optimal_sets) > 1
    assert feasible >= 390
    assert tied >= 120
    assert k3 >= 140


def _backward_pass_over_arc_list(plan):
    """The least path read off ``plan.arcs()``: one pass over the sorted
    list, reversed, keeping each tail's lowest-id optimal head with ``<=``;
    the answer as the naive engine reports it, and the path's ids."""
    arcs = plan.arcs()
    unreachable = sum(plan.units) + 1
    to_sink = [unreachable] * plan.size
    to_sink[-1] = 0
    nxt = [0] * plan.size
    for tail, head, _, length in reversed(arcs):
        if to_sink[head] + length <= to_sink[tail]:
            to_sink[tail], nxt[tail] = to_sink[head] + length, head
    path = None if to_sink[0] == unreachable else [0]
    while path and path[-1] != plan.size - 1:
        path.append(nxt[path[-1]])
    stats = {"nodes": plan.size, "arcs": len(arcs)}
    return plan.solution(path, to_sink[0], "naive", stats)[0], path


def test_naive_builds_no_arc_list(monkeypatch):
    # search_naive relaxes each tail's arcs as it finds them and builds no
    # list; its answer, path and arc count equal a backward pass over the
    # sorted list.  k 1-3, both variants, unit and mixed-denominator costs,
    # and plans built past the min-degree shortcut, so some sinks are
    # unreachable.
    def no_list(self):
        raise AssertionError("search_naive built the arc list")

    rng = random.Random(33)
    runs = infeasible = 0
    for n in range(2, 15):
        m = generate_random(n, 3300 + n, [1, 2, 3, Fraction(7, 2), 5][n % 5])
        mw = with_costs(m, [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7)))
                            for _ in range(n)])
        for k, variant, (model, weighted) in itertools.product(
            (1, 2, 3), ("kdom", "total"), ((m, False), (mw, True))
        ):
            plan = _Plan(model, k, variant, weighted, DEFAULT_NODE_CAP)
            with monkeypatch.context() as mp:
                mp.setattr(_Plan, "arcs", no_list)
                sol, path = search_naive(plan)
            want, want_path = _backward_pass_over_arc_list(plan)
            assert sol == want, (n, k, variant, weighted)
            assert (None if path is None else [nd.id for nd in path]) == want_path
            assert sol.stats["arcs"] == len(plan.arcs())
            runs += 1
            infeasible += not sol.feasible
    assert runs == 156 and 10 <= infeasible < runs, (runs, infeasible)


# ------------------------------------------------------ path_to_vertex_set

def test_path_to_vertex_set_examples():
    src = DagNode(0, "source", (0,))
    sink = DagNode(3, "sink", (9,))
    big1 = DagNode(1, "big", (2, 3, 5, 6))
    big2 = DagNode(2, "big", (3, 5, 6, 7))
    got = path_to_vertex_set([src, big1, big2, sink])
    assert got.members == (2, 3, 5, 6, 7)

    s1 = DagNode(1, "small", (3,))
    s2 = DagNode(2, "small", (7,))
    src_k = DagNode(0, "source", (0,))
    sink_k = DagNode(3, "sink", (9,))
    assert path_to_vertex_set([src_k, s1, s2, sink_k]).members == (3, 7)

    pair = DagNode(1, "big", (1, 2))
    assert path_to_vertex_set([src, pair, DagNode(2, "sink", (3,))]).members == (1, 2)


def test_path_to_vertex_set_rejects_non_paths():
    src = DagNode(0, "source", (0,))
    sink = DagNode(3, "sink", (9,))
    b1 = DagNode(1, "big", (2, 3))
    b2 = DagNode(2, "big", (3, 4))
    with pytest.raises(NotPathError):
        path_to_vertex_set([src])
    with pytest.raises(NotPathError):
        path_to_vertex_set([b1, b2])
    with pytest.raises(NotPathError):
        path_to_vertex_set([src, b2, b1, sink])  # backwards slide


def test_naive_deterministic():
    m = generate_random(9, 5, 4)
    a = solve_naive(m, 1, "total")
    b = solve_naive(m, 1, "total")
    assert a == b

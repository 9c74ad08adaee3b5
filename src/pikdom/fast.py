"""Suffix-partition dynamic programming over the derived DAG.

The speedup over the naive engine comes from never materializing jump (E0)
arcs between internal nodes.  Whether ``(t, s)`` is a jump arc depends on
``t`` only through its last ``k`` interval indices and its tail-eligibility,
both shared by every member of a suffix class.  So the DP keeps one running
minimum per class and probes each class once instead of every potential
tail.

The head side mirrors this.  The test reads the head ``s`` only through
``s.lo``, condition (4), and how many members of ``s`` each gap vertex
meets.  That count matters only up to ``k``, and every member lies right of
the gap, so the first ``k`` members supply it.  Hence heads that share
their first ``k`` indices and pass (4), a prefix class, have jump arcs from
the same classes, and share the best class and its best node; only each
head's own charge differs, and adding it keeps the tie-break.  The DP
probes once per prefix class, keeps the answer for the class's later heads,
and probes nothing for heads that fail (4).

Only classes whose shared last index ``key[-1]`` (the ``hi`` of every
member) lies in a window set by the node's ``lo`` are probed.  A jump arc
``t -> s`` needs ``t.hi`` disjoint from ``s.lo``, and every gap vertex must
meet one of the two end sets; the last position that misses ``s.lo`` would
otherwise be a gap vertex no end set meets.  Together these pin ``t.hi`` to
about one clique's width (``reduction._e0_window`` gives the bounds and
their derivation), so the probes per prefix class are bounded by the
classes ending in one clique rather than by all classes.

A probe compares the class key against per-head thresholds instead of
running the literal jump-arc test (``_probe_floors`` and ``_clears``).  Of
the test's four conditions:

* (1), disjoint ends, holds for every ``hi`` inside the window;
* (3), the tail condition, holds for every class member, because only
  tail-eligible big nodes are partitioned;
* (4), the head condition, depends on the head alone and is evaluated per
  node, before any probe;
* (2), the gap cover, reduces to thresholds.  A gap vertex ``m``
  (``t.hi < m < s.lo``) meets the members of each end set inside its reach
  range ``reach_l[m]..reach_r[m]``, which ``reduction._hits`` counts: the
  head members ``<= reach_r[m]`` and the tail members ``>= reach_l[m]``.
  So it needs ``r(m) = k - _hits(ctx, s.seq, m)`` tail members
  ``>= reach_l[m]``, which holds iff ``len(key) >= r(m)`` and
  ``key[-r(m)] >= reach_l[m]``: only the last ``k`` members can count.
  With ``T_r`` the largest ``reach_l[m]`` over the gap vertices with
  ``r(m) >= r``, the gap is covered iff ``len(key) >= r`` and
  ``key[-r] >= T_r`` for every set ``T_r``, because ``key[-r]`` falls as
  ``r`` grows.

The window is walked from its top ``hi`` down, so each step adds one gap
vertex.  ``reach_l`` and ``reach_r`` never decrease along the line, so going
down ``r(m)`` only grows and ``reach_l[m]`` only falls: the first gap vertex
with ``r(m) >= r`` fixes ``T_r`` for good, there are at most ``k`` floors,
and a probe is ``O(k)`` integer compares.  The naive engine keeps the
literal test, so the differential tests check this derivation.

The dummy source and sink take the same probe.  The source is a class of
its own, key ``(0,)`` at ``hi`` 0, and the sink is the sweep's last head.
Neither meets a gap vertex: the source clears only an empty floor tuple,
which is the literal test's "the head alone covers the gap", and the
sink's floors ask everything of the tail.

Slide (E1) arcs are shared the same way, by slide class.  A slide arc
``t -> s`` exists iff both are big and ``t.seq[1:] == s.seq[:-1]``, so every
head with the same first ``2k-1`` indices has a slide arc from the same
tails, the big nodes whose last ``2k-1`` indices are those.  The DP keeps
``slide_best[overlap] = [least dist, first id with it, tail count]`` and
folds each big node in as a tail when its ``dist`` is final; a head reads
one entry instead of testing every tail.  All tails of an overlap end at
its last index, so they are final before any head that extends it, and
they are folded in id order with a strict ``<``.  ``e1_arcs`` is the sum of
the tail counts the heads read.

The sweep visits nodes grouped by ``hi``, their last index (``topo_order``).
Every arc strictly raises ``hi``, so this is a topological order, and all
members of a suffix class share their ``hi``, so a class's minimum is final
when its group ends.  Every class in a head's window ends before ``s.lo``,
so it is final before the first head of any prefix class is processed.
Equal costs go to the first class in key order (the source's first), the
first member of that class in id order, a jump before a slide, and the
first slide tail in id order, which the slide class keeps; none of these
depends on the sweep order, so the chosen path does not either.

The sweep reads the plan's per-id lists (``reduction._Plan``): each node's
sequence, kind and jump charge, and each position's cost.  Head and tail
flags, prefix and suffix keys and slide overlaps all come from the
sequence.  Per node the DP tracks the best path ending in a jump arc, the
best path overall and the node before it on that path, in three lists
indexed by node id; per suffix class, in parallel lists by class position,
the best path ending anywhere in the class and its node; per slide class
the entry above.  The sweep walks the ``hi`` buckets that ``topo_order``
flattens (``_hi_groups``), so both see one order.  Path lengths are plain
ints in the plan's units and the optimum is divided by the plan's ``scale``
once; unreachable states are ``None``.  The only ``DagNode`` objects the
search builds are the ones on the path it returns.

The nodes and charges come from the same ``reduction._Plan`` the naive
engine builds; the two engines differ only in the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TooLargeError
from .model import ProperIntervalModel
from .oracle import Solution, check_k, check_variant, infeasible_solution
from .reduction import (
    DEFAULT_NODE_CAP,
    DagNode,
    KIND_BIG,
    KIND_SMALL,
    _Ctx,
    _e0_window,
    _engine_plan,
    _head_ok,
    _hits,
    _Plan,
    _tail_eligible,
    eligible_tail_bigs,
    path_to_vertex_set,
)


def suffix_key(seq: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Class key: the last k indices, or the whole sequence when shorter.

    Short sequences only occur for plain k-domination (small nodes may have
    fewer than k vertices); using the full sequence makes those classes
    singletons, which is trivially safe.
    """
    return seq[-k:] if len(seq) >= k else seq


@dataclass
class SuffixClass:
    key: tuple[int, ...]
    members: tuple[int, ...]
    best: int | None = None
    best_node: int | None = None


def _suffix_groups(seqs, k: int, ids) -> list[tuple[tuple[int, ...], list[int]]]:
    """The ids in ``ids`` grouped by suffix key, as ``(key, members)`` sorted
    by key, members in id order; ``seqs`` is indexed by node id."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in sorted(ids):
        groups.setdefault(suffix_key(seqs[i], k), []).append(i)
    return sorted(groups.items())


def suffix_partition(nodes, k: int, eligible) -> list[SuffixClass]:
    """Partition of small nodes plus tail-eligible big nodes by suffix key.

    Classes come out sorted by key; members keep enumeration (id) order, so
    ``members[0]`` is the lexicographically smallest member and serves as
    the class representative.
    """
    seqs = {nd.id: nd.seq for nd in nodes}
    ids = [
        nd.id for nd in nodes
        if nd.kind == KIND_SMALL or (nd.kind == KIND_BIG and nd.id in eligible)
    ]
    groups = _suffix_groups(seqs, k, ids)
    return [SuffixClass(key, tuple(members)) for key, members in groups]


def _hi_groups(seqs) -> list[list[int]]:
    """Node ids bucketed by ``hi`` (their last index), in id order inside
    each bucket; ``seqs`` holds an enumeration's sequences by id, sink last,
    so bucket i holds the ids of the nodes ending at position i."""
    groups: list[list[int]] = [[] for _ in range(seqs[-1][-1] + 1)]
    for i, seq in enumerate(seqs):
        groups[seq[-1]].append(i)
    return groups


def topo_order(nodes, k: int) -> list[int]:
    """Node ids grouped by ``hi`` (their last index) ascending, id order
    inside each group; ``nodes`` is an enumeration, sink last.

    Every arc strictly raises ``hi``: a jump arc has ``t.hi < s.lo <= s.hi``
    and a slide arc appends an index past ``t.hi``.  So this is a
    topological order of the digraph, with the source (``hi`` 0) first and
    the sink (``hi`` n+1) last.  All members of a suffix class share their
    ``hi``, so a class is complete when its group ends, which is what lets
    class minima be frozen on the fly.  The order does not depend on ``k``.
    """
    return [i for group in _hi_groups([nd.seq for nd in nodes]) for i in group]


def _probe_floors(ctx: _Ctx, head: DagNode):
    """``_floor_walk`` for the head ``head``."""
    return _floor_walk(ctx, head.seq)


def _floor_walk(ctx: _Ctx, seq: tuple[int, ...]):
    """Yield ``(hi, floors)`` for every ``t.hi`` a jump arc into the head
    with sequence ``seq``, a middle node or the sink, can have, from the top
    of its window down.

    The head must pass condition (4); the DP probes nothing for a big head
    that fails it.  A suffix class whose members end at ``hi`` has a jump
    arc into the head iff ``_clears(key, floors)``.  ``floors[r-1]`` is the
    least value ``key[-r]`` may take.  The module docstring derives the
    rule.
    """
    lo = seq[0]
    hi_min, hi_max = _e0_window(ctx, head_lo=lo)
    k, reach_l = ctx.k, ctx.reach_l
    # No key has more than n members, so n + 1 floors already fail every
    # key; capping there keeps a huge k from building a huge tuple.
    cap = min(k, ctx.n + 1)
    floors: tuple[int, ...] = ()
    m = lo - 1  # the next gap vertex to fold in
    for hi in range(hi_max, hi_min - 1, -1):
        # Once the cap is reached, no lower gap vertex can raise a floor.
        while m > hi and len(floors) < cap:
            need = k - _hits(ctx, seq, m)
            if need > len(floors):
                floors += (reach_l[m],) * (min(need, cap) - len(floors))
            m -= 1
        yield hi, floors


def _clears(key: tuple[int, ...], floors: tuple[int, ...]) -> bool:
    """The key-threshold probe: does a class with suffix key ``key`` meet
    the floors ``_probe_floors`` gave for its ``hi``?"""
    if len(key) < len(floors):
        return False
    for r, floor in enumerate(floors, 1):
        if key[-r] < floor:
            return False
    return True


def solve_fast(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    weighted: bool = False,
    *,
    cap_nodes: int = DEFAULT_NODE_CAP,
) -> Solution:
    """Optimal (total) k-domination via the class-partitioned DP sweep."""
    sol, _ = solve_fast_with_path(model, k, variant, weighted, cap_nodes=cap_nodes)
    return sol


def solve_fast_with_path(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    weighted: bool = False,
    *,
    cap_nodes: int = DEFAULT_NODE_CAP,
    _trace: dict | None = None,
) -> tuple[Solution, list[DagNode] | None]:
    """As solve_fast, but also return the reconstructed node path.

    ``_trace``, when given a dict, receives DP internals (per-node values
    in the plan's integer units, sweep order, class minima) for the
    invariant tests.
    """
    plan = _engine_plan(model, k, variant, weighted, cap_nodes)
    return _fast_search(plan, model, _trace)


def _fast_search(
    plan: _Plan | None, model: ProperIntervalModel, _trace: dict | None = None
) -> tuple[Solution, list[DagNode] | None]:
    """The DP sweep over ``_engine_plan``'s plan for ``model``, or the
    infeasible answer when it gave none; see ``solve_fast_with_path``."""
    if plan is None:
        return infeasible_solution("fast"), None
    ctx, seqs, kinds = plan.ctx, plan.seqs, plan.kinds
    jump, units, k = plan.jump, plan.units, ctx.k
    sink = len(seqs) - 1
    middle = range(1, sink)

    smalls = [i for i in middle if kinds[i] == KIND_SMALL]
    eligible = _tail_eligible(ctx, seqs, kinds, middle)
    # Classes by position in key order, as parallel lists.  The source is a
    # class of its own with key (0,), first in key order.  Its one member,
    # at position 0, meets no gap vertex, so it clears only an empty floor
    # tuple: the head alone covers the gap.
    cl_key: list[tuple[int, ...]] = [(0,)]
    cl_members: list[list[int]] = [[0]]
    for key, ids in _suffix_groups(seqs, k, smalls + eligible):
        cl_key.append(key)
        cl_members.append(ids)
    cl_best: list[int | None] = [None] * len(cl_key)
    cl_node: list[int | None] = [None] * len(cl_key)
    cl_best[0] = cl_node[0] = 0
    # Class positions (key order) by the shared hi of their members.
    by_hi: list[list[int]] = [[] for _ in range(model.n + 2)]
    for pos, key in enumerate(cl_key):
        by_hi[key[-1]].append(pos)

    groups = _hi_groups(seqs)

    # Path lengths are plain ints in the plan's units, by node id; pred[i]
    # is the id of the node before node i on its best path.
    dist: list[int | None] = [None] * len(seqs)
    dist_jump: list[int | None] = [None] * len(seqs)
    pred: list[int | None] = [None] * len(seqs)
    dist[0] = 0
    # By a head's first k indices: (class minimum, class position, its
    # node) of the best class with a jump arc into every head that shares
    # them and passes (4), or None when no class has one.
    probes: dict[tuple[int, ...], tuple[int, int, int] | None] = {}
    # Slide classes: by the last 2k-1 indices of big tails, [least dist,
    # first id with it, tail count].  Each head with those first 2k-1
    # indices has a slide arc from every such tail, all finalized before it.
    slide_best: dict[tuple[int, ...], list] = {}
    repr_tests = e1_arcs = 0

    # one hi group at a time after the source's, the sink's last; a group's
    # classes are frozen when it ends
    for group_hi in range(1, len(groups)):
        for i in groups[group_hi]:
            seq = seqs[i]
            big = kinds[i] == KIND_BIG
            # d and p: the best path into node i and the node before it on
            # that path; first over jump arcs only, then over slides too.
            if big and not _head_ok(ctx, seq):
                d = p = None
            else:
                prefix = seq[:k]
                if prefix not in probes:
                    # Every class in the window ends before seq[0], so it was
                    # frozen in an earlier group.
                    hit = None
                    for hi, floors in _floor_walk(ctx, seq):
                        for pos in by_hi[hi]:
                            best = cl_best[pos]
                            if best is None:
                                continue
                            repr_tests += 1
                            # equal costs go to the first class in key order
                            if _clears(cl_key[pos], floors) and (
                                hit is None or (best, pos) < hit[:2]
                            ):
                                hit = (best, pos, cl_node[pos])
                    probes[prefix] = hit
                hit = probes[prefix]
                d = None if hit is None else hit[0] + jump[i]
                p = None if hit is None else hit[2]
            dist_jump[i] = d
            if big:
                tails = slide_best.get(seq[:-1])
                if tails is not None:
                    e1_arcs += tails[2]
                    # a slide beats the jump only at a strictly lower cost
                    if tails[0] is not None:
                        cand = tails[0] + units[seq[-1]]
                        if d is None or cand < d:
                            d, p = cand, tails[1]
                # Fold this node in as a tail; equal costs keep the first id.
                tails = slide_best.get(seq[1:])
                if tails is None:
                    slide_best[seq[1:]] = [d, i, 1]
                else:
                    tails[2] += 1
                    if d is not None and (tails[0] is None or d < tails[0]):
                        tails[0], tails[1] = d, i
            dist[i] = d
            pred[i] = p
        for pos in by_hi[group_hi]:
            best = cl_best[pos]
            for mid in cl_members[pos]:
                d = dist[mid]
                if d is not None and (best is None or d < best):
                    best = cl_best[pos] = d
                    cl_node[pos] = mid
    sink_dist = dist_jump[sink]

    stats = {
        "nodes": len(seqs),
        "small_nodes": len(smalls),
        "big_nodes": len(middle) - len(smalls),
        "tail_eligible_bigs": len(eligible),
        "suffix_classes": len(cl_key) - 1,  # the source's class is not counted
        "prefix_classes": len(probes),
        "representative_tests": repr_tests,
        "e1_arcs": e1_arcs,
    }
    if _trace is not None:
        _trace["dist"] = dict(enumerate(dist))
        # keyed by middle ids only
        _trace["dist_jump"] = {i: dist_jump[i] for i in middle}
        _trace["sink_dist"] = sink_dist
        _trace["order"] = [i for group in groups for i in group]
        _trace["classes"] = [
            SuffixClass(*cl) for cl in zip(
                cl_key[1:], map(tuple, cl_members[1:]), cl_best[1:], cl_node[1:]
            )
        ]
        _trace["nodes"] = plan.nodes
    if sink_dist is None:
        return infeasible_solution("fast", stats), None

    # Reconstruction follows the recorded predecessors back to the source;
    # the path's nodes are the only DagNodes the search builds.
    rev = [sink]
    while rev[-1] != 0:
        rev.append(pred[rev[-1]])
    node_path = [DagNode(i, kinds[i], seqs[i]) for i in reversed(rev)]
    vset = path_to_vertex_set(node_path, model)
    cost = Fraction(sink_dist, plan.scale)
    return Solution(vset, cost, True, "fast", stats), node_path


def representative_independence_check(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    *,
    cap: int = 12,
) -> bool:
    """Diagnostic: within each suffix class, jump-arc membership toward any
    node is all-or-none; within each prefix class (middle heads sharing
    their first k indices and their answer to condition (4)), membership
    from any node is all-or-none.  These are the properties the DP's shared
    probes rely on."""
    from .reduction import _e0_arc  # the literal test, which the DP never runs

    check_k(k)
    check_variant(variant)
    if model.n > cap:
        raise TooLargeError(f"diagnostic capped at n <= {cap}, got {model.n}")
    plan = _Plan(_Ctx(model, k, variant), model, False, DEFAULT_NODE_CAP)
    ctx, nodes = plan.ctx, plan.nodes
    middle = nodes[1:-1]
    eligible = eligible_tail_bigs(middle, model, k, variant, _ctx=ctx)
    classes = suffix_partition(middle, k, eligible)
    for cl in classes:
        members = [nodes[i] for i in cl.members]
        for s in nodes[1:]:  # every possible head: the middle and the sink
            answers = {_e0_arc(ctx, m, s) for m in members}
            if len(answers) > 1:
                return False
    heads: dict[tuple, list[DagNode]] = {}
    for s in middle:
        passes = s.kind != KIND_BIG or _head_ok(ctx, s.seq)
        heads.setdefault((s.seq[:k], passes), []).append(s)
    for group in heads.values():
        for t in nodes[:-1]:  # every possible tail: the source and the middle
            answers = {_e0_arc(ctx, t, s) for s in group}
            if len(answers) > 1:
                return False
    return True

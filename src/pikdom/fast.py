"""Suffix-partition dynamic programming over the derived DAG.

The speedup over the naive engine comes from never materializing jump (E0)
arcs between internal nodes.  Whether ``(t, s)`` is a jump arc depends on
``t`` only through its last ``k`` interval indices and its tail-eligibility,
both shared by every member of a suffix class.  So the DP keeps one running
minimum per class and probes each class once instead of every potential
tail.  A class is one entry ``[least dist, first id with it, key]``; a
node whose role byte has the tail bit (a small node, the source, or a big
node that passes (3)) joins its class's entry with a strict ``<`` as soon
as its ``dist`` is final.

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
running the literal jump-arc test (``_floor_walk`` and ``_clears``).  Of
the test's four conditions:

* (1), disjoint ends, holds for every ``hi`` inside the window;
* (3), the tail condition, holds for every class member, because only
  tail-eligible big nodes join a class;
* (4), the head condition, depends on the head alone and is read from the
  plan before any probe;
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

The dummy source and sink take the same probe.  The source's role byte
has the tail bit alone, so it joins its class, key ``(0,)`` at ``hi`` 0,
as every tail does, and no other node ends at 0; the sink's has the head
bit alone, and it is the sweep's last head.  Neither meets a gap vertex:
the source clears only an empty floor tuple, which is the literal test's
"the head alone covers the gap", and the sink's floors ask everything of
the tail.

Slide (E1) arcs are shared the same way, by slide class.  A slide arc
``t -> s`` exists iff both are big and ``t.seq[1:] == s.seq[:-1]``, so every
head with the same first ``2k-1`` indices has a slide arc from the same
tails, the big nodes whose last ``2k-1`` indices are those.  The DP keeps
``slide_best[overlap] = [least dist, first id with it, tail count]``, which
every big node joins as a tail as it joins a suffix class, and a head reads
one entry instead of testing every tail.  ``e1_arcs`` is the sum of the
tail counts the heads read.

The sweep visits nodes in id order.  Ids follow lexicographic order, and
every arc strictly raises ``lo``, the first index (a jump arc has
``t.lo <= t.hi < s.lo`` and a slide arc drops ``t.lo``), so a node's
predecessors have lower ids and this is a topological order.  A class is
complete and final before any head reads it:

* a suffix class that a head probes ends at ``hi < s.lo``, and each of its
  members has ``lo <= hi``, so a lower id than the head;
* every tail of a slide class starts left of its head, for the same reason.

Members of a class join in id order.  Heads that share their first ``k``
indices have consecutive ids, because ids are lexicographic, so a prefix
class is a run of ids: the sweep keeps only the last prefix probed and its
answer.  Equal costs go to the first class in key order (the source's
first), the first member of that class in id order, a jump before a slide,
and the first slide tail in id order, which the slide class keeps; none of
these depends on the sweep order, so the chosen path does not either.

The sweep (``_sweep``) reads the plan's per-id lists, each node's sequence
and role byte, and its one cost table, each position's cost in units: a
head's jump charge is the sum of its positions' costs, added only when some
class has a jump arc into it.  The naive engine
searches the same plan from ``reduction.engine_plan``; the two engines
differ only in the search.  The role byte (``_Plan``) is all the sweep
asks of a node, and it compares no kind: a node probes as a head iff it
has the head bit, joins its suffix class iff it has the tail bit, and
takes part in slide classes iff it has the big bit.  A big node's head and
tail bits are its answers to (4) and (3), which the enumeration decides
where each range is fixed: (4) once per chain of k members
(``reduction._caps``) and (3) once per chain of 2k-1
(``reduction._tail_bound``), so the sweep runs no window check; the naive
engine reads only the big bit and runs the literal checks, so the
differential tests check the other two.  The stats' node counts (small
nodes, big nodes, tail-eligible big nodes) are counts of role bytes.  The
middle check is decided once per chain of k+1 members (``reduction._caps``),
so the plan holds only big nodes that pass it.
Prefix and suffix keys and slide overlaps come from the sequence.  The
sweep keeps the best path into each node and the node before it on that
path in two lists by node id, besides the class entries above.
Path lengths are plain ints in the plan's units; unreachable states are
``None``.  The plan turns the optimal id path into the answer
(``_Plan.solution``), dividing by its ``scale`` once and building
``DagNode`` objects only for the nodes on the path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ProperIntervalModel
from .oracle import Solution, infeasible_solution
from .reduction import (
    ARC_E0,
    DEFAULT_NODE_CAP,
    DagNode,
    KIND_BIG,
    KIND_SMALL,
    _BIG,
    _Ctx,
    _e0_window,
    _HEAD,
    _hits,
    _Plan,
    _TAIL,
    engine_plan,
)


def suffix_key(seq: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Class key: the last k indices, or the whole sequence when shorter.

    Short sequences only occur for plain k-domination (small nodes may have
    fewer than k vertices); using the full sequence makes those classes
    singletons, which is trivially safe.
    """
    return seq[-k:]


@dataclass
class SuffixClass:
    """One class of ``suffix_partition``: its key and its member ids.  No
    engine or diagnostic builds one; it is kept for ``perfbench/run.py``'s
    breakdown and its tests."""

    key: tuple[int, ...]
    members: tuple[int, ...]


def suffix_partition(nodes, k: int, eligible) -> list[SuffixClass]:
    """Partition of small nodes plus tail-eligible big nodes by suffix key.

    Classes come out sorted by key; members keep enumeration (id) order, so
    ``members[0]`` is the lexicographically smallest member and serves as
    the class representative.  No engine or diagnostic calls it (the sweep
    and ``representative_independence_check`` group the plan's lists
    themselves); it is kept for ``perfbench/run.py``'s breakdown and its
    tests.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for nd in sorted(nodes, key=lambda nd: nd.id):
        if nd.kind == KIND_SMALL or (nd.kind == KIND_BIG and nd.id in eligible):
            groups.setdefault(suffix_key(nd.seq, k), []).append(nd.id)
    return [SuffixClass(key, tuple(members)) for key, members in sorted(groups.items())]


def topo_order(nodes, k: int) -> list[int]:
    """Node ids grouped by ``hi`` (their last index) ascending, id order
    inside each group; ``nodes`` is an enumeration, sink last.

    Every arc strictly raises ``hi``: a jump arc has ``t.hi < s.lo <= s.hi``
    and a slide arc appends an index past ``t.hi``.  So this is a
    topological order of the digraph, with the source (``hi`` 0) first and
    the sink (``hi`` n+1) last.  The order does not depend on ``k``.  No
    engine uses it (the sweep runs in id order); it is kept for
    ``perfbench/run.py``'s breakdown and its tests.
    """
    buckets: list[list[int]] = [[] for _ in range(nodes[-1].seq[-1] + 1)]
    for i, nd in enumerate(nodes):
        buckets[nd.seq[-1]].append(i)
    return [i for bucket in buckets for i in bucket]


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
    the floors ``_floor_walk`` gave for its ``hi``?"""
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
    return search_fast(engine_plan(model, k, variant, weighted, cap_nodes=cap_nodes))[0]


def search_fast(plan: _Plan | None) -> tuple[Solution, list[DagNode] | None]:
    """The DP sweep over a plan from ``engine_plan``: the answer and the
    optimal path as ``DagNode``s, or the infeasible answer and None when
    the plan is None or the sink is unreachable."""
    if plan is None:
        return infeasible_solution("fast"), None
    dist, pred, stats = _sweep(plan)
    if dist[-1] is None:  # the sink is unreachable
        return infeasible_solution("fast", stats), None
    # Reconstruction follows the recorded predecessors back to the source.
    rev = [len(dist) - 1]
    while rev[-1] != 0:
        rev.append(pred[rev[-1]])
    return plan.solution(rev[::-1], dist[-1], "fast", stats)


def _sweep(plan: _Plan) -> tuple[list[int | None], list[int | None], dict[str, int]]:
    """The DP over ``plan``: by node id, the least path length from the
    source in the plan's units and the node before it on that path (``None``
    when unreachable), and the solve's stats."""
    ctx, seqs, roles = plan.ctx, plan.seqs, plan.roles
    units, k = plan.units, ctx.k
    dist: list[int | None] = [None] * len(seqs)
    pred: list[int | None] = [None] * len(seqs)
    dist[0] = 0
    # Suffix classes by the hi their members share (one dict per position
    # 0..n+1, as in units), then by key: [least dist, first id with it,
    # key].  The source joins its class (0,) at hi 0 as every tail does.
    by_hi: list[dict[tuple[int, ...], list]] = [{} for _ in units]
    # The last prefix class probed, a head's first k indices, and the entry
    # of the best class with a jump arc into each of its heads, or None when
    # no class has one.  A prefix class is a run of ids, so one probe serves
    # the whole run.
    prefix = hit = None
    prefix_classes = 0
    # Slide classes: by the last 2k-1 indices of big tails, [least dist,
    # first id with it, tail count].  Each head with those first 2k-1
    # indices has a slide arc from every such tail, all finalized before it.
    slide_best: dict[tuple[int, ...], list] = {}
    repr_tests = e1_arcs = 0

    # ids are a topological order, the source first and the sink last
    for i, seq in enumerate(seqs):
        role = roles[i]
        # d and p: the best path into node i and the node before it on that
        # path; first over jump arcs only, then over slides too.  Only the
        # source starts with a path, of length 0.
        d, p = dist[i], None
        if role & _HEAD:
            if seq[:k] != prefix:
                # Every class in the window ends before seq[0], so all its
                # members have lower ids and have joined it.
                prefix, hit = seq[:k], None
                prefix_classes += 1
                for hi, floors in _floor_walk(ctx, seq):
                    for entry in by_hi[hi].values():
                        best, _, key = entry
                        if best is None:
                            continue
                        repr_tests += 1
                        # equal costs go to the first class in key order
                        if _clears(key, floors) and (
                            hit is None or (best, key) < (hit[0], hit[2])
                        ):
                            hit = entry
            if hit is not None:
                d, p = hit[0] + sum(map(units.__getitem__, seq)), hit[1]
        if role & _BIG:
            tails = slide_best.get(seq[:-1])
            if tails is not None:
                e1_arcs += tails[2]
                # a slide beats the jump only at a strictly lower cost
                if tails[0] is not None:
                    cand = tails[0] + units[seq[-1]]
                    if d is None or cand < d:
                        d, p = cand, tails[1]
            # Fold this node in as a tail; equal costs keep the first id.
            tails = slide_best.setdefault(seq[1:], [None, i, 0])
            tails[2] += 1
            if d is not None and (tails[0] is None or d < tails[0]):
                tails[0], tails[1] = d, i
        dist[i] = d
        pred[i] = p
        # Fold this node into its suffix class if it can be a jump arc's
        # tail; members come in id order, so equal costs keep the first id.
        if role & _TAIL:
            key = suffix_key(seq, k)
            entry = by_hi[seq[-1]].setdefault(key, [None, i, key])
            if d is not None and (entry[0] is None or d < entry[0]):
                entry[0], entry[1] = d, i

    smalls = roles.count(_HEAD | _TAIL)
    tail_bigs = roles.count(_BIG | _TAIL) + roles.count(_BIG | _HEAD | _TAIL)
    return dist, pred, {
        "nodes": len(seqs),
        "small_nodes": smalls,
        "big_nodes": len(seqs) - 2 - smalls,
        "tail_eligible_bigs": tail_bigs,
        "suffix_classes": sum(map(len, by_hi)) - 1,  # not the source's class
        "prefix_classes": prefix_classes,
        "representative_tests": repr_tests,
        "e1_arcs": e1_arcs,
    }


def representative_independence_check(
    model: ProperIntervalModel,
    k: int,
    variant: str,
) -> bool:
    """Diagnostic: within each suffix class, the jump-arc successors are the
    same for every member; within each prefix class (middle heads sharing
    their first k indices and their answer to condition (4)), the jump-arc
    predecessors are the same for every member.  These are the properties
    the DP's shared probes rely on.

    It reads the plan both engines search (``_Plan``): the classes come
    from its sequences and role bytes, as ``_sweep`` forms them, and the
    arcs from ``_Plan.arcs``, which the naive engine searches and which
    runs the literal window checks and gap cover.  The source and the sink
    each form classes of their own, which hold trivially.
    """
    plan = _Plan(model, k, variant, False, DEFAULT_NODE_CAP)
    seqs = plan.seqs
    succ: list[set[int]] = [set() for _ in seqs]
    pred: list[set[int]] = [set() for _ in seqs]
    for tail, head, cls, _ in plan.arcs():
        if cls == ARC_E0:
            succ[tail].add(head)
            pred[head].add(tail)
    tails: dict[tuple[int, ...], list[set[int]]] = {}
    heads: dict[tuple, list[set[int]]] = {}
    for seq, role, out, into in zip(seqs, plan.roles, succ, pred):
        if role & _TAIL:
            tails.setdefault(suffix_key(seq, k), []).append(out)
        heads.setdefault((seq[:k], role & _HEAD), []).append(into)
    groups = [*tails.values(), *heads.values()]
    return all(all(s == group[0] for s in group) for group in groups)

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
member) lies in the head side of the jump-arc window are probed:
``reach_l[g] <= t.hi <= g`` with ``g = reach_l[s.lo] - 1``, about one
clique wide (``reduction._e0_window`` derives it).  So the probes per
prefix class are bounded by the classes ending in one clique rather than
by all classes.  The probe reads the window in place, two list reads
instead of a call per probe.

A probe (``_best_class``) compares the class key against per-head
thresholds instead of running the literal jump-arc test.  Of the test's
four conditions:

* (1), disjoint ends, holds for every ``hi`` inside the window;
* (3), the tail condition, holds for every class member, because only
  tail-eligible big nodes join a class;
* (4), the head condition, depends on the head alone and is read from the
  plan before any probe;
* (2), the gap cover, reduces to thresholds.  A gap vertex ``m``
  (``t.hi < m < s.lo``) meets the members of each end set inside its reach
  range ``reach_l[m]..reach_r[m]``, as ``literal._hits`` counts them:
  every head member lies right of ``m``, so it meets the ``c(m)`` of them
  ``<= reach_r[m]``, one binary search over the head's first ``k``
  indices.  So it needs ``r(m) = k - c(m)`` tail members
  ``>= reach_l[m]``, which holds iff ``len(key) >= r(m)`` and
  ``key[-r(m)] >= reach_l[m]``: only the last ``k`` members can count.
  With ``T_r`` the largest ``reach_l[m]`` over the gap vertices with
  ``r(m) >= r``, the gap is covered iff ``len(key) >= r`` and
  ``key[-r] >= T_r`` for every set ``T_r``, because ``key[-r]`` falls as
  ``r`` grows.

The probe is one loop over the window, from its top ``hi`` down: each step
folds the gap vertices above ``hi`` into the floors and tests the classes
ending at ``hi`` against them.  ``reach_l`` and ``reach_r`` never decrease
along the line, so going down ``r(m)`` only grows and ``reach_l[m]`` only
falls: the first gap vertex with ``r(m) >= r`` fixes ``T_r`` for good,
there are at most ``k`` floors, and a class's test is ``O(k)`` integer
compares.  The naive engine keeps the literal gap cover, so the
differential tests check this derivation.

The dummy source and sink take the same probe.  The source, where every
path starts, is seeded before the sweep in its class, key ``(0,)`` at
``hi`` 0, and no other node ends at 0; the sink is a head like any other,
the sweep's last.  Neither meets a gap vertex: the source clears only an
empty floor tuple, which is the literal test's "the head alone covers the
gap", and the sink's floors ask everything of the tail.

Slide (E1) arcs are shared the same way, by slide class.  A slide arc
``t -> s`` exists iff both are big and ``t.seq[1:] == s.seq[:-1]``, so every
head with the same first ``2k-1`` indices has a slide arc from the same
tails, the big nodes whose last ``2k-1`` indices are those.  The DP keeps
one entry ``[least dist, first id with it, tail count]`` per slide class,
which every big node joins as a tail as it joins a suffix class.  The heads
of one class are one run of the plan (``reduction._Plan``), and the run
reads the entry once instead of testing every tail.  ``e1_arcs`` is the
sum over runs of the tail count times the run's length.

The sweep visits nodes in id order, run by run.  Ids follow lexicographic
order, and every arc strictly raises ``lo``, the first index (a jump arc
has ``t.lo <= t.hi < s.lo`` and a slide arc drops ``t.lo``), so a node's
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

A run of the plan is decided once.  Its nodes ``t + (x,)`` share the
prefix class (one probe), the slide class ``t`` when they are big (one
read) and every position of a jump charge but ``x`` (one sum over ``t``).
A node has the head bit iff ``x`` is at most the run's head bound, and
then costs the better of the jump and the slide into the run, else the
slide, plus ``units[x]`` either way, which keeps the tie-break.  Each big
node then joins its slide class, and each node with ``x`` at most the
tail bound its suffix class: the only work done per node.

The sweep (``_sweep``) reads the plan's items, runs with their bounds, and
its one cost table, each position's cost in units; it never builds the
plan's per-id lists.  A small node or the sink is a run of one, decided by
the same loop.  The naive engine searches the same plan from
``reduction.engine_plan``; the two engines differ only in the search.  The
sweep compares no kind: a node probes as a head iff it has the head bit,
joins its suffix class iff it has the tail bit, and takes part in slide
classes iff its run's chain has 2k-1 members.  A big node's head and tail
bits are its answers to (4) and (3), which the enumeration decides where
each range is fixed: (4) once per chain of k members (``reduction._caps``)
and (3) once per chain of 2k-1 (``reduction._tail_bound``), so the sweep
runs no window check.  The naive engine reads the same bits, so the
fast/naive differential cannot see a wrong head or tail bit; the tests
hold each big node's bits to ``literal._head_ok`` and ``_tail_ok``.
The stats' small and big node counts come from the run lengths, and
``tail_eligible_bigs`` counts the big nodes as they join their suffix
classes, in the node loop's tail branch.  The sweep keeps the best path
into each node and the node before it on that path in two lists
by node id.  Path lengths are plain ints in the plan's units; one at or
above the plan's ``unreachable`` is unreached, and has no predecessor.
The plan turns the optimal id path into the answer
(``_Plan.solution``), dividing by its ``scale`` once and building
``DagNode`` objects only for the nodes on the path; ``search_fast``
returns ``(Solution, path)``, as ``reduction.search_naive`` does, with a
path of None when the sink is unreachable.
"""

from __future__ import annotations

from bisect import bisect_right

from .model import ProperIntervalModel
from .oracle import Solution, infeasible_solution
from .reduction import DEFAULT_NODE_CAP, DagNode, _Ctx, _Plan, engine_plan


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
    # Reconstruction follows the recorded predecessors back to the source,
    # when the sink is reachable.
    rev = None if dist[-1] >= plan.unreachable else [len(dist) - 1]
    while rev and rev[-1] != 0:
        rev.append(pred[rev[-1]])
    return plan.solution(rev and rev[::-1], dist[-1], "fast", stats)


def _best_class(ctx: _Ctx, by_hi, prefix: tuple, unreachable: int) -> tuple[list | None, int]:
    """The probe of one prefix class: the entry of the best reached suffix
    class (least length below ``unreachable``) with a jump arc into the
    heads whose first k indices are ``prefix``, or None, and how many
    reached classes it tested.  The heads pass condition (4).  Every class
    in the window ends before ``prefix[0]``, so all its members have lower
    ids and have joined it.

    The window is the head side of ``reduction._e0_window``, read in
    place.  One loop walks it from its top
    ``hi`` down: the gap vertices above ``hi`` fold into ``floors``, where
    ``floors[r-1]`` is the least value ``key[-r]`` may take, and the classes
    ending at ``hi`` are tested against them.  ``floors`` grows only when a
    gap vertex raises its depth, which is kept in ``depth``.  The module
    docstring derives the rule."""
    k, reach_l, reach_r = ctx.k, ctx.reach_l, ctx.reach_r
    hi_max = reach_l[prefix[0]] - 1
    hi_min = reach_l[hi_max]
    m = prefix[0] - 1  # the next gap vertex to fold in
    floors: list[int] = []
    depth = 0  # len(floors)
    hit, hit_best, hit_key = None, unreachable, ()
    tests = 0
    for hi in range(hi_max, hi_min - 1, -1):
        # Once k floors are set, no lower gap vertex can raise one.
        while m > hi and depth < k:
            need = k - bisect_right(prefix, reach_r[m])
            if need > depth:
                floors += [reach_l[m]] * (need - depth)
                depth = need
            m -= 1
        for entry in by_hi[hi].values():
            best, _, key = entry
            if best >= unreachable:
                continue
            tests += 1
            # Skip a class the hit beats (equal costs go to the first class
            # in key order) or whose key is too short for the floors.
            if best > hit_best or best == hit_best and key > hit_key or len(key) < depth:
                continue
            r = 0
            for floor in floors:
                r -= 1
                if key[r] < floor:
                    break
            else:
                hit, hit_best, hit_key = entry, best, key
    return hit, tests


def _sweep(plan: _Plan) -> tuple[list[int], list[int | None], dict[str, int]]:
    """The DP over ``plan``: by node id, the least path length from the
    source in the plan's units and the node before it on that path (at or
    above ``plan.unreachable`` and ``None`` when unreached), and the solve's
    stats.  It seeds the source, then walks the plan's other items, each a
    run of one or more nodes, in one loop, and reads no per-id list.  A
    run's big nodes are counted from its length and its tail-eligible ones
    one by one, as each joins its suffix class."""
    ctx, units, k, unreachable = plan.ctx, plan.units, plan.ctx.k, plan.unreachable
    big_len = 2 * k - 1
    dist = [unreachable] * plan.size
    pred: list[int | None] = [None] * plan.size
    # Suffix classes by the hi their members share (one dict per position
    # 0..n+1, as in units), then by their key less its last index, which is
    # that hi: [least dist, first id with it, key].  The nodes of an item
    # share that shorter key, t's last k-1 indices (``cut``: all of a
    # shorter t, none at k = 1).  The source, the first item, is the one
    # node a path starts at: it is seeded here with length 0, in its class
    # (0,), dict key (), at hi 0.
    by_hi: list[dict[tuple[int, ...], list]] = [{} for _ in units]
    dist[0] = 0
    by_hi[0][()] = [0, 0, (0,)]
    cut = slice(1 - k, None) if k > 1 else slice(0, 0)
    # The last prefix class probed, a head's first k indices, and the entry
    # of the best class with a jump arc into each of its heads, or None when
    # no class has one.  A prefix class is a run of ids, so one probe serves
    # the whole run.
    prefix = hit = None
    prefix_classes = 0
    # Slide classes, by the last 2k-1 indices c of big tails: class c is
    # slide_best[c[:-1]][c[-1]], [least dist, first id with it, tail count].
    # The children of a run share every index of their class but the last,
    # so the run looks up their dict once.  The heads of a run share their
    # first 2k-1 indices, its chain, so each has a slide arc from every tail
    # of the chain's class, all finalized before the run.
    slide_best: dict[tuple[int, ...], dict[int, list]] = {}
    no_tails: dict[int, list] = {}  # read, never written
    repr_tests = e1_arcs = bigs = tail_bigs = 0

    # ids are a topological order, the source first and the sink last
    items = iter(plan.items)
    next(items)  # the source, seeded above
    i = 1
    for t, lo, hi, head, tail in items:
        # The nodes t + (x,) for lo <= x <= hi: a run of big nodes when t
        # has 2k-1 members, else one small node or the sink.  Each path into
        # one of them is a path into the item's prefix class or, in a run,
        # its slide class, plus a charge that differs only in units[x], so
        # the item picks its arcs once.
        big = len(t) == big_len
        # The best slide into every node of a run, less units[x]: its
        # chain's class, when it has a reached tail.
        sd, sp = unreachable, None
        if big:
            bigs += hi - lo + 1
            tails = slide_best.get(t[:-1], no_tails).get(t[-1])
            if tails is not None:
                e1_arcs += tails[2] * (hi - lo + 1)
                if tails[0] < unreachable:
                    sd, sp = tails[0], tails[1]
            slides = slide_best.get(t[1:])  # the children's classes
            if slides is None:
                slides = slide_best[t[1:]] = {}
        # The best arc into the item's heads, x <= head, less units[x]: a
        # jump first, a slide only at a strictly lower cost.
        hd, hp = sd, sp
        if head >= lo:
            first = t[:k] if len(t) >= k else t + (lo,)  # the heads' first k indices
            if first != prefix:
                prefix = first
                hit, tests = _best_class(ctx, by_hi, prefix, unreachable)
                prefix_classes += 1
                repr_tests += tests
            if hit is not None:
                jd = hit[0]
                for pos in t:  # the charge of every position but x
                    jd += units[pos]
                if jd <= sd:
                    hd, hp = jd, hit[1]
        if tail >= lo:
            suffix = t[cut]  # each node's class key less its last index, x
        for x in range(lo, hi + 1):
            if x <= head:
                d, p = hd, hp
            else:
                d, p = sd, sp
            d += units[x]
            dist[i] = d
            pred[i] = p
            # Fold a big node in as a slide tail; equal costs keep the first
            # id.
            if big:
                tails = slides.get(x)
                if tails is None:
                    slides[x] = [d, i, 1]
                else:
                    tails[2] += 1
                    if d < tails[0]:
                        tails[0], tails[1] = d, i
            # Fold it into its suffix class if it can be a jump arc's tail;
            # members come in id order, so equal costs keep the first id.
            if x <= tail:
                tail_bigs += big
                entry = by_hi[x].get(suffix)
                if entry is None:
                    by_hi[x][suffix] = [d, i, suffix + (x,)]
                elif d < entry[0]:
                    entry[0], entry[1] = d, i
            i += 1

    return dist, pred, {
        "nodes": plan.size,
        "small_nodes": plan.size - 2 - bigs,
        "big_nodes": bigs,
        "tail_eligible_bigs": tail_bigs,
        "suffix_classes": sum(map(len, by_hi)) - 1,  # not the source's class
        "prefix_classes": prefix_classes,
        "representative_tests": repr_tests,
        "e1_arcs": e1_arcs,
    }


"""The derived DAG and the explicit (naive) shortest-path engine.

The optimum (total) k-domination cost of a sorted proper interval model
equals the shortest source-to-sink path length in a DAG whose nodes are
increasing, consecutively-intersecting index sequences:

* ``small`` nodes stand for whole solution components with fewer than 2k
  vertices (length k+1 .. 2k-1 for the total variant, 1 .. 2k-1 for plain
  k-domination),
* ``big`` nodes are sliding windows of exactly 2k consecutive solution
  vertices inside larger components,
* ``E1`` arcs slide a big window one vertex to the right,
* ``E0`` arcs jump the gap between two consecutive components, and
* dummy ``source``/``sink`` nodes bracket the line with intervals disjoint
  from everything.

All index arithmetic runs in the model's sorted numbering extended by the
two dummies: position 0 is the source interval, 1..n the model, n+1 the
sink interval.  Every intersection count reads reach ranges: the members of
a sorted sequence that meet position m are the ones inside
``reach_l[m]..reach_r[m]``, found by two binary searches (``_hits``).

Enumeration grows the chains index by index and builds only those its
window checks can keep (``enumerate_nodes`` gives the three cuts and their
proofs): a chain of k+1 members caps each later member of the big nodes in
its subtree from one walk of their fixed middle, a chain one short of a big
node keeps the big nodes it is the parent of as one run, every last
index within its cap, and a chain whose small check fails at a position no
later member can meet checks no small node in its subtree.  The head and
tail conditions are decided the same way where their ranges are fixed, the
head at k members and the tail at 2k-1, so each run keeps two bounds on
its last index that give its nodes' answers, and neither engine runs
either check.

Both DAG engines search one ``_Plan`` from ``engine_plan``, which first
answers the total variant's min-degree shortcut.  The plan works out each
of its tables once: when built, the context, the budget check, the nodes
in id order as runs of one shape with each run's first id, and the
per-position costs in integer units; when first read, the per-id lists
and naive's arc index.  The engines differ only in the search:
``search_naive`` tests every arc and keeps none, searching the tails in
reverse id order and relaxing each tail's out-arcs as it finds them, so
it keeps each node's lowest-id optimal successor; ``fast.search_fast``
runs the suffix-class DP, one decision per run, and keeps each node's
predecessor.
Both read conditions (3) and (4) from the role bits, walk their pointers
to an id path, and hand it to the plan, which builds a ``DagNode`` only
for the nodes on it; both return ``(Solution, path)``, the path None when
the sink is unreachable (``_Plan.solution``).
``enumerate_nodes`` and ``build_digraph`` read the same plan.  One
per-tail arc finder, ``_Plan._out_arcs``, serves ``naive`` and
``_Plan.arcs``, which builds the sorted arc list on each call and keeps
none: it takes a big tail's slide arcs from the run whose chain is the
tail's last 2k-1 indices, and finds the jump arcs among the heads and
tails the role bytes allow with the literal gap cover, once per tail, at
the gap vertices it leaves short and what each needs; each head is
checked at those (``_gap_covered``, which ``_e0_arc`` also calls).
``naive`` uses no key thresholds and no class sharing, so the differential
tests check the fast engine's derivation of both.  The literal (3) and (4),
``_tail_ok`` and ``_head_ok``, stay as the reference the role bytes are
tested against, with ``_e0_arc`` and ``eligible_tail_bigs``.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, lcm

from .errors import BudgetError, NotArcError, NotPathError
from .model import ProperIntervalModel, format_rational, model_min_degree
from .oracle import (
    Solution,
    VARIANT_TOTAL,
    VertexSet,
    check_k,
    check_variant,
    infeasible_solution,
)

KIND_SOURCE = "source"
KIND_SINK = "sink"
KIND_SMALL = "small"
KIND_BIG = "big"

# The bits of a node's role byte (see ``_Plan``), and its kind by that byte:
# the sink is 1, the source 2, a small node 3 and a big node 4..7.
_HEAD, _TAIL, _BIG = 1, 2, 4
_KIND_OF_ROLE = (None, KIND_SINK, KIND_SOURCE, KIND_SMALL, *(KIND_BIG,) * 4)

ARC_E0 = "E0"
ARC_E1 = "E1"

_NO_SLIDES = (0, range(0))  # a node with no slide arcs out: no heads from id 0

DEFAULT_NODE_CAP = 10**8


@dataclass(frozen=True, slots=True)
class DagNode:
    id: int
    kind: str
    seq: tuple[int, ...]

    @property
    def lo(self) -> int:
        return self.seq[0]

    @property
    def hi(self) -> int:
        return self.seq[-1]

    @property
    def real_seq(self) -> tuple[int, ...]:
        """Model interval indices only; dummies contribute nothing."""
        return self.seq if self.kind in (KIND_SMALL, KIND_BIG) else ()


@dataclass(frozen=True)
class DagArc:
    tail: int
    head: int
    cls: str
    length: Fraction


@dataclass(frozen=True)
class DerivedDigraph:
    nodes: tuple[DagNode, ...]
    arcs: tuple[DagArc, ...]


class _Ctx:
    """Precomputed intersection ranges over the dummy-extended index line.

    ``reach_r[i]``/``reach_l[i]`` bound the contiguous block of positions
    whose intervals intersect position i; in a sorted proper family every
    intersection test reduces to a range check.  They are the model's own
    reach arrays (``ProperIntervalModel.reach_l``/``reach_r``, swept once
    when the model was built) shifted up by one; no endpoint is compared
    here.  The source and sink intervals meet nothing else, so positions 0
    and n+1 each reach only themselves.  ``k`` is clamped to n + 1: no
    vertex has n neighbours, so a larger k asks what n + 1 asks.
    """

    __slots__ = ("n", "k", "variant", "reach_l", "reach_r")

    def __init__(self, model: ProperIntervalModel, k: int, variant: str):
        check_k(k)
        check_variant(variant)
        self.n = model.n
        self.k = min(k, model.n + 1)
        self.variant = variant
        sink = model.n + 1
        self.reach_l = [0, *(p + 1 for p in model.reach_l), sink]
        self.reach_r = [0, *(p + 1 for p in model.reach_r), sink]


def _small_lengths(k: int, variant: str) -> range:
    if variant == VARIANT_TOTAL:
        return range(k + 1, 2 * k)
    return range(1, 2 * k)


def projected_node_count(n: int, k: int, variant: str) -> int:
    """Upper bound on node count before enumeration (binomial projection).

    Node lengths run from the shortest small length up to the big length
    2k; only lengths up to n have sequences, so the sum stops there and
    costs O(min(n, k)) whatever k is.  It ignores the chain condition; the
    plan's budget check counts the chains (``_chain_count``) instead."""
    first = _small_lengths(k, variant).start
    return 2 + sum(comb(n, q) for q in range(first, min(n, 2 * k) + 1))


def _chain_count(ctx: _Ctx, cap: int) -> int:
    """The consecutively-intersecting chains of every node length, plus the
    two dummies: what the enumeration can build at most, since it grows
    exactly these chains and its window checks only drop some.

    ``f[i]`` is the number of chains of the current length that start at
    position i: 1 at length 1, and at the next length the sum of ``f[j]``
    for j in ``i+1..reach_r[i]``, read off suffix sums, so each length costs
    O(n).  The count stops once it passes ``cap`` or some length has no
    chain (then no longer one has either), so it costs at most one pass per
    member of the longest chain."""
    n, reach_r = ctx.n, ctx.reach_r
    lengths = range(_small_lengths(ctx.k, ctx.variant).start, 2 * ctx.k + 1)
    f = [0, *(1,) * n, 0]  # by position, 0 at the dummies
    count = 2
    for q in range(1, lengths.stop):
        if q > 1:
            suffix = [*accumulate(reversed(f))][::-1] + [0]  # suffix[j] = sum(f[j:])
            f = [0, *(suffix[i + 1] - suffix[reach_r[i] + 1] for i in range(1, n + 1)), 0]
        chains = sum(f)
        if not chains:
            break
        if q in lengths:
            count += chains
            if count > cap:
                break
    return count


def _hits(ctx: _Ctx, seq: tuple[int, ...], m: int) -> int:
    """How many members of the sorted sequence ``seq`` meet position m, m
    itself included when it is a member: they are the members inside m's
    reach range.  The window walks (``_dominated``, ``_caps``) count hits
    the same way in place; this is the reference the tests hold them to."""
    lo, hi = ctx.reach_l[m], ctx.reach_r[m]
    return bisect.bisect_right(seq, hi) - bisect.bisect_left(seq, lo)


def _dominated(ctx: _Ctx, seq: tuple[int, ...], first: int, last: int) -> int | None:
    """The first position in ``first..last`` that needs cover and meets
    fewer than k members of ``seq``, or None when there is none.

    Total variant: every position needs cover, and a member, which meets
    itself, needs k + 1 hits.  Plain k-domination: members dominate
    themselves and are skipped.  Each position's hits are counted in place
    as ``_hits`` counts them, by two binary searches over ``seq``.
    """
    k, total = ctx.k, ctx.variant == VARIANT_TOTAL
    reach_l, reach_r = ctx.reach_l, ctx.reach_r
    right, left = bisect.bisect_right, bisect.bisect_left
    for m in range(first, last + 1):
        member = m in seq
        if member and not total:
            continue
        if right(seq, reach_r[m]) - left(seq, reach_l[m]) < k + member:
            return m
    return None


def _caps(
    ctx: _Ctx, t: tuple[int, ...], first: int, last: int, ranks: int
) -> list[int] | None:
    """For a chain ``t`` and a range ``first..last`` of its span: caps
    ``B_1 <= ... <= B_ranks`` such that later members ``z_1 < ... <
    z_ranks`` of ``t`` pass the window check over that range iff ``z_j <=
    B_j`` for every j; None when no such members pass.  The caller starts
    the range at the chain's clean position or later: every position
    before it meets as many members of ``t`` as it needs.

    The range lies in ``t``, left of every later member, so ``z_j`` changes
    no membership there and meets a position m iff ``z_j <= reach_r[m]``.
    Since the z rise, the ones meeting m are ``z_1 .. z_c`` for some c, and
    m's deficit d(m) (what it needs less its hits in ``t``) is made up iff
    ``z_{d(m)} <= reach_r[m]``.  So ``B_j`` is the least ``reach_r[m]``
    over the positions with ``d(m) >= j``, which is the first such
    position's, as ``reach_r`` rises with m; nothing passes when some
    ``d(m) > ranks``, or when a cap at or before ``t[-1]`` leaves no room.
    ``fast._best_class`` makes the same argument for the gap cover.  Each
    position's hits in ``t`` are counted in place as ``_hits`` counts them.
    """
    k, total = ctx.k, ctx.variant == VARIANT_TOTAL
    reach_l, reach_r = ctx.reach_l, ctx.reach_r
    right, left = bisect.bisect_right, bisect.bisect_left
    floor = t[-1]
    caps = [ctx.n] * ranks
    short = 0  # caps[:short] are set
    for m in range(first, last + 1):
        member = m in t
        if member and not total:
            continue
        deficit = k + member - (right(t, reach_r[m]) - left(t, reach_l[m]))
        if deficit > short:
            if deficit > ranks or reach_r[m] <= floor:
                return None
            caps[short:deficit] = [reach_r[m]] * (deficit - short)
            short = deficit
    return caps


def _tail_bound(ctx: _Ctx, t: tuple[int, ...], clean: int) -> int:
    """For a chain ``t`` of 2k-1 members, in plain k-domination at k >= 3:
    the bound such that the big node ``t + (x,)`` passes condition (3) iff x
    is at most it.  Every position of ``t``'s span before ``clean`` meets as
    many members of ``t`` as it needs (the small checks apply the same
    rule), so the walk starts there.

    The tail range ``t[k]..x`` lies in ``t`` up to ``t[-1]``, with x its one
    later member (``_caps``).  Past ``t[-1]``, each position m before x
    meets x and needs k-1 members of ``t`` at or right of ``reach_l[m]``.
    It has them iff ``m <= reach_r[t[k]]``, the k-1 largest members being
    ``t[k:]``, so x may be at most the first such m that fails, ``max(
    reach_r[t[k]], t[-1]) + 1``.

    The other bounds read no window, and the enumeration's ``grow`` reads
    them in place.  Total variant: (3) is ``x <= reach_r[t[k-1]]``
    (``_tail_ok``).  Plain k-domination at k <= 2: every x passes, so the
    bound is n, since each position inside a chain's span meets its two
    flanking members, and one past ``t[-1]`` meets ``t[-1]`` and x.
    """
    k, reach_r = ctx.k, ctx.reach_r
    caps = _caps(ctx, t, t[k] if t[k] > clean else clean, t[-1], 1)
    if caps is None:
        return 0
    bound = (reach_r[t[k]] if reach_r[t[k]] > t[-1] else t[-1]) + 1
    return caps[0] if caps[0] < bound else bound


def _tail_ok(ctx: _Ctx, seq: tuple[int, ...]) -> bool:
    """Condition (3): can big node ``seq`` end a component, i.e. be the tail
    of a jump arc?  The answer depends on the node alone."""
    k = ctx.k
    if ctx.variant == VARIANT_TOTAL:
        return seq[-1] <= ctx.reach_r[seq[-k - 1]]
    return _dominated(ctx, seq, seq[k], seq[-1]) is None


def _head_ok(ctx: _Ctx, seq: tuple[int, ...]) -> bool:
    """Condition (4): can big node ``seq`` start a component, i.e. be the
    head of a jump arc?"""
    k = ctx.k
    if ctx.variant == VARIANT_TOTAL:
        return seq[k] <= ctx.reach_r[seq[0]]
    return _dominated(ctx, seq, seq[0], seq[k - 1]) is None


def enumerate_nodes(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    *,
    cap_nodes: int = DEFAULT_NODE_CAP,
) -> list[DagNode]:
    """All DAG nodes in deterministic order: source, sequences in
    lexicographic order, sink.

    Sequences are grown by extending consecutively-intersecting chains, so
    the chain condition prunes before the per-window domination conditions
    are evaluated.  Lexicographic order is topological here: every arc
    strictly increases the leftmost index.

    Three cuts skip chains whose checks cannot pass; none drops a node:

    * Middle caps.  At k >= 3 a chain ``t`` of k+1 members fixes the middle
      ``t[k-1]..t[k]`` of every big node in its subtree, and each later
      member z adds a hit at a middle position m iff ``z <= reach_r[m]``.
      So one walk of the middle gives a cap per rank on the later members
      (``_caps``), and a big node passes the middle check iff each
      later member is within its cap.  A chain whose new member passes its
      cap keeps the caps; one whose member does not has no big node in its
      subtree, and is grown only while its small check is live.
    * Leaf bound.  A chain of 2k-1 members reads its last cap, and every x
      up to it is a big node ``t + (x,)``, all kept as one run.  At k <= 2
      every chain passes the middle check, since each middle position meets
      both middle members, and the bound is the chain's own reach.
    * Small-check subtree cut.  If the small check of ``t`` fails at m and
      ``m < reach_l[t[-1]+1]``, no later member meets m (``reach_l`` only
      rises), so every extension fails at m too, and the subtree's small
      checks are skipped.  Its big nodes are still built.

    Every walk starts at the first position the chain's ancestors found
    short of hits: an extension only adds hits, and its new member lies
    right of every position they cleared, so each small check resumes
    where its parent's stopped.

    The head and tail conditions, (4) and (3), are decided the same way,
    each where its range is fixed.  A chain of k members fixes the head
    ``t[0]..t[k-1]``, so one walk of it caps the k later members of the big
    nodes that pass (4); a member past its cap clears (4) for its subtree,
    whose big nodes are still built.  A chain of 2k-1 bounds the last index
    x that passes (3) (``_tail_bound``).  The total variant's head cap is
    ``_head_ok``'s own rule on member k, and plain k-domination at k <= 2
    passes both.  Each run keeps its head cap and tail bound, which give
    its nodes' role bits (see ``_Plan``), and both engines read them there;
    only ``_e0_arc`` and ``eligible_tail_bigs`` run the literal checks.
    """
    return _Plan(model, k, variant, False, cap_nodes).nodes


def _enumerate_with_ctx(ctx: _Ctx) -> tuple[list[tuple], int]:
    """The enumeration in id order, as runs ``(t, lo, hi, head, tail)``, and
    the node count, summed as the runs are kept.

    A run is the nodes ``t + (x,)`` for ``lo <= x <= hi``, which take
    consecutive ids; the one with last index x has the head bit iff ``x <=
    head`` and the tail bit iff ``x <= tail``, and the big bit iff ``t`` has
    2k-1 members (``_Plan``).  So the head bits of a run are a prefix of
    it, and so are its tail bits.  A chain ``t`` of 2k-1 members keeps its
    big nodes as one run from ``t[-1] + 1``; every other run is one node:
    the source ``((), 0, 0, -1, 0)`` first, each small node ``(parent, x,
    x, x, x)`` and the sink ``((), n+1, n+1, n+1, n)`` last.  No per-node
    tuple or ``DagNode`` is built (``_Plan`` builds them).
    """
    n, k, variant = ctx.n, ctx.k, ctx.variant
    reach_l, reach_r = ctx.reach_l, ctx.reach_r
    smalls = _small_lengths(k, variant)
    total = variant == VARIANT_TOTAL
    parent_len = 2 * k - 1  # a chain one short of a big node
    caps_len = k + 1 if k >= 3 else 0  # at k <= 2 every chain passes the middle check
    heads_len = k if total or k >= 3 else 0  # at k <= 2 every plain head passes
    items: list[tuple] = [((), 0, 0, -1, 0)]  # the source
    size = 2  # the source and the sink

    def grow(
        parent: tuple[int, ...],
        last: int,
        check_small: bool,
        clean: int,
        caps: tuple[int, ...] | None,
        heads: tuple[int, ...] | None,
    ) -> None:
        # The chain t is parent + (last,).  clean: the first position that
        # may lack hits.  caps[i] bounds member i of every big node in the
        # subtree (the middle caps), or None when the subtree has no big
        # node.  heads[i] bounds member i of every big node in the subtree
        # that passes condition (4), or None when none does.
        nonlocal size
        t = parent + (last,)
        q = len(t)
        if check_small and q in smalls:
            m = _dominated(ctx, t, clean, last)
            clean = last + 1 if m is None else m
            if m is None:
                items.append((parent, last, last, last, last))
                size += 1
            elif m < reach_l[last + 1]:
                # No later member meets m, so every extension fails at m.
                check_small = False
        if q == heads_len:
            if total:
                heads = heads[:q] + (reach_r[t[0]],) + heads[q + 1:]
            else:
                bounds = _caps(ctx, t, t[0] if t[0] > clean else clean, last, k)
                heads = None if bounds is None else heads[:q] + tuple(bounds)
        if q == caps_len:
            bounds = _caps(ctx, t, t[k - 1] if t[k - 1] > clean else clean, last, k - 1)
            caps = None if bounds is None else caps[:q] + tuple(bounds)
        top = reach_r[last]
        cap = last if caps is None else caps[q]  # the next member's
        head = last if heads is None else heads[q]
        if q < parent_len:
            for nxt in range(last + 1, top + 1):
                if nxt > cap:
                    # Neither this child nor a later one has a big node.
                    if not check_small:
                        break
                    caps = None
                if nxt > head:
                    heads = None
                grow(t, nxt, check_small, clean, caps, heads)
            return
        if cap < top:  # a compare, not min(): this runs once per chain
            top = cap
        if top <= last:
            return
        if total:
            tail = reach_r[t[k - 1]]
        elif k <= 2:
            tail = n
        else:
            tail = _tail_bound(ctx, t, clean)
        items.append((t, last + 1, top, head, tail))
        size += top - last

    no_caps = (n,) * (2 * k)
    for start in range(1, n + 1):
        grow((), start, True, start, no_caps, no_caps)

    items.append(((), n + 1, n + 1, n + 1, n))  # the sink
    return items, size


def _gap_covered(ctx: _Ctx, tail: tuple[int, ...], heads) -> list:
    """Condition (2) for one tail and many heads: the heads whose members,
    with the tail's, give every gap vertex between the two at least k hits.

    ``tail`` is the tail's sequence and ``heads`` are ``(id, seq)`` pairs,
    kept in the order given; every head must start right of the tail, so
    its gap is ``tail[-1] + 1 .. seq[0] - 1``.  Each end set lies on its
    own side of the gap: the tail members that meet a gap vertex m are the
    ones from ``reach_l[m]`` on (one binary search, as in ``_hits``), and
    the head members that meet it are the ones up to ``reach_r[m]``.  The
    dummies' positions 0 and n+1 lie outside every gap vertex's reach
    range, so they count no hit.

    The gap vertices are walked once per tail, left to right, as far as
    the heads' gaps reach, and only the ones the tail leaves short are
    kept, with what each needs: ``need = k - (tail hits) > 0``.  Each head
    is checked at every short vertex of its own gap.  Its members rise, so
    it meets ``need`` of them at m iff its member ``need - 1`` (from 0) is
    at most ``reach_r[m]``: one index compare, and a head with fewer than
    ``need`` members fails.
    """
    reach_l, reach_r = ctx.reach_l, ctx.reach_r
    base = ctx.k - len(tail)
    m = tail[-1] + 1  # the first gap vertex not walked yet
    short: list[tuple[int, int, int]] = []  # (need - 1, reach_r[v], v), by v
    covered = []
    for head in heads:
        seq = head[1]
        lo, size = seq[0], len(seq)
        while m < lo:
            need = base + bisect.bisect_left(tail, reach_l[m])
            if need > 0:
                short.append((need - 1, reach_r[m], m))
            m += 1
        met = True
        for i, r, v in short:
            if v >= lo:  # past the head's gap
                break
            if i >= size or seq[i] > r:
                met = False
                break
        if met:
            covered.append(head)
    return covered


def _e0_arc(ctx: _Ctx, s: DagNode, s2: DagNode) -> bool:
    if s.kind == KIND_SINK or s2.kind == KIND_SOURCE:
        return False
    hi, lo2 = s.hi, s2.lo
    # (1) strictly ordered and disjoint boundary intervals
    if not (hi < lo2 and ctx.reach_r[hi] < lo2):
        return False
    # (2) everything in the gap is covered by the two end sets
    if not _gap_covered(ctx, s.seq, [(s2.id, s2.seq)]):
        return False
    # (3)/(4) window conditions on big endpoints
    if s.kind == KIND_BIG and not _tail_ok(ctx, s.seq):
        return False
    return s2.kind != KIND_BIG or _head_ok(ctx, s2.seq)


def _e0_window(
    ctx: _Ctx, *, head_lo: int | None = None, tail_hi: int | None = None
) -> tuple[int, int]:
    """Inclusive bounds on the far end of any jump arc with one end fixed.

    Given ``head_lo`` (``s.lo`` of a head ``s``) return the range of every
    ``t.hi`` with ``t -> s`` a jump arc; given ``tail_hi`` (``t.hi``) return
    the range of every ``s.lo``.  The fixed end must be one a jump arc can
    have: never the source as a head, nor the sink as a tail.  The arc's two
    conditions pin the window:

    * the ends are disjoint, so ``t.hi <= g`` with ``g = reach_l[s.lo] - 1``,
      the last position that misses ``s.lo``;
    * every gap vertex hits ``k >= 1`` members of the two end sets.  If
      ``t.hi < g`` then ``g`` is a gap vertex that misses all of ``s`` (it
      misses ``s.lo`` and the rest of ``s`` lies further right), so it must
      hit ``t``, which needs ``t.hi >= reach_l[g]``.

    Hence ``reach_l[g] <= t.hi <= g``, and mirrored, with
    ``g = reach_r[t.hi] + 1``, ``g <= s.lo <= reach_r[g]``.  Probing only
    inside the window never skips an arc, and the window is about one clique
    wide.
    """
    if tail_hi is None:
        g = ctx.reach_l[head_lo] - 1
        return ctx.reach_l[g], g
    g = ctx.reach_r[tail_hi] + 1
    return g, ctx.reach_r[g]


def is_e0_arc(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    s: DagNode,
    s2: DagNode,
) -> bool:
    """Jump-arc predicate between two nodes of the same derived digraph."""
    return _e0_arc(_Ctx(model, k, variant), s, s2)


def is_e1_arc(k: int, s: DagNode, s2: DagNode) -> bool:
    """Slide-arc predicate: both big, head = tail shifted right by one."""
    check_k(k)
    if s.kind != KIND_BIG or s2.kind != KIND_BIG:
        return False
    if len(s.seq) != 2 * k or len(s2.seq) != 2 * k:
        return False
    return s.seq[1:] == s2.seq[:-1]


def eligible_tail_bigs(
    nodes,
    model: ProperIntervalModel,
    k: int,
    variant: str,
) -> frozenset[int]:
    """Big nodes that can start a jump arc (the per-node tail condition).

    Membership depends only on the node itself, which is what lets the fast
    engine treat one member of a suffix class as a representative for all.
    No engine or diagnostic calls it (they read the tail bit, ``_Plan``);
    it is kept as the literal cross-check of that bit for
    ``perfbench/run.py``'s breakdown and its tests.
    """
    ctx = _Ctx(model, k, variant)
    return frozenset(
        nd.id for nd in nodes if nd.kind == KIND_BIG and _tail_ok(ctx, nd.seq)
    )


def arc_length(s: DagNode, s2: DagNode, cls: str, costs=None) -> Fraction:
    """Length of an arc of the stated class.

    Unweighted: a jump arc pays the full head sequence, a slide arc pays 1
    for the single new vertex, and arcs into the sink are free.  Weighted:
    the same shape with per-vertex costs; the slide arc pays the cost of the
    vertex it appends.  ``costs`` is a per-vertex sequence (exact rationals
    or integer units) or None for unit costs.  This is the reference the
    tests hold ``_Plan.arcs``'s lengths to.
    """
    if cls == ARC_E1:
        k2 = len(s.seq)
        if k2 % 2 or not is_e1_arc(k2 // 2, s, s2):
            raise NotArcError("not a slide arc")
        return Fraction(1 if costs is None else costs[s2.seq[-1] - 1])
    if cls == ARC_E0:
        if s.kind == KIND_SINK or s2.kind == KIND_SOURCE or not s.hi < s2.lo:
            raise NotArcError("not a jump arc")
        seq = s2.real_seq  # empty for the sink
        return Fraction(len(seq) if costs is None else sum(costs[i - 1] for i in seq))
    raise NotArcError(f"unknown arc class {cls!r}")


class _Plan:
    """What both DAG engines search, built once per solve: the context, the
    budget check (the only one), the nodes and the cost table.

    The enumeration is kept in id order as ``items``, runs ``(t, lo, hi,
    head, tail)`` of the nodes ``t + (x,)`` for ``lo <= x <= hi``
    (``_enumerate_with_ctx``), and ``size`` is the node count.  A role
    byte says what a node can be in the search.  Bit 0 (``_HEAD``) says it
    can head a jump arc: every small node, the sink, and a big node that
    passes condition (4).  Bit 1 (``_TAIL``) says it can be a jump arc's
    tail: every small node, the source, and a big node that passes
    condition (3).  Bit 2 (``_BIG``) says it is big, so it takes part in
    slide arcs.  Every bit comes from the node's run: bit 0 iff ``x <=
    head``, bit 1 iff ``x <= tail`` and bit 2 iff ``t`` has 2k-1 members,
    which gives the sink 1, the source 2 and a small node 3.  Kind strings
    are built only where a ``DagNode`` is (``_KIND_OF_ROLE``).  Ids follow
    lexicographic order, so they are a topological order and sort the nodes
    by ``lo``.  ``fast._sweep`` reads the items and ``size``; the per-id lists ``seqs`` and ``roles``
    (a ``bytearray``), which the naive engine, ``nodes`` and the tests read,
    and the naive engine's arc index, with the per-item list ``starts`` it
    reads (``starts[j]`` is the id of item j's first node, and
    ``starts[-1]`` is ``size``), are cached properties, built from the
    items when first read.  Both engines hand ``solution`` the id path they
    find, or None, which builds a ``DagNode`` only for the nodes on it.

    The searches run in integer units: ``scale`` is the least common
    multiple of the cost denominators, a cost ``c`` is the integer ``c *
    scale``, and a path length in units divided by ``scale`` is its exact
    rational length.  An unweighted plan, or one whose model has no costs,
    charges every vertex 1 with ``scale`` 1.  ``units[p]`` is the cost of
    position p in units, 0 at the dummies' positions 0 and n+1, and it is
    the plan's one cost table: a slide arc into big node i pays
    ``units[seqs[i][-1]]``, and a jump arc into node i pays the sum of
    ``units`` over ``seqs[i]``, which is 0 for the sink.  Each search sums a
    head's jump charge where it reads it: ``_out_arcs`` once per head in its
    index, ``fast._sweep`` once per run whose heads some class reaches.  A
    path pays each vertex once, so a length at or above ``unreachable``,
    ``sum(units) + 1``, marks a node no path reaches.
    """

    def __init__(
        self, model: ProperIntervalModel, k: int, variant: str, weighted: bool,
        cap_nodes: int,
    ):
        ctx = self.ctx = _Ctx(model, k, variant)
        if _chain_count(ctx, cap_nodes) > cap_nodes:
            raise BudgetError(
                f"chain count exceeds cap {cap_nodes} "
                f"(n={ctx.n}, k={k}, variant={variant})"
            )
        self.model = model
        try:
            self.items, self.size = _enumerate_with_ctx(ctx)
        except RecursionError:
            # grow recurses once per member of a chain, up to 2k-1 deep.
            raise BudgetError(
                f"a chain is deeper than the recursion limit "
                f"{sys.getrecursionlimit()} allows (n={ctx.n}, k={k}, variant={variant})"
            ) from None
        costs = model.costs if weighted and model.costs is not None else (1,) * model.n
        scale = self.scale = lcm(*(c.denominator for c in costs))
        self.units = [0, *(c.numerator * (scale // c.denominator) for c in costs), 0]
        self.unreachable = sum(self.units) + 1

    @cached_property
    def starts(self) -> list[int]:
        """Each item's first id, by item, and then ``size``."""
        return [*accumulate((hi - lo + 1 for _, lo, hi, _, _ in self.items), initial=0)]

    @cached_property
    def _flat(self) -> tuple[list[tuple[int, ...]], bytearray]:
        """The per-id lists ``seqs`` and ``roles``, built from the items."""
        items, big_len = self.items, 2 * self.ctx.k - 1
        seqs = [t + (x,) for t, lo, hi, _, _ in items for x in range(lo, hi + 1)]
        roles = bytearray([
            (_BIG if len(t) == big_len else 0) | (x <= head) | (x <= tail) << 1
            for t, lo, hi, head, tail in items for x in range(lo, hi + 1)
        ])
        return seqs, roles

    @property
    def seqs(self) -> list[tuple[int, ...]]:
        """Each node's sequence, by id."""
        return self._flat[0]

    @property
    def roles(self) -> bytearray:
        """Each node's role byte, by id."""
        return self._flat[1]

    @property
    def nodes(self) -> list[DagNode]:
        """Every node as a ``DagNode``, by id."""
        kinds = map(_KIND_OF_ROLE.__getitem__, self.roles)
        return list(map(DagNode, range(self.size), kinds, self.seqs))

    def digraph(self) -> DerivedDigraph:
        """Every node and arc, with exact rational arc lengths."""
        arcs = tuple(
            DagArc(tail, head, cls, Fraction(length, self.scale))
            for tail, head, cls, length in self.arcs()
        )
        return DerivedDigraph(tuple(self.nodes), arcs)

    def solution(
        self, path: list[int] | None, length: int, engine: str, stats: dict[str, int]
    ) -> tuple[Solution, list[DagNode] | None]:
        """The feasible answer for a source-to-sink path given by node ids,
        of ``length`` in the plan's units, and the path as ``DagNode``s:
        the only ones a search builds.  A path's ids rise, so one walk over
        the items, counting their first ids as it goes, finds each id's
        item, and no per-id or per-item list is read.  A ``path`` of None
        says the sink is unreachable, and gives the infeasible answer and
        None."""
        if path is None:
            return infeasible_solution(engine, stats), None
        size, big_len = self.size, 2 * self.ctx.k - 1
        node_path = []
        ids = iter(path)
        i = next(ids)
        start = 0  # the item's first id
        for t, lo, hi, head, tail in self.items:
            end = start + hi - lo + 1
            while i < end:
                x = lo + i - start
                role = (_BIG if len(t) == big_len else 0) | (x <= head) | (x <= tail) << 1
                node_path.append(DagNode(i, _KIND_OF_ROLE[role], t + (x,)))
                i = next(ids, size)  # size: no id left
            start = end
        vset = path_to_vertex_set(node_path, self.model)
        cost = Fraction(length, self.scale)
        return Solution(vset, cost, True, engine, stats), node_path

    def arcs(self) -> list[tuple[int, int, str, int]]:
        """Every arc as ``(tail, head, class, length in units)``, sorted by
        (tail, head), for ``digraph`` and the tests; ``search_naive`` builds
        no such list, and the plan keeps none.

        One pass over the tails in id order lists each tail's out-arcs
        (``_out_arcs``), slide arcs before jump arcs, so the list is built
        sorted.
        """
        units, out_arcs = self.units, self._out_arcs
        arcs = []
        for tail, (seq, role) in enumerate(zip(self.seqs, self.roles)):
            start, xs, jumps = out_arcs(seq, role)
            arcs += [(tail, head, ARC_E1, units[x]) for head, x in enumerate(xs, start)]
            arcs += [(tail, head, ARC_E0, charge) for head, _, charge in jumps]
        return arcs

    @cached_property
    def _arc_index(self) -> tuple[dict, list, list[int]]:
        """What ``_out_arcs`` looks up: each run by its chain, as its first
        id and its range of last indices; the jump-arc heads, as ``(id, seq,
        charge)`` in id order and so by lo, which are the ids with the head
        bit, each charged once; and their los."""
        units, big_len = self.units, 2 * self.ctx.k - 1
        runs = {
            t: (start, range(lo, hi + 1))
            for (t, lo, hi, _, _), start in zip(self.items, self.starts)
            if len(t) == big_len
        }
        by_lo = [
            (i, s, sum(map(units.__getitem__, s)))
            for i, (s, r) in enumerate(zip(self.seqs, self.roles))
            if r & _HEAD
        ]
        return runs, by_lo, [s[0] for _, s, _ in by_lo]

    def _out_arcs(self, seq: tuple[int, ...], role: int) -> tuple[int, range, list]:
        """The out-arcs of the node with sequence ``seq`` and role byte
        ``role``, in head id order, as ``(start, xs, jumps)``: the slide
        heads are the ids from ``start`` on, one per last index in ``xs``,
        and ``jumps`` are the jump heads as ``(id, seq, charge)``.

        The slide heads, the big nodes that begin with a big tail's last
        2k-1 indices, are exactly the run whose chain is those indices,
        looked up by that chain; they start at the tail's second index, left
        of every jump head.  Jump arcs are found with each part of the test
        evaluated at the level it depends on: conditions (4) and (3) are the
        head and tail bits of the role byte, so the heads are the ids with
        the head bit, never the source, and the tails the ids with the tail
        bit, never the sink; the gap cover is walked once per tail, the gap
        vertices it leaves short and what each needs, and each head is
        checked at those (``_gap_covered``, which keeps the heads' id
        order).  Only the heads in the tail's window are scanned
        (``_e0_window``), and every one of them passes condition (1).  The
        run index and the heads by ``lo`` are built once per plan
        (``_arc_index``).
        """
        runs, by_lo, los = self._arc_index
        start, xs = (role & _BIG and runs.get(seq[1:])) or _NO_SLIDES
        if not role & _TAIL:  # the sink, or a big node that fails (3)
            return start, xs, []
        # A head's lo lies past the tail's reach, and no further than the
        # reach of the first position past it, or that position would be a
        # gap vertex no end set hits (see _e0_window).  Since lo_min =
        # reach_r[seq[-1]] + 1, condition (1) holds for every head in the
        # window.
        lo_min, lo_max = _e0_window(self.ctx, tail_hi=seq[-1])
        first = bisect.bisect_left(los, lo_min)
        last = bisect.bisect_right(los, lo_max, first)
        return start, xs, _gap_covered(self.ctx, seq, by_lo[first:last])


def engine_plan(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    weighted: bool = False,
    *,
    cap_nodes: int = DEFAULT_NODE_CAP,
) -> _Plan | None:
    """The plan ``search_fast`` and ``search_naive`` search, or None when
    the instance is infeasible outright: a total k-dominating set exists iff
    every vertex has at least k neighbors.  That test reads the model's
    reach arrays and runs before the budget check, so such an instance is
    answered at any size."""
    check_k(k)  # the shortcut reads k before the plan's context checks it
    if variant == VARIANT_TOTAL and model.n and model_min_degree(model) < k:
        return None
    return _Plan(model, k, variant, weighted, cap_nodes)


def build_digraph(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    weighted: bool = False,
    *,
    cap_nodes: int = DEFAULT_NODE_CAP,
) -> DerivedDigraph:
    """Materialize every node and every arc (what ``--dump-dag`` writes)."""
    return _Plan(model, k, variant, weighted, cap_nodes).digraph()


def path_to_vertex_set(path, model: ProperIntervalModel | None = None) -> VertexSet:
    """Union of interval indices over the internal nodes of a source-sink path.

    Structural path validity is checked (kinds, strict left-to-right
    progress, arc shape); full arc-condition validation needs the digraph.
    With a model, indices are mapped to the caller's numbering.
    """
    if len(path) < 2 or path[0].kind != KIND_SOURCE or path[-1].kind != KIND_SINK:
        raise NotPathError("path must run from source to sink")
    for a, b in zip(path, path[1:]):
        if a.kind == KIND_SINK or b.kind == KIND_SOURCE:
            raise NotPathError("dummy nodes out of place")
        slide = (
            a.kind == KIND_BIG
            and b.kind == KIND_BIG
            and len(a.seq) == len(b.seq)
            and a.seq[1:] == b.seq[:-1]
        )
        if not slide and not a.hi < b.lo:
            raise NotPathError(f"nodes {a.seq} -> {b.seq} cannot form an arc")
    picked: set[int] = set()
    for nd in path[1:-1]:
        picked.update(nd.real_seq)
    if model is not None:
        return VertexSet.of(model.to_original(picked))
    return VertexSet.of(picked)


def solve_naive(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    weighted: bool = False,
    *,
    cap_nodes: int = DEFAULT_NODE_CAP,
) -> Solution:
    """Shortest path over the derived digraph, every arc of it tested.

    Among equal-cost paths the lexicographically smallest node-id sequence
    wins, making the reported set deterministic.  One backward pass, over
    the tails in reverse id order, relaxes each tail's out-arcs as they are
    found and keeps none of them; it gives each node its least length to
    the sink and the lowest-id head of an optimal arc out of it, and the
    path follows those heads from the source.  Every path ends at the sink,
    the highest id, so the lowest head at each step gives the least id
    sequence.
    """
    return search_naive(engine_plan(model, k, variant, weighted, cap_nodes=cap_nodes))[0]


def search_naive(plan: _Plan | None) -> tuple[Solution, list[DagNode] | None]:
    """The one-pass least-path search over a plan from ``engine_plan`` (see
    ``solve_naive``): the answer and the least optimal path as ``DagNode``s,
    or the infeasible answer and None when the plan is None or the sink is
    unreachable.

    The tails are searched in reverse id order, and each tail's out-arcs
    are relaxed as ``_Plan._out_arcs`` finds them: every arc is tested, and
    none is kept, so no arc list is built.  ``stats["arcs"]`` counts the
    arcs relaxed, which are the arcs of ``_Plan.arcs``.  A node with no
    path to the sink keeps the length ``plan.unreachable``."""
    if plan is None:
        return infeasible_solution("naive"), None
    units, seqs, roles, out_arcs = plan.units, plan.seqs, plan.roles, plan._out_arcs
    unreachable = plan.unreachable
    to_sink = [unreachable] * plan.size
    to_sink[-1] = 0
    nxt = [0] * plan.size
    relaxed = 0
    # Ids are topological, so every head's length is final before its
    # tails are searched; the sink, the last id, has no out-arcs.  A tail's
    # heads come in rising id order, so ``<`` keeps the lowest-id head of
    # an optimal arc out of it.
    for tail in range(plan.size - 2, -1, -1):
        start, xs, jumps = out_arcs(seqs[tail], roles[tail])
        relaxed += len(xs) + len(jumps)
        best, best_head = unreachable, 0
        for head, x in enumerate(xs, start):
            d = to_sink[head] + units[x]
            if d < best:
                best, best_head = d, head
        for head, _, charge in jumps:
            d = to_sink[head] + charge
            if d < best:
                best, best_head = d, head
        to_sink[tail], nxt[tail] = best, best_head
    # The path follows ``nxt`` from the source, when the sink is reachable.
    path = None if to_sink[0] == unreachable else [0]
    while path and path[-1] != plan.size - 1:
        path.append(nxt[path[-1]])
    stats = {"nodes": plan.size, "arcs": relaxed}
    return plan.solution(path, to_sink[0], "naive", stats)


def dump_digraph(dg: DerivedDigraph) -> str:
    """Deterministic text dump: node lines then arc lines."""
    lines = []
    for nd in dg.nodes:
        idx = " ".join(str(i) for i in nd.seq)
        lines.append(f"{nd.id} {nd.kind} {idx}")
    for arc in dg.arcs:
        lines.append(f"{arc.tail} {arc.head} {arc.cls} {format_rational(arc.length)}")
    return "\n".join(lines) + "\n"

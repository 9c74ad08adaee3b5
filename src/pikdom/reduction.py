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
node appends every last index within its cap at once, and a chain whose
small check fails at a position no later member can meet checks no small
node in its subtree.  The head and tail conditions are decided the same
way where their ranges are fixed, the head at k members and the tail at
2k-1, so each big node's answers are kept as flags and the fast engine
runs neither check.

Both DAG engines search one ``_Plan`` (context, budget check, the nodes as
per-id lists, integer arc charges) from ``engine_plan``, which first
answers the total variant's min-degree shortcut, and differ only in the
search: ``search_naive`` materializes every arc and finds the least path in
two passes over them, ``fast.search_fast`` runs the suffix-class DP.  Both
hand the plan an id path, and the plan builds a ``DagNode`` only for the
nodes on it (``_Plan.solution``).  ``enumerate_nodes`` and
``build_digraph`` read the same plan.  ``naive`` finds
the jump arcs with the literal test, split by what each part depends on:
the tail and head conditions once per node, the gap cover per (tail, head)
pair, vertex by vertex, against needs computed once per tail
(``_gap_covered``, which ``_e0_arc`` also calls).  It uses no key
thresholds and no class sharing, so the differential tests check the fast
engine's derivation of both.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
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

ARC_E0 = "E0"
ARC_E1 = "E1"

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
    variant: str
    k: int
    weighted: bool
    n: int


class _Ctx:
    """Precomputed intersection ranges over the dummy-extended index line.

    ``reach_r[i]``/``reach_l[i]`` bound the contiguous block of positions
    whose intervals intersect position i; in a sorted proper family every
    intersection test reduces to a range check.  They are the model's own
    reach arrays (``ProperIntervalModel.reach_l``/``reach_r``, swept once
    when the model was built) shifted up by one; no endpoint is compared
    here.  The source and sink intervals meet nothing else, so positions 0
    and n+1 each reach only themselves.
    """

    __slots__ = ("n", "k", "variant", "reach_l", "reach_r")

    def __init__(self, model: ProperIntervalModel, k: int, variant: str):
        check_k(k)
        check_variant(variant)
        self.n = model.n
        self.k = k
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
    costs O(min(n, k)) whatever k is."""
    first = _small_lengths(k, variant).start
    return 2 + sum(comb(n, q) for q in range(first, min(n, 2 * k) + 1))


def _hits(ctx: _Ctx, seq: tuple[int, ...], m: int) -> int:
    """How many members of the sorted sequence ``seq`` meet position m, m
    itself included when it is a member: they are the members inside m's
    reach range."""
    lo, hi = ctx.reach_l[m], ctx.reach_r[m]
    return bisect.bisect_right(seq, hi) - bisect.bisect_left(seq, lo)


def _dominated(ctx: _Ctx, seq: tuple[int, ...], first: int, last: int) -> int | None:
    """The first position in ``first..last`` that needs cover and meets
    fewer than k members of ``seq``, or None when there is none.

    Total variant: every position needs cover, and a member, which meets
    itself, needs k + 1 hits.  Plain k-domination: members dominate
    themselves and are skipped.
    """
    k, total = ctx.k, ctx.variant == VARIANT_TOTAL
    for m in range(first, last + 1):
        member = m in seq
        if member and not total:
            continue
        if _hits(ctx, seq, m) < k + member:
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
    ``fast._floor_walk`` makes the same argument for the gap cover.
    """
    k, total, reach_r = ctx.k, ctx.variant == VARIANT_TOTAL, ctx.reach_r
    floor = t[-1]
    caps = [ctx.n] * ranks
    short = 0  # caps[:short] are set
    for m in range(first, last + 1):
        member = m in t
        if member and not total:
            continue
        deficit = k + member - _hits(ctx, t, m)
        if deficit > short:
            if deficit > ranks or reach_r[m] <= floor:
                return None
            caps[short:deficit] = [reach_r[m]] * (deficit - short)
            short = deficit
    return caps


def _tail_bound(ctx: _Ctx, t: tuple[int, ...], clean: int) -> int:
    """For a chain ``t`` of 2k-1 members: the bound such that the big node
    ``t + (x,)`` passes condition (3) iff x is at most it.  Every position
    of ``t``'s span before ``clean`` meets as many members of ``t`` as it
    needs (the small checks apply the same rule), so the walk starts there.

    The tail range ``t[k]..x`` lies in ``t`` up to ``t[-1]``, with x its one
    later member (``_caps``).  Past ``t[-1]``, each position m before x
    meets x and needs k-1 members of ``t`` at or right of ``reach_l[m]``.
    It has them iff ``m <= reach_r[t[k]]``, the k-1 largest members being
    ``t[k:]``, so x may be at most the first such m that fails, ``max(
    reach_r[t[k]], t[-1]) + 1``.

    Total variant: (3) reads no window (``_tail_ok``).  Plain k-domination
    at k <= 2: it passes, since each position inside a chain's span meets
    its two flanking members, and one past ``t[-1]`` meets ``t[-1]`` and x.
    """
    n, k, reach_r = ctx.n, ctx.k, ctx.reach_r
    if ctx.variant == VARIANT_TOTAL:
        return reach_r[t[k - 1]]
    if k <= 2:
        return n
    caps = _caps(ctx, t, max(t[k], clean), t[-1], 1)
    return 0 if caps is None else min(caps[0], max(reach_r[t[k]], t[-1]) + 1)


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
      up to it is a big node ``t + (x,)``.  At k <= 2 every chain passes
      the middle check, since each middle position meets both middle
      members, and the bound is the chain's own reach.
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
    passes both.  The plan keeps the answers as ``flags`` (see ``_Plan``);
    the naive engine runs the literal checks instead, as does
    ``eligible_tail_bigs``.
    """
    return _Plan(model, k, variant, False, cap_nodes).nodes


def _enumerate_with_ctx(
    ctx: _Ctx,
) -> tuple[list[tuple[int, ...]], list[str], bytearray]:
    """The enumeration indexed by node id: each node's sequence and kind as
    lists, and its flags as a ``bytearray`` (``_Plan`` describes them).
    The source ``(0,)`` comes first and the sink ``(n+1,)`` last; no
    ``DagNode`` is built (``_Plan.nodes`` builds them)."""
    n, k, variant = ctx.n, ctx.k, ctx.variant
    reach_l, reach_r = ctx.reach_l, ctx.reach_r
    smalls = _small_lengths(k, variant)
    total = variant == VARIANT_TOTAL
    parent_len = 2 * k - 1  # a chain one short of a big node
    caps_len = k + 1 if k >= 3 else 0  # at k <= 2 every chain passes the middle check
    heads_len = k if total or k >= 3 else 0  # at k <= 2 every plain head passes
    seqs: list[tuple[int, ...]] = [(0,)]
    kinds: list[str] = [KIND_SOURCE]
    flags = bytearray(1)

    def grow(
        seq: list[int],
        check_small: bool,
        clean: int,
        caps: tuple[int, ...] | None,
        heads: tuple[int, ...] | None,
    ) -> None:
        # clean: the first position that may lack hits.  caps[i] bounds
        # member i of every big node in the subtree (the middle caps), or
        # None when the subtree has no big node.  heads[i] bounds member i
        # of every big node in the subtree that passes condition (4), or
        # None when none does.
        t = tuple(seq)
        last = t[-1]
        q = len(t)
        if check_small and q in smalls:
            m = _dominated(ctx, t, clean, last)
            clean = last + 1 if m is None else m
            if m is None:
                seqs.append(t)
                kinds.append(KIND_SMALL)
                flags.append(0)
            elif m < reach_l[last + 1]:
                # No later member meets m, so every extension fails at m.
                check_small = False
        if q == heads_len:
            if total:
                heads = heads[:q] + (reach_r[t[0]],) + heads[q + 1:]
            else:
                bounds = _caps(ctx, t, max(t[0], clean), last, k)
                heads = None if bounds is None else heads[:q] + tuple(bounds)
        if q == caps_len:
            bounds = _caps(ctx, t, max(t[k - 1], clean), last, k - 1)
            caps = None if bounds is None else caps[:q] + tuple(bounds)
        top = min(reach_r[last], n)
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
                seq.append(nxt)
                grow(seq, check_small, clean, caps, heads)
                seq.pop()
            return
        top = min(top, cap)
        if top <= last:
            return
        tail = _tail_bound(ctx, t, clean)
        nexts = range(last + 1, top + 1)
        seqs.extend([t + (nxt,) for nxt in nexts])
        kinds.extend([KIND_BIG] * len(nexts))
        if head >= top and tail >= top:
            flags.extend([3] * len(nexts))
        else:
            flags.extend([(x <= head) | (x <= tail) << 1 for x in nexts])

    # No chain has more than n members, so n + 1 caps cover every member a
    # chain reads; capping there keeps a huge k from building a huge tuple.
    no_caps = (n,) * min(2 * k, n + 1)
    for start in range(1, n + 1):
        grow([start], True, start, no_caps, no_caps)

    seqs.append((n + 1,))
    kinds.append(KIND_SINK)
    flags.append(0)
    return seqs, kinds, flags


def _gap_covered(ctx: _Ctx, tail: tuple[int, ...], heads) -> list:
    """Condition (2) for one tail and many heads: the heads whose members,
    with the tail's, give every gap vertex between the two at least k hits.

    ``tail`` is the tail's sequence and ``heads`` are ``(id, seq)`` pairs;
    every head must start right of the tail, so its gap is ``tail[-1] + 1 ..
    seq[0] - 1``.  Each end set lies on its own side of the gap, so one
    binary search counts its hits at a gap vertex m (``_hits``): the tail
    members from ``reach_l[m]`` on, the head members up to ``reach_r[m]``.
    The dummies' positions 0 and n+1 lie outside every gap vertex's reach
    range, so they count no hit.  What m needs from a head, k less the
    tail's hits, is worked out once per tail, when the first head's gap
    reaches m.
    """
    reach_l, reach_r = ctx.reach_l, ctx.reach_r
    first = tail[-1] + 1
    base = ctx.k - len(tail)
    needs: list[int] = []  # by gap vertex, from ``first`` on
    covered = []
    for head in heads:
        seq = head[1]
        for m in range(first, seq[0]):
            if m - first == len(needs):
                needs.append(base + bisect.bisect_left(tail, reach_l[m]))
            if bisect.bisect_right(seq, reach_r[m]) < needs[m - first]:
                break
        else:
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
    No engine or diagnostic calls it (they read bit 1 of ``_Plan.flags``);
    it is kept for ``perfbench/run.py``'s breakdown and its tests.
    """
    ctx = _Ctx(model, k, variant)
    return frozenset(
        nd.id for nd in nodes if nd.kind == KIND_BIG and _tail_ok(ctx, nd.seq)
    )


def _jump_length(head: DagNode, costs):
    """A jump arc pays for every vertex of its head; arcs into the sink are free.

    ``costs`` is a per-vertex sequence (exact rationals or integer units) or
    None for unit costs; the charge has the costs' number type, ``int`` when
    unweighted.  The source is never a head; its charge is its length when
    unweighted and 0 with costs, since its interval has none.
    """
    if head.kind == KIND_SINK:
        return 0
    if costs is None:
        return len(head.seq)
    return sum(costs[i - 1] for i in head.real_seq)


def arc_length(s: DagNode, s2: DagNode, cls: str, costs=None) -> Fraction:
    """Length of an arc of the stated class.

    Unweighted: a jump arc pays the full head sequence, a slide arc pays 1
    for the single new vertex, and arcs into the sink are free.  Weighted:
    the same shape with per-vertex costs; the slide arc pays the cost of the
    vertex it appends.
    """
    if cls == ARC_E1:
        k2 = len(s.seq)
        if k2 % 2 or not is_e1_arc(k2 // 2, s, s2):
            raise NotArcError("not a slide arc")
        return Fraction(1 if costs is None else costs[s2.seq[-1] - 1])
    if cls == ARC_E0:
        if s.kind == KIND_SINK or s2.kind == KIND_SOURCE or not s.hi < s2.lo:
            raise NotArcError("not a jump arc")
        return Fraction(_jump_length(s2, costs))
    raise NotArcError(f"unknown arc class {cls!r}")


class _Plan:
    """What both DAG engines search, built once per solve: the context, the
    budget check (the only one), the nodes and the arc charges.

    The enumeration is kept as per-id lists: ``seqs[i]`` and ``kinds[i]``
    are node i's sequence and kind (``_enumerate_with_ctx``).  Ids follow
    lexicographic order, so they are a topological order and sort the nodes
    by ``lo``.  Both engines search these lists and hand ``solution`` the id
    path they find, which builds a ``DagNode`` only for the nodes on it;
    ``nodes`` builds every one, for ``digraph`` and ``enumerate_nodes``.
    ``flags`` is a ``bytearray``: ``flags[i]`` holds big node i's window
    conditions, decided by the enumeration's caps and tail bounds: bit 0
    is condition (4), it can head a jump arc, and bit 1 is condition (3),
    it can be a jump arc's tail.  Every other node's flags are 0.

    The searches run in integer units: ``scale`` is the least common
    multiple of the cost denominators (1 when unweighted), a cost ``c`` is
    the integer ``c * scale``, and a path length in units divided by
    ``scale`` is its exact rational length.  ``units[p]`` is the cost of
    position p in units, 0 at the dummies' positions 0 and n+1, so a slide
    arc into big node i pays ``units[seqs[i][-1]]``.  ``jump[i]`` is node
    i's charge as the head of a jump arc, as ``_jump_length`` defines it:
    the sum of its units, or its length when unweighted, and 0 for the sink.
    """

    __slots__ = (
        "ctx", "model", "weighted", "seqs", "kinds", "flags", "scale", "units",
        "jump", "_arcs",
    )

    def __init__(
        self, model: ProperIntervalModel, k: int, variant: str, weighted: bool,
        cap_nodes: int,
    ):
        ctx = self.ctx = _Ctx(model, k, variant)
        if projected_node_count(ctx.n, k, variant) > cap_nodes:
            raise BudgetError(
                f"projected node count exceeds cap {cap_nodes} "
                f"(n={ctx.n}, k={k}, variant={variant})"
            )
        self.model = model
        self.weighted = weighted
        self.seqs, self.kinds, self.flags = _enumerate_with_ctx(ctx)
        if weighted:
            costs = model.costs if model.costs is not None else (1,) * model.n
            scale = self.scale = lcm(*(c.denominator for c in costs))
            units = [0, *(c.numerator * (scale // c.denominator) for c in costs), 0]
            self.jump = [sum(map(units.__getitem__, seq)) for seq in self.seqs]
        else:
            self.scale = 1
            units = [0, *(1,) * model.n, 0]
            self.jump = [len(seq) for seq in self.seqs]
        self.jump[-1] = 0  # arcs into the sink are free
        self.units = units
        self._arcs: list[tuple[int, int, str, int]] | None = None

    @property
    def nodes(self) -> list[DagNode]:
        """Every node as a ``DagNode``, by id."""
        return list(map(DagNode, range(len(self.seqs)), self.kinds, self.seqs))

    def digraph(self) -> DerivedDigraph:
        """Every node and arc, with exact rational arc lengths."""
        ctx = self.ctx
        arcs = tuple(
            DagArc(tail, head, cls, Fraction(length, self.scale))
            for tail, head, cls, length in self.arcs()
        )
        return DerivedDigraph(
            tuple(self.nodes), arcs, ctx.variant, ctx.k, self.weighted, ctx.n
        )

    def solution(
        self, path: list[int], length: int, engine: str, stats: dict[str, int]
    ) -> tuple[Solution, list[DagNode]]:
        """The feasible answer for a source-to-sink path given by node ids,
        of ``length`` in the plan's units, and the path as ``DagNode``s:
        the only ones a search builds."""
        node_path = [DagNode(i, self.kinds[i], self.seqs[i]) for i in path]
        vset = path_to_vertex_set(node_path, self.model)
        cost = Fraction(length, self.scale)
        return Solution(vset, cost, True, engine, stats), node_path

    def arcs(self) -> list[tuple[int, int, str, int]]:
        """Every arc as ``(tail, head, class, length in units)``, sorted by
        (tail, head).

        Slide arcs come from an index of the big nodes by their last 2k-1
        indices.  Jump arcs are found by a scan per tail, with each part of
        the test evaluated at the level it depends on: condition (4) once per
        head, condition (3) once per tail, the tail's side of the gap cover
        once per tail, and the head's side per pair (``_gap_covered``).  Only
        the heads in the tail's window are scanned (``_e0_window``), and
        every one of them passes condition (1).  They are built on the first
        call and kept for later ones.
        """
        if self._arcs is None:
            self._arcs = self._build_arcs()
        return self._arcs

    def _build_arcs(self) -> list[tuple[int, int, str, int]]:
        ctx, seqs, kinds, units = self.ctx, self.seqs, self.kinds, self.units
        # Slide arcs: a tail's last 2k-1 indices are its head's first 2k-1.
        bigs = [i for i, kind in enumerate(kinds) if kind == KIND_BIG]
        tails_by_overlap: dict[tuple[int, ...], list[int]] = {}
        for i in bigs:
            tails_by_overlap.setdefault(seqs[i][1:], []).append(i)
        arcs = []
        for head in bigs:
            seq = seqs[head]
            length = units[seq[-1]]
            for tail in tails_by_overlap.get(seq[:-1], ()):
                arcs.append((tail, head, ARC_E1, length))

        # Jump-arc heads, as (id, seq) in id order and so by lo: never the
        # source, and condition (4) once per node.
        by_lo = [
            (i, seqs[i]) for i in range(1, len(seqs))
            if kinds[i] != KIND_BIG or _head_ok(ctx, seqs[i])
        ]
        los = [seq[0] for _, seq in by_lo]
        for tail in range(len(seqs) - 1):
            # Tails: never the sink, and condition (3) once per node.
            seq = seqs[tail]
            if kinds[tail] == KIND_BIG and not _tail_ok(ctx, seq):
                continue
            # A head's lo lies past the tail's reach, and no further than the
            # reach of the first position past it, or that position would be
            # a gap vertex no end set hits (see _e0_window).  Since
            # lo_min = reach_r[seq[-1]] + 1, condition (1) holds for every
            # head in the window.
            lo_min, lo_max = _e0_window(ctx, tail_hi=seq[-1])
            first = bisect.bisect_left(los, lo_min)
            last = bisect.bisect_right(los, lo_max, first)
            for head, _ in _gap_covered(ctx, seq, by_lo[first:last]):
                arcs.append((tail, head, ARC_E0, self.jump[head]))
        arcs.sort()
        return arcs


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
    """Materialize every node and every arc (the naive engine's input)."""
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
    """Shortest path over the fully materialized digraph.

    Among equal-cost paths the lexicographically smallest node-id sequence
    wins, making the reported set deterministic.  Two passes over the arcs
    find it: a backward pass gives each node's least length to the sink,
    and a forward pass takes, from each node on the path, the lowest-id
    head of an arc that stays optimal.
    """
    return search_naive(engine_plan(model, k, variant, weighted, cap_nodes=cap_nodes))


def search_naive(plan: _Plan | None) -> Solution:
    """The two-pass least-path search over a plan from ``engine_plan``, or
    the infeasible answer when it gave none; see ``solve_naive``."""
    if plan is None:
        return infeasible_solution("naive")
    arcs = plan.arcs()  # sorted by (tail, head); ids are topological
    # Path lengths are plain ints in the plan's units.  A path pays each of
    # its vertices once, so no path costs ``unreachable``.
    unreachable = sum(plan.units) + 1
    to_sink = [unreachable] * len(plan.seqs)
    to_sink[-1] = 0
    for tail, head, _, length in reversed(arcs):
        d = to_sink[head] + length
        if d < to_sink[tail]:
            to_sink[tail] = d
    stats = {"nodes": len(plan.seqs), "arcs": len(arcs)}
    if to_sink[0] == unreachable:
        return infeasible_solution("naive", stats)
    # Arcs come by tail, then head: the first optimal arc out of the path's
    # last node goes to its lowest optimal head, which joins the path before
    # the scan reaches that head's own arcs.
    path = [0]
    for tail, head, _, length in arcs:
        if tail == path[-1] and length + to_sink[head] == to_sink[tail]:
            path.append(head)
    return plan.solution(path, to_sink[0], "naive", stats)[0]


def dump_digraph(dg: DerivedDigraph) -> str:
    """Deterministic text dump: node lines then arc lines."""
    lines = []
    for nd in dg.nodes:
        idx = " ".join(str(i) for i in nd.seq)
        lines.append(f"{nd.id} {nd.kind} {idx}")
    for arc in dg.arcs:
        lines.append(f"{arc.tail} {arc.head} {arc.cls} {format_rational(arc.length)}")
    return "\n".join(lines) + "\n"

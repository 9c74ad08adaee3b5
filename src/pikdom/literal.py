"""The paper's literal definitions of the derived DAG, as reference checks.

No solve runs any of this: the DAG engines read conditions (3) and (4)
from the plan's role bytes and the arcs from its runs (``reduction._Plan``).
Here each condition is stated node by node as the paper defines it: hit
counts, (3) and (4), the jump (E0) and slide (E1) arc predicates and arc
length, and the node-list helpers (the enumeration as ``DagNode``s, the
binomial projection, tail-eligible big nodes, the suffix partition, the
``hi`` order and the representative independence check).  Tests hold the
engines to these, ``selftest`` runs the independence check, and
``perfbench/run.py`` times the node-list helpers.  This module imports
from the solve modules; none of them imports from it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NotArcError
from .model import ProperIntervalModel
from .oracle import VARIANT_TOTAL, check_k
from .reduction import (
    ARC_E0,
    ARC_E1,
    DEFAULT_NODE_CAP,
    KIND_BIG,
    KIND_SINK,
    KIND_SMALL,
    KIND_SOURCE,
    DagNode,
    _Ctx,
    _HEAD,
    _Plan,
    _TAIL,
    _dominated,
    _gap_covered,
    _small_lengths,
)


def _hits(ctx: _Ctx, seq: tuple[int, ...], m: int) -> int:
    """How many members of the sorted sequence ``seq`` meet position m, m
    itself included when it is a member: they are the members inside m's
    reach range.  The window walks (``reduction._dominated``, ``_caps``)
    count hits the same way in place."""
    lo, hi = ctx.reach_l[m], ctx.reach_r[m]
    return bisect.bisect_right(seq, hi) - bisect.bisect_left(seq, lo)


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


def _e0_head_window(ctx: _Ctx, head_lo: int) -> tuple[int, int]:
    """Inclusive bounds on the ``hi`` of every tail of a jump arc into a
    head whose first index is ``head_lo``, never the source: the head side
    of the window ``reduction._e0_window`` derives."""
    g = ctx.reach_l[head_lo] - 1
    return ctx.reach_l[g], g


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


def arc_length(s: DagNode, s2: DagNode, cls: str, costs=None) -> Fraction:
    """Length of an arc of the stated class.

    Unweighted: a jump arc pays the full head sequence, a slide arc pays 1
    for the single new vertex, and arcs into the sink are free.  Weighted:
    the same shape with per-vertex costs; the slide arc pays the cost of the
    vertex it appends.  ``costs`` is a per-vertex sequence (exact rationals
    or integer units) or None for unit costs.
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


def enumerate_nodes(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    *,
    cap_nodes: int = DEFAULT_NODE_CAP,
) -> list[DagNode]:
    """All DAG nodes in deterministic order: source, sequences in
    lexicographic order, sink; the plan's nodes, under its budget check
    (``reduction._enumerate_with_ctx`` derives the enumeration's cuts)."""
    return _Plan(model, k, variant, False, cap_nodes).nodes


def projected_node_count(n: int, k: int, variant: str) -> int:
    """Upper bound on node count before enumeration (binomial projection).

    Node lengths run from the shortest small length up to the big length
    2k; only lengths up to n have sequences, so the sum stops there and
    costs O(min(n, k)) whatever k is.  It ignores the chain condition; the
    plan's budget check counts the chains (``reduction._chain_count``)
    instead."""
    first = _small_lengths(k, variant).start
    return 2 + sum(comb(n, q) for q in range(first, min(n, 2 * k) + 1))


def eligible_tail_bigs(
    nodes,
    model: ProperIntervalModel,
    k: int,
    variant: str,
) -> frozenset[int]:
    """Big nodes that can start a jump arc (the per-node tail condition).

    Membership depends only on the node itself, which is what lets the fast
    engine treat one member of a suffix class as a representative for all.
    """
    ctx = _Ctx(model, k, variant)
    return frozenset(
        nd.id for nd in nodes if nd.kind == KIND_BIG and _tail_ok(ctx, nd.seq)
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
    """One class of ``suffix_partition``: its key and its member ids."""

    key: tuple[int, ...]
    members: tuple[int, ...]


def suffix_partition(nodes, k: int, eligible) -> list[SuffixClass]:
    """Partition of small nodes plus tail-eligible big nodes by suffix key.

    Classes come out sorted by key; members keep enumeration (id) order, so
    ``members[0]`` is the lexicographically smallest member and serves as
    the class representative.
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
    the sink (``hi`` n+1) last.  The order does not depend on ``k``.
    """
    buckets: list[list[int]] = [[] for _ in range(nodes[-1].seq[-1] + 1)]
    for i, nd in enumerate(nodes):
        buckets[nd.seq[-1]].append(i)
    return [i for bucket in buckets for i in bucket]


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
    from its sequences and role bytes, as ``fast._sweep`` forms them, and
    the arcs from ``_Plan.arcs``, the ones the naive engine searches.  Those
    take conditions (3) and (4) from the same role bytes and run the
    literal gap cover, so this checks the sharing of the gap cover, not the
    bits.  The source and the sink each form classes of their own, which
    hold trivially.
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

"""Ground truth: domination predicates and the exhaustive brute-force engine.

Everything here works directly from the definitions, independent of the
shortest-path reduction, so it can adjudicate the other engines.  Vertex ids
follow the caller's original numbering (the same numbering ``derive_graph``
uses).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParamError, PreconditionError, TooLargeError, VertexIndexError
from .model import DerivedGraph, ProperIntervalModel, derive_graph

VARIANT_KDOM = "kdom"
VARIANT_TOTAL = "total"
VARIANTS = (VARIANT_KDOM, VARIANT_TOTAL)

BRUTE_CAP_DEFAULT = 20


def check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ParamError(f"variant must be one of {VARIANTS}, got {variant!r}")


def check_k(k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ParamError(f"k must be a positive integer, got {k!r}")


@dataclass(frozen=True)
class VertexSet:
    """A sorted, duplicate-free set of 1-based vertex ids."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, ids) -> "VertexSet":
        return cls(tuple(sorted(set(ids))))

    @property
    def size(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v) -> bool:
        return v in self.members


@dataclass(frozen=True)
class Solution:
    """Engine output.  Infeasible solutions carry an empty set and no cost."""

    vertices: VertexSet
    cost: Fraction | None
    feasible: bool
    engine: str
    stats: dict | None = None


def infeasible_solution(engine: str, stats: dict | None = None) -> Solution:
    return Solution(VertexSet.of(()), None, False, engine, stats)


def _check_members(graph: DerivedGraph, vset: VertexSet) -> frozenset:
    for v in vset:
        if not 1 <= v <= graph.n:
            raise VertexIndexError(f"vertex {v} out of range 1..{graph.n}")
    return frozenset(vset)


def find_violation(graph: DerivedGraph, vset: VertexSet, k: int, variant: str):
    """First vertex with too few neighbors in the set, or None if valid.

    Returns (vertex, neighbors_inside) for the smallest violating vertex id.
    """
    check_k(k)
    check_variant(variant)
    inside = _check_members(graph, vset)
    for v in range(1, graph.n + 1):
        if variant == VARIANT_KDOM and v in inside:
            continue
        cnt = 0
        for u in graph.adj[v - 1]:
            if u in inside:
                cnt += 1
                if cnt >= k:
                    break
        if cnt < k:
            return v, cnt
    return None


def is_k_dominating(graph: DerivedGraph, vset: VertexSet, k: int) -> bool:
    return find_violation(graph, vset, k, VARIANT_KDOM) is None


def is_total_k_dominating(graph: DerivedGraph, vset: VertexSet, k: int) -> bool:
    return find_violation(graph, vset, k, VARIANT_TOTAL) is None


def check_lemma_components(graph: DerivedGraph, vset: VertexSet, k: int) -> bool:
    """Every component of the subgraph induced by a total k-dominating set
    has at least k+1 vertices."""
    if find_violation(graph, vset, k, VARIANT_TOTAL) is not None:
        raise PreconditionError("set is not total k-dominating")
    inside = set(vset)
    seen: set[int] = set()
    for start in vset:
        if start in seen:
            continue
        comp = 0
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp += 1
            for u in graph.adj[v - 1]:
                if u in inside and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if comp < k + 1:
            return False
    return True


def brute_force_min(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    weighted: bool = False,
    cap: int = BRUTE_CAP_DEFAULT,
) -> Solution:
    """Exact minimum by subset scan, the oracle for both reduction engines.

    Feasibility is the literal test: every vertex that needs hits (each one
    under the total variant, each one outside the set otherwise) has at
    least k neighbours in the set.  Costs are integer units: every cost
    times the least common multiple of the denominators, one unit per
    vertex when the run is unweighted or the model has no costs, divided
    back once at the end.

    Subsets are visited by increasing cardinality, lexicographically within a
    level, so the first strictly cheaper feasible subset realizes the
    documented tie-break (cost, then cardinality, then lexicographic member
    list).  ``_scan`` checks a subset iff it costs less than the cheapest
    feasible subset found before it in that order, and skips the rest in
    blocks; units are never negative, so no skipped subset could be strictly
    better, and the tie-break stands.  ``subsets_scanned`` counts the
    subsets checked, by that one rule on every run, weighted or not; the
    total-variant shortcut below checks none.
    """
    check_k(k)
    check_variant(variant)
    n = model.n
    if n > cap:
        raise TooLargeError(f"brute force capped at n <= {cap}, got {n}")
    total = variant == VARIANT_TOTAL
    # Per vertex, its own bit (0 under the total variant, where members need
    # hits too) and its neighbours' bits.
    checks = [
        (0 if total else 1 << (v - 1), sum(1 << (u - 1) for u in adj))
        for v, adj in enumerate(derive_graph(model).adj, 1)
    ]
    if total and any(nbrs.bit_count() < k for _, nbrs in checks):
        # Monotonicity: if V(G) itself fails, every subset fails.
        return infeasible_solution("brute", {"subsets_scanned": 0})

    def feasible(mask: int) -> bool:
        for own, nbrs in checks:
            if not mask & own and (nbrs & mask).bit_count() < k:
                return False
        return True

    costs = (weighted and model.cost_by_original()) or (Fraction(1),) * n
    scale = math.lcm(*(c.denominator for c in costs))
    units = [0] + [c.numerator * (scale // c.denominator) for c in costs]  # by id
    best, best_combo, scanned = _scan(n, units, feasible)
    stats = {"subsets_scanned": scanned}
    if best is None:
        return infeasible_solution("brute", stats)
    return Solution(VertexSet.of(best_combo), Fraction(best, scale), True, "brute", stats)


def _scan(
    n: int, units: list[int], feasible
) -> tuple[int | None, tuple[int, ...] | None, int]:
    """(cost in units, subset, subsets checked) of the first cheapest
    feasible subset in scan order, or (None, None, subsets checked) when
    none is.

    A subset is checked iff it costs less than the cheapest feasible subset
    found before it.  Each level is scanned depth first, carrying the
    chosen prefix's cost and member mask.  The subsets that share a prefix
    and pick their next member at id v or later cost at least the prefix
    plus the ``need`` cheapest units among ids v..n, ``need`` being the
    members still to pick; when that is not below the best, none of them is
    checked, and neither is any later sibling block, which has fewer ids to
    pick from.  The scan ends at the first level whose ``size`` cheapest
    vertices cost at least the best.  Each skip holds only subsets at or
    above the best, so the subsets checked are exactly those the rule names.
    """
    # least[v][j]: the j cheapest units among ids v..n.
    least = [[0]] * (n + 2)
    pool: list[int] = []
    for v in range(n, 0, -1):
        bisect.insort(pool, units[v])
        least[v] = [0, *itertools.accumulate(pool)]
    bits = [0] + [1 << (v - 1) for v in range(1, n + 1)]
    best = sum(units) + 1  # in units; above every subset's cost
    best_combo: tuple[int, ...] | None = None
    checked = 1  # the empty subset
    picked: list[int] = []  # the prefix

    def scan(start: int, need: int, cost: int, mask: int) -> None:
        # Every subset that extends the prefix by ``need`` ids from start..n.
        nonlocal best, best_combo, checked
        for v in range(start, n - need + 2):
            if cost + least[v][need] >= best:
                return
            if need > 1:
                picked.append(v)
                scan(v + 1, need - 1, cost + units[v], mask | bits[v])
                picked.pop()
                continue
            c = cost + units[v]
            if c < best:
                checked += 1
                if feasible(mask | bits[v]):
                    best, best_combo = c, (*picked, v)

    if feasible(0):
        best, best_combo = 0, ()
    for size in range(1, n + 1):
        if least[1][size] >= best:
            break
        scan(1, size, 0, 0)
    return (None if best_combo is None else best), best_combo, checked

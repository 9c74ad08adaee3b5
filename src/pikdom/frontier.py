"""The frontier engine: one left-to-right sweep of in/out decisions.

The sorted vertices are decided one by one, and each partial solution is
kept only as what the undecided vertices can read of it, a state ``(P,
B)``.  This is the neighbour-equivalence dynamic programming for locally
checkable vertex-subset problems (Bui-Xuan, Telle & Vatshelle, "Fast
dynamic programming for locally checkable vertex subset and vertex
partitioning problems", TCS 2013) with d = k: k-domination is sigma = N,
rho = {k, k+1, ...}, and total k-domination is sigma = rho = {k, k+1, ...}.

With positions 0-based, after vertex i is decided:

* ``P`` is the last k or fewer chosen positions at or right of
  ``reach_l[i+1]``.  A later vertex j meets a chosen p < j iff ``p >=
  reach_l[j]``, and ``reach_l`` rises, so these are the only chosen ones a
  later vertex can meet, and it needs no more than k of them.
* ``B`` is a list of caps ``B_1 <= ... <= B_d``, d <= k: the r-th vertex
  chosen from here on must be at most ``B_r``.  A decided vertex m short of
  d hits meets a later chosen z iff ``z <= reach_r[m]``, and the later
  chosen rise, so m needs the d-th of them at most ``reach_r[m]``.  Since
  ``reach_r`` rises, each cap is set once, by the first vertex short at
  that rank.

Deciding vertex i from a state:

* "in" drops ``B_1`` (every cap is past i-1 once vertex i-1 is decided, so
  i meets every vertex the caps stand for) and adds i's cost;
* i needs k hits when it is out, or when it is in under the total variant,
  and none otherwise.  Its hits among the decided are the members of the
  old ``P``.  If it is short by d, ``B`` is padded with ``reach_r[i]`` up to
  length d;
* the state is dropped if ``B_1 <= i``: no later vertex can meet the cap.
  Otherwise ``P`` (with i appended when it is in) is trimmed to its members
  at or right of ``reach_l[i+1]``, and to its last k.

Costs are integer units, every cost times the least common multiple of the
denominators.  After the last vertex ``P`` is empty and every cap has been
dropped, so one final state is left, or none when no set is feasible.
"""

from __future__ import annotations

import bisect
from array import array
from fractions import Fraction
from math import lcm

from .errors import TooLargeError
from .model import ProperIntervalModel
from .oracle import (
    Solution,
    VARIANT_TOTAL,
    VertexSet,
    check_k,
    check_variant,
    infeasible_solution,
)

DEFAULT_STATE_CAP = 10**6


def solve_frontier(
    model: ProperIntervalModel,
    k: int,
    variant: str,
    weighted: bool = False,
    *,
    cap_states: int = DEFAULT_STATE_CAP,
) -> Solution:
    """Least-cost (total) k-dominating set by the frontier sweep (see the
    module docstring), reading only the model's reach arrays and costs.

    Tie-break: among the sets of least cost, the one returned is the least
    when sets are compared at the highest sorted position where they
    differ, the set without it being the lesser; that is, the one whose
    in/out string, read from the last sorted vertex back, is least with out
    before in.  Each state keeps one predecessor: of those that reach it at
    its least cost, the one with the least string.  The states at each
    position are kept in the order of their strings, so two strings that
    end in the same decision compare as their predecessors' places do.

    Back-pointers are two integer arrays per position, each state's
    predecessor and its in/out bit.  ``stats`` has ``states_peak``, the
    most states kept after any one vertex, and ``states_total``, the sum
    over the vertices.  More than ``cap_states`` states after one vertex
    raise ``TooLargeError``.  k is clamped to n + 1, as in ``_Ctx``: no
    vertex has n neighbours, so a larger k asks what n + 1 asks.
    """
    check_k(k)
    check_variant(variant)
    n, reach_l, reach_r = model.n, model.reach_l, model.reach_r
    asked, k = k, min(k, n + 1)  # errors name the caller's k
    costs = model.costs if weighted and model.costs is not None else (1,) * n
    scale = lcm(*(c.denominator for c in costs))
    units = [c.numerator * (scale // c.denominator) for c in costs]
    total = variant == VARIANT_TOTAL
    states, dist = [((), ())], [0]  # at the current position, in string order
    back: list[tuple[array, bytearray]] = []
    peak = count = 0
    for i in range(n):
        cover_from = reach_l[i + 1] if i + 1 < n else n  # no later vertex
        cap_i = reach_r[i]
        found: dict = {}  # state -> [cost, predecessor code]
        # Predecessors are tried in string order: each state j with i out
        # (code j), then each with i in (code len(states) + j).  A strict
        # ``<`` keeps the first of least cost.
        for bit in (0, 1):
            need = k if total or not bit else 0
            base = bit * len(states)
            add = units[i] if bit else 0
            for j, (p, b) in enumerate(states):
                if bit:
                    b = b[1:]
                short = need - len(p)
                if short > len(b):
                    b += (cap_i,) * (short - len(b))
                if b and b[0] <= i:
                    continue
                if bit:
                    p += (i,)
                p = p[bisect.bisect_left(p, cover_from):][-k:]
                c = dist[j] + add
                key = (p, b)
                entry = found.get(key)
                if entry is None:
                    if len(found) >= cap_states:
                        raise TooLargeError(
                            f"frontier states after vertex {i + 1} exceed cap "
                            f"{cap_states} (n={n}, k={asked}, variant={variant})"
                        )
                    found[key] = [c, base + j]
                elif c < entry[0]:
                    entry[:] = c, base + j
        # Each predecessor code gives one state, so sorting by code never
        # compares two states.
        order = sorted((code, state, c) for state, (c, code) in found.items())
        prev = len(states)
        back.append((array("q", [code % prev for code, _, _ in order]),
                     bytearray(code >= prev for code, _, _ in order)))
        states, dist = [state for _, state, _ in order], [c for _, _, c in order]
        peak, count = max(peak, len(states)), count + len(states)
        if not states:
            break
    stats = {"states_peak": peak, "states_total": count}
    if not states:
        return infeasible_solution("frontier", stats)
    chosen = []
    at = 0  # the one final state, ((), ())
    for i in range(n - 1, -1, -1):
        preds, bits = back[i]
        if bits[at]:
            chosen.append(i + 1)
        at = preds[at]
    return Solution(
        VertexSet.of(model.to_original(chosen)),
        Fraction(dist[0], scale),
        True,
        "frontier",
        stats,
    )

"""Proper interval models: parsing, validation, derived graphs, generation.

Instance texts, and the CLI's set files, are read through ``payload_lines``,
the one rule for where a line ends and what on it counts.

A model is an ordered family of closed intervals on the line, none containing
another.  All endpoint arithmetic is exact (``fractions.Fraction``): the
node/arc enumeration downstream depends on exact intersection tests, so
floating point is never used.

Index conventions
-----------------
Intervals are stored sorted by left endpoint; in a proper model the right
endpoints are then sorted as well.  "Sorted index" means the 1-based position
in that order.  ``original_ids`` remembers the caller's numbering from the
input file so solutions can be reported in it; for generated models the two
numberings coincide.

Sorting, validation and the reach sweep order endpoints by an exact integer
key, ``floor(x * 2**32)``, computed from integer ``(numerator, denominator)``
pairs: a parsed row's are read straight from its digits, and a row built
from ``Interval`` objects gives its ``Fraction``s'.  The floor never
decreases as x grows, so endpoints whose floors differ are ordered by those
integers alone, and exactly; endpoints of equal value, such as touching ends
on an integer grid, share a floor and compare equal.  Only an endpoint whose
floor another endpoint of a *different* value shares needs its exact value.
A left and a right on one floor are settled in the reach sweep by one
cross-multiplication of their pairs.  When two lefts or two rights share a
floor, each endpoint on a floor that holds two different values is
re-keyed by the ``Fraction`` ``x * 2**32``, which lies in [floor, floor + 1),
and the rows are sorted again.  The key uses no floating point and no common
denominator, so it costs the same however many denominators the input has.
A model keys its endpoints once, when it is built: sorting, validation and
the reach sweep share those keys, and everything downstream reads the
model's reach arrays (``reach_l``/``reach_r``) instead of comparing
endpoints again.  A parsed model builds its ``Interval`` rows from the pairs
only when something reads ``intervals``.
"""

from __future__ import annotations

import copy
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DuplicateIntervalError,
    EmptyGraphError,
    NegativeCostError,
    NotProperError,
    ParamError,
    ParseError,
    VertexIndexError,
)


# A literal's decimal exponent, which ``Fraction`` turns into ``10**exp``;
# unbounded, the work grows with it (``1e4000000`` alone takes seconds).
# The bound matches the 4,300-digit limit ``int(str)`` puts on the digits.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_MAX_EXPONENT = 4300
# The common spellings, ASCII digits only: ``-?d``, ``-?d.d`` and ``-?d/d``,
# as four groups (sign, whole, separator, rest); a plain row is two or three
# of them separated by spaces or tabs.
_NUMBER = r"(-?)([0-9]+)(?:([./])([0-9]+))?"
_PLAIN = re.compile(_NUMBER)
_PLAIN_ROW = {want: re.compile(r"[ \t]+".join([_NUMBER] * want)) for want in (2, 3)}
# Endpoints are keyed by floor(x * 2**_SHIFT); see the module docstring.
_SHIFT = 32


def _plain(sign, whole, sep, rest) -> tuple[int, int]:
    """``(numerator, denominator)`` of a plain literal's four groups, its
    digits converted as ``Fraction``'s own parser converts them.  The
    denominator is positive unless the literal divides by zero."""
    num, den = int(whole), 1
    if sep == "/":
        den = int(rest)
    elif sep:
        den = 10 ** len(rest)
        num = num * den + int(rest)
    return (-num if sign else num), den


def parse_rational(token: str) -> Fraction:
    """Parse an integer, decimal, or ``p/q`` literal exactly.

    The common spellings are split here, so they take the same ``int(str)``
    digit limit as ``Fraction``'s own parser; every other spelling goes to
    that parser.
    """
    try:
        plain = _PLAIN.fullmatch(token)
        if plain is not None:
            return Fraction(*_plain(*plain.groups()))
        exp = _EXPONENT.search(token)
        if exp is not None and int(exp[1]) > _MAX_EXPONENT:
            raise ValueError("exponent out of range")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {token!r}") from exc


def format_rational(x: Fraction) -> str:
    """Canonical rendering: integer, exact decimal, or ``p/q``.

    A decimal form exists exactly when the reduced denominator is 2^a * 5^b;
    otherwise the fraction form is emitted (the parser accepts all three).
    """
    if x.denominator == 1:
        return str(x.numerator)
    den = x.denominator
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{x.numerator}/{x.denominator}"
    exp = max(twos, fives)
    scaled = x.numerator * 10**exp // den
    digits = str(abs(scaled)).rjust(exp + 1, "0")
    sign = "-" if scaled < 0 else ""
    int_part = digits[: len(digits) - exp]
    frac_part = digits[len(digits) - exp:].rstrip("0")
    return f"{sign}{int_part}.{frac_part}"


@dataclass(frozen=True)
class Interval:
    """A closed interval [left, right] with exact rational endpoints."""

    left: Fraction
    right: Fraction

    def __post_init__(self):
        if not (isinstance(self.left, Fraction) and isinstance(self.right, Fraction)):
            try:
                object.__setattr__(self, "left", Fraction(self.left))
                object.__setattr__(self, "right", Fraction(self.right))
            except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
                raise ParamError(f"bad interval endpoints [{self.left}, {self.right}]") from exc
        # Denominators are positive, so the cross-products order the two.
        left, right = self.left, self.right
        if left.numerator * right.denominator >= right.numerator * left.denominator:
            raise ParamError(
                f"interval needs left < right, got [{self.left}, {self.right}]"
            )


@dataclass(frozen=True)
class ProperIntervalModel:
    """A validated proper interval model, sorted by left endpoint.

    The rows may come in any order: the model sorts them by their endpoint
    keys and carries ``costs`` and ``original_ids`` along, so ``costs`` is
    aligned with the sorted interval order.  It is present exactly for
    weighted instances.  ``original_ids[i]`` is the caller's 1-based id of
    the interval at sorted position i (0-based); by default the caller's
    numbering is the order the rows came in.

    ``reach_l[i]``/``reach_r[i]`` are the first and last position (0-based)
    whose interval meets ``intervals[i]``.  In a family sorted by left
    endpoint with no interval containing another, the intervals meeting i
    form one contiguous block, and both ends of the block only move right
    as i grows, so one two-pointer sweep over the keys sorting built
    finds them: ``reach_r[i]`` walks right from ``reach_r[i-1]``, and the
    first interval whose walk reaches position j is ``reach_l[j]``.  They
    follow from the intervals, so they take no part in equality or repr.

    Validation checks each adjacent pair of sorted rows once; the first pair
    out of order raises ``DuplicateIntervalError`` if the two rows coincide,
    and ``NotProperError`` otherwise.

    A model built from ``Interval`` rows keeps those rows.  A parsed model
    keeps its sorted endpoints as integer ``(numerator, denominator)`` pairs
    and builds ``intervals`` from them the first time it is read; no solve
    reads it, and building it twice gives equal rows, so the model stays
    safe to share.
    """

    intervals: tuple[Interval, ...]
    costs: tuple[Fraction, ...] | None = None
    original_ids: tuple[int, ...] = field(default=())
    reach_l: tuple[int, ...] = field(init=False, compare=False, repr=False)
    reach_r: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = _tuple_of(self.intervals, "intervals")
        if not all(isinstance(iv, Interval) for iv in rows):
            raise ParamError("intervals must be Interval rows")
        ends = [
            (iv.left.numerator, iv.left.denominator, iv.right.numerator, iv.right.denominator)
            for iv in rows
        ]
        self._settle(ends, self.costs, self.original_ids, rows)

    @classmethod
    def _of_ends(cls, ends, costs) -> ProperIntervalModel:
        """The model of rows given as ``(ln, ld, rn, rd)`` endpoint pairs,
        each with a positive denominator and ``left < right``."""
        model = object.__new__(cls)
        model._settle(ends, costs, (), None)
        return model

    def _settle(self, ends, costs, ids, rows) -> None:
        """Sort the rows by endpoint, validate them and sweep the reach
        arrays: the one builder behind both constructors.  ``rows`` are the
        given ``Interval`` rows, or None for a model that keeps pairs."""
        n = len(ends)
        ids = _tuple_of(ids or range(1, n + 1), "original_ids")
        if not all(type(i) is int for i in ids) or sorted(ids) != list(range(1, n + 1)):
            raise ParamError("original_ids must be a permutation of 1..n")
        if costs is not None:
            costs = _check_costs(costs, n)
        # Sort the rows by left floor, carrying costs and ids along.  Where
        # two lefts or two rights share a floor, or the rows are out of
        # order, sort again on exact keys (left, then right) and validate.
        lk, rk = _floor_keys(ends)
        order = sorted(range(n), key=lk.__getitem__)
        lefts = [lk[t] for t in order]
        rights = [rk[t] for t in order]
        if _first_disorder(lefts, rights):
            lk, rk = _exact_keys(ends, lk, rk)
            order = sorted(range(n), key=lambda t: (lk[t], rk[t]))
            lefts = [lk[t] for t in order]
            rights = [rk[t] for t in order]
            i = _first_disorder(lefts, rights)
            if i:
                a, b = (_interval(ends[t]) for t in order[i - 1 : i + 1])
                if a == b:
                    raise DuplicateIntervalError(f"coincident intervals [{a.left}, {a.right}]")
                raise NotProperError(
                    f"containment between [{a.left}, {a.right}] and [{b.left}, {b.right}]"
                )
        object.__setattr__(self, "original_ids", tuple(ids[t] for t in order))
        object.__setattr__(self, "costs", None if costs is None else tuple(costs[t] for t in order))
        if rows is None:
            object.__setattr__(self, "_ends", tuple(ends[t] for t in order))
        else:
            object.__setattr__(self, "intervals", tuple(rows[t] for t in order))
        reach_l = list(range(n))  # a position no earlier walk reaches
        reach_r = [0] * n
        hi = 0
        for i in range(n):
            if hi < i:
                hi = i
            right = rights[i]
            while hi + 1 < n and lefts[hi + 1] <= right:
                hi += 1
                reach_l[hi] = i
            # Sides keyed by floor are strictly increasing, so only the last
            # left the walk took can share this right's floor; it meets the
            # interval unless it lies past the right end.
            if hi > i and lefts[hi] == right:
                ln, ld, _, _ = ends[order[hi]]
                _, _, rn, rd = ends[order[i]]
                if ln * rd > rn * ld:
                    reach_l[hi] = hi
                    hi -= 1
            reach_r[i] = hi
        object.__setattr__(self, "reach_l", tuple(reach_l))
        object.__setattr__(self, "reach_r", tuple(reach_r))

    def __getattr__(self, name):
        # Called only for attributes the instance lacks: a parsed model's
        # ``intervals`` until first read.
        ends = self.__dict__.get("_ends")
        if name != "intervals" or ends is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        intervals = tuple(map(_interval, ends))
        object.__setattr__(self, "intervals", intervals)
        return intervals

    @property
    def n(self) -> int:
        return len(self.original_ids)

    @property
    def weighted(self) -> bool:
        return self.costs is not None

    def to_original(self, sorted_ids) -> tuple[int, ...]:
        """Map sorted 1-based indices to the caller's numbering, sorted."""
        return tuple(sorted(self.original_ids[i - 1] for i in sorted_ids))

    def cost_by_original(self) -> tuple[Fraction, ...] | None:
        """Costs re-indexed by original id (position oid-1), or None."""
        if self.costs is None:
            return None
        out = [Fraction(0)] * self.n
        for pos, oid in enumerate(self.original_ids):
            out[oid - 1] = self.costs[pos]
        return tuple(out)


def _interval(end) -> Interval:
    """The ``Interval`` of one row's ``(ln, ld, rn, rd)`` endpoint pairs."""
    ln, ld, rn, rd = end
    return Interval(Fraction(ln, ld), Fraction(rn, rd))


def _floor_keys(ends) -> tuple[list[int], list[int]]:
    """``floor(x * 2**32)`` of each row's left and of each row's right
    endpoint: the integer key every endpoint is sorted and swept on."""
    return (
        [(ln << _SHIFT) // ld for ln, ld, _, _ in ends],
        [(rn << _SHIFT) // rd for _, _, rn, rd in ends],
    )


def _exact_keys(ends, lk, rk) -> tuple[list, list]:
    """Floor keys made exact: an endpoint whose floor another endpoint of a
    different value shares is keyed by the ``Fraction`` x * 2**32 instead,
    which lies in [floor, floor + 1) and so orders against every other key.
    Equal values keep equal keys."""
    n = len(ends)
    keys = lk + rk
    pairs = [e[:2] for e in ends] + [e[2:] for e in ends]
    by_floor = sorted(range(2 * n), key=keys.__getitem__)
    shared = set()
    for a, b in zip(by_floor, by_floor[1:]):
        if keys[a] == keys[b] and pairs[a][0] * pairs[b][1] != pairs[b][0] * pairs[a][1]:
            shared.add(keys[a])
    exact = [
        Fraction(num << _SHIFT, den) if key in shared else key
        for key, (num, den) in zip(keys, pairs)
    ]
    return exact[:n], exact[n:]


def _first_disorder(lefts, rights) -> int:
    """The first sorted position i >= 1 whose left or right key is not past
    position i-1's, or 0 when both sides strictly increase."""
    for i in range(1, len(lefts)):
        if not (lefts[i - 1] < lefts[i] and rights[i - 1] < rights[i]):
            return i
    return 0


def _tuple_of(values, name: str) -> tuple:
    """``values`` as a tuple; a value that is not iterable is refused."""
    try:
        return tuple(values)
    except TypeError as exc:
        raise ParamError(f"{name} must be iterable, got {values!r}") from exc


def _check_costs(costs, n: int) -> tuple[Fraction, ...]:
    """The per-vertex costs as ``Fraction``s; refuse any that are not n
    non-negative rationals.  Values not already a ``Fraction`` are
    converted, as ``Interval`` converts its endpoints; the result is always
    a new tuple."""
    costs = _tuple_of(costs, "costs")
    if len(costs) != n:
        raise ParamError("costs length must equal interval count")
    out = []
    for c in costs:
        if not isinstance(c, Fraction):
            try:
                c = Fraction(c)
            except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
                raise ParamError(f"bad cost {c!r}") from exc
        if c.numerator < 0:
            raise NegativeCostError(f"negative cost {c}")
        out.append(c)
    return tuple(out)


def build_model(intervals, costs=None, original_ids=None) -> ProperIntervalModel:
    """A model of raw (interval, cost) rows in any order, which the model
    sorts by left endpoint and validates."""
    return ProperIntervalModel(intervals, costs, original_ids)


def payload_lines(text: str) -> list[tuple[int, str]]:
    r"""``(line number, payload)`` of each line of ``text`` with a payload: the
    part before the line's first ``#``, stripped.  A line ends at ``\n``,
    ``\r\n`` or ``\r``, as Python's text files read, and every line counts."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    pairs = ((i, raw.split("#", 1)[0].strip()) for i, raw in enumerate(lines, 1))
    return [(i, payload) for i, payload in pairs if payload]


def parse_model(text: str) -> ProperIntervalModel:
    """Parse the line-oriented instance format, read by ``payload_lines``.

    The first payload line is ``n`` optionally followed by the token
    ``weighted``; the next n lines are ``left right`` or, when weighted,
    ``left right cost``.  A bad row's error names its line in the file.
    """
    rows = payload_lines(text)
    if not rows:
        raise ParseError("empty instance")
    (_, header), body = rows[0], rows[1:]
    head = header.split()
    try:
        n = int(head[0])
    except ValueError as exc:
        raise ParseError(f"bad header {header!r}") from exc
    if n < 0:
        raise ParseError(f"negative interval count {n}")
    weighted = False
    if len(head) == 2:
        if head[1] != "weighted":
            raise ParseError(f"unknown header token {head[1]!r}")
        weighted = True
    elif len(head) > 2:
        raise ParseError(f"bad header {header!r}")
    if len(body) != n:
        raise ParseError(f"expected {n} interval lines, found {len(body)}")
    want = 3 if weighted else 2
    match = _PLAIN_ROW[want].fullmatch
    ends = []
    costs = [] if weighted else None
    for lineno, row in body:
        plain = match(row)
        if plain is not None:
            g = plain.groups()
            try:
                ln, ld = _plain(g[0], g[1], g[2], g[3])
                rn, rd = _plain(g[4], g[5], g[6], g[7])
                cn, cd = _plain(g[8], g[9], g[10], g[11]) if weighted else (0, 1)
            except ValueError:  # a literal past int()'s digit limit
                pass
            else:
                if ld and rd and ln * rd < rn * ld and cd and cn >= 0:
                    ends.append((ln, ld, rn, rd))
                    if weighted:
                        costs.append(Fraction(cn, cd))
                    continue
        # Any other spelling or whitespace, and every fault, is read token
        # by token, which names the row's line in its error.
        end, cost = _token_row(lineno, row, want)
        ends.append(end)
        if weighted:
            costs.append(cost)
    return ProperIntervalModel._of_ends(ends, costs)


def _token_row(lineno: int, row: str, want: int) -> tuple[tuple, Fraction | None]:
    """One row's endpoint pairs and cost, read token by token: any literal
    ``parse_rational`` takes, any whitespace ``str.split`` splits on."""
    toks = row.split()
    if len(toks) != want:
        raise ParseError(f"line {lineno}: expected {want} fields, got {len(toks)}")
    try:
        left, right = parse_rational(toks[0]), parse_rational(toks[1])
        Interval(left, right)  # refuses left >= right
        c = parse_rational(toks[2]) if want == 3 else None
    except (ParseError, ParamError) as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    if c is not None and c.numerator < 0:
        raise NegativeCostError(f"line {lineno}: negative cost {c}")
    return (left.numerator, left.denominator, right.numerator, right.denominator), c


def serialize_model(model: ProperIntervalModel) -> str:
    """Canonical byte-stable text form (sorted order, LF endings)."""
    lines = [f"{model.n} weighted" if model.weighted else f"{model.n}"]
    for pos, iv in enumerate(model.intervals):
        row = f"{format_rational(iv.left)} {format_rational(iv.right)}"
        if model.weighted:
            row += f" {format_rational(model.costs[pos])}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def intersects(model: ProperIntervalModel, i: int, j: int) -> bool:
    """Closed-interval intersection test on sorted indices (1-based).

    For i < j this is exactly ``left_j <= right_i``; touching endpoints count.
    """
    if not (1 <= i <= model.n and 1 <= j <= model.n):
        raise VertexIndexError(f"indices ({i}, {j}) out of range 1..{model.n}")
    if i > j:
        i, j = j, i
    return model.intervals[j - 1].left <= model.intervals[i - 1].right


@dataclass(frozen=True)
class DerivedGraph:
    """Intersection graph of a model, in the caller's original numbering."""

    n: int
    adj: tuple[tuple[int, ...], ...]


def derive_graph(model: ProperIntervalModel) -> DerivedGraph:
    """Build the intersection graph; adjacency matches pairwise intersects."""
    n, reach_r = model.n, model.reach_r
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        oi = model.original_ids[i]
        for j in range(i + 1, reach_r[i] + 1):
            oj = model.original_ids[j]
            adj[oi - 1].append(oj)
            adj[oj - 1].append(oi)
    return DerivedGraph(n, tuple(tuple(sorted(a)) for a in adj))


def min_degree(graph: DerivedGraph) -> int:
    if graph.n == 0:
        raise EmptyGraphError("min_degree undefined on the empty graph")
    return min(len(a) for a in graph.adj)


def model_min_degree(model: ProperIntervalModel) -> int:
    """Minimum vertex degree straight from the sorted model, O(n)."""
    if model.n == 0:
        raise EmptyGraphError("min_degree undefined on the empty model")
    return min(r - l for l, r in zip(model.reach_l, model.reach_r))


_GAP_MAX = 4  # integer gap between consecutive left endpoints


def generate_random(n: int, seed: int, stretch) -> ProperIntervalModel:
    """Deterministic random model: n equal-length intervals.

    Left endpoints sit on an integer grid with seeded gaps in [1, 4]; equal
    lengths make the family proper by construction.  ``stretch`` (a positive
    rational) is the common interval length and controls density.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParamError(f"need an integer n >= 1, got {n!r}")
    try:
        length = Fraction(stretch)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ParamError(f"bad stretch {stretch!r}") from exc
    if length <= 0:
        raise ParamError(f"need stretch > 0, got {length}")
    rng = random.Random(seed)
    intervals = []
    x = 0
    for i in range(n):
        if i:
            x += rng.randint(1, _GAP_MAX)
        intervals.append(Interval(Fraction(x), Fraction(x) + length))
    return ProperIntervalModel(tuple(intervals))


def staircase_model(reach) -> ProperIntervalModel:
    """The model whose sorted interval i (0-based) meets exactly the later
    positions up to ``reach[i]``: interval i is
    ``[i, reach[i] + 1/2 + i/(2n)]``.

    With its vertices sorted, a proper interval graph is fixed by its
    *staircase* ``reach_r``, which never falls and has ``reach[i] >= i``.
    Here the right ends strictly rise, so no interval contains another, and
    a later j meets i exactly when ``j <= reach[i]``.
    """
    reach = _tuple_of(reach, "reach")
    n = len(reach)
    if n < 1 or not all(type(r) is int and i <= r < n for i, r in enumerate(reach)):
        raise ParamError(f"need a staircase with i <= reach[i] < n, got {reach!r}")
    if any(a > b for a, b in zip(reach, reach[1:])):
        raise ParamError(f"a staircase never falls, got {reach!r}")
    half = Fraction(1, 2)
    return ProperIntervalModel(
        tuple(Interval(Fraction(i), r + half + Fraction(i, 2 * n)) for i, r in enumerate(reach))
    )


def staircases(n: int):
    """Every staircase of n vertices, in lexicographic order: the Catalan(n)
    non-decreasing tuples r with ``i <= r[i] < n``, one per proper interval
    graph on n sorted vertices."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParamError(f"need an integer n >= 1, got {n!r}")

    def extend(prefix: tuple[int, ...]):
        i = len(prefix)
        if i == n:
            yield prefix
            return
        for r in range(max(i, prefix[-1] if prefix else 0), n):
            yield from extend(prefix + (r,))

    return extend(())


def with_costs(model: ProperIntervalModel, costs) -> ProperIntervalModel:
    """Copy of the model with per-vertex costs (aligned to sorted order).

    The model is already sorted and validated, so only the costs are
    checked; the copy keeps its intervals, ids and reach arrays as they are.
    """
    costs = _check_costs(costs, model.n)
    out = copy.copy(model)
    object.__setattr__(out, "costs", costs)
    return out

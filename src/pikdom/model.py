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
key, ``_key(x) = (floor(x * 2**32), x)``.  The floor never decreases as x
grows, so two keys whose integer parts differ are ordered by those integers
alone, and exactly; only when the integer parts tie does the tuple compare
reach the ``Fraction``.  The key uses no floating point and no common
denominator, so it costs the same however many denominators the input has.
A model keys its endpoints once, when it is built: sorting, validation and
the reach sweep share those keys, and everything downstream reads the
model's reach arrays (``reach_l``/``reach_r``) instead of comparing
endpoints again.
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
# The common spellings, ASCII digits only: ``-?d``, ``-?d.d`` and ``-?d/d``.
_PLAIN = re.compile(r"(-?)([0-9]+)(?:([./])([0-9]+))?")


def parse_rational(token: str) -> Fraction:
    """Parse an integer, decimal, or ``p/q`` literal exactly.

    The common spellings are split here and their digits converted as
    ``Fraction``'s own parser converts them, so they take the same
    ``int(str)`` digit limit; every other spelling goes to that parser.
    """
    try:
        plain = _PLAIN.fullmatch(token)
        if plain is not None:
            sign, whole, sep, rest = plain.groups()
            num, den = int(whole), 1
            if sep == "/":
                den = int(rest)
            elif sep == ".":
                den = 10 ** len(rest)
                num = num * den + int(rest)
            return Fraction(-num if sign else num, den)
        exp = _EXPONENT.search(token)
        if exp is not None and int(exp[1]) > _MAX_EXPONENT:
            raise ValueError("exponent out of range")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {token!r}") from exc


def _key(x: Fraction) -> tuple[int, Fraction]:
    """Exact order key of an endpoint: ``floor(x * 2**32)``, then x itself
    for the keys whose integer parts tie (see the module docstring)."""
    return ((x.numerator << 32) // x.denominator, x)


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
    """

    intervals: tuple[Interval, ...]
    costs: tuple[Fraction, ...] | None = None
    original_ids: tuple[int, ...] = field(default=())
    reach_l: tuple[int, ...] = field(init=False, compare=False, repr=False)
    reach_r: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        intervals = _tuple_of(self.intervals, "intervals")
        if not all(isinstance(iv, Interval) for iv in intervals):
            raise ParamError("intervals must be Interval rows")
        n = len(intervals)
        ids = _tuple_of(self.original_ids or range(1, n + 1), "original_ids")
        if not all(type(i) is int for i in ids) or sorted(ids) != list(range(1, n + 1)):
            raise ParamError("original_ids must be a permutation of 1..n")
        costs = self.costs
        if costs is not None:
            costs = _check_costs(costs, n)
        # Sort the rows by their endpoint keys, carrying costs and ids along.
        keys = [(_key(iv.left), _key(iv.right)) for iv in intervals]
        order = sorted(range(n), key=keys.__getitem__)
        ivs = tuple(intervals[t] for t in order)
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "original_ids", tuple(ids[t] for t in order))
        if costs is not None:
            object.__setattr__(self, "costs", tuple(costs[t] for t in order))
        lefts = [keys[t][0] for t in order]
        rights = [keys[t][1] for t in order]
        for i in range(1, n):
            if not (lefts[i - 1] < lefts[i] and rights[i - 1] < rights[i]):
                a, b = (f"[{iv.left}, {iv.right}]" for iv in ivs[i - 1 : i + 1])
                if ivs[i - 1] == ivs[i]:
                    raise DuplicateIntervalError(f"coincident intervals {a}")
                raise NotProperError(f"containment between {a} and {b}")
        reach_l = list(range(n))  # a position no earlier walk reaches
        reach_r = [0] * n
        hi = 0
        for i in range(n):
            if hi < i:
                hi = i
            while hi + 1 < n and lefts[hi + 1] <= rights[i]:
                hi += 1
                reach_l[hi] = i
            reach_r[i] = hi
        object.__setattr__(self, "reach_l", tuple(reach_l))
        object.__setattr__(self, "reach_r", tuple(reach_r))

    @property
    def n(self) -> int:
        return len(self.intervals)

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
    intervals = []
    costs = [] if weighted else None
    for lineno, row in body:
        toks = row.split()
        want = 3 if weighted else 2
        if len(toks) != want:
            raise ParseError(f"line {lineno}: expected {want} fields, got {len(toks)}")
        try:
            left, right = parse_rational(toks[0]), parse_rational(toks[1])
            intervals.append(Interval(left, right))
            c = parse_rational(toks[2]) if weighted else None
        except (ParseError, ParamError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if weighted:
            if c.numerator < 0:
                raise NegativeCostError(f"line {lineno}: negative cost {c}")
            costs.append(c)
    return build_model(intervals, costs)


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


def with_costs(model: ProperIntervalModel, costs) -> ProperIntervalModel:
    """Copy of the model with per-vertex costs (aligned to sorted order).

    The model is already sorted and validated, so only the costs are
    checked; the copy keeps its intervals, ids and reach arrays as they are.
    """
    costs = _check_costs(costs, model.n)
    out = copy.copy(model)
    object.__setattr__(out, "costs", costs)
    return out

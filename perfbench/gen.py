"""Seeded generator of proper interval models, emitted as instance text.

The package's own ``generate_random`` only makes equal-length intervals on an
integer grid.  This generator varies what the solvers' work depends on:

* interval lengths vary, because each right endpoint is placed by an
  *overlap depth* d (the interval reaches the left endpoint of the d-th
  interval after it), drawn per interval from a fixed histogram;
* endpoints are rationals with mixed denominators, sometimes touching
  exactly (closed intervals, so touching intersects);
* components are separated by gaps, and dense clusters raise the depth
  locally;
* costs, when weighted, are zero or rational;
* input rows are shuffled, so answers must come back in the input numbering.

Every component has at least k+1 intervals (``MIN_COMPONENT`` when there
are several) and every depth is at least the instance's k, so every vertex
has at least k neighbours and the total variant is feasible; any prefix that
ends with at least k+1 intervals of its last component keeps that property.

The depth histogram, the number of gaps and the number of clusters are fixed
per spec and only their positions are random, so the amount of solver work
varies little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

MIN_COMPONENT = 6
_DENOMS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12)


@dataclass(frozen=True)
class Spec:
    """What to generate: size, problem and density shape of one instance."""

    n: int
    k: int
    variant: str          # "kdom" or "total"
    weighted: bool
    depths: tuple[int, ...]  # depth histogram, shuffled copies fill n
    gaps: int = 0            # components minus one
    clusters: int = 0        # runs of raised depth
    rational: bool = True    # rational endpoints and costs


@dataclass(frozen=True)
class Instance:
    """One generated instance: its text and the facts needed to check answers."""

    name: str
    spec: Spec
    text: str
    costs: tuple[Fraction, ...] | None  # by 1-based row number in ``text``


def _fmt(x: Fraction, rng: random.Random) -> str:
    """Integer, exact decimal (sometimes) or p/q."""
    if x.denominator == 1:
        return str(x.numerator)
    if x >= 0 and 1000 % x.denominator == 0 and rng.random() < 0.5:
        milli = x.numerator * (1000 // x.denominator)
        return f"{milli // 1000}.{milli % 1000:03d}".rstrip("0")
    return f"{x.numerator}/{x.denominator}"


def _depths(spec: Spec, rng: random.Random) -> list[int]:
    # Each block of len(spec.depths) intervals is a shuffled copy of the
    # histogram, so density is even along the line; clusters get one
    # segment each so they never stack.
    depths: list[int] = []
    while len(depths) < spec.n:
        block = list(spec.depths)
        rng.shuffle(block)
        depths.extend(block)
    del depths[spec.n:]
    if spec.clusters:
        seg = spec.n // spec.clusters
        width = max(1, seg // 4)
        for c in range(spec.clusters):
            start = c * seg + rng.randrange(seg - width + 1)
            for i in range(start, start + width):
                depths[i] += 1
    return [max(d, spec.k) for d in depths]


def _component_sizes(spec: Spec, rng: random.Random) -> list[int]:
    parts = spec.gaps + 1
    if parts == 1:
        return [spec.n]
    if spec.n < parts * MIN_COMPONENT:
        raise ValueError(f"n={spec.n} too small for {parts} components")
    sizes = [MIN_COMPONENT] * parts
    for _ in range(spec.n - parts * MIN_COMPONENT):
        sizes[rng.randrange(parts)] += 1
    return sizes


def generate(spec: Spec, seed: int, name: str) -> Instance:
    """The instance for ``spec`` and ``seed``; same arguments, same text."""
    if spec.k < 1 or min(spec.depths) < 1 or spec.n < spec.k + 1:
        raise ValueError("need k >= 1, depths >= 1 and n >= k + 1")
    rng = random.Random(seed)
    den = rng.choice(_DENOMS[1:]) if spec.rational else 1
    depths = _depths(spec, rng)
    rows: list[tuple[Fraction, Fraction]] = []
    x = Fraction(rng.randrange(0, 10 * den), den)
    pos = 0
    for size in _component_sizes(spec, rng):
        lefts = [x]
        for _ in range(size - 1):
            x += Fraction(rng.randint(1, 4 * den), den)
            lefts.append(x)
        prev_right = None
        for i in range(size):
            j = i + depths[pos + i]
            if j < size - 1:
                # land in [left_j, left_{j+1}); offset 0 touches exactly
                span = lefts[j + 1] - lefts[j]
                right = lefts[j] + span * Fraction(rng.randrange(0, 8), 8)
            else:
                right = lefts[-1] + Fraction(rng.randint(1, 2 * den), den)
            if prev_right is not None and right <= prev_right:
                right = prev_right + Fraction(1, 16 * den)
            rows.append((lefts[i], right))
            prev_right = right
        pos += size
        x = prev_right + Fraction(rng.randint(1, 3 * den), den)
    costs = None
    if spec.weighted:
        costs = []
        for _ in rows:
            if rng.random() < 0.125:
                costs.append(Fraction(0))
            else:
                q = rng.choice(_DENOMS[:5]) if spec.rational else 1
                costs.append(Fraction(rng.randint(1, 9 * q), q))
    order = list(range(len(rows)))
    rng.shuffle(order)
    header = f"{spec.n} weighted" if spec.weighted else f"{spec.n}"
    lines = [header]
    for t in order:
        left, right = rows[t]
        line = f"{_fmt(left, rng)} {_fmt(right, rng)}"
        if costs is not None:
            line += f" {_fmt(costs[t], rng)}"
        lines.append(line)
    shuffled_costs = tuple(costs[t] for t in order) if costs is not None else None
    return Instance(name, spec, "\n".join(lines) + "\n", shuffled_costs)


def prefix(inst: Instance, m: int) -> Instance:
    """The first m intervals (by left endpoint) of an instance.

    Used where a layer cannot run on the full instance (the brute-force
    oracle, the fully built DAG).  Trailing intervals are dropped until the
    last component keeps at least k+1 of them, so the cut stays feasible.
    """
    rows = []
    for row_no, line in enumerate(inst.text.splitlines()[1:], start=1):
        toks = line.split()
        rows.append((Fraction(toks[0]), Fraction(toks[1]), row_no))
    rows.sort()
    m = min(m, len(rows))
    k = inst.spec.k
    while m > k + 1:
        start = m - 1
        while start > 0 and rows[start][0] <= rows[start - 1][1]:
            start -= 1
        if m - start >= k + 1:
            break
        m = start
    keep = rows[:m]
    body = inst.text.splitlines()[1:]
    header = f"{m} weighted" if inst.spec.weighted else f"{m}"
    text = "\n".join([header] + [body[r - 1] for _, _, r in keep]) + "\n"
    costs = None
    if inst.costs is not None:
        costs = tuple(inst.costs[r - 1] for _, _, r in keep)
    spec = Spec(m, k, inst.spec.variant, inst.spec.weighted, inst.spec.depths,
                rational=inst.spec.rational)
    return Instance(f"{inst.name}-cut{m}", spec, text, costs)

"""Metamorphic relations on the two DAG engines, past brute's range.

Each relation follows from the definitions, whatever the engine:

* Mirror, ``[l, r] -> [-r, -l]`` with each vertex keeping its cost and id:
  the graph is the same, so feasibility and cost are unchanged.  The DAG is
  built left to right, so the mirrored solve runs each head and tail check
  in the other role; its set may differ on ties, so it is checked with
  ``find_violation`` instead.
* Affine, ``x -> a*x + b`` with rational ``a > 0``: the sorted order and
  every intersection are kept, so the set, cost and stats are identical.
  A tiny ``a`` with a large ``b`` puts many endpoints within one unit of
  ``2**-32``, so ``model._key`` orders them on its ``Fraction`` tie path.
* Cost scaling by a rational ``c > 0``: every set keeps its feasibility and
  its cost is multiplied by ``c``, so the optimum is too.  An unweighted
  model is scaled from unit costs.
* Monotonicity: a (total) (k+1)-dominating set is (total) k-dominating, and
  a total k-dominating set is k-dominating, so opt(k) <= opt(k+1) and
  opt_kdom <= opt_total whenever the right side is feasible.
"""

import random
from fractions import Fraction

from pikdom.fast import solve_fast
from pikdom.model import (
    Interval,
    ProperIntervalModel,
    derive_graph,
    generate_random,
    serialize_model,
    with_costs,
)
from pikdom.oracle import find_violation
from pikdom.reduction import solve_naive

AFFINE = ((Fraction(3, 7), Fraction(-5, 2)), (Fraction(1, 10**12), 10**9), (5, 0))


def _cases():
    """(seed, k, model) triples: ``generate_random`` up to n=60 (30 at
    k=3), unweighted and with mixed-denominator costs."""
    rng = random.Random(2203)
    for case in range(96):
        k = 1 + case % 3
        n = rng.randint(1, {1: 60, 2: 60, 3: 30}[k])
        stretch = rng.choice((1, 2, 3, Fraction(7, 2), 5))
        seed = rng.randrange(10**6)
        m = generate_random(n, seed, stretch)
        if case % 2:
            m = with_costs(m, [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 5, 7)))
                               for _ in range(n)])
        yield seed, k, m


def _mapped(m, f):
    """The model with each interval's endpoints mapped by ``f`` (flipped when
    ``f`` reverses the line), each vertex keeping its cost and id."""
    ivs = tuple(Interval(*sorted((f(iv.left), f(iv.right)))) for iv in m.intervals)
    return ProperIntervalModel(ivs, m.costs, m.original_ids)


def _where(seed, k, variant, m, relation):
    return f"{relation} seed={seed} k={k} variant={variant}\n{serialize_model(m)}"


def test_mirror_and_affine_relations():
    runs = feasible = 0
    for seed, k, m in _cases():
        mirror = _mapped(m, lambda x: -x)
        graph = derive_graph(mirror)
        affine = [_mapped(m, lambda x, a=a, b=b: a * x + b) for a, b in AFFINE]
        for variant in ("kdom", "total"):
            for solve in (solve_fast, solve_naive):
                base = solve(m, k, variant, m.weighted)
                got = solve(mirror, k, variant, m.weighted)
                where = _where(seed, k, variant, m, f"mirror {solve.__name__}")
                assert (got.feasible, got.cost) == (base.feasible, base.cost), where
                if got.feasible:
                    assert find_violation(graph, got.vertices, k, variant) is None, where
                for (a, b), am in zip(AFFINE, affine):
                    got = solve(am, k, variant, m.weighted)
                    where = _where(seed, k, variant, m, f"affine a={a} b={b} {solve.__name__}")
                    assert got == base, where
                runs += 1
                feasible += base.feasible
    assert runs == 96 * 4 and 100 < feasible < runs, (runs, feasible)


SCALES = (Fraction(5, 3), Fraction(1, 7), 4)


def test_cost_scaling_and_monotonicity():
    runs = feasible = deeper = totals = 0
    for seed, k, m in _cases():
        unit_costs = m.costs if m.weighted else (1,) * m.n
        scaled = [with_costs(m, [c * x for x in unit_costs]) for c in SCALES]
        for solve in (solve_fast, solve_naive):
            base = {}
            for variant in ("kdom", "total"):
                base[variant] = got = solve(m, k, variant, m.weighted)
                where = _where(seed, k, variant, m, f"scale {solve.__name__}")
                for c, sm in zip(SCALES, scaled):
                    sol = solve(sm, k, variant, True)
                    assert sol.feasible == got.feasible, (c, where)
                    if got.feasible:
                        assert sol.cost == c * got.cost, (c, where)
                more = solve(m, k + 1, variant, m.weighted)
                where = _where(seed, k, variant, m, f"k+1 {solve.__name__}")
                if more.feasible:
                    assert got.feasible and got.cost <= more.cost, where
                    deeper += 1
                runs += 1
                feasible += got.feasible
            kdom, total = base["kdom"], base["total"]
            if total.feasible:
                where = _where(seed, k, "kdom", m, f"kdom<=total {solve.__name__}")
                assert kdom.feasible and kdom.cost <= total.cost, where
                totals += 1
    assert runs == 96 * 4 and 100 < feasible < runs, (runs, feasible)
    assert deeper > 100 and totals > 20, (deeper, totals)

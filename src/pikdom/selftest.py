"""Randomized self-test: engine agreement plus module invariants.

Runs at desk scale so a user can sanity-check an installation in seconds.
Every instance is derived deterministically from the base seed; on failure
the offending seed and serialized instance are echoed for reproduction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .fast import solve_fast
from .frontier import solve_frontier
from .literal import representative_independence_check
from .model import derive_graph, generate_random, serialize_model, with_costs
from .oracle import (
    VARIANT_KDOM,
    VARIANT_TOTAL,
    brute_force_min,
    check_lemma_components,
    find_violation,
)
from .reduction import solve_naive


def _case_stream(quick: bool):
    count = 24 if quick else 80
    stretches = [1, 2, 3, 5, Fraction(3, 2), 8]
    for i in range(count):
        n = 4 + (i % 7)
        k = 1 + (i % 2)
        if not quick and i % 10 == 9:
            k = 3
        stretch = stretches[i % len(stretches)]
        yield i, n, k, stretch


def _fail(what: str, seed: int, case: int, k: int, variant: str, model, *details) -> bool:
    """Print one failure with its seed, case, problem and serialized
    instance, and return False for the caller to return."""
    print(f"selftest: FAIL {what} seed={seed} case={case}")
    print(f"  n={model.n} k={k} variant={variant} weighted={model.weighted}")
    for line in details:
        print("  " + line)
    print("  instance:")
    for line in serialize_model(model).splitlines():
        print("    " + line)
    return False


def run_selftest(seed: int = 0, quick: bool = False) -> bool:
    checks = 0
    for i, n, k, stretch in _case_stream(quick):
        model = generate_random(n, seed * 100003 + i, stretch)
        rng = random.Random(seed * 7919 + i)
        # Mixed denominators, so the DAG engines search with a scale above 1.
        costs = [
            Fraction(rng.randint(0, 20), rng.choice((1, 2, 3, 5, 7)))
            for _ in range(n)
        ]
        weighted_model = with_costs(model, costs)
        graph = derive_graph(model)
        for variant in (VARIANT_KDOM, VARIANT_TOTAL):
            for m in (model, weighted_model):
                sols = [
                    brute_force_min(m, k, variant, m.weighted),
                    solve_naive(m, k, variant, m.weighted),
                    solve_fast(m, k, variant, m.weighted),
                    solve_frontier(m, k, variant, m.weighted),
                ]
                checks += 1
                feas = {s.feasible for s in sols}
                costs = {s.cost for s in sols}
                if len(feas) != 1 or (sols[0].feasible and len(costs) != 1):
                    return _fail("engine disagreement", seed, i, k, variant, m, *(
                        f"{s.engine}: feasible={s.feasible} cost={s.cost}" for s in sols
                    ))
                for s in sols:
                    if not s.feasible:
                        continue
                    bad = find_violation(graph, s.vertices, k, variant)
                    if bad is not None:
                        return _fail(f"invalid set from {s.engine}", seed, i, k,
                                     variant, m, f"witness={bad}")
                    if variant == VARIANT_TOTAL and not check_lemma_components(
                        graph, s.vertices, k
                    ):
                        return _fail(f"small component in total solution from {s.engine}",
                                     seed, i, k, variant, m)
        for variant in (VARIANT_KDOM, VARIANT_TOTAL):
            checks += 1
            if not representative_independence_check(model, k, variant):
                return _fail("representative independence", seed, i, k, variant, model)
    print(f"selftest: PASS ({checks} checks)")
    return True

"""Randomized self-test: three-engine agreement plus module invariants.

Runs at desk scale so a user can sanity-check an installation in seconds.
Every instance is derived deterministically from the base seed; on failure
the offending seed and serialized instance are echoed for reproduction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .fast import representative_independence_check, solve_fast
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
            for m, weighted in ((model, False), (weighted_model, True)):
                sols = [
                    brute_force_min(m, k, variant, weighted),
                    solve_naive(m, k, variant, weighted),
                    solve_fast(m, k, variant, weighted),
                ]
                checks += 1
                feas = {s.feasible for s in sols}
                costs = {s.cost for s in sols}
                if len(feas) != 1 or (sols[0].feasible and len(costs) != 1):
                    print(f"selftest: FAIL engine disagreement seed={seed} case={i}")
                    print(f"  n={n} k={k} variant={variant} weighted={weighted}")
                    for s in sols:
                        print(f"  {s.engine}: feasible={s.feasible} cost={s.cost}")
                    print("  instance:")
                    for line in serialize_model(m).splitlines():
                        print("    " + line)
                    return False
                for s in sols:
                    if not s.feasible:
                        continue
                    bad = find_violation(graph, s.vertices, k, variant)
                    if bad is not None:
                        print(
                            f"selftest: FAIL invalid set from {s.engine} "
                            f"seed={seed} case={i} witness={bad}"
                        )
                        return False
                    if variant == VARIANT_TOTAL and not check_lemma_components(
                        graph, s.vertices, k
                    ):
                        print(
                            f"selftest: FAIL small component in total solution "
                            f"({s.engine}, seed={seed}, case={i})"
                        )
                        return False
        for variant in (VARIANT_KDOM, VARIANT_TOTAL):
            checks += 1
            if not representative_independence_check(model, k, variant):
                print(
                    f"selftest: FAIL representative independence "
                    f"seed={seed} case={i} variant={variant}"
                )
                return False
    print(f"selftest: PASS ({checks} checks)")
    return True

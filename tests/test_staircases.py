"""Every proper interval graph up to n = 7, through every engine.

With its vertices sorted, a proper interval graph is fixed by its staircase
(``reach_r``), and ``staircases(n)`` lists all Catalan(n) of them.  On each
one, ``fast``, ``naive`` and the frontier solve k 1-3, both variants, with
unit costs and with one weighting; each must match brute force's cost and
feasibility, and each set must pass ``find_violation``.  Each staircase,
unit and weighted, also reads back from its ``serialize_model`` text as an
equal model with equal reach arrays.

The same check runs on a larger corpus as a script; n <= 9 is 6,917 graphs:

    PYTHONPATH=src python tests/test_staircases.py 9
"""

import sys
from fractions import Fraction
from itertools import product

from pikdom.fast import solve_fast
from pikdom.frontier import solve_frontier
from pikdom.model import (
    derive_graph,
    parse_model,
    serialize_model,
    staircase_model,
    staircases,
    with_costs,
)
from pikdom.oracle import brute_force_min, find_violation
from pikdom.reduction import solve_naive

# Staircases with 1..n vertices: the sum of Catalan(1..n).
GRAPHS_UP_TO = {7: 625, 8: 2055, 9: 6917}


def check_staircases(max_n: int) -> int:
    """Hold every engine to brute force on every staircase with at most
    ``max_n`` vertices; returns the number of staircases checked."""
    graphs = 0
    for n in range(1, max_n + 1):
        for reach in staircases(n):
            m = staircase_model(reach)
            assert m.reach_r == reach, reach
            mw = with_costs(m, [Fraction((3 * i * i + 1) % 5, 1 + i % 2) for i in range(n)])
            graph = derive_graph(m)
            for model, weighted in ((m, False), (mw, True)):
                again = parse_model(serialize_model(model))
                assert again == model, reach
                assert (again.reach_l, again.reach_r) == (model.reach_l, model.reach_r), reach
                for k, variant in product((1, 2, 3), ("kdom", "total")):
                    want = brute_force_min(model, k, variant, weighted)
                    for solve in (None, solve_fast, solve_naive, solve_frontier):
                        sol = want if solve is None else solve(model, k, variant, weighted)
                        where = (reach, k, variant, weighted, sol.engine)
                        assert (sol.feasible, sol.cost) == (want.feasible, want.cost), where
                        if sol.feasible:
                            assert find_violation(graph, sol.vertices, k, variant) is None, where
            graphs += 1
    return graphs


def test_every_staircase_up_to_7_agrees_with_brute_force():
    assert check_staircases(7) == GRAPHS_UP_TO[7]


if __name__ == "__main__":
    max_n = int(sys.argv[1])
    graphs = check_staircases(max_n)
    if max_n in GRAPHS_UP_TO and graphs != GRAPHS_UP_TO[max_n]:
        sys.exit(f"saw {graphs} staircases up to n={max_n}, want {GRAPHS_UP_TO[max_n]}")
    print(f"{graphs} staircases up to n={max_n}: every engine agrees with brute force")

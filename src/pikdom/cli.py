"""Command line front end: solve, verify, gen, bench, selftest.

Reports on stdout are byte-stable for identical (instance, config, seed);
wall-clock timings therefore go to stderr.  Exit codes: 0 solved/valid/pass,
2 infeasible/invalid, 1 error (usage errors included).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .errors import ParamError, ParseError, PikdomError
from .fast import search_fast
from .model import (
    derive_graph,
    format_rational,
    generate_random,
    parse_model,
    parse_rational,
    serialize_model,
)
from .oracle import BRUTE_CAP_DEFAULT, VertexSet, brute_force_min, find_violation
from .reduction import (
    DEFAULT_NODE_CAP,
    build_digraph,
    dump_digraph,
    engine_plan,
    search_naive,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

ENGINES = ("fast", "naive", "brute")


def _env_seed(seed: int) -> int:
    raw = os.environ.get("PIKDOM_SEED")
    if raw is None:
        return seed
    try:
        return int(raw)
    except ValueError:
        raise ParamError(f"PIKDOM_SEED must be an integer, got {raw!r}") from None


def _cost_payload(cost: Fraction | None):
    if cost is None:
        return None
    if cost.denominator == 1:
        return cost.numerator
    return f"{cost.numerator}/{cost.denominator}"


def _solve_with(algo: str, model, k: int, variant: str, cap_nodes: int, cap_brute: int):
    """One engine's solution, and the DAG plan it searched: None for brute
    and when the min-degree shortcut answered without one."""
    if algo == "brute":
        return brute_force_min(model, k, variant, model.weighted, cap=cap_brute), None
    plan = engine_plan(model, k, variant, model.weighted, cap_nodes=cap_nodes)
    search = search_fast if algo == "fast" else search_naive
    return search(plan)[0], plan


def _read_text(path) -> str:
    """A file's text, decoded as UTF-8; bytes that do not decode are a parse
    error naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_file(path):
    """The model in a file; a parse error names the file."""
    text = _read_text(path)
    try:
        return parse_model(text)
    except PikdomError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def cmd_solve(args) -> int:
    model = _parse_file(args.instance)
    t0 = time.perf_counter()
    sol, plan = _solve_with(
        args.algo, model, args.k, args.variant, args.cap_nodes, args.cap_brute
    )
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if args.dump_dag:
        if plan is None:
            dg = build_digraph(
                model, args.k, args.variant, model.weighted, cap_nodes=args.cap_nodes
            )
        else:
            dg = plan.digraph()
        Path(args.dump_dag).write_text(dump_digraph(dg))
    report = {
        "feasible": sol.feasible,
        "cost": _cost_payload(sol.cost),
        "set": list(sol.vertices),
        "engine": sol.engine,
        "k": args.k,
        "variant": args.variant,
        "n": model.n,
    }
    if args.stats and sol.stats is not None:
        report["stats"] = sol.stats
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(f"feasible: {'yes' if sol.feasible else 'no'}")
        if sol.feasible:
            print(f"cost: {format_rational(sol.cost)}")
            print("set: " + " ".join(str(v) for v in sol.vertices))
        print(f"engine: {sol.engine}")
        print(f"k: {args.k}")
        print(f"variant: {args.variant}")
        print(f"n: {model.n}")
        if args.stats and sol.stats is not None:
            for key in sorted(sol.stats):
                print(f"stats.{key}: {sol.stats[key]}")
    print(f"time: {elapsed_ms:.1f} ms", file=sys.stderr)
    return EXIT_OK if sol.feasible else EXIT_INFEASIBLE


def _parse_set_file(text: str) -> VertexSet:
    ids = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        payload = raw.split("#", 1)[0].strip()
        if not payload:
            continue
        try:
            ids.append(int(payload))
        except ValueError as exc:
            raise ParseError(f"set file line {lineno}: bad vertex id {payload!r}") from exc
    return VertexSet.of(ids)


def cmd_verify(args) -> int:
    model = _parse_file(args.instance)
    vset = _parse_set_file(_read_text(args.setfile))
    graph = derive_graph(model)
    violation = find_violation(graph, vset, args.k, args.variant)
    if args.format == "json":
        report = {"valid": violation is None}
        if violation is not None:
            report["vertex"], report["neighbors_inside"] = violation
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    elif violation is None:
        print("valid")
    else:
        v, cnt = violation
        print(f"invalid: vertex {v} has {cnt} neighbors in the set, needs {args.k}")
    return EXIT_OK if violation is None else EXIT_INFEASIBLE


def cmd_gen(args) -> int:
    model = generate_random(args.n, args.seed, args.stretch)
    text = serialize_model(model)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _bench_instances(args) -> list[tuple[str, object]]:
    """Every (label, model) of the run, all parsed before the first solve,
    so a bad file ends the run before any row is computed."""
    if args.dir is not None:
        paths = sorted(Path(args.dir).glob("*.txt"))
        if not paths:
            raise ParseError(f"no *.txt instances in {args.dir}")
        return [(p.name, _parse_file(p)) for p in paths]
    return [
        (f"gen-n{n}-r{rep}", generate_random(n, args.seed + 977 * n + rep, args.stretch))
        for n in range(args.n_min, args.n_max + 1)
        for rep in range(args.reps)
    ]


def cmd_bench(args) -> int:
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    for e in engines:
        if e not in ENGINES:
            raise ParamError(f"bench: unknown engine {e!r}")
    if not engines:
        raise ParamError("bench: --engines names no engine")
    if args.dir is None and (args.n_min > args.n_max or args.reps < 1):
        raise ParamError(
            f"bench: empty instance matrix (--n-min {args.n_min} "
            f"--n-max {args.n_max} --reps {args.reps})"
        )
    rows = ["n,k,variant,engine,nodes,arcs_or_tests,wall_ms,cost"]
    for label, model in _bench_instances(args):
        seen: dict[str, object] = {}
        for engine in engines:
            t0 = time.perf_counter()
            try:
                sol, _ = _solve_with(
                    engine, model, args.k, args.variant, args.cap_nodes, args.cap_brute
                )
            except PikdomError as exc:
                raise type(exc)(f"{label}: {exc}") from exc
            wall_ms = (time.perf_counter() - t0) * 1000.0
            stats = sol.stats or {}
            nodes = stats.get("nodes", 0)
            work = stats.get(
                "arcs", stats.get("representative_tests", stats.get("subsets_scanned", 0))
            )
            cost = format_rational(sol.cost) if sol.feasible else "-"
            seen[engine] = (sol.feasible, sol.cost)
            rows.append(
                f"{model.n},{args.k},{args.variant},{engine},{nodes},{work},"
                f"{wall_ms:.2f},{cost}"
            )
        if len(set(seen.values())) > 1:
            print("\n".join(rows))
            print(f"bench: engines disagree on {label}: {seen}", file=sys.stderr)
            sys.stderr.write(serialize_model(model))
            return EXIT_ERROR
    print("\n".join(rows))
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok = run_selftest(seed=args.seed, quick=args.quick)
    return EXIT_OK if ok else EXIT_ERROR


def _rational_arg(token: str) -> Fraction:
    """A rational flag value; a bad literal is a usage error."""
    try:
        return parse_rational(token)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cap_arg(token: str) -> int:
    """A cap flag value: a non-negative integer, or a usage error."""
    try:
        cap = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {token!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {cap}")
    return cap


class _Parser(argparse.ArgumentParser):
    """Usage errors end as ``E_PARAM`` (exit 1); exit 2 means infeasible."""

    def error(self, message):
        raise ParamError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pikdom",
        description="Exact k-domination and total k-domination on proper interval models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("--variant", choices=("kdom", "total"), required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.set_defaults(run=cmd_solve)
    p_solve.add_argument("instance")
    add_problem_flags(p_solve)
    p_solve.add_argument("--algo", choices=ENGINES, default="fast")
    p_solve.add_argument("--dump-dag", metavar="PATH", default=None)
    p_solve.add_argument("--stats", action="store_true")
    p_solve.add_argument("--cap-nodes", type=_cap_arg, default=DEFAULT_NODE_CAP)
    p_solve.add_argument("--cap-brute", type=_cap_arg, default=BRUTE_CAP_DEFAULT)

    p_verify = sub.add_parser("verify", help="check a candidate set file")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("instance")
    p_verify.add_argument("setfile")
    add_problem_flags(p_verify)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.set_defaults(run=cmd_gen)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--stretch", type=_rational_arg, default="3")
    p_gen.add_argument("--out", metavar="PATH", default=None)

    p_bench = sub.add_parser("bench", help="CSV benchmark over instances")
    p_bench.set_defaults(run=cmd_bench)
    p_bench.add_argument("--dir", default=None, help="directory of *.txt instances")
    p_bench.add_argument("--n-min", type=int, default=8)
    p_bench.add_argument("--n-max", type=int, default=12)
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--variant", choices=("kdom", "total"), default="total")
    p_bench.add_argument("--k", type=int, default=1)
    p_bench.add_argument("--engines", default="fast,naive")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--stretch", type=_rational_arg, default="3")
    p_bench.add_argument("--cap-nodes", type=_cap_arg, default=DEFAULT_NODE_CAP)
    p_bench.add_argument("--cap-brute", type=_cap_arg, default=BRUTE_CAP_DEFAULT)

    p_self = sub.add_parser("selftest", help="run the built-in agreement suite")
    p_self.set_defaults(run=cmd_selftest)
    p_self.add_argument("--quick", action="store_true")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call to ``main``, not at
    import.  Parsing leaves it unchanged, so every call can share it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if "seed" in args:
            args.seed = _env_seed(args.seed)
        return args.run(args)
    except PikdomError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error[E_IO]: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""pikdom benchmark: seeded, checked workloads against the public API.

Run from the repository root:

    python3 perfbench/run.py --workload fast-large --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout the script sits in; no
install step is needed.  Every instance is generated from ``--seed`` by
``perfbench/gen.py`` and handed to the program as text.  Every answer is
checked: the set must pass ``find_violation`` on ``derive_graph``, its cost is
recomputed from the generator's own costs, engines that run on the same
instance must agree, and per-instance work counters must repeat exactly.

``--trace 0`` reports the end-to-end metrics of one workload.  ``--trace 1``
reports the per-layer metrics: it times untraced and traced passes of the
workload (their difference is the tracing overhead), then makes one traced
breakdown pass that calls each module's public functions on every instance
and records a span around each call.  Spans are kept in memory and written
to ``perfbench/out/`` at exit.  Layers, metrics and which end-to-end metric
each layer metric should move are described in ``perfbench/METRICS.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable
from fractions import Fraction
from pathlib import Path

from gen import Instance, Spec, generate, prefix  # perfbench/ is sys.path[0]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 7
# Where a layer cannot run on a whole instance, the breakdown pass runs it
# on the instance's longest feasible prefix of this many intervals.
SMALL_CUT = {False: 13, True: 12}   # brute force and the CLI, by weighted
NAIVE_CUT = {1: 185, 2: 38, 3: 16}  # the fully built DAG, by k
# ROADMAP's named over-refusal sizes: (n, k), total variant, stretch 8.
BUDGET_PROBE_SIZES = ((300, 2), (400, 2), (100, 3))
UNCAPPED = 10**40
# Reference time of the calibration kernel: its median on the machine the
# benchmark was defined on (Intel Xeon vCPU at 2.1 GHz, Python 3.11) in
# its fast state.  See ``speed_scale``.
CAL_REF_S = 0.0025


class BenchFailure(Exception):
    """A wrong, refused or inconsistent answer."""


# --------------------------------------------------------------- workloads

_SPARSE = {1: (1, 2, 2, 3), 2: (2, 2, 3, 3), 3: (3, 3, 3, 4)}
_DENSE = {1: (2, 3, 3, 4), 2: (2, 3, 3, 4), 3: (3, 3, 4, 4)}


def _rows(table) -> tuple[Spec, ...]:
    """Specs from (k, dense, variant, n) rows; weighted and integer-only
    rows alternate across density and variant."""
    rows = []
    for k, dense, variant, n in table:
        weighted = (variant == "kdom") != dense
        rows.append(Spec(n, k, variant, weighted, (_DENSE if dense else _SPARSE)[k],
                         gaps=n // 128 if dense else n // 64,
                         clusters=n // 64 if dense else 0,
                         rational=weighted or dense))
    return tuple(rows)


# n is set per row so that every instance takes about the same time; then the
# latency percentiles do not hang on one or two instances.
FAST_LARGE = _rows((
    (1, False, "total", 300), (1, False, "kdom", 240),
    (1, True, "total", 200), (1, True, "kdom", 180),
    (2, False, "total", 88), (2, False, "kdom", 56),
    (2, True, "total", 54), (2, True, "kdom", 40),
    (3, False, "total", 40), (3, False, "kdom", 18),
    (3, True, "total", 27), (3, True, "kdom", 18),
))
XCHECK_MID = _rows((
    (1, False, "total", 185), (1, False, "kdom", 130),
    (1, True, "total", 113), (1, True, "kdom", 88),
    (2, False, "total", 38), (2, False, "kdom", 23),
    (2, True, "total", 25), (2, True, "kdom", 19),
))


def _cli_small() -> tuple[Spec, ...]:
    rows = []
    for i in range(36):
        k = 1 + i % 3
        variant = ("kdom", "total")[(i // 3) % 2]
        weighted = (i // 6) % 2 == 1
        # Brute force grows fastest with n.  Weighted, it scans every subset;
        # unweighted, it stops at the optimum's size, which varies with the
        # seed.  Keeping unweighted n small leaves the weighted instances,
        # whose work does not depend on the seed, as the heaviest.
        n = min(6 + (i * 5) % 8, SMALL_CUT[weighted])
        rows.append(Spec(n, k, variant, weighted, (k, k + 1, k + 1, k + 2),
                         gaps=1 if n >= 12 else 0, clusters=i % 2,
                         rational=i % 4 != 0))
    return tuple(rows)


# ------------------------------------------------------------- calibration

def _kernel() -> Fraction:
    """Fixed pure-Python work of the kind the solvers do: exact rational
    arithmetic, tuple slicing, dict lookups.  It never calls the package,
    so a faster program leaves it unchanged."""
    acc = Fraction(0)
    seen: dict[tuple, int] = {}
    for i in range(1, 700):
        acc += Fraction(i % 7, 1 + i % 5)
        t = (i, i + 1, i + 3)
        seen[t[:2]] = seen.get(t[1:], 0) + (acc < 50)
    return acc


def calibrate() -> float:
    """Current time of the calibration kernel (median of three runs)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor turning wall time into reference seconds.

    On a shared host the speed of one core swings by up to 2x within
    seconds, for identical work, in CPU time as much as in wall time.  Every
    reported time is therefore wall time scaled by CAL_REF_S over the
    calibration kernel's time measured right before and right after the
    timed interval: the time the work would take at the reference speed.
    """
    return 2 * CAL_REF_S / (before + after)


# ----------------------------------------------------------------- tracing

class Tracer:
    """Spans around calls into the package, kept in memory until exit.

    A span is (id, parent id, name, sample, instance, start ns, end ns).
    With tracing off, ``call`` is a plain call.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.inst = ""
        self.sample = ""
        self.scale: dict[str, float] = {}  # instance -> speed_scale factor

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, self.sample, self.inst, t0, t1)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def _scaled_s(self, s: tuple, ns: int) -> float:
        return ns * self.scale.get(s[4], 1.0) / 1e9

    def total_s(self, name: str, sample: str | None = None) -> float:
        """Summed duration of matching spans, in reference seconds."""
        return sum(
            self._scaled_s(s, s[6] - s[5]) for s in self.spans
            if s[2] == name and (sample is None or s[3] == sample)
        )

    def self_s_by_layer(self) -> dict[str, float]:
        """Span duration minus the part its child spans cover, per layer."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[6] - s[5]
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s[2].split(".", 1)[0]
            own = self._scaled_s(s, s[6] - s[5] - child[s[0]])
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "sample", "instance", "start_ns", "end_ns")
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


# ------------------------------------------------------------------ checks

class Bench:
    """One benchmark process: package handle, tracer, failures, counters."""

    def __init__(self, pk, workload: Workload, seed: int, workdir: Path):
        self.pk = pk
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer(False)
        self.attempted = 0
        self.failed = 0
        self.counters: dict[tuple, dict] = {}
        self.paths: dict[str, Path] = {}

    def call(self, name, fn, *args, **kwargs):
        return self.tracer.call(name, fn, *args, **kwargs)

    def fail(self, inst: Instance, why: str) -> None:
        self.failed += 1
        print(f"perfbench: FAIL workload={self.workload.name} seed={self.seed} "
              f"instance={inst.name} k={inst.spec.k} variant={inst.spec.variant} "
              f"weighted={inst.spec.weighted}: {why}", file=sys.stderr)
        sys.stderr.write(inst.text)

    def attempt(self, step, inst: Instance) -> bool:
        """Run one checked instance step; a failure is recorded, not raised."""
        self.attempted += 1
        self.tracer.inst = inst.name
        try:
            with self.tracer.span("bench.instance"):
                step(self, inst)
            return True
        except BenchFailure as exc:
            self.fail(inst, str(exc))
        except Exception:  # the benchmark reports every failure and goes on
            self.fail(inst, traceback.format_exc())
        return False

    def same_counters(self, inst: Instance, engine: str, stats) -> None:
        key = (inst.name, engine)
        stats = dict(stats or {})
        seen = self.counters.setdefault(key, stats)
        if seen != stats:
            raise BenchFailure(f"{engine} counters changed: {seen} -> {stats}")

    def check(self, inst: Instance, graph, engine: str, feasible, vset, cost):
        """Valid set and exactly recomputed cost, or BenchFailure."""
        if not feasible:
            raise BenchFailure(f"{engine} reported infeasible")
        spec = inst.spec
        bad = self.call("oracle.find_violation", self.pk.find_violation,
                        graph, vset, spec.k, spec.variant)
        if bad is not None:
            raise BenchFailure(f"{engine} set invalid at vertex {bad}")
        if inst.costs is None:
            want = Fraction(len(vset.members))
        else:
            want = sum((inst.costs[v - 1] for v in vset), Fraction(0))
        if cost != want:
            raise BenchFailure(f"{engine} cost {cost} but its set costs {want}")

    def solve(self, inst: Instance, model, engine: str):
        spec = inst.spec
        if engine == "fast":
            return self.call("fast.solve_fast", self.pk.solve_fast, model,
                             spec.k, spec.variant, spec.weighted)
        if engine == "naive":
            return self.call("reduction.solve_naive", self.pk.solve_naive, model,
                             spec.k, spec.variant, spec.weighted)
        return self.call("oracle.brute_force_min", self.pk.brute_force_min, model,
                         spec.k, spec.variant, spec.weighted)

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.call("cli.main", self.pk.cli.main, argv)
        return code, out.getvalue()

    def file_for(self, inst: Instance) -> Path:
        path = self.paths.get(inst.name)
        if path is None:
            path = self.workdir / f"{inst.name}.txt"
            path.write_text(inst.text)
            self.paths[inst.name] = path
        return path


def step_api(b: Bench, inst: Instance) -> None:
    """Parse, solve with each engine of the workload, check, cross-check."""
    model = b.call("model.parse_model", b.pk.parse_model, inst.text)
    graph = b.call("model.derive_graph", b.pk.derive_graph, model)
    costs = {}
    for engine in b.workload.engines:
        sol = b.solve(inst, model, engine)
        b.check(inst, graph, engine, sol.feasible, sol.vertices, sol.cost)
        b.same_counters(inst, engine, sol.stats)
        costs[engine] = sol.cost
    if len(set(costs.values())) > 1:
        raise BenchFailure(f"engines disagree: {costs}")


def step_cli(b: Bench, inst: Instance) -> None:
    """``pikdom solve`` with every engine, then ``pikdom verify`` each set."""
    spec = inst.spec
    path = str(b.file_for(inst))
    problem = ["--variant", spec.variant, "--k", str(spec.k), "--format", "json"]
    model = b.call("model.parse_model", b.pk.parse_model, inst.text)
    graph = b.call("model.derive_graph", b.pk.derive_graph, model)
    costs = {}
    for engine in b.workload.engines:
        code, out = b.cli(["solve", path, "--algo", engine, "--stats"] + problem)
        if code != 0:
            raise BenchFailure(f"solve --algo {engine} exited {code}: {out!r}")
        rep = json.loads(out)
        vset = b.pk.VertexSet.of(rep["set"])
        cost = Fraction(str(rep["cost"]))
        b.check(inst, graph, engine, rep["feasible"], vset, cost)
        b.same_counters(inst, engine, rep.get("stats"))
        costs[engine] = cost
        set_path = b.workdir / f"{inst.name}.{engine}.set"
        set_path.write_text("".join(f"{v}\n" for v in vset))
        code, out = b.cli(["verify", path, str(set_path)] + problem)
        if code != 0 or json.loads(out) != {"valid": True}:
            raise BenchFailure(f"verify of the {engine} set: exit {code}, {out!r}")
    if len(set(costs.values())) > 1:
        raise BenchFailure(f"engines disagree: {costs}")


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[Spec, ...]
    engines: tuple[str, ...]   # solved per instance in the timed loop
    step: Callable[[Bench, Instance], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fast-large", FAST_LARGE, ("fast",), step_api),
        Workload("xcheck-mid", XCHECK_MID, ("fast", "naive"), step_api),
        Workload("cli-small", _cli_small(), ("fast", "naive", "brute"), step_cli),
    )
}


# ------------------------------------------------------------------- setup

def load_package():
    """Import pikdom from this checkout's src/, or exit without a result."""
    if not (SRC / "pikdom" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/pikdom", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import pikdom
    import pikdom.cli

    if Path(pikdom.__file__).resolve().parent != (SRC / "pikdom").resolve():
        print(f"perfbench: imported pikdom from {pikdom.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return pikdom


def make_instances(b: Bench) -> list[Instance]:
    """Generate, write, read back and parse the workload's instance set."""
    insts = []
    for i, spec in enumerate(b.workload.specs):
        inst = generate(spec, b.seed * 1000 + i, f"{b.workload.name}-{i:02d}")
        if b.pk.parse_model(b.file_for(inst).read_text()).n != spec.n:
            raise SystemExit(f"perfbench: {inst.name} parsed to the wrong size")
        insts.append(inst)
    return insts


def measure_setup(workload: str, seed: int) -> list[float]:
    """Time from spawning a fresh process to its instances being ready."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: setup child failed ({proc.returncode})")
        after = calibrate()
        times.append((t1 - t0) * speed_scale(before, after))
        before = after
    return times


# ----------------------------------------------------------------- running

def run_passes(b: Bench, insts, seconds: float):
    """Closed loop over the instance set until ``seconds`` have passed.

    Returns per-pass times and per-instance latencies in reference seconds
    (a failed instance counts as infinitely late), and per-pass wall times.
    """
    passes, latencies, walls = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        before = calibrate()
        pass_s = wall_s = 0.0
        for inst in insts:
            t0 = time.perf_counter()
            ok = b.attempt(b.workload.step, inst)
            wall = time.perf_counter() - t0
            after = calibrate()
            ref = wall * speed_scale(before, after)
            before = after
            latencies.append(ref if ok else math.inf)
            pass_s += ref
            wall_s += wall
        passes.append(pass_s)
        walls.append(wall_s)
        if time.perf_counter() >= deadline:
            return passes, latencies, walls


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(b: Bench, insts, args) -> dict:
    passes, lat, walls = run_passes(b, insts, args.seconds)
    setups = measure_setup(args.workload, args.seed)
    solved = sum(1 for x in lat if x != math.inf)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"perfbench: {args.workload} seed={args.seed} passes={len(passes)} "
          f"instances={len(insts)} samples={len(lat)} "
          f"pass_s={[round(p, 4) for p in passes]} "
          f"pass_wall_s={[round(p, 4) for p in walls]} "
          f"setup_s={[round(s, 4) for s in setups]}")
    return {
        "solve_s": (statistics.median(passes), "s"),
        "instance_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "instance_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "solved_frac": (solved / len(lat), "fraction"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def breakdown(b: Bench, insts) -> dict:
    """One traced pass calling each layer's public functions from outside."""
    pk, tr = b.pk, b.tracer
    c = dict.fromkeys(("nodes", "small", "big", "eligible", "classes", "probes",
                       "naive_probes", "e0", "e1", "subsets", "cli_calls"), 0)
    node_counts: list[tuple[Spec, int]] = []

    def step(b: Bench, inst: Instance) -> None:
        spec = inst.spec
        k, variant, weighted = spec.k, spec.variant, spec.weighted
        tr.sample = "full"
        model = b.call("model.parse_model", pk.parse_model, inst.text)
        graph = b.call("model.derive_graph", pk.derive_graph, model)
        nodes = b.call("reduction.enumerate_nodes", pk.enumerate_nodes,
                       model, k, variant)
        middle = nodes[1:-1]
        eligible = b.call("reduction.eligible_tail_bigs", pk.eligible_tail_bigs,
                          middle, model, k, variant)
        classes = b.call("fast.suffix_partition", pk.suffix_partition,
                         middle, k, eligible)
        b.call("fast.topo_order", pk.topo_order, nodes, k)
        sol = b.solve(inst, model, "fast")
        b.check(inst, graph, "fast", sol.feasible, sol.vertices, sol.cost)
        b.same_counters(inst, "fast", sol.stats)
        small = sum(1 for nd in middle if nd.kind == "small")
        mine = {"nodes": len(nodes), "small_nodes": small,
                "big_nodes": len(middle) - small,
                "tail_eligible_bigs": len(eligible), "suffix_classes": len(classes)}
        theirs = {key: sol.stats[key] for key in mine}
        if mine != theirs:
            raise BenchFailure(f"outside counts {mine} != solve_fast stats {theirs}")
        c["nodes"] += len(nodes)
        node_counts.append((spec, len(nodes)))
        c["small"] += small
        c["big"] += len(middle) - small
        c["eligible"] += len(eligible)
        c["classes"] += len(classes)
        c["probes"] += sol.stats["representative_tests"]

        # The fully built DAG, on the instance or its prefix.
        cut = inst if spec.n <= NAIVE_CUT[k] else prefix(inst, NAIVE_CUT[k])
        tr.sample = "naive"
        if cut is not inst:
            model = b.call("model.parse_model", pk.parse_model, cut.text)
            graph = b.call("model.derive_graph", pk.derive_graph, model)
        dg = b.call("reduction.build_digraph", pk.build_digraph,
                    model, k, variant, weighted)
        naive = b.solve(cut, model, "naive")
        fast = sol if cut is inst else b.solve(cut, model, "fast")
        b.check(cut, graph, "naive", naive.feasible, naive.vertices, naive.cost)
        b.same_counters(cut, "naive", naive.stats)
        if naive.cost != fast.cost:
            raise BenchFailure(f"naive {naive.cost} != fast {fast.cost} on {cut.name}")
        e1 = sum(1 for arc in dg.arcs if arc.cls == pk.ARC_E1)
        c["e0"] += len(dg.arcs) - e1
        c["e1"] += e1
        c["naive_probes"] += fast.stats["representative_tests"]

        # Brute force and the CLI, on the instance or its prefix.
        small_cut = SMALL_CUT[weighted]
        cut = inst if spec.n <= small_cut else prefix(inst, small_cut)
        tr.sample = "small"
        model = b.call("model.parse_model", pk.parse_model, cut.text)
        graph = b.call("model.derive_graph", pk.derive_graph, model)
        brute = b.solve(cut, model, "brute")
        b.check(cut, graph, "brute", brute.feasible, brute.vertices, brute.cost)
        b.same_counters(cut, "brute", brute.stats)
        c["subsets"] += brute.stats["subsets_scanned"]
        path = str(b.file_for(cut))
        direct = b.solve(cut, model, "fast")
        code, out = b.cli(["solve", path, "--variant", variant, "--k", str(k),
                           "--algo", "fast", "--format", "json"])
        c["cli_calls"] += 1
        cli_cost = Fraction(str(json.loads(out)["cost"]))
        if code != 0 or {brute.cost, direct.cost, cli_cost} != {brute.cost}:
            raise BenchFailure(f"small cut {cut.name}: brute {brute.cost}, "
                               f"fast {direct.cost}, cli {cli_cost} (exit {code})")

    before = calibrate()
    for inst in insts:
        b.attempt(step, inst)
        after = calibrate()
        tr.scale[inst.name] = speed_scale(before, after)
        before = after
    tr.sample = ""
    c["node_counts"] = node_counts
    return c


def budget_probe(pk, node_counts, seed: int) -> tuple[float, int]:
    """Projected vs enumerated node counts; no solve, nothing timed.

    ``node_counts`` holds (spec, enumerated count) for the workload's
    instances; ROADMAP's named sizes are enumerated here with the cap raised.
    Returns the largest projected/real ratio and how many of the probed
    instances the default cap refuses.
    """
    probes = [(spec.n, spec.k, spec.variant, real) for spec, real in node_counts]
    for n, k in BUDGET_PROBE_SIZES:
        model = pk.generate_random(n, seed, 8)
        real = len(pk.enumerate_nodes(model, k, "total", cap_nodes=UNCAPPED))
        probes.append((n, k, "total", real))
    cap = pk.reduction.DEFAULT_NODE_CAP
    worst, refusals = 0.0, 0
    for i, (n, k, variant, real) in enumerate(probes):
        projected = pk.projected_node_count(n, k, variant)
        worst = max(worst, projected / real)
        refusals += projected > cap
        if i >= len(node_counts):
            print(f"perfbench: budget n={n} k={k} {variant} "
                  f"projected={projected} real={real}")
    return worst, refusals


def per_layer(b: Bench, insts, args) -> dict:
    third = args.seconds / 3
    untraced = run_passes(b, insts, third)[0]
    b.tracer = loop = Tracer(True)
    loop.sample = "loop"
    traced = run_passes(b, insts, third)[0]
    b.tracer = tr = Tracer(True)
    c = breakdown(b, insts)
    worst, refusals = budget_probe(b.pk, c["node_counts"], args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"trace-{args.workload}-seed{args.seed}"
    loop.write(OUT / f"{stem}-loop.jsonl")
    tr.write(OUT / f"{stem}-breakdown.jsonl")

    fast_s = tr.total_s("fast.solve_fast", "full")
    enum_s = tr.total_s("reduction.enumerate_nodes")
    elig_s = tr.total_s("reduction.eligible_tail_bigs")
    part_s = tr.total_s("fast.suffix_partition")
    topo_s = tr.total_s("fast.topo_order")
    build_s = tr.total_s("reduction.build_digraph")
    cli_s = tr.total_s("cli.main")
    selfs = tr.self_s_by_layer()
    m = {
        "fast.solve_s": (fast_s, "s"),
        "fast.dp_s": (fast_s - enum_s - elig_s - part_s - topo_s, "s"),
        "fast.partition_s": (part_s, "s"),
        "fast.topo_order_s": (topo_s, "s"),
        "fast.representative_tests": (c["probes"], "count"),
        "fast.suffix_classes": (c["classes"], "count"),
        "fast.probes_per_node": (c["probes"] / max(1, c["nodes"]), "ratio"),
        "fast.probes_per_e0_arc": (c["naive_probes"] / max(1, c["e0"]), "ratio"),
        "reduction.enumerate_s": (enum_s, "s"),
        "reduction.eligible_s": (elig_s, "s"),
        "reduction.nodes": (c["nodes"], "count"),
        "reduction.small_nodes": (c["small"], "count"),
        "reduction.big_nodes": (c["big"], "count"),
        "reduction.tail_eligible_bigs": (c["eligible"], "count"),
        "reduction.build_digraph_s": (build_s, "s"),
        "reduction.naive_relax_s": (tr.total_s("reduction.solve_naive") - build_s, "s"),
        "reduction.e0_arcs": (c["e0"], "count"),
        "reduction.e1_arcs": (c["e1"], "count"),
        "reduction.budget_overcount": (worst, "ratio"),
        "reduction.budget_refusals": (refusals, "count"),
        "oracle.brute_s": (tr.total_s("oracle.brute_force_min"), "s"),
        "oracle.subsets_scanned": (c["subsets"], "count"),
        "oracle.find_violation_s": (tr.total_s("oracle.find_violation"), "s"),
        "model.parse_s": (tr.total_s("model.parse_model"), "s"),
        "model.derive_graph_s": (tr.total_s("model.derive_graph"), "s"),
        "cli.call_ms": (cli_s / max(1, c["cli_calls"]) * 1e3, "ms"),
        "cli.overhead_ms": ((cli_s - tr.total_s("fast.solve_fast", "small"))
                            / max(1, c["cli_calls"]) * 1e3, "ms"),
    }
    for layer in ("model", "reduction", "fast", "oracle", "cli", "bench"):
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    m["trace.untraced_solve_s"] = (statistics.median(untraced), "s")
    m["trace.traced_solve_s"] = (statistics.median(traced), "s")
    m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pk = load_package()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        b = Bench(pk, WORKLOADS[args.workload], args.seed, workdir)
        insts = make_instances(b)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics = per_layer(b, insts, args)
        else:
            metrics = end_to_end(b, insts, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

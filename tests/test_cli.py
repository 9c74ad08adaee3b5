import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pikdom import cli, reduction
from pikdom.cli import main
from pikdom.model import parse_model, serialize_model
from pikdom.reduction import build_digraph, dump_digraph

P6_TEXT = "6\n1 2.2\n2 3.2\n3 4.2\n4 5.2\n5 6.2\n6 7.2\n"
TWO_OVERLAP = "2\n0 2\n1 3\n"


@pytest.fixture
def p6_file(tmp_path):
    p = tmp_path / "p6.txt"
    p.write_text(P6_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*args):
    """Run ``python *args`` in a new process with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


# ------------------------------------------------------------------ solve

def test_solve_text_report(capsys, p6_file):
    code, out, err = run(capsys, "solve", p6_file, "--variant", "total", "--k", "1")
    assert code == 0
    assert "feasible: yes" in out
    assert "cost: 4" in out
    assert "engine: fast" in out
    assert "time:" in err and "time:" not in out


def test_solve_json_round_trip(capsys, p6_file):
    code, out, _ = run(
        capsys, "solve", p6_file, "--variant", "total", "--k", "1", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report == {
        "feasible": True,
        "cost": 4,
        "set": report["set"],
        "engine": "fast",
        "k": 1,
        "variant": "total",
        "n": 6,
    }
    assert json.dumps(report, sort_keys=True, separators=(",", ":")) == out.strip()


def test_solve_byte_identical_reports(capsys, p6_file):
    _, out1, _ = run(capsys, "solve", p6_file, "--variant", "total", "--k", "1",
                     "--format", "json", "--stats")
    _, out2, _ = run(capsys, "solve", p6_file, "--variant", "total", "--k", "1",
                     "--format", "json", "--stats")
    assert out1 == out2


def test_solve_engines_agree_via_cli(capsys, p6_file):
    costs = {}
    for algo in ("fast", "naive", "brute"):
        code, out, _ = run(capsys, "solve", p6_file, "--variant", "kdom", "--k", "2",
                           "--algo", algo, "--format", "json")
        assert code == 0
        costs[algo] = json.loads(out)["cost"]
    assert len(set(costs.values())) == 1


def test_solve_infeasible_exit_2(capsys, tmp_path):
    inst = tmp_path / "iso.txt"
    inst.write_text("3\n0 1\n5 6\n10 11\n")  # isolated vertices
    code, out, _ = run(capsys, "solve", str(inst), "--variant", "total", "--k", "1",
                       "--format", "json")
    assert code == 2
    report = json.loads(out)
    assert report["feasible"] is False
    assert report["cost"] is None and report["set"] == []


@pytest.mark.parametrize("algo", ["fast", "naive", "brute"])
def test_solve_huge_k(capsys, tmp_path, algo):
    # The work must not grow with k: only the whole line k-dominates, and
    # no total k-dominating set exists.
    inst = tmp_path / "three.txt"
    inst.write_text("3\n0 2\n1 3\n2 4\n")
    k = str(10**18)
    code, out, _ = run(capsys, "solve", str(inst), "--variant", "kdom", "--k", k,
                       "--algo", algo, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == 3 and report["set"] == [1, 2, 3]
    code, out, _ = run(capsys, "solve", str(inst), "--variant", "total", "--k", k,
                       "--algo", algo, "--format", "json")
    assert code == 2 and json.loads(out)["feasible"] is False


def test_solve_parse_error_exit_1(capsys, tmp_path):
    inst = tmp_path / "bad.txt"
    inst.write_text("2\n0 5\n1 2\n")  # containment
    code, _, err = run(capsys, "solve", str(inst), "--variant", "total", "--k", "1")
    assert code == 1
    assert "E_NOT_PROPER" in err


def _naming(message, path):
    """``message``, an error line, as it reads for a parse of the file at
    ``path``: the file is named after the code."""
    code, rest = message.split(": ", 1)
    return f"{code}: {path}: {rest}"


@pytest.mark.parametrize("text, message", [
    ("2\n0 2\n1 x\n", "error[E_PARSE]: line 3: bad rational literal 'x'"),
    ("2 weighted\n0 2 1\n1 3 1/0\n",
     "error[E_PARSE]: line 3: bad rational literal '1/0'"),
    # comment and blank lines count: the line is the file's
    ("# comment\n2\n\n0 2\n1 x\n", "error[E_PARSE]: line 5: bad rational literal 'x'"),
])
def test_solve_bad_literal_names_its_line(capsys, tmp_path, text, message):
    inst = tmp_path / "bad.txt"
    inst.write_text(text)
    code, out, err = run(capsys, "solve", str(inst), "--variant", "kdom", "--k", "1")
    assert (code, out, err) == (1, "", _naming(message, inst) + "\n")


def test_verify_bad_literal_names_its_file(capsys, tmp_path):
    # verify reads two files, so a parse error must say which one is bad
    inst = tmp_path / "bad.txt"
    inst.write_text("2\n0 2\n1 x\n")
    setfile = tmp_path / "set.txt"
    setfile.write_text("1\n")
    code, out, err = run(capsys, "verify", str(inst), str(setfile),
                         "--variant", "kdom", "--k", "1")
    assert (code, out, err) == (
        1, "", f"error[E_PARSE]: {inst}: line 3: bad rational literal 'x'\n"
    )


@pytest.mark.parametrize("argv, message", [
    (("solve", "{}", "--variant", "kdom", "--k", "1"),
     "error[E_PARSE]: line 2: bad rational literal '1e30000000'"),
    (("gen", "--n", "5", "--stretch", "1e-30000000"),
     "error[E_PARAM]: pikdom gen: argument --stretch: bad rational literal '1e-30000000'"),
])
def test_huge_exponent_is_one_coded_line_at_once(capsys, tmp_path, argv, message):
    # Read literally, each literal asks for 10**30000000.
    inst = tmp_path / "huge.txt"
    inst.write_text("1\n0 1e30000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *(arg.format(inst) for arg in argv))
    assert time.perf_counter() - start < 1
    if argv[0] == "solve":
        message = _naming(message, inst)
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("extra", [("--k", "1", "--e1-rule", "max"), ("--k", "x")])
def test_solve_usage_error_exit_1(capsys, p6_file, extra):
    # argparse would exit 2, which reads as "infeasible"
    code, out, err = run(capsys, "solve", p6_file, "--variant", "total", *extra)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error[E_PARAM]: ")


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--variant" in capsys.readouterr().out


def test_solve_budget_exit_1(capsys, tmp_path):
    inst = tmp_path / "dense.txt"
    inst.write_text("6\n1 7\n2 8\n3 9\n4 10\n5 11\n6 12\n")
    code, _, err = run(capsys, "solve", str(inst), "--variant", "total", "--k", "2",
                       "--cap-nodes", "3")
    assert code == 1
    assert "E_BUDGET" in err


def test_solve_deep_chain_exit_1(capsys, tmp_path):
    # k=600 over 1,100 intervals that each meet the next: the enumeration's
    # chains run deeper than the recursion limit, which the lifted cap no
    # longer hides, and the solve ends in one coded line, not a traceback.
    inst = tmp_path / "p.txt"
    assert run(capsys, "gen", "--n", "1100", "--seed", "1", "--stretch", "4",
               "--out", str(inst))[0] == 0
    code, out, err = run(capsys, "solve", str(inst), "--variant", "kdom", "--k", "600",
                         "--cap-nodes", "1" + "0" * 1000)
    assert code == 1 and out == ""
    assert err.startswith("error[E_BUDGET]: ") and err.count("\n") == 1, err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/x.txt", "--variant", "total", "--k", "1")
    assert code == 1
    assert "E_IO" in err


def test_solve_dump_dag(capsys, tmp_path):
    inst = tmp_path / "two.txt"
    inst.write_text(TWO_OVERLAP)
    dump = tmp_path / "dag.txt"
    code, _, _ = run(capsys, "solve", str(inst), "--variant", "total", "--k", "1",
                     "--dump-dag", str(dump))
    assert code == 0
    model = parse_model(TWO_OVERLAP)
    assert dump.read_text() == dump_digraph(build_digraph(model, 1, "total"))


@pytest.mark.parametrize("algo, variant, k", [
    ("fast", "total", 1),
    ("naive", "total", 1),
    ("naive", "kdom", 2),
    ("brute", "total", 1),
    ("fast", "total", 2),  # P6 has min degree 1: the shortcut builds no plan
])
def test_solve_dump_dag_builds_one_plan(capsys, monkeypatch, p6_file, tmp_path,
                                        algo, variant, k):
    built = {"plans": 0, "arcs": 0}
    init, build_arcs = reduction._Plan.__init__, reduction._Plan._build_arcs

    def counted_init(self, *args):
        built["plans"] += 1
        init(self, *args)

    def counted_arcs(self):
        built["arcs"] += 1
        return build_arcs(self)

    monkeypatch.setattr(reduction._Plan, "__init__", counted_init)
    monkeypatch.setattr(reduction._Plan, "_build_arcs", counted_arcs)
    dump = tmp_path / "dag.txt"
    code, _, _ = run(capsys, "solve", p6_file, "--variant", variant, "--k", str(k),
                     "--algo", algo, "--dump-dag", str(dump))
    assert code == (2 if (variant, k) == ("total", 2) else 0)
    assert built == {"plans": 1, "arcs": 1}
    monkeypatch.undo()
    model = parse_model(P6_TEXT)
    assert dump.read_text() == dump_digraph(build_digraph(model, k, variant))


def test_solve_stats_text(capsys, p6_file):
    code, out, _ = run(capsys, "solve", p6_file, "--variant", "total", "--k", "1", "--stats")
    assert code == 0
    assert "stats.suffix_classes:" in out


def test_solve_stats_prefix_classes(capsys, p6_file):
    # P6, total, k=1: the nodes are the five edges (i, i+1).  Every head
    # probes, each with its own first index, and so does the sink.
    code, out, _ = run(capsys, "solve", p6_file, "--variant", "total", "--k", "1",
                       "--format", "json", "--stats")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["big_nodes"] == 5 and stats["small_nodes"] == 0
    assert stats["prefix_classes"] == 6


def test_solve_k4_kdom(capsys, tmp_path):
    inst = tmp_path / "k4.txt"
    inst.write_text("4\n1 5\n2 6\n3 7\n4 8\n")
    code, out, _ = run(capsys, "solve", str(inst), "--variant", "kdom", "--k", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["cost"] == 2


def test_solve_weighted_instance(capsys, tmp_path):
    inst = tmp_path / "w.txt"
    inst.write_text("5 weighted\n1 2.2 9\n2 3.2 1\n3 4.2 1\n4 5.2 5\n5 6.2 9\n")
    for algo in ("fast", "naive", "brute"):
        code, out, _ = run(capsys, "solve", str(inst), "--variant", "total", "--k", "1",
                           "--algo", algo, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["cost"] == 7
        assert report["set"] == [2, 3, 4]


# ----------------------------------------------------------------- verify

def test_verify_valid(capsys, p6_file, tmp_path):
    setfile = tmp_path / "set.txt"
    setfile.write_text("2\n3\n5\n6\n")
    code, out, _ = run(capsys, "verify", p6_file, str(setfile),
                       "--variant", "total", "--k", "1")
    assert code == 0 and out.strip() == "valid"


def test_verify_invalid_witness(capsys, p6_file, tmp_path):
    setfile = tmp_path / "set.txt"
    setfile.write_text("2\n5\n")
    code, out, _ = run(capsys, "verify", p6_file, str(setfile),
                       "--variant", "total", "--k", "1")
    assert code == 2
    assert "vertex 2" in out  # first violated vertex


def test_verify_empty_set_invalid(capsys, p6_file, tmp_path):
    setfile = tmp_path / "empty.txt"
    setfile.write_text("# nothing\n")
    code, out, _ = run(capsys, "verify", p6_file, str(setfile),
                       "--variant", "kdom", "--k", "1")
    assert code == 2
    assert "vertex 1" in out


def test_verify_json(capsys, p6_file, tmp_path):
    setfile = tmp_path / "set.txt"
    setfile.write_text("2\n5\n")
    code, out, _ = run(capsys, "verify", p6_file, str(setfile),
                       "--variant", "kdom", "--k", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_verify_bad_index(capsys, p6_file, tmp_path):
    setfile = tmp_path / "set.txt"
    setfile.write_text("99\n")
    code, _, err = run(capsys, "verify", p6_file, str(setfile),
                       "--variant", "kdom", "--k", "1")
    assert code == 1 and "E_INDEX" in err


# -------------------------------------------------------------------- gen

def test_gen_deterministic_and_valid(capsys):
    code, out1, _ = run(capsys, "gen", "--n", "7", "--seed", "5", "--stretch", "2.5")
    code2, out2, _ = run(capsys, "gen", "--n", "7", "--seed", "5", "--stretch", "2.5")
    assert code == code2 == 0
    assert out1 == out2
    m = parse_model(out1)
    assert m.n == 7
    assert serialize_model(m) == out1


def test_gen_env_seed_override(capsys, monkeypatch):
    _, base, _ = run(capsys, "gen", "--n", "5", "--seed", "1")
    monkeypatch.setenv("PIKDOM_SEED", "99")
    _, forced, _ = run(capsys, "gen", "--n", "5", "--seed", "1")
    monkeypatch.delenv("PIKDOM_SEED")
    _, alt, _ = run(capsys, "gen", "--n", "5", "--seed", "99")
    assert forced == alt and forced != base


def test_bad_env_seed_is_coded_error(capsys, monkeypatch):
    monkeypatch.setenv("PIKDOM_SEED", "abc")
    code, out, err = run(capsys, "selftest", "--quick")
    assert code == 1 and out == ""
    assert err.startswith("error[E_PARAM]:") and "PIKDOM_SEED" in err
    assert err.count("\n") == 1


def test_gen_to_file(capsys, tmp_path):
    out = tmp_path / "inst.txt"
    code, stdout, _ = run(capsys, "gen", "--n", "4", "--seed", "2", "--out", str(out))
    assert code == 0 and stdout == ""
    assert parse_model(out.read_text()).n == 4


@pytest.mark.parametrize("argv", [
    ("gen", "--n", "5", "--stretch", "abc"),
    ("gen", "--n", "5", "--stretch", "1/0"),
    ("bench", "--stretch", "abc"),
])
def test_bad_stretch_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error[E_PARAM]: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, flags", [
    ("solve", ("--cap-nodes", "-5")),
    ("solve", ("--algo", "brute", "--cap-brute", "-1")),
    ("bench", ("--cap-nodes", "-5")),
    ("bench", ("--engines", "brute", "--cap-brute", "-1")),
])
def test_negative_cap_is_usage_error(capsys, p6_file, command, flags):
    problem = (p6_file, "--variant", "total", "--k", "1") if command == "solve" else ()
    code, out, err = run(capsys, command, *problem, *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error[E_PARAM]: ") and err.count("\n") == 1


# ------------------------------------------------------------------ bench

def test_bench_generated_sweep(capsys):
    code, out, _ = run(capsys, "bench", "--n-min", "8", "--n-max", "10",
                       "--k", "1", "--variant", "kdom",
                       "--engines", "fast,naive,brute", "--stretch", "4")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,k,variant,engine,nodes,arcs_or_tests,wall_ms,cost"
    assert len(rows) == 1 + 3 * 3
    by_n = {}
    for row in rows[1:]:
        fields = row.split(",")
        by_n.setdefault(fields[0], set()).add(fields[-1])
    assert all(len(costs) == 1 for costs in by_n.values())  # engines agree


def test_bench_instance_dir(capsys, tmp_path):
    (tmp_path / "a.txt").write_text(P6_TEXT)
    (tmp_path / "b.txt").write_text(TWO_OVERLAP)
    code, out, _ = run(capsys, "bench", "--dir", str(tmp_path), "--k", "1",
                       "--variant", "total", "--engines", "fast,naive")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2 * 2


NOT_UTF8 = b"\xff\xfe2\n0 2\n1 3\n"


@pytest.mark.parametrize("case", ["solve", "verify-instance", "verify-set", "bench-dir"])
def test_non_utf8_file_is_one_coded_line(tmp_path, case):
    good, bad, sset = tmp_path / "good.txt", tmp_path / "bad.txt", tmp_path / "set.txt"
    good.write_text(TWO_OVERLAP)
    sset.write_text("1\n2\n")
    argv = {
        "solve": ["solve", str(bad), "--variant", "kdom", "--k", "1"],
        "verify-instance": ["verify", str(bad), str(sset), "--variant", "kdom", "--k", "1"],
        "verify-set": ["verify", str(good), str(bad), "--variant", "kdom", "--k", "1"],
        "bench-dir": ["bench", "--dir", str(tmp_path), "--k", "1", "--variant", "kdom"],
    }[case]
    if case == "verify-set":
        bad.write_bytes(b"\xff\xfe1\n2\n")
    else:
        bad.write_bytes(NOT_UTF8)
    proc = run_fresh("-m", "pikdom", *argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error[E_PARSE]: {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("text, message", [
    ("2\n0 2\n1 x\n", "error[E_PARSE]: {}: line 3: bad rational literal 'x'"),
    ("2 weighted\n0 2 1\n1 3 -1\n", "error[E_NEG_COST]: {}: line 3: negative cost -1"),
])
def test_bench_dir_names_the_file_that_fails(capsys, tmp_path, text, message):
    (tmp_path / "a.txt").write_text(P6_TEXT)
    (tmp_path / "b.txt").write_text(text)
    code, _, err = run(capsys, "bench", "--dir", str(tmp_path), "--k", "1",
                       "--variant", "total")
    assert (code, err) == (1, message.format(tmp_path / "b.txt") + "\n")


@pytest.mark.parametrize("source", ["dir", "gen"])
def test_bench_solve_error_names_its_instance(capsys, tmp_path, source):
    (tmp_path / "p6.txt").write_text(P6_TEXT)
    argv = ("--dir", str(tmp_path)) if source == "dir" else ("--n-min", "6", "--n-max", "6")
    code, out, err = run(capsys, "bench", *argv, "--engines", "fast,brute", "--k", "1",
                         "--cap-brute", "4")
    label = "p6.txt" if source == "dir" else "gen-n6-r0"
    assert (code, out) == (1, "")
    assert err == f"error[E_TOO_LARGE]: {label}: brute force capped at n <= 4, got 6\n"


def test_bench_dir_parses_every_file_before_solving(capsys, monkeypatch, tmp_path):
    (tmp_path / "a.txt").write_text(P6_TEXT)
    (tmp_path / "c.txt").write_text("2\n0 2\n1 x\n")
    calls = []
    monkeypatch.setattr(cli, "_solve_with", lambda *args: calls.append(args))
    code, out, err = run(capsys, "bench", "--dir", str(tmp_path), "--k", "1",
                         "--variant", "total")
    assert (code, out, calls) == (1, "", [])
    assert err.count("\n") == 1 and str(tmp_path / "c.txt") in err


def test_bench_empty_dir_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "bench", "--dir", str(tmp_path))
    assert code == 1
    assert "E_PARSE" in err


@pytest.mark.parametrize("argv", [
    ("--engines", ""),
    ("--n-min", "5", "--n-max", "4"),
    ("--reps", "0"),
])
def test_bench_empty_matrix_exit_1(capsys, argv):
    code, out, err = run(capsys, "bench", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error[E_PARAM]: ") and err.count("\n") == 1


def test_bench_unknown_engine_exit_1(capsys):
    code, out, err = run(capsys, "bench", "--engines", "fast,bogus")
    assert code == 1
    assert out == ""
    assert err.startswith("error[E_PARAM]: ") and err.count("\n") == 1
    assert "bogus" in err


# --------------------------------------------------------------- selftest

def test_selftest_quick_pass(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert "selftest: PASS" in out


@pytest.mark.parametrize("seed", [0, 1])
def test_selftest_full_pass(capsys, seed):
    # The full stream adds the k=3 cases the quick one lacks.
    code, out, _ = run(capsys, "selftest", "--seed", str(seed))
    assert code == 0
    assert "selftest: PASS (480 checks)" in out


def test_selftest_injected_fault_fails(capsys, monkeypatch):
    import pikdom.reduction as reduction

    real = reduction._gap_covered

    def relaxed(ctx, tail, heads):
        # the literal gap cover, condition (2), skipped once k >= 2
        return real(ctx, tail, heads) if ctx.k < 2 else list(heads)

    monkeypatch.setattr(reduction, "_gap_covered", relaxed)
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert "FAIL" in out
    assert "instance:" in out  # counterexample echoed


@pytest.mark.parametrize("check, fault", [
    ("find_violation", 1),
    ("check_lemma_components", False),
    ("representative_independence_check", False),
])
def test_selftest_every_failure_prints_the_instance(capsys, monkeypatch, check, fault):
    import pikdom.selftest as selftest

    monkeypatch.delenv("PIKDOM_SEED", raising=False)
    monkeypatch.setattr(selftest, check, lambda *args: fault)
    code, out, _ = run(capsys, "selftest", "--quick", "--seed", "0")
    assert code == 1
    assert "FAIL" in out and "seed=0" in out
    assert "instance:" in out


# ---------------------------------------------------------------- process

def test_fresh_process_matches_in_process(capsys, p6_file, tmp_path):
    setfile = tmp_path / "set.txt"
    setfile.write_text("2\n3\n5\n6\n")
    problem = ("--variant", "total", "--k", "1", "--format", "json")
    for argv in (("solve", p6_file, *problem, "--stats"),
                 ("verify", p6_file, str(setfile), *problem)):
        code, out, _ = run(capsys, *argv)
        fresh = run_fresh("-m", "pikdom", *argv)
        assert code == 0 and fresh.returncode == 0
        assert fresh.stdout == out


def test_repeat_calls_match_first_calls(capsys, p6_file, tmp_path):
    # One shared parser serves every call: no call's parse may leak into the
    # next, so each must answer as it does first in a fresh process.
    setfile = tmp_path / "set.txt"
    setfile.write_text("2\n5\n")
    problem = ("--variant", "kdom", "--k", "1", "--format", "json")
    first = ("solve", p6_file, *problem, "--algo", "naive")
    calls = [
        ("solve", p6_file, "--variant", "total", "--k", "x"),
        first,
        ("solve", p6_file, *problem),
        ("verify", p6_file, str(setfile), *problem),
        ("gen", "--n", "5", "--seed", "3"),
        first,
    ]
    seen = [run(capsys, *argv) for argv in calls]
    fresh = [run_fresh("-m", "pikdom", *argv) for argv in calls]
    for argv, (code, out, _), proc in zip(calls, seen, fresh):
        assert (code, out) == (proc.returncode, proc.stdout), argv
    assert seen[0][0] == 1 and seen[0][1] == ""
    assert seen[0][2] == fresh[0].stderr
    assert json.loads(seen[1][1])["engine"] == "naive"
    assert json.loads(seen[2][1])["engine"] == "fast"


def test_parser_built_once_per_process_not_at_import(p6_file):
    script = (
        "import contextlib, io, pikdom.cli as cli\n"
        "assert cli._parser.cache_info().currsize == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for _ in range(3): cli.main(['solve', {p6_file!r}, '--variant', 'kdom', '--k', '1'])\n"
        "print(cli._parser.cache_info().misses)\n"
    )
    proc = run_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"

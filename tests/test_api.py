import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pikdom
from pikdom import cli, fast, literal, reduction


def _public_callables():
    """Every name ``pikdom`` exports, ``cli.main``, and every other public
    function or class a ``pikdom`` module defines."""
    yield from ((f"pikdom.{name}", getattr(pikdom, name)) for name in dir(pikdom))
    yield "pikdom.cli.main", cli.main
    for info in pkgutil.iter_modules(pikdom.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"pikdom.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_public_callables_take_no_underscore_parameters():
    # A leading underscore marks a test hook or a diagnostic toggle; the
    # public API carries neither.
    hooks, checked = {}, set()
    for qualname, obj in _public_callables():
        if qualname.rsplit(".", 1)[1].startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # an exception class: builtin (*args)
            assert issubclass(obj, BaseException), qualname
            continue
        checked.add(qualname)
        underscored = [p for p in params if p.startswith("_")]
        if underscored:
            hooks[qualname] = underscored
    assert hooks == {}
    assert len(checked) > 50


def test_cli_imports_no_private_name():
    # The CLI drives the package through its public phases only.
    tree = ast.parse(inspect.getsource(cli))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and (node.level or node.module.startswith("pikdom"))
    ]
    assert private == []


# The paper's literal definitions and the node-list helpers no solve runs.
LITERAL_NAMES = (
    "_hits", "_tail_ok", "_head_ok", "_e0_arc", "_e0_head_window", "is_e0_arc",
    "is_e1_arc", "arc_length", "eligible_tail_bigs", "projected_node_count",
    "enumerate_nodes", "suffix_key", "SuffixClass", "suffix_partition",
    "topo_order", "representative_independence_check",
)
SOLVE_MODULES = ("reduction", "fast", "frontier", "model", "oracle", "cli", "errors")


def _imported_modules(tree):
    """Every dotted name a module's imports bind or read from, its relative
    imports resolved against the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pikdom" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_literal_definitions_live_in_one_module():
    # pikdom.literal is the one home of the paper's literal checks: each is
    # defined there and nowhere else, the solve modules neither import it
    # nor keep an alias, and every name the package exported (all public
    # ones but SuffixClass) still resolves on it.
    src = Path(pikdom.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    assert set(SOLVE_MODULES) <= set(trees)
    for name in SOLVE_MODULES:
        bad = [m for m in _imported_modules(trees[name])
               if m == "pikdom.literal" or m.startswith("pikdom.literal.")]
        assert bad == [], name
    defined = {
        name: sorted(
            stem for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
        for name in LITERAL_NAMES
    }
    assert defined == {name: ["literal"] for name in LITERAL_NAMES}
    for name in LITERAL_NAMES:
        assert getattr(literal, name).__module__ == "pikdom.literal", name
        assert not hasattr(reduction, name) and not hasattr(fast, name), name
        if not name.startswith("_") and name != "SuffixClass":
            assert getattr(pikdom, name) is getattr(literal, name), name


def test_benchmark_names_resolve_on_the_package():
    # perfbench/run.py drives the package as ``pk`` (``pikdom`` from src/);
    # every ``pk.<name>`` chain it reads must stay, including the functions
    # only its breakdown calls (suffix_partition, eligible_tail_bigs,
    # topo_order).
    text = (Path(__file__).parents[1] / "perfbench" / "run.py").read_text()
    chains = set(re.findall(r"\bpk\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text))
    assert {"suffix_partition", "eligible_tail_bigs", "topo_order", "cli.main"} <= chains
    missing = []
    for chain in sorted(chains):
        obj = pikdom
        for name in chain.split("."):
            if not hasattr(obj, name):
                missing.append(chain)
                break
            obj = getattr(obj, name)
    assert missing == []


def test_readme_library_examples_run(capsys):
    # The README's Library section, run as a reader would: its python
    # blocks in order, in one namespace, the second reading the first's
    # model.
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    sol, naive_sol = namespace["sol"], namespace["naive_sol"]
    assert sol.feasible and naive_sol.cost == sol.cost
    assert capsys.readouterr().out == f"True {sol.cost} {list(sol.vertices)}\n"
    assert namespace["text"].startswith("0 source 0\n")
    path = namespace["path"]
    assert (path[0].kind, path[-1].kind) == ("source", "sink")


def test_readme_cli_synopsis_matches_parser():
    # The README's CLI block gives each subcommand one line, continued by
    # indented lines, and names exactly the long flags the parser accepts
    # for it; --help goes without saying.
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```$", text, re.M | re.S).group(1)
    readme: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("pikdom "):
            command = readme.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parser = {
        name: {
            flag for action in sub._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, sub in subparsers.choices.items()
    }
    assert readme == parser

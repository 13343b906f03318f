"""Source hygiene: every import in the package's modules is used, every
module-level private name is referenced somewhere in the package, every
function the benchmark's tracer wraps still exists, the CLI, imported and
run through every command, loads no scipy module, and importing it loads
no hashlib; numpy is the one runtime dependency."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "capquad"

# the package's __init__ imports are its exports, used by importers
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    """(line, name) of every imported name that no Name node reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport numpy as np\n"
                     "from math import pi, tau\nx = np.zeros(1) * tau\n")
    assert unused_imports(tree) == [(2, "os"), (4, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def unreferenced_privates(tree, others=()):
    """(line, name) of every private name (one leading underscore) bound at
    the top level of ``tree`` that no name, attribute or import of ``tree``
    or ``others`` reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            stack = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            targets = []
            while stack:
                target = stack.pop()
                if isinstance(target, ast.Name):
                    targets.append(target.id)
                elif isinstance(target, ast.Tuple):
                    stack.extend(target.elts)
        else:
            continue
        bound += [(node.lineno, name) for name in targets
                  if name.startswith("_") and not name.startswith("__")]
    read = set()
    for other in (tree, *others):
        for node in ast.walk(other):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted((line, name) for line, name in bound if name not in read)


def test_unreferenced_privates_are_found():
    tree = ast.parse("_A = 1\n_B, (_C, d) = 2, (3, 4)\n__all__ = []\n"
                     "def _f():\n    return _A\ndef _g():\n    pass\n")
    other = ast.parse("from .m import _g\nx = m._C\n")
    assert unreferenced_privates(tree) == [(2, "_B"), (2, "_C"), (4, "_f"), (6, "_g")]
    assert unreferenced_privates(tree, [other]) == [(2, "_B"), (4, "_f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    others = [tree for p, tree in trees.items() if p != path]
    assert unreferenced_privates(trees[path], others) == []


def test_benchmark_trace_targets_resolve():
    # the tracer skips a missing target silently, and that target's metrics
    # then read 0; solver.nnls and points.greedy_maximal_set are stale
    # targets (the generator is points.ring_lattice)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"capquad.{module}"), name, None))]
    assert set(missing) <= {"solver.nnls", "points.greedy_maximal_set"}


_TOY_COMMANDS = [
    "points --d 2 --alpha 1 --degree 2 --delta 0.25 --out cap.json",
    "solve --points cap.json --degree 2 --out rule.json",
    "points --d 1 --alpha 0.5 --degree 4 --delta 0.25 --out arc.json",
    "solve --points arc.json --degree 4 --out arc_rule.json",
    "points --d 2 --alpha 0.5 --degree 2 --delta 0.25 --out small.json",
    "verify mz --rule rule.json --p 2",
    "verify mz --rule arc_rule.json --p 1",
    "verify osc --points cap.json",
    "verify sieve --points cap.json",
    "verify maxmin --points cap.json",
    "verify weighted-mz --points small.json --weight boundary-power --gamma 1",
    "verify bernstein --alpha 0.5 --degree 4",
    "verify cov --alpha 2.5",
]


# a ring lattice less a hole, whose min-norm weights go negative, so its
# solve takes the max-entropy fallback
_HOLED = ("import math, numpy as np, capquad as cq\n"
          "from capquad import io as cqio\n"
          "ns = cq.ring_lattice(cq.Cap(cq.north_pole(2), 1.0), 1 / 8, degree=8, delta=1.0)\n"
          "centre = np.array([math.sin(0.5), 0.0, math.cos(0.5)])\n"
          "holed = cq.NodeSet(ns.domain, ns.coords[ns.coords @ centre < math.cos(0.15)],\n"
          "                   ns.epsilon, degree=8)\n"
          "cqio.write_canonical('holed.json', cqio.points_to_dict(holed))\n")


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # importing scipy costs about 0.3 s a process, and the package needs
    # none of it: both solver paths, the fallback too, are numpy alone
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    verify_flags = " --trials 3 --threads 1"
    commands = _TOY_COMMANDS + ["solve --points holed.json --degree 8 --out holed_rule.json"]
    code = ("import sys, capquad.cli\n"
            "loaded = [sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]\n"
            + _HOLED +
            f"for line in {commands!r}:\n"
            f"    argv = (line + {verify_flags!r} if line.startswith('verify') else line).split()\n"
            "    if argv[0] == 'verify':\n"
            "        argv += ['--report', argv[1] + '.json']\n"
            "    assert capquad.cli.main(argv) == 0, argv\n"
            "    loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(loaded)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         cwd=tmp_path, check=True)
    assert res.stdout.strip() == str([[]] * (1 + len(commands)))
    assert "accepted (max-entropy): 213 nodes" in res.stderr


def test_runtime_dependencies_are_numpy_alone():
    # scipy serves the tests alone: the cKDTree oracle of test_points
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[<>=!~ \[;]", dep)[0] for dep in project["dependencies"]] == ["numpy"]
    assert "scipy" in [re.split(r"[<>=!~ \[;]", dep)[0]
                       for dep in project["optional-dependencies"]["test"]]


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib costs about 5 ms to import, which every process would pay at
    # start: io's memo keys on the bytes themselves, not on a digest of them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", "import sys, capquad.cli\n"
                          "print('hashlib' in sys.modules)"],
                         capture_output=True, text=True, env=env, check=True)
    assert res.stdout.strip() == "False"

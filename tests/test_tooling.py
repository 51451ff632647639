"""The benchmark tracer's rebinding targets exist in the library.

``perfbench/tracing.py`` wraps names such as ``gainchart.chart.phi`` and
``BrunovskyData.psi`` for traced benchmark runs. A refactor that removes or
renames one of them, or changes the arguments a role is read from, would
otherwise surface only in a traced run; these tests catch it in the ordinary
suite. The tracer file is loaded, never modified, and its wrappers are
installed only in a child interpreter.

A second check keeps test-only API out of the library: every definition in
``src/gainchart`` needs a caller there or in ``perfbench``. A third keeps one
writer of the machine output.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import gainchart

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Runs in a fresh interpreter so that the import is the library's own, with no
# test's monkeypatching in place. Prints the PATCHES entries that do not resolve.
CHECK = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing_under_test", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
for path, _, _ in tracing.PATCHES:
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            importlib.import_module(".".join(parts[:i]))
            break
        except ImportError:
            continue
modules = {name: mod for name, mod in sys.modules.items() if name.startswith("gainchart")}
missing = []
for path, attr, _ in tracing.PATCHES:
    try:
        owner = tracing._resolve(modules, path)
    except (KeyError, AttributeError):
        missing.append(f"{path} (owner)")
        continue
    if not callable(vars(owner).get(attr)):
        missing.append(f"{path}.{attr}")
print(json.dumps({"count": len(tracing.PATCHES), "missing": missing}))
"""


# Installs the tracer's wrappers and runs the worked example through chart
# build, synthesize and coordinates; prints the span names recorded.
ROLES = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing_under_test", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import gainchart.cli
from gainchart import chart
from gainchart.problemfile import parse_problem_text
prob = parse_problem_text(open(sys.argv[2], encoding="utf-8").read())
modules = {name: mod for name, mod in sys.modules.items() if name.startswith("gainchart")}
rec = tracing.Recorder()
with tracing.Patched(rec, modules):
    ch = chart.build_chart(prob.F, prob.G, prob.target, prob.multi_index)
    gain = chart.synthesize(ch, prob.x)
    chart.coordinates(ch, gain.K)
print(json.dumps(sorted({r["name"] for r in rec.records if "name" in r})))
"""


def _run_fresh(script, *args):
    src = str(Path(gainchart.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script, str(TRACING), *args],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_every_traced_name_resolves_on_a_fresh_import():
    report = _run_fresh(CHECK)
    assert report["count"] > 0
    assert report["missing"] == []


def test_traced_roles_name_every_branch():
    example = Path(__file__).resolve().parents[1] / "problems" / "example_n5.json"
    names = set(_run_fresh(ROLES, str(example)))
    assert {
        "reduction.reduce.real",
        "reduction.reduce.complex",
        "poly.invariant_polynomials.fgk",
        "poly.invariant_polynomials.canon",
    } <= names


SRC = Path(__file__).resolve().parents[1] / "src" / "gainchart"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _referenced_names(tree):
    """How often each name is read in a tree: ``x`` as a ``Name``, ``.x`` as an ``Attribute``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else "." + node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_library_definition_has_a_library_caller():
    """Test-only API belongs in ``tests/oracles.py``, not in the library.

    Every module-level function or class, and every public method or property
    that is not a dunder, must be referenced from ``src/gainchart`` outside
    its own body, or from ``perfbench``. A method or property is reached only
    as an attribute, so a local variable of the same name does not count.
    """
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    defs = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path, node.name, node, (node.name, "." + node.name)))
            if isinstance(node, ast.ClassDef):
                defs.extend(
                    (path, f"{node.name}.{fn.name}", fn, ("." + fn.name,))
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                )
    bench = set()
    for p in PERFBENCH.glob("*.py"):
        bench |= _referenced_names(ast.parse(p.read_text(encoding="utf-8"))).keys()
    # each tree is walked once; a definition's own body is subtracted from the total
    library = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    dead = [
        f"{path.stem}.{qualname}"
        for path, qualname, node, keys in defs
        if bench.isdisjoint(keys)
        and sum(library[k] for k in keys) <= sum(_referenced_names(node)[k] for k in keys)
    ]
    assert not dead, "defined in src/gainchart but used only by tests: " + ", ".join(dead)


def test_machine_output_has_one_writer():
    """``problemfile.document_text`` writes the indented machine output; no
    ``json.dumps`` call with an indent is left in ``src/gainchart`` beside it."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps" and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert not calls, "json.dumps with an indent in " + ", ".join(calls)

"""Recorded command-line runs, replayed byte for byte.

Each file under ``golden/`` holds one problem document (with a synthesized
gain in ``options.K``) and the exit code, stdout and stderr of every command
run on it, pretty and machine, plus ``coords`` and ``verify`` on the same
document without ``options.multi_index`` (so the chart search of
``chart_for_gain`` runs too). The documents are the worked example and two
seeded ``conftest.feasible_instance`` pairs, one with a complex target pair
and one with an input beyond rank G, which gives ``canon`` a non-identity
P, Q and R.

A refactor that is meant to keep behaviour must pass these unchanged. To
re-record after an intended output change, run ``python tests/test_golden.py``
with ``src`` on the path and review the diff.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from gainchart import build_chart
from gainchart.chart import default_multi_index, in_domain
from gainchart.cli import main
from gainchart.problemfile import Problem, problem_to_json

from conftest import feasible_instance

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
EXAMPLE = HERE.parent / "problems" / "example_n5.json"
COMMANDS = ("check", "canon", "weyr", "chart", "synthesize", "coords", "verify")
FORMATS = ("pretty", "machine")


def run_cli(doc, path):
    """Exit code, stdout and stderr of every recorded command on ``doc``.

    Each run writes its document to ``path`` first.
    """
    runs = [(cmd, fmt, doc) for cmd in COMMANDS for fmt in FORMATS]
    bare = json.loads(json.dumps(doc))
    bare["options"].pop("multi_index", None)
    runs += [(cmd, fmt, bare) for cmd in ("coords", "verify") for fmt in FORMATS]
    records = []
    for cmd, fmt, d in runs:
        path.write_text(json.dumps(d))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cmd, "--problem", str(path), "--format", fmt])
        records.append({
            "command": cmd, "format": fmt, "multi_index": d is doc,
            "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
        })
    return records


@pytest.mark.parametrize("name", ["example_n5", "complex_n6", "extra_input_n5"])
def test_cli_output_matches_recording(name, tmp_path):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run_cli(golden["document"], tmp_path / "problem.json")
    assert len(got) == len(golden["records"])
    for new, old in zip(got, golden["records"]):
        assert new == old, f"{old['command']} --format {old['format']}"


def _synthesized(base, path):
    """The machine ``synthesize`` document of ``base``: the problem with K."""
    path.write_text(json.dumps(base))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["synthesize", "--problem", str(path), "--format", "machine"])
    assert code == 0
    return json.loads(out.getvalue())["problem"]


def _instance_document(seed, n, extra_inputs, want_complex):
    """A feasible document from a fixed seed, with default multi-index and x."""
    rng = random.Random(seed)
    while True:
        F, G, sd = feasible_instance(rng, n, extra_inputs=extra_inputs)
        if bool(sd.complex) == want_complex:
            break
    chart = build_chart(F, G, sd)
    while True:
        x = [rng.randint(-2, 2) for _ in range(chart.dim)]
        if in_domain(chart, x):
            break
    mi = [list(seq) for seq in default_multi_index(chart.structures)]
    return problem_to_json(Problem(F=F, G=G, target=sd, multi_index=mi, x=x))


def record(tmp):
    """Write the golden files from the library on the path."""
    bases = {
        "example_n5": json.loads(EXAMPLE.read_text()),
        "complex_n6": _instance_document(61, 6, 0, True),
        "extra_input_n5": _instance_document(51, 5, 1, False),
    }
    GOLDEN.mkdir(exist_ok=True)
    for name, base in bases.items():
        doc = _synthesized(base, tmp / f"{name}.json")
        records = run_cli(doc, tmp / f"{name}.json")
        text = json.dumps({"document": doc, "records": records}, indent=1)
        (GOLDEN / f"{name}.json").write_text(text + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        record(Path(d))

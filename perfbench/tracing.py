"""Spans recorded from the benchmark's own files, and the per-layer table.

The library has no instrumentation of its own.  For a traced run the
benchmark rebinds the names through which one module calls into another
(``gainchart.chart.recover_member``, ``gainchart.cli.parse_problem_text``,
``BrunovskyData.psi`` ...) to thin wrappers that open a span around the
original function, and restores them afterwards.  Spans are kept in memory,
written to a JSON-lines file when the run ends, and the per-layer table is
derived from that file alone.

A span record is ``{"id", "name", "start", "end", "parent", "task"}``;
spans of one task share ``task``.  Three kinds of root span exist per task:
``task`` (the traced execution), ``task.untraced`` (the same task run just
before with no wrapper installed; only its duration is recorded) and
``probe`` (kernel timings on operands harvested from the task, outside the
task itself).  A record ``{"count", "value", "task"}`` carries a number
that is not a time (bit lengths, draws).
"""

from __future__ import annotations

import functools
import json
import time

# Spans that stand for an end-to-end entry point rather than a layer: they
# count neither as a layer metric nor towards coverage.
CONTAINERS = frozenset(
    {
        "task",
        "task.untraced",
        "probe",
        "setup",
        "chart.synthesize",
        "chart.coordinates",
        "chart.chart_for_gain",
    }
)


def is_container(name):
    """Entry points: the task roots, chart.synthesize/coordinates, cli.<command>."""
    return name in CONTAINERS or name.startswith("cli.")


class Recorder:
    """In-memory span store with an explicit stack of open spans."""

    def __init__(self):
        self.records = []
        self._stack = []
        self._next = 0
        self.task = None

    def current(self):
        return self._stack[-1][1] if self._stack else None

    def begin(self, name):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name, parent, time.perf_counter()))
        return sid

    def end(self):
        sid, name, parent, start = self._stack.pop()
        self.records.append(
            {"id": sid, "name": name, "start": start, "end": time.perf_counter(),
             "parent": parent, "task": self.task}
        )

    def add_span(self, name, start, end, parent=None):
        sid = self._next
        self._next += 1
        self.records.append(
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "task": self.task}
        )
        return sid

    def count(self, name, value):
        self.records.append({"count": name, "value": value, "task": self.task})

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


def _wrap(rec, name, fn):
    """Span around fn; name is a string or a function of (rec, args)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.begin(name if isinstance(name, str) else name(rec, args))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end()

    return wrapper


def _smith_role(rec, args):
    # chart.recover_member tests the canonical closed loop for class
    # membership; every other caller (synthesize, cli verify) verifies F+GK.
    role = "canon" if rec.current() == "chart.recover_member" else "fgk"
    return f"poly.invariant_polynomials.{role}"


def _reduce_role(rec, args):
    return "reduction.reduce." + ("complex" if args[1].is_complex else "real")


# (owner path, attribute, span name).  Each entry rebinds the name
# in the module that *calls* it, which is where the lookup happens.
PATCHES = [
    ("gainchart.chart", "build_chart", "chart.build_chart"),
    ("gainchart.chart", "to_p_brunovsky", "feedback.to_p_brunovsky"),
    ("gainchart.chart", "rosenbrock_feasible", "feedback.rosenbrock_feasible"),
    ("gainchart.chart", "invariant_chain", "canonical.invariant_chain"),
    ("gainchart.chart", "weyr_from_spectral", "canonical.weyr_from_spectral"),
    ("gainchart.chart", "nu", "chart.nu"),
    ("gainchart.chart", "phi", "chart.phi"),
    ("gainchart.chart", "recover_member", "chart.recover_member"),
    ("gainchart.chart", "invariant_polynomials", _smith_role),
    ("gainchart.chart", "assemble", "observability.assemble"),
    ("gainchart.chart", "is_admissible", "observability.is_admissible"),
    ("gainchart.chart", "find_multi_index", "observability.find_multi_index"),
    ("gainchart.reduction", "reduce_block_cells", _reduce_role),
    ("gainchart.feedback.BrunovskyData", "psi", "feedback.psi"),
    ("gainchart.feedback.BrunovskyData", "psi_inv", "feedback.psi_inv"),
    ("gainchart.cli", "build_chart", "chart.build_chart"),
    ("gainchart.cli", "chart_for_gain", "chart.chart_for_gain"),
    ("gainchart.cli", "synthesize", "chart.synthesize"),
    ("gainchart.cli", "coordinates", "chart.coordinates"),
    ("gainchart.cli", "to_p_brunovsky", "feedback.to_p_brunovsky"),
    ("gainchart.cli", "invariant_chain", "canonical.invariant_chain"),
    ("gainchart.cli", "weyr_from_spectral", "canonical.weyr_from_spectral"),
    ("gainchart.cli", "invariant_polynomials", _smith_role),
    ("gainchart.cli", "parse_problem_text", "problemfile.parse_problem_text"),
    ("gainchart.cli", "problem_to_json", "problemfile.problem_to_json"),
]


def _resolve(modules, path):
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        mod = modules.get(".".join(parts[:i]))
        if mod is not None:
            obj = mod
            for attr in parts[i:]:
                obj = getattr(obj, attr)
            return obj
    raise KeyError(path)


class Patched:
    """Context manager installing the wrappers of PATCHES on a fresh import."""

    def __init__(self, rec, modules):
        self.rec = rec
        self.modules = modules
        self.saved = []

    def __enter__(self):
        for path, attr, name in PATCHES:
            owner = _resolve(self.modules, path)
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.rec, name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


# -- the per-layer table ------------------------------------------------------


def load(path):
    spans, counts = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            (counts if "count" in rec else spans).append(rec)
    return spans, counts


def layer_table(path):
    """Per-layer metrics derived from a span file.

    ``<layer>.ms``: inclusive time in that layer per completed task (spans
    under a ``task`` root); ``setup.<layer>.ms``: the same for the traced
    set-up, per set-up.  ``cli.overhead.ms``: time in ``cli.<command>``
    spans (one per ``cli.main`` call) not covered by any child span, per
    task.  ``trace.overhead_frac``: traced task time over untraced task
    time, minus one.  ``trace.coverage``: time under outermost layer spans
    of traced tasks over untraced task time.
    Counts give ``chart.recover_member.calls`` (per task), the largest bit
    lengths, and the domain acceptance ratio.
    """
    spans, counts = load(path)
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def root_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    def dur(s):
        return s["end"] - s["start"]

    tasks = [s for s in spans if s["name"] == "task"]
    n_tasks = len(tasks)
    # both sides count library-call time only, not the checks between calls
    traced = sum(dur(c) for t in tasks for c in children.get(t["id"], []))
    untraced = sum(dur(s) for s in spans if s["name"] == "task.untraced")
    setups = [s for s in spans if s["name"] == "setup"]

    per_task, per_setup, calls = {}, {}, {}
    covered = 0.0
    cli_self = 0.0
    for s in spans:
        name = s["name"]
        root = root_of(s)
        if name.startswith("cli."):
            cli_self += dur(s) - sum(dur(c) for c in children.get(s["id"], []))
        if is_container(name):
            continue
        if root["name"] == "setup":
            per_setup[name] = per_setup.get(name, 0.0) + dur(s)
            continue
        per_task[name] = per_task.get(name, 0.0) + dur(s)
        calls[name] = calls.get(name, 0) + 1
        if root["name"] == "task":
            p = by_id.get(s["parent"])
            while p is not None and is_container(p["name"]):
                p = by_id.get(p["parent"])
            if p is None:
                covered += dur(s)

    table = {}
    for name, total in sorted(per_task.items()):
        table[f"{name}.ms"] = 1e3 * total / n_tasks
    for name, total in sorted(per_setup.items()):
        table[f"setup.{name}.ms"] = 1e3 * total / len(setups)
    table["chart.recover_member.calls"] = calls.get("chart.recover_member", 0) / n_tasks
    if any(s["name"].startswith("cli.") for s in spans):
        table["cli.overhead.ms"] = 1e3 * cli_self / n_tasks
    table["trace.overhead_frac"] = traced / untraced - 1
    table["trace.coverage"] = covered / untraced

    sums = {}
    maxima = {}
    for c in counts:
        name = c["count"]
        if name.endswith(".bits"):
            maxima[name] = max(maxima.get(name, 0), c["value"])
        else:
            sums[name] = sums.get(name, 0) + c["value"]
    table.update(maxima)
    if sums.get("chart.drawn"):
        table["chart.domain_accept_ratio"] = sums.get("chart.accepted", 0) / sums["chart.drawn"]
    return table, n_tasks

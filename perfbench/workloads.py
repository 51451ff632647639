"""The two workloads: set-up, one task, and the exact checks on its outputs.

Tasks run in rounds.  A round holds one task per ladder rung (``sweep-mid``)
or sixteen documents, one per shape of ``gen.CLI_SHAPES`` and four
infeasible ones (``cli-small``), and a run always stops at a round boundary,
so every run has the same mixture of inputs whatever its length.  Task
``(r, j)`` draws its inputs from ``gen.new_rng(seed, workload, r, j)``: the
same seed gives the same inputs in any run, traced or not.

A task returns a ``TaskResult``: the time of each library call it made, a
list of failures (empty when every output checked out), and the digest of
its exact outputs.  Checks run between the timed calls, never inside them;
the few that call the library themselves (``in_domain`` after a domain
rejection) are deferred to ``TaskResult.settle``, which the runner calls
outside any traced task.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import gen

SEP = "\x1f"

# The chart workload measures one fixed ladder of instances, so that a run's
# cost does not depend on which conjugation a seed happened to draw (that
# alone moved task time by half at n = 15); the run's --seed draws the
# coordinates.  cli-small draws every document from --seed instead: its
# stream is long enough to average over instances.
LADDER_SEED = 20251120


def fresh_import():
    """Import the library from scratch (drops any earlier import first)."""
    for name in [m for m in sys.modules if m == "gainchart" or m.startswith("gainchart.")]:
        del sys.modules[name]
    importlib.import_module("gainchart")
    for sub in ("chart", "cli", "feedback", "reduction", "errors"):
        importlib.import_module(f"gainchart.{sub}")
    return {m: sys.modules[m] for m in sys.modules if m.startswith("gainchart")}


@dataclass
class TaskResult:
    calls: list = field(default_factory=list)  # (call name, seconds)
    failures: list = field(default_factory=list)
    digest: str = ""
    drawn: int = 0
    accepted: int = 0
    gain_bits: int = 0
    operands: tuple = ()  # (chart or instance, x, K) for the kernel probe
    deferred: list = field(default_factory=list)  # checks that call the library

    @property
    def latency(self):
        return sum(dt for _, dt in self.calls)

    def settle(self):
        """Run the deferred checks; the caller does so outside any traced task."""
        for check in self.deferred:
            msg = check()
            if msg:
                self.failures.append(msg)
        self.deferred.clear()
        return self


class Timer:
    """Times each library call of a task; in a traced run also opens a span.

    A call that raises is recorded as ``<name>.raised``.
    """

    def __init__(self, result, rec=None):
        self.result = result
        self.rec = rec

    def call(self, name, fn, *args):
        if self.rec:
            self.rec.begin(name)
        t0 = time.perf_counter()
        ok = False
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            dt = time.perf_counter() - t0
            self.result.calls.append((name if ok else f"{name}.raised", dt))
            if self.rec:
                self.rec.end()


def max_bits(rows):
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for row in rows for v in row),
        default=0,
    )


def qtext(v):
    return f"{v.numerator}/{v.denominator}"


def mtext(rows):
    return ";".join(",".join(qtext(v) for v in row) for row in rows)


def sha(*parts):
    return hashlib.sha256(SEP.join(parts).encode()).hexdigest()


def to_lib(lib, inst):
    """Library objects for a generated instance: (F, G, SpectralData)."""
    gc = lib["gainchart"]
    sd = gc.SpectralData(
        real=[(lam, gc.Partition(s)) for lam, s in inst.real],
        complex=[(a, b, gc.Partition(s)) for a, b, s in inst.cpx],
    )
    return gc.RatMatrix(inst.F), gc.RatMatrix(inst.G), sd


# -- sweep-mid: fixed charts, fresh coordinates ------------------------------


class ChartSweep:
    """One user exploring fixed charts: synthesize at fresh x, then invert.

    The charts of a fixed ladder are built during set-up.  Each task draws
    coordinates x from the run's seed (and
    the free block K2 where m > rank G) until the chart accepts them, runs
    ``synthesize`` and then ``coordinates`` on the gain, and checks that the
    round trip returns x and K2 exactly.
    """

    def __init__(self, name, shapes, coord_range, dens):
        self.name = name
        self.shapes = shapes
        self.lo, self.hi = coord_range
        self.dens = dens

    @property
    def round_size(self):
        return len(self.shapes) + 1

    def instances(self):
        """The ladder: the worked example, then shapes from LADDER_SEED; the same in every run."""
        return [gen.worked_example()] + [
            gen.feasible_instance(gen.new_rng(LADDER_SEED, self.name, s.name), s)
            for s in self.shapes]

    def setup(self, lib, seed, workdir):
        build = lib["gainchart.chart"].build_chart
        return [build(*to_lib(lib, inst)) for inst in self.instances()]

    def draw(self, rng, chart, RatMatrix):
        x = gen.draw_coords(rng, chart.dim, self.lo, self.hi, self.dens)
        K2 = None
        if chart.m > chart.rank_g:
            K2 = RatMatrix(gen.draw_block(rng, chart.m - chart.rank_g, chart.n, self.lo, self.hi))
        return x, K2

    def task(self, lib, state, seed, r, j, rec=None):
        chart_mod = lib["gainchart.chart"]
        RatMatrix = lib["gainchart"].RatMatrix
        domain_error = lib["gainchart.errors"].ChartDomainError
        chart = state[j]
        rng = gen.new_rng(seed, self.name, r, j)
        res = TaskResult()
        timer = Timer(res, rec)
        while True:
            x, K2 = self.draw(rng, chart, RatMatrix)
            res.drawn += 1
            try:
                gain = timer.call("chart.synthesize", chart_mod.synthesize, chart, x, K2)
                break
            except domain_error:
                res.deferred.append(
                    lambda x=x: chart_mod.in_domain(chart, x)
                    and f"ChartDomainError at x={x} inside the chart domain"
                )
                if res.drawn >= 50:
                    res.failures.append("50 draws in a row left the chart domain")
                    return res
        res.accepted = 1
        xb, K2b = timer.call("chart.coordinates", chart_mod.coordinates, chart, gain.K)
        if [Fraction(v) for v in xb] != x:
            res.failures.append(f"coordinates(synthesize(x)) != x at x={x}")
        if (K2b is None) != (K2 is None) or (K2 is not None and K2b != K2):
            res.failures.append("coordinates(synthesize(x)) returned another K2")
        K = gain.K.tolists()
        res.gain_bits = max_bits(K)
        res.digest = sha(self.name, str(j), mtext([x]), mtext(K), mtext(K2.tolists()) if K2 else "")
        res.operands = (chart, x, gain.K)
        return res


# -- cli-small: a stream of distinct documents through the command line -------


class CliStream:
    """Distinct small documents, each run through ``gainchart.cli.main``.

    Feasible documents run check -> synthesize -> coords, then verify on the
    synthesized document and on the same document with K replaced by K + G^T
    (that shift moves the closed-loop trace by ||G||_F^2 != 0, so verify must
    exit 5).  Infeasible documents (a scalar target with m < n) must exit 3
    from both check and synthesize.  An exit 4 from synthesize is accepted
    only where the library's ``in_domain`` is false at that x.
    """

    name = "cli-small"
    round_size = 16
    pool = 128

    def setup(self, lib, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        return {"dir": workdir, "seed": seed, "docs": [self._write(workdir, seed, i)
                                                      for i in range(self.pool)]}

    def _write(self, workdir, seed, i):
        inst, x = gen.cli_document(seed, i)
        path = workdir / f"doc-{i}.json"
        path.write_text(json.dumps(gen.problem_doc(inst, x)))
        return inst, x, path

    def doc(self, state, i):
        docs = state["docs"]
        while len(docs) <= i:  # beyond the pool: generated on demand, untimed
            docs.append(self._write(state["dir"], state["seed"], len(docs)))
        return docs[i]

    def task(self, lib, state, seed, r, j, rec=None):
        main = lib["gainchart.cli"].main
        i = r * self.round_size + j
        inst, x, path = self.doc(state, i)
        res = TaskResult()
        outs = []

        def run(cmd, problem, expect):
            out, err = io.StringIO(), io.StringIO()
            argv = [cmd, "--problem", str(problem), "--format", "machine"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = Timer(res, rec).call(f"cli.{cmd}", main, argv)
            if cmd == "synthesize" and code != 0:
                res.calls[-1] = ("cli.synthesize.rejected", res.calls[-1][1])
            text = out.getvalue()
            outs.extend([cmd, str(code), text])
            if code not in expect:
                res.failures.append(f"doc {i}: {cmd} exited {code}, expected {expect}: "
                                    f"{err.getvalue().strip()}")
            return code, (json.loads(text) if code in (0, 3, 5) and text else None)

        if x is None:
            code, doc = run("check", path, (3,))
            if doc is not None and doc["result"]["feasible"] is not False:
                res.failures.append(f"doc {i}: check called a scalar target feasible")
            run("synthesize", path, (3,))
            res.digest = sha(*outs)
            return res

        code, doc = run("check", path, (0,))
        if doc is not None and doc["result"]["feasible"] is not True:
            res.failures.append(f"doc {i}: check called a feasible target infeasible")
        res.drawn = 1
        code, sdoc = run("synthesize", path, (0, 4))
        if code == 4:
            chart_mod = lib["gainchart.chart"]
            res.deferred.append(
                lambda: chart_mod.in_domain(chart_mod.build_chart(*to_lib(lib, inst)), x)
                and f"doc {i}: synthesize exit 4 inside the chart domain"
            )
            res.digest = sha(*outs)
            return res
        if sdoc is None:
            return res
        res.accepted = 1
        K = [[Fraction(v) for v in row] for row in sdoc["result"]["K"]]
        res.gain_bits = max_bits(K)
        synth = state["dir"] / f"synth-{i}.json"
        synth.write_text(json.dumps(sdoc["problem"]))

        code, cdoc = run("coords", synth, (0,))
        if cdoc is not None:
            if [Fraction(v) for v in cdoc["result"]["x"]] != x:
                res.failures.append(f"doc {i}: coords did not return x")
            if cdoc["result"]["multi_index"] != sdoc["result"]["multi_index"]:
                res.failures.append(f"doc {i}: coords chose another chart")
        code, vdoc = run("verify", synth, (0,))
        if vdoc is not None and vdoc["result"]["match"] is not True:
            res.failures.append(f"doc {i}: verify rejected the synthesized gain")

        shifted = dict(sdoc["problem"])
        Kt = gen.mat_add(K, gen.transpose(inst.G))
        shifted["options"] = {"K": gen.matrix_doc(Kt)}
        shift_path = state["dir"] / f"shift-{i}.json"
        shift_path.write_text(json.dumps(shifted))
        code, vdoc = run("verify", shift_path, (5,))
        if vdoc is not None and vdoc["result"]["match"] is not False:
            res.failures.append(f"doc {i}: verify accepted a trace-shifted gain")
        res.digest = sha(*outs)
        res.operands = (inst, x, K)
        return res


WORKLOADS = {
    # Mid n: time goes to the dense kernel, the Smith form, recover_member
    # and reduce.  Five rungs, so that the median task is the middle rung.
    "sweep-mid": ChartSweep(
        "sweep-mid",
        [
            gen.Shape("n8-real", [[3, 1], [2, 2]], [], [4, 4]),
            gen.Shape("n10-pairs", [[1, 1]], [[2], [1], [1]], [7, 3]),
            gen.Shape("n12-wide", [[2, 2, 1], [3]], [[1, 1]], [5, 4, 3], extra=1),
            gen.Shape("n12-real", [[3, 2, 1], [4, 2]], [], [5, 4, 3]),
        ],
        coord_range=(-3, 3), dens=(1, 1, 2, 3),
    ),
    # Many tiny matrices through the command line: per-call overhead,
    # to_p_brunovsky on every command, problem-file parsing and printing.
    "cli-small": CliStream(),
}

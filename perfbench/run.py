"""Benchmark of the gainchart pipeline: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-mid --seed 0 --seconds 30 --trace 0

A closed loop with one client on one thread: a task starts only when the
previous one has finished.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate run that records spans and derives the per-layer
metrics from the span file.  Every metric is printed by name and unit; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics named in
BENCHMARK.json for that mode).  The exit code is 0 when every output checked
out, 1 when some did not, and 2 when the library is not found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, TaskResult, fresh_import, max_bits, sha, to_lib  # noqa: E402

DEFAULT_SEED = 0
SETUPS = 3  # set-ups per untraced run; setup_s is their median
REF_SHARE = 0.1  # reference time after each task, as a share of its latency
REF_WARMUP = 20  # reference units run and discarded before timing


def unit_of(name):
    if name == "tasks_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_ref"):
        return "ref"
    for suffix, unit in (("_s", "s"), ("ms", "ms"), (".calls", "count"), (".bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def calibrate():
    """Fastest of 5 runs of a fixed Fraction/int loop, to compare machines as ratios."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 1200):
            acc += Fraction(1, k)
        f = 1
        for k in range(1, 4000):
            f *= k
        samples.append(time.perf_counter() - t0)
    return min(samples) * 1e3


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "calibration_ms": calibrate(),
    }


class Reference:
    """A fixed computation timed between tasks: the unit of the ``*_ref`` metrics.

    The unit is the exact inverse of a fixed 7 x 7 rational matrix by the
    benchmark's own Gauss-Jordan over ``fractions.Fraction``: the same kind
    of work as the library's, and no library code.  On a host whose cores
    are shared, the speed of the process drifts by up to a half over
    minutes, and a run's task times drift with it.  After each task the loop
    runs this unit for ``REF_SHARE`` of the task's latency, so its samples
    spread over the run in proportion to task time; task time divided by
    their mean cancels the drift that both share.
    """

    def __init__(self):
        rng = gen.new_rng(0, "reference")
        self.matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(7)]
                       for _ in range(7)]
        inverse = gen.mat_inverse(self.matrix)
        assert gen.mat_mul(self.matrix, inverse) == gen.identity(7)
        self.samples = []

    def unit(self):
        t0 = time.perf_counter()
        gen.mat_inverse(self.matrix)
        self.samples.append(time.perf_counter() - t0)

    def follow(self, latency):
        """Run units for REF_SHARE of `latency` (at least one)."""
        spent = 0.0
        while True:
            self.unit()
            spent += self.samples[-1]
            if spent >= REF_SHARE * latency:
                return

    def warm_up(self):
        for _ in range(REF_WARMUP):
            self.unit()
        self.samples.clear()

    def mean(self):
        return statistics.fmean(self.samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def expected_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload)


def closed_loop(wl, seconds, run_task):
    """Run whole rounds until `seconds` of wall time have passed.

    An exception escaping a task is a failed task, not the end of the run.
    """
    done = []
    start = time.perf_counter()
    r = 0
    while True:
        for j in range(wl.round_size):
            try:
                res = run_task(r, j)
            except Exception as e:  # noqa: BLE001 - reported as a failed task
                res = TaskResult(failures=[f"task {r}.{j} raised {type(e).__name__}: {e}"])
            done.append((r, j, res))
        r += 1
        if time.perf_counter() - start >= seconds:
            return done


def digest_of_round0(done):
    return sha(*[res.digest for r, _, res in done if r == 0])


def samples(done, *names):
    return [dt for _, _, res in done for name, dt in res.calls if name in names]


def run_or_fail(wl, lib, state, seed, r, j):
    try:
        return wl.task(lib, state, seed, r, j).settle()
    except Exception as e:  # noqa: BLE001 - reported as a failed task
        return TaskResult(failures=[f"task {r}.{j} raised {type(e).__name__}: {e}"])


def timed_run(wl, seed, seconds, work):
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        lib = fresh_import()
        state = wl.setup(lib, seed, work)
        setups.append(time.perf_counter() - t0)

    # warm-up, untimed: round 0 once, and the reference unit
    warm = [run_or_fail(wl, lib, state, seed, 0, j) for j in range(wl.round_size)]
    ref = Reference()
    ref.warm_up()

    def run_task(r, j):
        res = wl.task(lib, state, seed, r, j).settle()
        ref.follow(res.latency)
        return res

    done = closed_loop(wl, seconds, run_task)

    # the timed round 0 must reproduce the warm-up's outputs bit for bit
    for r, j, res in done:
        if r != 0:
            continue
        res.failures += warm[j].failures
        if warm[j].digest != res.digest:
            res.failures.append(f"task {r}.{j} did not reproduce its outputs ({warm[j].digest})")

    latencies = [res.latency for _, _, res in done]
    ref_s = ref.mean()
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(done) / sum(latencies),
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_cost_ref": statistics.fmean(latencies) / ref_s,
        "ref_unit_ms": 1e3 * ref_s,
    }
    per_call = {
        "synthesize": samples(done, "chart.synthesize", "cli.synthesize"),
        "coordinates": samples(done, "chart.coordinates", "cli.coords"),
        "check": samples(done, "cli.check"),
        "verify": samples(done, "cli.verify"),
    }
    for name, vals in per_call.items():
        if vals:
            metrics[f"{name}_p50_ms"] = 1e3 * statistics.median(vals)
            metrics[f"{name}_mean_ms"] = 1e3 * statistics.fmean(vals)
            metrics[f"{name}_cost_ref"] = statistics.fmean(vals) / ref_s
    tails = {}
    for name, vals in [("task", latencies)] + [(k, per_call[k]) for k in ("synthesize", "coordinates")]:
        t = stats.tail(vals)
        if t is not None:
            metrics[f"{name}_tail_ms"] = 1e3 * t[0]
            tails[f"{name}_tail_ms"] = {"percentile": t[1], "samples": t[2]}
    extra = {"setup_samples_s": setups, "tails": tails, "ref_samples": len(ref.samples),
             "samples": {k: len(v) for k, v in per_call.items()}}
    return done, metrics, extra


def probe(lib, rec, res):
    """Time the dense kernel on operands harvested from one task."""
    chart_mod = lib["gainchart.chart"]
    RatMatrix = lib["gainchart"].RatMatrix
    first, x, K = res.operands
    if isinstance(first, chart_mod.Chart):
        chart = first
    else:
        chart = chart_mod.build_chart(*to_lib(lib, first))
        K = RatMatrix(K)
    P = chart_mod.nu(chart, x).P
    A = chart.A
    F, G = chart.pair.F, chart.pair.G
    M = F + G @ K

    def kernel():
        rec.call("linalg.matmul", P.__matmul__, A)
        rec.call("linalg.matmul", G.__matmul__, K)
        rec.call("linalg.inverse", P.inverse)
        rec.call("linalg.rank", P.rank)
        rec.call("linalg.rank", M.rank)

    rec.call("probe", kernel)
    rec.count("linalg.operand.bits", max(max_bits(m.tolists()) for m in (P, A, M)))


def traced_run(wl, seed, seconds, work):
    lib = fresh_import()
    rec = tracing.Recorder()
    rec.task = "setup"
    with tracing.Patched(rec, lib):
        state = rec.call("setup", wl.setup, lib, seed, work)

    def run_task(r, j):
        rec.task = f"{r}.{j}"
        plain = wl.task(lib, state, seed, r, j).settle()
        t0 = time.perf_counter()
        rec.add_span("task.untraced", t0, t0 + plain.latency)
        with tracing.Patched(rec, lib):
            res = rec.call("task", wl.task, lib, state, seed, r, j, rec)
        res.settle()
        res.failures += plain.failures
        if res.digest != plain.digest:
            res.failures.append(f"task {r}.{j}: traced and untraced outputs differ")
        rec.count("chart.drawn", res.drawn)
        rec.count("chart.accepted", res.accepted)
        if res.accepted:
            rec.count("chart.gain.bits", res.gain_bits)
        if res.operands:
            probe(lib, rec, res)
        return res

    done = closed_loop(wl, seconds, run_task)
    span_file = work.parent / f"trace-{wl.name}-{seed}.jsonl"
    rec.write(span_file)
    table, _ = tracing.layer_table(span_file)
    return done, table, {"span_file": str(span_file)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gainchart" / "__init__.py").is_file():
        print("perfbench: src/gainchart not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    wl = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    try:
        if args.trace:
            done, metrics, extra = traced_run(wl, args.seed, args.seconds, work)
        else:
            done, metrics, extra = timed_run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = digest_of_round0(done)
    want = expected_digest(args.workload, args.seed)
    if want is not None and digest != want:
        for r, j, res in done:
            if r == 0:
                res.failures.append(f"digest {digest} != recorded {want}")
    attempted = len(done)
    failed = sum(1 for *_, res in done if res.failures)
    if not args.trace:
        metrics["failed_frac"] = failed / attempted
        metrics["peak_rss_mb"] = peak_rss_mb()

    for *_, res in done:
        for msg in res.failures:
            print(f"FAILED: {msg}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"tasks {attempted}  failed {failed}  digest {digest}"
          + ("" if want is None else f" (recorded {'match' if digest == want else 'MISMATCH'})"))
    print("env " + json.dumps(env))
    for name in sorted(metrics):
        value = metrics[name]
        print(f"  {name:<44} {value:>14.6g} {unit_of(name)}")
    if extra.get("tails"):
        print("tails " + json.dumps(extra["tails"]))

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "digest": digest, "attempted": attempted, "failed": failed,
              "metrics": metrics, **extra}
    out_dir = root / ".bench_work"
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    missing = [m for m in wanted if m not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in wanted.items() if m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, fresh_import, sha, to_lib  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return fresh_import()


def inputs_of(workload, seed):
    wl = WORKLOADS[workload]
    if hasattr(wl, "instances"):  # fixed ladder; the seed draws coordinates
        return [gen.draw_coords(gen.new_rng(seed, workload, 0, j), 6, wl.lo, wl.hi, wl.dens)
                for j in range(wl.round_size)]
    docs = [gen.cli_document(seed, i) for i in range(16)]
    return [(i.F, i.G, i.real, i.cpx) for i, _ in docs], [x for _, x in docs]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_inputs(workload):
    assert inputs_of(workload, 7) == inputs_of(workload, 7)
    assert inputs_of(workload, 7) != inputs_of(workload, 8)


def round0_digest(lib, seed, tmp_path):
    wl = WORKLOADS["cli-small"]
    state = wl.setup(lib, seed, tmp_path / f"docs-{seed}")
    results = [wl.task(lib, state, seed, 0, j).settle() for j in range(wl.round_size)]
    assert all(not r.failures for r in results), [r.failures for r in results]
    return sha(*[r.digest for r in results])


def test_seed_fixes_digest(lib, tmp_path):
    first = round0_digest(lib, 3, tmp_path / "a")
    assert first == round0_digest(lib, 3, tmp_path / "b")
    assert first != round0_digest(lib, 4, tmp_path / "c")


def test_units_agree_with_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_reference_follows_task_time():
    import run

    ref = run.Reference()
    ref.follow(0.0)
    assert len(ref.samples) == 1
    ref.follow(0.2)
    assert sum(ref.samples[1:]) >= run.REF_SHARE * 0.2
    assert sum(ref.samples[1:-1]) < run.REF_SHARE * 0.2


def test_recorded_digests_are_for_every_workload():
    recorded = json.loads((HERE / "digests.json").read_text())
    assert set(recorded["digests"]) == set(WORKLOADS)


@pytest.mark.parametrize("n", range(1, 260))
def test_tail_rule(n):
    values = [float(v) for v in range(n)]
    t = stats.tail(values)
    if n < stats.MIN_TAIL_SAMPLES:
        assert t is None
        return
    value, pct, samples = t
    assert samples == n
    _, rank = stats.nearest_rank(sorted(values), pct)
    assert n - rank >= 10
    _, next_rank = stats.nearest_rank(sorted(values), pct + 1)
    assert n - next_rank < 10
    assert value == values[rank - 1]


@pytest.mark.parametrize("seed", range(5))
def test_scalar_target_is_infeasible(lib, seed):
    rng = gen.new_rng(seed, "test", "scalar")
    n = rng.randint(3, 7)
    m = rng.randint(1, n - 1)
    inst = gen.scalar_infeasible_instance(rng, n, m)
    with pytest.raises(lib["gainchart.errors"].InfeasibleError) as err:
        lib["gainchart.chart"].build_chart(*to_lib(lib, inst))
    assert err.value.exit_code == 3


@pytest.mark.parametrize("seed", range(5))
def test_trace_shift_leaves_the_class(lib, seed):
    inst, x = gen.cli_document(seed, 0)
    F, G, sd = to_lib(lib, inst)
    chart_mod = lib["gainchart.chart"]
    chart = chart_mod.build_chart(F, G, sd)
    rng = gen.new_rng(seed, "test", "shift")
    while not chart_mod.in_domain(chart, x):
        x = gen.draw_coords(rng, chart.dim, -3, 3, (1, 2))
    K = chart_mod.synthesize(chart, x).K.tolists()
    shifted = gen.mat_add(K, gen.transpose(inst.G))
    closed = gen.mat_add(inst.F, gen.mat_mul(inst.G, K))
    moved = gen.mat_add(inst.F, gen.mat_mul(inst.G, shifted))
    norm2 = sum(v * v for row in inst.G for v in row)
    assert norm2 != 0
    assert gen.trace(moved) - gen.trace(closed) == norm2
    poly = lib["gainchart.poly"]
    RatMatrix = lib["gainchart"].RatMatrix
    assert poly.invariant_polynomials(RatMatrix(moved)) != chart.chain


def test_chart_dim_matches_library(lib):
    for i in range(16):
        inst, x = gen.cli_document(11, i)
        if x is None:
            continue
        chart = lib["gainchart.chart"].build_chart(*to_lib(lib, inst))
        assert gen.chart_dim(inst) == chart.dim == len(x)


def test_layer_table_from_span_file(tmp_path):
    rec = tracing.Recorder()
    rec.task = "0.0"
    rec.add_span("task.untraced", 0.0, 1.0)
    root = rec.add_span("task", 10.0, 12.0)
    synth = rec.add_span("chart.synthesize", 10.0, 11.1, parent=root)
    rec.add_span("chart.phi", 10.0, 10.5, parent=synth)
    fgk = rec.add_span("poly.invariant_polynomials.fgk", 10.6, 10.9, parent=synth)
    rec.add_span("linalg.matmul", 10.6, 10.7, parent=fgk)  # nested: not counted again
    rec.count("chart.drawn", 2)
    rec.count("chart.accepted", 1)
    rec.count("chart.gain.bits", 17)
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    table, tasks = tracing.layer_table(path)
    assert tasks == 1
    assert table["chart.phi.ms"] == pytest.approx(500.0)
    assert table["trace.coverage"] == pytest.approx(0.8)
    assert table["trace.overhead_frac"] == pytest.approx(0.1)
    assert table["chart.domain_accept_ratio"] == 0.5
    assert table["chart.gain.bits"] == 17


def test_patches_resolve_and_restore(lib):
    chart_mod = lib["gainchart.chart"]
    before = chart_mod.recover_member
    with tracing.Patched(tracing.Recorder(), lib):
        assert chart_mod.recover_member is not before
    assert chart_mod.recover_member is before


def test_shapes_are_feasible():
    shapes = [s for wl in WORKLOADS.values() for s in getattr(wl, "shapes", [])]
    for shape in shapes + gen.CLI_SHAPES:
        assert gen.majorized_by(shape.k, gen.degrees_desc(
            [(0, s) for s in shape.real], [(0, 1, s) for s in shape.cpx]))


def test_fraction_helpers():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert gen.mat_mul(a, gen.mat_inverse(a)) == gen.identity(2)
    assert gen.mat_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) is None

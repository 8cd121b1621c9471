"""Tests of the benchmark's own code: inputs, statistics, spans and verdicts.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import benchstats
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = workloads.make_ops(name, 7)
    assert first == workloads.make_ops(name, 7)
    a = workloads.write_inputs(first, tmp_path / "a", tmp_path / "out")
    b = workloads.write_inputs(workloads.make_ops(name, 7), tmp_path / "b", tmp_path / "out")
    for argv_a, argv_b in zip(a, b):
        if "--config" in argv_a:
            text_a = Path(argv_a[argv_a.index("--config") + 1]).read_text()
            assert text_a == Path(argv_b[argv_b.index("--config") + 1]).read_text()


@pytest.mark.parametrize("name", ["spiral-sweep", "nonaxi-newton", "nonaxi-picard"])
def test_other_seed_other_inputs(name):
    assert workloads.make_ops(name, 1) != workloads.make_ops(name, 2)


def test_spiral_inputs_stay_in_range():
    for seed in range(20):
        for op in workloads.make_ops("spiral-sweep", seed):
            values = op.config["sweep"]["values"]
            f0 = op.config["boundary"]["flux"]
            assert f0 in values and len(values) == 7
            assert values == sorted(set(values))
            assert 0.5 <= f0 <= 3 * 3.141592653589793 and 0.0 <= values[0] and values[-1] <= 12.0


def test_fourier_harmonics_bounded():
    for op in workloads.make_ops("nonaxi-picard", 3):
        boundary = op.config["boundary"]
        assert 0.5 <= boundary["angular_outer"]["0"] / 2.0 <= 1.5
        for side in ("normal_outer", "normal_inner"):
            assert sorted(boundary[side]) == ["2", "3", "4"]
            assert all(re * re + im * im <= 0.1**2 for re, im in boundary[side].values())


@pytest.mark.parametrize("n, pct, rank", [(100, 90, 90), (1000, 99, 990), (50, 80, 40),
                                          (21, 52, 11), (2000, 99, 1980)])
def test_tail_leaves_ten_beyond(n, pct, rank):
    values = list(range(1, n + 1))
    value, q, count = benchstats.tail(reversed(values))
    assert (q, count, value) == (pct, n, rank)
    assert n - value >= benchstats.TAIL_BEYOND


@pytest.mark.parametrize("n", [1, 2, 5, 19])
def test_tail_falls_back_to_median_when_short(n):
    values = [float(v) for v in range(n)]
    assert benchstats.tail(values) == (benchstats.statistics.median(values), 50, n)


def test_self_time_with_nested_spans():
    # a(0..10) > b(1..4) > c(2..3), and a > d(5..9); e(11..12) is a second root
    records = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0),
               ("d", 5.0, 9.0, 0, 0), ("e", 11.0, 12.0, -1, 1)]
    assert spans.self_times(records) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert spans.outermost_time(records, {"b", "c"}, {0}) == 3.0
    assert spans.outermost_time(records, {"c", "e"}, {0, 1}) == 2.0
    assert spans.outermost_time(records, {"c", "e"}, {1}) == 1.0


def test_tracer_attributes_time_to_layers():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer._wrap("stokes.inner", inner)
    wrapped_outer = tracer._wrap("navier_stokes.outer", outer)
    assert wrapped_outer(1) == 4 and tracer.spans == []  # no op: nothing recorded
    tracer.op = 0
    assert wrapped_outer(1) == 4
    tracer.op = None
    (k1, s1, e1, p1, _), (k0, s0, e0, p0, _) = tracer.spans[1], tracer.spans[0]
    assert (k0, p0, k1, p1) == ("navier_stokes.outer", -1, "stokes.inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_install_rebinds_every_imported_name():
    # run in a fresh interpreter: installing rebinds names in the package for good
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import annulus_flux, spans
from annulus_flux import grid, navier_stokes, stokes
original = stokes.solve_stream_system
tracer = spans.Tracer()
tracer.install()
assert navier_stokes.solve_stream_system is stokes.solve_stream_system is not original
assert annulus_flux.build_grid is grid.build_grid
tracer.op = 0
annulus_flux.build_grid(8, 4, 1.0, 2.0)
print([(key, parent) for key, _, _, parent, _ in tracer.spans])
"""
    proc = subprocess.run([sys.executable, "-c", script, str(BENCH), str(BENCH.parent / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([
        ("grid.build_grid", -1), ("grid.chebyshev_diff_matrix", 0),
        ("grid.clenshaw_curtis_weights", 0), ("grid.fourier_diff_matrix", 0)])


def test_verdict_gain_needs_nine_of_ten_and_iqr():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    change = [0.80, 0.81, 0.79, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80, 1.05]
    assert benchstats.verdict(parent, change, "lower", 0.1) == "gain"
    # two losses in ten pairs is no gain; the medians are still far apart
    change_two_losses = change[:8] + [1.05, 1.05]
    assert benchstats.verdict(parent, change_two_losses, "lower", 0.25) == "no regression"


def test_verdict_regression_and_unresolved():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    slower = [v * 1.3 for v in parent]
    assert benchstats.verdict(parent, slower, "lower", 0.1) == "regression"
    assert benchstats.verdict(parent, [v * 1.05 for v in parent], "lower", 0.1) == "no regression"
    noisy = [0.5, 1.5, 0.7, 1.3, 0.9, 1.1, 0.6, 1.4, 1.0, 1.0]
    assert benchstats.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    # every run slower than every parent run: noise cannot hide the regression
    noisy_slower = [v + 0.6 for v in noisy]
    assert benchstats.spread(noisy_slower) > 0.1
    assert benchstats.verdict(parent, noisy_slower, "lower", 0.1) == "regression"
    # noisy and slower, but not every run: no claim either way
    assert benchstats.verdict(parent, [v + 0.2 for v in noisy], "lower", 0.1) == "unresolved"
    higher_better = benchstats.verdict(parent, [v * 0.7 for v in parent], "higher", 0.1)
    assert higher_better == "regression"


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert benchstats.quartiles(values) == tuple(benchstats.statistics.quantiles(values, n=4))
    assert benchstats.spread([2.0, 2.0, 2.0]) == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_spec_matches_what_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    op = {"op": 0, "seconds": 1.0}
    child = {"setup_s": 0.5, "peak_rss_mb": 60.0, "ops": [op, dict(op, op=1)]}
    e2e, _ = run.end_to_end([child])
    traced = dict(child, layers=spans.summarise(spans.Tracer(), [1], 0), span_ops=[0, 1])
    layer = run.per_layer(child, traced, child)
    for reported, declared in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert set(reported) == {m["name"] for m in declared}
        assert all(run.units_of(m["name"]) == m["unit"] for m in declared)

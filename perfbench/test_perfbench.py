"""Self-test of the benchmark's own code: `python3 -m pytest perfbench -q`."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] > a [1, 6] > a1 [2, 3], a2 [3.5, 5]; root > b [7, 9]
    spans = [Span("root", 0.0, 10.0, None, 0), Span("a", 1.0, 6.0, 0, 0),
             Span("a1", 2.0, 3.0, 1, 0), Span("a2", 3.5, 5.0, 1, 0),
             Span("b", 7.0, 9.0, 0, 0)]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    assert sum(own) == pytest.approx(spans[0].end - spans[0].start)


def test_iteration_metrics_sum_to_the_root_span():
    tracer = Tracer()
    with tracer.installed(), tracer.iteration_span(0):
        from cavityspin import QGaussianDensity, grid_for_density, spectral

        grid = spectral.grid_for_density(QGaussianDensity(0.0, 1.39, 0.03), t_max=50.0)
    assert grid_for_density is spectral.grid_for_density  # patch restored
    m = tracer.iteration_metrics(0, useful_solves=0)
    layer_total = sum(m[name] for name in tracing.TIME_METRICS)
    assert layer_total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["spectral.n_freq_max"] == grid.n


def test_every_metric_name_is_well_formed_and_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(declared) == len(set(declared))
    for name in declared + list(run.LAYER_METRICS) + list(run.END_TO_END_UNITS):
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in bench["per_layer"]] == list(run.LAYER_METRICS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


@pytest.mark.parametrize("name, example", [
    ("long-pulse", "long_pulse.json"),
    ("train-compare", "train_compare.json"),
    ("gamma-sweep", "gamma_sweep.json"),
])
def test_seed_zero_reproduces_the_example_configs(name, example):
    with open(os.path.join(ROOT, "docs", "examples", example)) as fh:
        doc = json.load(fh)
    for key in ("scenario", "output"):
        doc.pop(key)
    assert workloads.generate(name, 0) == doc


def test_other_seeds_jitter_within_bounds_and_repeat():
    base = workloads.generate("gamma-sweep", 0)["sweep"][0]["values"]
    one = workloads.generate("gamma-sweep", 7)["sweep"][0]["values"]
    assert one == workloads.generate("gamma-sweep", 7)["sweep"][0]["values"]
    assert one != base
    for a, b in zip(base, one):
        assert abs(b / a - 1.0) <= workloads.COUPLING_JITTER + 1e-6


def test_counting_density_counts_points_and_keeps_values():
    import numpy as np
    from cavityspin import QGaussianDensity

    density = QGaussianDensity(0.0, 1.39, 0.03)
    tracer = Tracer()
    counted = tracing.counting_density(density, tracer)
    x = np.linspace(-0.1, 0.1, 7)
    assert np.array_equal(counted.pdf(x), density.pdf(x))
    assert counted.pdf(0.01) == density.pdf(0.01)
    assert counted.support == density.support
    assert tracer.counts["laplace.pdf_calls"] == 8


@pytest.fixture(scope="module")
def short_pulse(tmp_path_factory):
    inputs = workloads.generate("long-pulse", 1)
    inputs["drive"]["duration_ns"] = 40.0
    inputs["grid"]["t_end_ns"] = 60.0
    workload = workloads.make("long-pulse", inputs, str(tmp_path_factory.mktemp("lp")))
    workload.run()
    return workload


def test_checks_pass_on_a_genuine_output(short_pulse):
    checks = short_pulse.check(seed=1)
    assert checks and all(c["ok"] for c in checks), checks


def test_a_corrupted_output_trips_its_check(short_pulse):
    path = short_pulse.base + ".csv"
    with open(path) as fh:
        lines = fh.readlines()
    saved = list(lines)
    fields = lines[500].split(",")
    fields[1] = repr(float(fields[1]) * 1.001)  # abs_A2 off by 0.1 %
    lines[500] = ",".join(fields)
    try:
        with open(path, "w") as fh:
            fh.writelines(lines)
        failed = [c["name"] for c in short_pulse.check(seed=1) if not c["ok"]]
        assert failed == ["cavity: CSV |A|^2 vs solve_direct, 1201 steps"]
    finally:
        with open(path, "w") as fh:
            fh.writelines(saved)


def test_percentile_reporting_needs_ten_samples_beyond_it():
    assert run._percentile_with_tail(list(range(10))) is None
    got = run._percentile_with_tail([float(v) for v in range(1, 21)])
    assert got == {"p": 50, "value": 10.0}

"""Tests of the benchmark's trace arithmetic and instrumentation.

    python3 -m pytest -q perfbench
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def span(sid, name, start, end, parent=None, thread=0, **attrs):
    return Span(sid, name, start, end, parent, "test", thread, attrs)


def test_union_length_merges_overlaps():
    assert spans.union_length([(1, 4), (2, 6), (8, 9)]) == 6
    assert spans.union_length([(0, 1), (1, 2)]) == 2
    assert spans.union_length([]) == 0


def test_self_time_subtracts_union_of_overlapping_pool_children():
    parent = span(1, "simulate.simulate_ensemble", 0.0, 10.0)
    children = [span(2, "simulate.synthesize", 1.0, 4.0, 1, thread=1),
                span(3, "simulate.synthesize", 2.0, 6.0, 1, thread=2),
                span(4, "simulate.synthesize", 8.0, 9.0, 1, thread=1),
                # a child that outlives its parent is clipped to it
                span(5, "simulate.sample_state", 9.5, 11.0, 1, thread=2)]
    assert spans.self_time(parent, children) == pytest.approx(10.0 - 6.0 - 0.5)


def pool_job():
    """A job root whose ensemble runs two pool threads."""
    return [span(1, "job", 0.0, 10.0),
            span(2, "simulate.simulate_ensemble", 1.0, 9.0, 1, workers=2),
            span(3, "simulate.sample_state", 1.0, 5.0, 2, thread=1),
            span(4, "simulate.synthesize", 1.0, 9.0, 2, thread=2),
            span(5, "simulate.synthesize", 5.0, 8.0, 2, thread=1)]


def test_leaf_shares_split_concurrent_leaves_and_sum_to_the_root():
    shares = spans.leaf_shares(pool_job())
    assert shares[1] == pytest.approx(2.0)      # before and after the ensemble
    assert shares[2] == pytest.approx(0.0)      # always covered by a worker
    assert shares[3] == pytest.approx(2.0)      # 1..5 shared with span 4
    assert shares[4] == pytest.approx(2.0 + 1.5 + 1.0)
    assert shares[5] == pytest.approx(1.5)
    assert sum(shares.values()) == pytest.approx(10.0)


def test_pool_busy_ratio_is_worker_time_over_workers_times_span():
    # (4 + 8 + 3) busy seconds over 2 workers x 8 s
    assert spans.pool_busy_ratio(pool_job()) == pytest.approx(15.0 / 16.0)


def test_layer_metrics_account_for_the_job_wall():
    job = pool_job() + [
        span(6, "cli.cmd_simulate", 9.0, 9.8, 1),
        span(7, "svgplot.heatmap_svg", 9.2, 9.5, 6),
        span(8, "model.load_config", -1.0, -0.5),   # set-up, outside the job
    ]
    m = spans.layer_metrics(job)
    assert m["cli.self_s"] == pytest.approx(0.8 - 0.3)
    assert m["model.load_config.s"] == pytest.approx(0.5)
    assert m["layer.model.s"] == 0.0
    assert m["simulate.pool_busy_ratio"] == pytest.approx(15.0 / 16.0)
    assert m["trace.untraced_s"] == pytest.approx(1.0 + 0.2)
    accounted = sum(m[f"layer.{layer}.s"] for layer in spans.LAYERS)
    assert accounted + m["trace.untraced_s"] == pytest.approx(m["trace.job_wall_s"])
    assert set(m) | {"trace.overhead_s"} == {row[0] for row in spans.LAYER_METRICS}


def test_overhead_is_traced_minus_untraced_median_wall():
    def job(wall, layers=None):
        return {"setup_s": 0.2, "wall_s": wall, "peak_rss_mb": 100.0, "points": 10,
                "realizations": 1, "checks": [{"name": "c", "ok": True, "detail": ""}],
                "findings": [], "layers": layers or {}}
    samples = {"setups": [{"setup_s": 0.2}],
               "jobs": [job(10.0), job(11.0)],
               "traced": [job(12.0, {"trace.job_wall_s": 12.0}),
                          job(14.0, {"trace.job_wall_s": 14.0})]}
    result, _ = run.summarize(samples, trace=1)
    assert result["metrics"]["trace.overhead_s"]["value"] == pytest.approx(13.0 - 10.5)
    assert result["metrics"]["trace.job_wall_s"]["value"] == pytest.approx(13.0)
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 0, True)


def test_crashed_process_counts_as_a_failed_operation():
    samples = {"setups": [{"setup_s": 0.2}], "jobs": [{"error": "exited 1"}], "traced": []}
    result, _ = run.summarize(samples, trace=0)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    p, value = run.tail_percentile(list(range(100)))
    assert (p, value) == (90, 89)
    assert sum(1 for v in range(100) if v > value) == 10


def test_instrumented_pool_spans_keep_their_ensemble_parent():
    import swarmdoppler as sd
    from swarmdoppler import cli, simulate

    original = simulate.synthesize
    original_ensemble = simulate.simulate_ensemble
    tracer = spans.Tracer("test")
    patched = spans.instrument(tracer)
    try:
        # cli and the package import by name, so every namespace is patched
        assert cli.simulate_ensemble is not original_ensemble
        assert cli.simulate_ensemble is sd.simulate_ensemble is simulate.simulate_ensemble
        params = sd.SwarmParams(n_drones=1, n_rotors=2, n_blades=2, blade_length=0.1,
                                wavelength=0.03, mean_speed=300.0, speed_variance=4.0)
        grid = sd.default_grid(params, n_samples=64)
        tracer.root(lambda: sd.simulate_ensemble(params, grid, 8, 1, n_workers=2))
    finally:
        spans.restore(patched)
    assert simulate.synthesize is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (ensemble,) = by_name["simulate.simulate_ensemble"]
    assert ensemble.attrs == {"realizations": 8, "workers": 2, "bytes": 8 * 64 * 8}
    assert len(by_name["simulate.synthesize"]) == 8
    assert all(s.parent == ensemble.id for s in by_name["simulate.synthesize"])
    assert all(s.attrs["scatterer_samples"] == 4 * 64 for s in by_name["simulate.synthesize"])
    m = spans.layer_metrics(tracer.spans)
    assert m["simulate.synthesize.calls"] == 8
    assert 0.0 < m["simulate.pool_busy_ratio"] <= 1.0


def test_benchmark_file_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [row[:3] for row in spans.LAYER_METRICS]
    listed = [w["name"] for w in bench["workloads"]]
    assert listed == [w for w in run.WORKLOADS if w in listed]

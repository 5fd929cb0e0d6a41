"""The benchmark's span tracer must find every layer it wraps.

``bench/tracer.py`` patches robloc functions by name and reports every
metric of a name it cannot find as ``null``. ``pytest bench`` traces only
the estimate-direct workload, which never reaches ``breakdown``, so a
rename there would go unnoticed; this test installs the tracer on the
package and runs one small certification under it.
"""

import importlib.util
import sys
from pathlib import Path

import robloc
from robloc import AttackSuite, empirical_fsbv, make_estimator, shear_attack
from robloc import breakdown
from test_breakdown import degenerate_slope

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def traced_certification(name, X, monkeypatch):
    """The tracer's unresolved targets and the metrics of one small
    ``empirical_fsbv`` of estimator ``name`` on X traced by it."""
    tracer_mod = load_bench_module("tracer", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    tracer = tracer_mod.Tracer()
    tracer.install(robloc, workloads)
    try:
        missing = set(tracer.missing)
        suite = AttackSuite(gamma_grid=(1e2, 1e7), radius_grid=(1e3, 1e9), cone_seed=0)
        T = make_estimator(name)
        tracer.run_op(0, lambda: empirical_fsbv(T, X, suite=suite))
        return missing, tracer.pass_metrics(0, tracer.counts)
    finally:
        tracer.uninstall()


def test_tracer_finds_every_target_and_uninstalls(demo10, monkeypatch):
    originals = (breakdown._run_shear_sweep, breakdown.translation_cluster_attack)
    missing, metrics = traced_certification("cmedian", demo10, monkeypatch)
    assert missing == set()
    assert (breakdown._run_shear_sweep, breakdown.translation_cluster_attack) == originals
    assert [key for key, value in metrics.items() if value is None] == []
    assert metrics["breakdown.sweep.calls"] > 0
    assert metrics["breakdown.frames.count"] > 0


def test_tracer_traces_an_mcd_certification(demo10, monkeypatch):
    # mcd's hook settles every shear and cluster family from stacked
    # subsets, so the estimator itself runs once: the baseline T(X)
    _, metrics = traced_certification("mcd", demo10, monkeypatch)
    assert [key for key, value in metrics.items() if value is None] == []
    assert metrics["breakdown.sweep.calls"] > 0
    assert metrics["estimators.mcd_exhaustive.calls"] == 1


def test_tracer_counts_every_nudged_record(demo10, monkeypatch):
    # the nudging sweep of test_shear_attack_nudges_degenerate_gamma, with
    # its degenerate slope twice: the tracer counts nudges off the trace's
    # records, one per nudged (grid point, family)
    tracer_mod = load_bench_module("tracer", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    T = make_estimator("mcd")
    gamma_bad, _, _ = degenerate_slope(T, demo10)
    tracer = tracer_mod.Tracer()
    tracer.install(robloc, workloads)
    try:
        trace = tracer.run_op(0, lambda: shear_attack(T, demo10, h=2, gamma_grid=(gamma_bad, 10.0, gamma_bad)))
        metrics = tracer.pass_metrics(0, tracer.counts)
    finally:
        tracer.uninstall()
    nudged = [(r.requested_parameter, r.family) for r in trace.records if r.nudged]
    assert nudged == [(gamma_bad, "shear_replace_far"), (gamma_bad, "shear_replace_near")] * 2
    assert metrics["breakdown.sweep.calls"] == 1
    assert metrics["breakdown.gamma_nudges"] == len(nudged)

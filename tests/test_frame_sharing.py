"""A pinned face reached through several facets is swept once per budget and partition.

For h < k the tie direction of a shear frame depends on its kept subset
alone, so every admissible facet containing that subset yields the same
frame geometry: kept subset, tie direction and level. ``empirical_fsbv``
lists the shear attack under every facet's label, but sweeps a geometry
only once per budget and partition; a repeat cannot diverge or raise the
certificate's ``max_distance``, because its twin ran earlier at the same
budget with the same distances and did not diverge. These tests check that
claim against each facet's own, unshared frame and count the work saved.
"""

import dataclasses
import json
import types
from itertools import combinations
from pathlib import Path

import pytest
from click.testing import CliRunner

import robloc
from robloc import AttackSuite, bundled_dataset, empirical_fsbv, load_dataset_csv, make_estimator
from robloc import breakdown, estimators
from robloc.breakdown import _PARTITION_RULES, _Attacks, _shear_frames
from robloc.cli import main
from test_golden import CASES
from test_tracer_targets import load_bench_module

SWEEP = breakdown._run_shear_sweep  # unwrapped, for the unshared replays
GP83 = load_dataset_csv(Path(__file__).parent / "golden" / "gp8_3d.csv")
DEMO10 = bundled_dataset("demo10_2d")


def geometry(frame) -> tuple:
    """What a sweep reads of a frame besides its facet label."""
    return frame.kept, tuple(frame.normal), frame.level


def record_sweeps(monkeypatch) -> list:
    """Record (attacks, frame, m, b_rule) of every shear sweep robloc makes."""
    calls = []
    inner = breakdown._run_shear_sweep

    def recording(attacks, frame, m, b_rule):
        calls.append((attacks, frame, m, b_rule))
        return inner(attacks, frame, m, b_rule)

    monkeypatch.setattr(breakdown, "_run_shear_sweep", recording)
    return calls


def golden_certifications(monkeypatch) -> tuple:
    """The recorded sweeps, and per golden fsbv case that has shear frames
    (its attack context, its certificates as ``robloc fsbv`` emits them)."""
    calls = record_sweeps(monkeypatch)
    runs = []
    for name, (args, _) in sorted(CASES.items()):
        if args[0] != "fsbv":
            continue
        start = len(calls)
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.stderr
        if len(calls) > start:  # 1-D data have no shear frame
            runs.append((calls[start][0], json.loads(result.stdout)["certificates"]))
    return calls, runs


def bench_certifications(monkeypatch, workload) -> tuple:
    """The same for every certification of one pass of a bench workload at seed 1."""
    calls = record_sweeps(monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    rb = types.SimpleNamespace(**vars(robloc))
    runs = []

    def certify(T, X, suite):
        start = len(calls)
        result = empirical_fsbv(T, X, suite=suite)
        runs.append((calls[start][0], result.to_dict()["certificates"]))
        return result

    rb.empirical_fsbv = certify
    ops, _ = workloads.build(rb, workload, 1)
    for op in ops:
        assert op.check(op.run()) is None, op.label
    return calls, runs


def unswept_labels(calls, runs):
    """Every shear label a certificate lists but that ran no sweep of its
    own: (attacks, frame, m, b_rule, certificate)."""
    swept = {(id(a), f.facet.indices, f.kept, m, b) for a, f, m, b in calls}
    for attacks, certificates in runs:
        X = attacks.X
        frames = _shear_frames(_Attacks(attacks.T, X, attacks.suite))
        for m, cert in certificates.items():
            m = int(m)
            expected = [(f, b) for f in frames if m <= X.n - len(f.kept) for b in _PARTITION_RULES]
            tried = [label for label in cert["attack_families_tried"] if label.startswith("shear(")]
            assert len(tried) <= len(expected)
            for (frame, b_rule), label in zip(expected, tried):
                assert label == f"shear(h={len(frame.kept)},facet={frame.facet.indices},rule={b_rule})"
                if (id(attacks), frame.facet.indices, frame.kept, m, b_rule) not in swept:
                    yield attacks, frame, m, b_rule, cert


def assert_unswept_labels_hold_on_their_own_frames(calls, runs):
    checked = 0
    for attacks, frame, m, b_rule, cert in list(unswept_labels(calls, runs)):
        fresh = _Attacks(attacks.T, attacks.X, attacks.suite)
        own = fresh.frame(frame.facet, frame.kept)  # built for this facet, shared with nothing
        assert own.facet is frame.facet and geometry(own) == geometry(frame)
        trace = SWEEP(fresh, own, m, b_rule)
        assert not trace.diverged
        assert trace.max_distance <= cert["max_distance"]
        checked += 1
    assert checked > 0


def test_golden_labels_listed_without_a_sweep_hold_on_their_own_frames(monkeypatch):
    calls, runs = golden_certifications(monkeypatch)
    assert len(runs) == 5
    assert_unswept_labels_hold_on_their_own_frames(calls, runs)


@pytest.mark.parametrize("workload", ["certify-engine", "certify-mcd", "certify-probe"])
def test_bench_labels_listed_without_a_sweep_hold_on_their_own_frames(monkeypatch, workload):
    calls, runs = bench_certifications(monkeypatch, workload)
    assert_unswept_labels_hold_on_their_own_frames(calls, runs)


def counting(monkeypatch, module, name) -> list:
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


CASES_COUNTED = {"gp8_3d-cmedian": (GP83, "cmedian"), "demo10_2d-mcd": (DEMO10, "mcd")}


@pytest.mark.parametrize("case", sorted(CASES_COUNTED))
def test_each_geometry_draws_once_and_sweeps_once_per_partition(monkeypatch, case):
    X, name = CASES_COUNTED[case]
    T = make_estimator(name)
    ties = counting(monkeypatch, breakdown, "normal_cone_ties")
    sweeps = record_sweeps(monkeypatch)
    builds = counting(monkeypatch, estimators, "MCDShearSweep")
    empirical_fsbv(T, X, suite=AttackSuite(cone_seed=0))

    admissible = _Attacks(T, X, AttackSuite()).admissible
    kept_below_k = {kept for f in admissible for h in range(1, X.k) for kept in combinations(f.indices, h)}
    assert len(ties) == len(kept_below_k)
    assert sorted(args[2] for args in ties) == sorted(kept_below_k)

    made = [(geometry(f), f.partition(m, b), m) for _, f, m, b in sweeps]
    assert len(made) == len(set(made))
    frames = _shear_frames(_Attacks(T, X, AttackSuite()))
    distinct = {geometry(f) for f in frames}
    assert len(distinct) < len(frames)
    if name == "mcd":
        assert len(builds) == len(distinct)
    else:
        assert builds == []


def test_geometry_key_tells_apart_kept_direction_and_level():
    attacks = _Attacks(make_estimator("cmedian"), GP83, AttackSuite())
    frames = [f for f in _shear_frames(attacks) if len(f.kept) == 1]
    f, twin = next((f, g) for f, g in combinations(frames, 2) if f.kept == g.kept)
    assert twin.facet.indices != f.facet.indices
    assert twin.geometry == f.geometry
    assert twin.basis is f.basis and twin.offsets is f.offsets and twin.rankings is f.rankings
    assert attacks.per_frame(twin) is attacks.per_frame(f)
    other = next(g for g in frames if g.kept != f.kept)
    for changed in (other, dataclasses.replace(f, normal=-f.normal), dataclasses.replace(f, level=f.level + 1.0)):
        assert changed.geometry != f.geometry
        assert attacks.per_frame(changed) is not attacks.per_frame(f)


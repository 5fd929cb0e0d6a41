"""The batched walk of ``empirical_fsbv`` against the walk one attack at a
time: bit-identical shear images, the lazy walk's errors and bounded memory.

At each budget the attacks settle ahead of the walk in batches of 1, 2, 4,
... attacks. Patching ``breakdown._BATCH_FLOATS`` to 1 caps every batch at
one attack, which is the lazy walk.
"""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robloc import AttackSuite, empirical_fsbv, make_estimator, random_gp_dataset
from robloc import breakdown
from robloc.breakdown import _PARTITION_RULES, _Attacks, _shear_families, _shear_frames, _shear_images
from robloc.errors import EstimatorError, RoblocError
from robloc.estimators import EstimateStack
from robloc.geometry import _shear_terms


@st.composite
def batch_cases(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 2, k + 7))
    X = random_gp_dataset(n, k, draw(st.integers(0, 2**16)))
    powers = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4))
    grid = [10.0**p for p in powers]
    grid.append(grid[0] * (1.0 + 1e-6))  # a nudged slope
    return X, draw(st.integers(1, n - 2)), grid, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(batch_cases())
def test_batched_images_match_each_family_bit_for_bit(case):
    # every family of every frame whose replaced rows number r, far (slope
    # gamma) and near (slope -gamma), from one product
    X, r, grid, seed = case
    frames = dict.fromkeys(frame for _, frame in _shear_frames(_Attacks(make_estimator("cmedian"), X,
                                                                           AttackSuite(cone_seed=seed))))
    families = []
    for frame in frames:
        for rule in _PARTITION_RULES:
            rest = X.n - len(frame.kept)
            if r <= rest:
                families.append((frame, "shear_replace_far", frame.partition(r, rule)[1], 1.0))
                families.append((frame, "shear_replace_near", frame.partition(rest - r, rule)[0], -1.0))
    if not families:
        return
    grids = [[g * (1.0 + 1e-6 * (f % 3 == 0)) for g in grid] for f in range(len(families))]
    built = _shear_families(X, families, grids, [_shear_terms(frame.basis) for frame, *_ in families])
    for (frame, label, replaced, _), used, got in zip(families, grids, built):
        want = _shear_images(X, frame.basis, label, replaced, used)
        assert got.replaced == want.replaced and got.basis is want.basis
        assert got.parameters == want.parameters
        assert np.array_equal(got.points, want.points)
        assert not got.points.flags.writeable


def outcome(T, X, suite):
    try:
        return json.dumps(empirical_fsbv(T, X, suite=suite).to_dict(), sort_keys=True)
    except RoblocError as exc:
        return f"{type(exc).__name__}: {exc}"


def rigged(T, X, diverge, fail):
    """cmedian T on X, with a hook that moves the estimates of the shear
    families named in ``diverge`` beyond any threshold and raises on those
    named in ``fail``; a family is named by its frame's normal and its
    replaced rows. One function serves every frame, as cmedian's does, so
    a batch's families share a call."""
    inner = T.evaluator(X)

    def name(family):
        return None if family.basis is None else (family.basis.e(1).tobytes(), family.replaced)

    def evaluate(families):
        for family in families:
            if name(family) in fail:
                raise EstimatorError(f"rigged estimate on rows {family.replaced}")
        stacks = inner(families)
        return [EstimateStack(stack.members + 1e12, stack.starts) if name(family) in diverge else stack
                for family, stack in zip(families, stacks)]

    return dataclasses.replace(T, families=lambda X, basis: evaluate)


def test_an_error_mid_batch_is_the_lazy_walks(monkeypatch):
    # at m = 1, where every sweep runs, sweeps 3..6 settle in one batch: a
    # sweep that raises before the sweep that diverges raises, one after it
    # does not, exactly as when each sweep settles alone
    X, suite = random_gp_dataset(9, 2, 5), AttackSuite(cone_seed=0)
    T = make_estimator("cmedian")
    attacks = _Attacks(T, X, suite)
    sweeps = []
    for _, frame in _shear_frames(attacks):
        for rule in _PARTITION_RULES:
            key = frame, frame.partition(1, rule)
            if key not in [(f, f.partition(1, b)) for f, b in sweeps]:
                sweeps.append((frame, rule))
    assert len(sweeps) >= 7
    far = [(frame.basis.e(1).tobytes(), frame.partition(1, rule)[1]) for frame, rule in sweeps]

    batches = []
    settle = breakdown._settle

    def recording(attacks, m, sweeps, directions=()):
        batches.append((m, len(sweeps)))
        settle(attacks, m, sweeps, directions)

    monkeypatch.setattr(breakdown, "_settle", recording)
    cases = {"error first": ({far[5]}, {far[4]}), "divergence first": ({far[4]}, {far[5]})}
    for case, (diverge, fail) in cases.items():
        R = rigged(T, X, diverge, fail)
        batches.clear()
        got = outcome(R, X, suite)
        assert batches[:3] == [(1, 1), (1, 2), (1, 4)], case
        with mock.patch("robloc.breakdown._BATCH_FLOATS", 1):
            assert got == outcome(R, X, suite), case
        if case == "error first":
            assert got == f"EstimatorError: rigged estimate on rows {far[4][1]}"
        else:
            certificate = json.loads(got)["certificates"]["1"]
            assert certificate["status"] == "broken"
            assert certificate["witness"]["details"]["replaced_far"] == list(far[4][1])


def test_batched_cmedian_certification_holds_bounded_memory():
    # 116 attacks at a budget over 64 slopes: the batches and the screen's
    # chunks hold at most _BATCH_FLOATS floats each, so however long the
    # grid and however many attacks a budget runs, a certification holds a
    # few batches' worth at a time
    T, X = make_estimator("cmedian"), random_gp_dataset(12, 2, 1)
    suite = AttackSuite(gamma_grid=tuple(np.geomspace(10.0, 1e8, 64).tolist()))
    empirical_fsbv(T, X, suite=suite)
    tracemalloc.start()
    try:
        empirical_fsbv(T, X, suite=suite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20

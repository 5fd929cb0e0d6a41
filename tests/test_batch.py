"""The batched walk of ``empirical_fsbv`` against the walk one attack at a
time: bit-identical shear images, one estimate stack per batch, the lazy
walk's errors and bounded memory.

At each budget the attacks settle ahead of the walk in batches of 1, 2, 4,
... attacks. Patching ``breakdown._BATCH_FLOATS`` to 1 caps every batch at
one attack, which is the lazy walk.
"""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robloc import AttackSuite, empirical_fsbv, make_estimator, random_gp_dataset, shear_transform
from robloc import breakdown
from robloc.breakdown import (
    _PARTITION_RULES,
    _Attacks,
    _cluster_rows,
    _estimate_distances,
    _shear_families,
    _shear_frames,
)
from robloc.errors import EstimatorError, RoblocError
from robloc.estimators import EstimateStack
from robloc.metric import estimate_set_distance
from conftest import shear_images
from test_sweep import integer_gp_dataset


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
    # gamma) and near (slope -gamma), from one product, against each
    # slope's own shear map
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
    slopes = np.array(grids) * np.array([sign for *_, sign in families])[:, None]
    built = _shear_families(X, [frame.basis for frame, *_ in families], [rows for _, _, rows, _ in families], slopes)
    for (frame, _, replaced, _), row, got in zip(families, slopes.tolist(), built):
        assert got.replaced == replaced and got.basis is frame.basis
        assert got.parameters == tuple(row)
        assert not got.points.flags.writeable
        for slope, points in zip(row, got.points):
            want = X.with_replaced(replaced, shear_transform(slope, frame.basis).apply(X.points[list(replaced)]))
            assert np.array_equal(points, want.points)


@pytest.mark.parametrize("name, n, seed", [("cmedian", 8, 37), ("mcd", 7, 38)])
def test_one_evaluator_call_stacks_a_mixed_batch_as_the_per_dataset_loop(name, n, seed):
    # far and near shear families of two frames, the far ones replacing 2
    # and 3 rows, and the cluster family of one row along +e2, in one call:
    # the hook's one stack is the generic loop's, and one distance pass
    # over it measures each estimate as estimate_set_distance does. On
    # these integer sets cmedian's boxes and mcd's cluster estimates tie,
    # so estimates have different numbers of members
    X = integer_gp_dataset(n, 2, seed)
    T = make_estimator(name)
    attacks = _Attacks(T, X, AttackSuite())
    frames = list(dict.fromkeys(frame for _, frame in _shear_frames(attacks)))[:2]
    grid = (10.0, 1e3, 1e8)
    families = []
    for frame, m in zip(frames, (2, 3)):
        a_idx, b_idx = frame.partition(m, "largest_projection")
        families += [shear_images(X, frame.basis, "shear_replace_far", b_idx, grid),
                     shear_images(X, frame.basis, "shear_replace_near", a_idx, grid)]
    top = np.lexsort((np.arange(X.n), -X.points[:, 1]))[:1]
    families.append(_cluster_rows(X, top, attacks.baseline.canonical, np.eye(2)[1], (1e1, 1e5)))
    stack = T.evaluator(X)(families)
    want = dataclasses.replace(T, families=None).evaluator(X)(families)
    assert len(stack) == sum(len(family.parameters) for family in families)
    for field in ("members", "starts", "canonical"):
        assert getattr(stack, field).tobytes() == getattr(want, field).tobytes(), field
    counts = np.diff(np.append(stack.starts, len(stack.members)))
    assert counts.min() < counts.max()
    baseline = attacks.baseline
    assert _estimate_distances(stack, baseline).tolist() == [estimate_set_distance(e, baseline) for e in stack]


@pytest.mark.parametrize("name", ["cmedian", "mcd"])
def test_a_batch_hands_each_attack_what_it_settles_alone(name, demo10):
    # at m = 4 an h = 1 sweep has the far family only, an h = 2 sweep both;
    # one batch of them and two cluster attacks returns, in batch order, what
    # each attack settles alone, byte for byte
    attacks = _Attacks(make_estimator(name), demo10, AttackSuite())
    first = {len(frame.kept): frame for _, frame in reversed(_shear_frames(attacks))}
    sweeps = [(first[1], "largest_projection"), (first[2], "smallest_projection")]
    units = [np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
    alone = [breakdown._settle(attacks, 4, [sweep]) for sweep in sweeps]
    alone += [breakdown._settle(attacks, 4, [], [u]) for u in units]

    def as_bytes(entry):
        used, columns, distances = entry
        return (np.array(used).tobytes(), distances.shape, distances.tobytes(),
                [(label, replaced, stack.members.tobytes(), stack.starts.tobytes(), stack.canonical.tobytes())
                 for label, replaced, stack in columns])

    batch = breakdown._settle(attacks, 4, sweeps, units)
    assert [len(columns) for _, columns, _ in batch] == [1, 2, 1, 1]
    assert [as_bytes(entry) for entry in batch] == [as_bytes(entry) for (entry,) in alone]


def outcome(T, X, suite):
    try:
        return json.dumps(empirical_fsbv(T, X, suite=suite).to_dict(), sort_keys=True)
    except RoblocError as exc:
        return f"{type(exc).__name__}: {exc}"


def rigged(T, X, diverge, fail):
    """cmedian T on X, with a hook that moves the estimates of the shear
    families named in ``diverge`` beyond any threshold, within the batch's
    one stack, and raises on those named in ``fail``; a family is named by
    its frame's normal and its replaced rows. One function serves every
    frame, as cmedian's does, so a batch's families share a call."""
    inner = T.families(X)

    def name(family):
        return None if family.basis is None else (family.basis.e(1).tobytes(), family.replaced)

    def evaluate(points, families):
        for family in families:
            if name(family) in fail:
                raise EstimatorError(f"rigged estimate on rows {family.replaced}")
        stack = inner(points, families)
        moved = np.repeat([1e12 * (name(family) in diverge) for family in families],
                          [len(family.parameters) for family in families])
        rows = np.repeat(moved, np.diff(np.append(stack.starts, len(stack.members))))
        return EstimateStack(stack.members + rows[:, None], stack.starts, stack.canonical + moved[:, None])

    return dataclasses.replace(T, families=lambda X: evaluate)


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
        return settle(attacks, m, sweeps, directions)

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

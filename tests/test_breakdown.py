import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robloc import (
    DataSet,
    Witness,
    bundled_dataset,
    empirical_fsbv,
    load_dataset_csv,
    make_estimator,
    mcd_exhaustive,
    pm_counterexample,
    random_gp_dataset,
    shear_attack,
    theoretical_bounds,
    translation_cluster_attack,
)
from robloc.breakdown import AttackSuite, SURVIVED_MARKER, _Attacks, _shear_frames
from robloc.errors import GeneralPositionError, ParameterError, RoblocError
from robloc.estimators import EstimateSet, EstimateStack, LocationEstimator
from robloc.geometry import basis_from_normal, check_general_position, shear_transform
from robloc.metric import estimate_set_distance

GP83 = Path(__file__).parent / "golden" / "gp8_3d.csv"


def as_fraction(pair):
    return Fraction(pair[0], pair[1])


def frames_of(T, X, h):
    """The shear frames of T on X that pin h points, at cone_seed 0, one
    per (facet, frame) pair listed."""
    return [frame for _, frame in _shear_frames(_Attacks(T, X, AttackSuite())) if len(frame.kept) == h]


def assert_reductions_match_records(trace):
    """A trace's columnar verdicts equal their definitions over its
    records, which come grid-major (every family at the first grid point,
    then the next) and carry the frame of the trace's details; its JSON
    records say the same, and ``Witness.from_dict`` reads back the witness."""
    records = trace.records
    thr = trace.divergence_threshold
    F = len(trace.labels)
    distances = trace.distances.reshape(-1).tolist()
    assert len(records) == len(distances) == len(trace.parameters) * F
    body = trace.to_dict()
    for i, (r, d) in enumerate(zip(records, body["records"])):
        j, f = divmod(i, F)
        assert (r.requested_parameter, r.parameter) == (trace.parameters[j], trace.used_parameters[j])
        assert (r.family, r.replaced) == (trace.labels[f], trace.replaced[f])
        if trace.family == "shear":
            assert (list(r.kept), list(r.normal)) == (trace.details["kept"], trace.details["normal"])
        else:
            assert (list(r.direction), list(r.anchor)) == (trace.details["direction"], trace.details["anchor"])
        assert d == {
            "family": r.family, "parameter": r.parameter, "requested_parameter": r.requested_parameter,
            "nudged": r.nudged, "replaced_indices": list(r.replaced),
            "estimate_members": trace.estimates[f][j].members.tolist(), "distance": distances[i],
        }
    assert trace.diverged == any(d > thr for d in distances)
    assert trace.max_distance == max(distances)
    over = [r for r, d in zip(records, distances) if d > thr]
    assert trace.witness_record == (over[0] if over else None)
    assert Witness.from_dict(json.loads(json.dumps(body))) == trace.witness_record
    assert trace.distances_per_parameter() == [
        max(d for r, d in zip(records, distances) if r.requested_parameter == p) for p in trace.parameters
    ]


# --- bound tables -----------------------------------------------------------

def test_bound_examples_n10():
    t = theoretical_bounds(10, 2, 2)
    assert t.translation == (5, 10)
    assert t.affine_condition_h == (4, 10)
    assert t.scatter == (4, 10)
    assert t.projection_median == (5, 10)


def test_bound_values_left_unreduced():
    assert theoretical_bounds(10, 2, 1).translation == (5, 10)  # not (1, 2)


def test_bound_parameter_validation():
    with pytest.raises(ParameterError):
        theoretical_bounds(3, 3, 1)
    with pytest.raises(ParameterError):
        theoretical_bounds(10, 2, 3)
    with pytest.raises(ParameterError):
        theoretical_bounds(10, 2, 0)


def test_bound_consistency_as_rationals():
    for n in range(3, 41):
        for k in range(1, n):
            for h in range(1, k + 1):
                t = theoretical_bounds(n, k, h)
                translation = as_fraction(t.translation)
                cond_h = as_fraction(t.affine_condition_h)
                scatter = as_fraction(t.scatter)
                pm = as_fraction(t.projection_median)
                assert cond_h >= scatter
                assert translation >= pm >= scatter


# --- shear attack ------------------------------------------------------------

def test_shear_attack_gamma_zero_distance_zero(demo10):
    T = make_estimator("mcd")
    trace = shear_attack(T, demo10, h=2, gamma_grid=(0.0, 1.0))
    per_param = dict(zip(trace.parameters, trace.distances_per_parameter()))
    assert per_param[0.0] == 0.0
    assert not trace.diverged


def test_shear_attack_replaced_point_travel_law(demo10):
    T = make_estimator("mcd")
    gamma = 50.0
    trace = shear_attack(T, demo10, h=2, gamma_grid=(gamma,))
    normal = np.array(trace.details["normal"])
    level = trace.details["level"]
    origin = np.array(trace.details["origin"])
    basis = basis_from_normal(normal, origin)
    g = shear_transform(gamma, basis)
    for i in trace.details["replaced_far"]:
        x = demo10.points[i]
        travelled = np.linalg.norm(g.apply(x) - x)
        offset = abs(normal @ x - level)
        assert travelled == pytest.approx(gamma * offset, rel=1e-9)


def test_shear_attack_partitions_by_projection(demo10):
    T = make_estimator("mcd")
    trace = shear_attack(T, demo10, h=2, gamma_grid=(10.0,))
    normal = np.array(trace.details["normal"])
    level = trace.details["level"]
    proj = demo10.points @ normal - level
    far = trace.details["replaced_far"]
    near = trace.details["kept_out"]
    assert max(proj[near]) <= min(proj[far]) + 1e-12
    assert set(far) | set(near) | set(trace.details["kept"]) == set(range(demo10.n))


def test_shear_attack_default_m(demo10):
    trace = shear_attack(make_estimator("mcd"), demo10, h=2, gamma_grid=(10.0,))
    assert trace.m == (demo10.n - 2 + 1) // 2 == 4
    assert len(trace.details["replaced_far"]) == 4
    assert len(trace.details["kept_out"]) == 4


def test_shear_attack_breaks_mcd_at_default_m(demo10):
    T = make_estimator("mcd")
    trace = shear_attack(T, demo10, h=2)
    assert trace.diverged
    witness = trace.witness_record.dataset(demo10)
    assert estimate_set_distance(T(witness), T(demo10)) > 1e6 * demo10.diameter


def test_shear_attack_both_families_recorded(demo10):
    trace = shear_attack(make_estimator("mcd"), demo10, h=2, gamma_grid=(100.0,))
    families = {r.family for r in trace.records}
    assert families == {"shear_replace_far", "shear_replace_near"}
    sizes = {r.family: len(r.replaced) for r in trace.records}
    assert sizes["shear_replace_far"] == 4
    assert sizes["shear_replace_near"] == 4


def test_shear_attack_m_one_has_single_family(demo10):
    trace = shear_attack(make_estimator("mcd"), demo10, h=2, gamma_grid=(10.0,), m=1)
    assert {r.family for r in trace.records} == {"shear_replace_far"}
    assert all(len(r.replaced) == 1 for r in trace.records)


def test_shear_attack_validation(demo10):
    T = make_estimator("mcd")
    with pytest.raises(ParameterError):
        shear_attack(T, demo10, h=0)
    with pytest.raises(ParameterError):
        shear_attack(T, demo10, h=3)
    with pytest.raises(ParameterError):
        shear_attack(T, demo10, h=2, gamma_grid=())
    with pytest.raises(ParameterError):
        shear_attack(T, demo10, h=2, m=9)
    X1 = DataSet(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ParameterError):
        shear_attack(T, X1, h=1)


def test_shear_attack_requires_gp():
    X = DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(GeneralPositionError):
        shear_attack(make_estimator("wmean"), X, h=2)


def degenerate_slope(T, X) -> tuple:
    """(gamma, screen, D1): the smallest slope above 1 at which a subset
    determinant D0 + gamma * D1 of the far family of T's first h = 2 frame
    on X, at m = 4 under the default rule, vanishes."""
    from robloc.breakdown import _ShearPositionScreen

    frame = frames_of(T, X, 2)[0]
    screen = _ShearPositionScreen(X)
    row_dets = screen.row_replacements(frame.basis.e(2))
    _, b_idx = frame.partition(4, "largest_projection")
    c = np.zeros(X.n)
    c[list(b_idx)] = frame.offsets[list(b_idx)]
    d1 = screen.linear_coeff(row_dets, c)
    roots = -screen.d0[d1 != 0.0] / d1[d1 != 0.0]
    return float(roots[roots > 1.0].min()), screen, d1


def test_shear_attack_nudges_degenerate_gamma(demo10):
    # hit a slope at which some subset determinant D0 + gamma*D1 vanishes
    # exactly: the sweep must recover by the one allowed relative nudge
    T = make_estimator("mcd")
    gamma_bad, screen, d1 = degenerate_slope(T, demo10)
    ok, nearest = screen.gamma_ok([10.0, gamma_bad], [d1])
    assert ok.tolist() == [[True, False]]
    j = int(np.argmin(np.abs(screen.d0 + gamma_bad * d1)))
    assert nearest[0, 1] == j
    trace = shear_attack(T, demo10, h=2, gamma_grid=(gamma_bad, 10.0))
    far = [r for r in trace.records if r.family == "shear_replace_far"][0]
    assert far.nudged
    assert far.parameter == pytest.approx(gamma_bad * (1 + 1e-6))
    assert trace.used_parameters == (far.parameter, 10.0)
    assert_reductions_match_records(trace)


def anisotropic_dataset(seed):
    """8 points from N(0, 1) x [1, 1e-4], after one throwaway draw: thin
    enough that a degenerate slope's interval outgrows the single nudge."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 6, (8, 2))
    return DataSet(rng.standard_normal((8, 2)) * np.array([1.0, 1e-4]))


@pytest.mark.parametrize("estimator", ["cmedian", "mcd"])
@pytest.mark.parametrize(
    "seed, gamma, witness",
    [(10, 1e5, (2, 3, 6)), (12, 1e2, (1, 5, 6)), (19, 1e6, (0, 2, 7)), (29, 1e3, (1, 3, 7))],
)
def test_fsbv_reports_a_slope_the_nudge_cannot_repair(seed, gamma, witness, estimator):
    X = anisotropic_dataset(seed)
    assert check_general_position(X).ok
    with pytest.raises(GeneralPositionError) as info:
        empirical_fsbv(make_estimator(estimator), X)
    assert str(info.value) == (
        f"contaminated dataset not in general position even after nudging gamma={gamma!r}"
    )
    assert info.value.witness == witness


def test_trace_reductions_match_record_definitions(demo5, demo10):
    # a repeated grid value, both rules, h = 1 and 2, diverging and bounded
    # traces; the cluster trace's columns come from one broadcast
    grid = (10.0, 10.0, 1e8)
    traces = [
        shear_attack(make_estimator(name), demo10, h=h, gamma_grid=grid, b_rule=rule, m=m)
        for name in ("mcd", "cmedian")
        for h in (1, 2)
        for rule in ("largest_projection", "smallest_projection")
        for m in (1, (demo10.n - h + 1) // 2)
    ]
    traces += [
        translation_cluster_attack(make_estimator("cmedian"), demo5, m, radius_grid=(10.0, 1e9, 1e9, 1e3),
                                   direction=np.array([1.0]))
        for m in (2, 3)
    ]
    for trace in traces:
        assert_reductions_match_records(trace)
    assert {t.diverged for t in traces} == {True, False}
    assert {len(t.labels) for t in traces} == {1, 2}


@pytest.mark.parametrize("bad", [(), (10.0, float("nan")), (float("inf"),), (1e400, 10.0)])
def test_attack_grids_must_be_nonempty_and_finite(bad, demo5, demo10):
    T = make_estimator("cmedian")
    with pytest.raises(ParameterError, match="^gamma grid must be nonempty and finite"):
        AttackSuite(gamma_grid=bad)
    with pytest.raises(ParameterError, match="^radius grid must be nonempty and finite"):
        AttackSuite(radius_grid=bad)
    with pytest.raises(ParameterError, match="^gamma grid must be nonempty and finite"):
        shear_attack(T, demo10, h=2, gamma_grid=bad)
    with pytest.raises(ParameterError, match="^radius grid must be nonempty and finite"):
        translation_cluster_attack(T, demo5, 2, radius_grid=bad)


@pytest.mark.parametrize("grid", [[10, 100.0], (10.0, 100), np.array([10.0, 100.0]), np.array([10, 100])],
                         ids=["list", "tuple", "float-array", "int-array"])
def test_suite_stores_its_grids_as_float_tuples(grid):
    suite = AttackSuite(gamma_grid=grid, radius_grid=grid)
    want = AttackSuite(gamma_grid=(10.0, 100.0), radius_grid=(10.0, 100.0))
    for stored in (suite.gamma_grid, suite.radius_grid):
        assert type(stored) is tuple and all(type(v) is float for v in stored)
    assert suite == want and hash(suite) == hash(want)
    assert json.dumps(suite.to_dict()) == json.dumps(want.to_dict())


def counting(monkeypatch, name):
    """Count the calls robloc.breakdown makes to its binding ``name``."""
    from robloc import breakdown

    calls = []
    inner = getattr(breakdown, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(breakdown, name, wrapper)
    return calls


def test_shear_attack_draws_tie_directions_only_for_the_subset_it_sweeps(monkeypatch):
    X = load_dataset_csv(GP83)
    calls = counting(monkeypatch, "normal_cone_ties")
    trace = shear_attack(make_estimator("mcd"), X, h=1)
    assert len(calls) == 1
    assert trace.details["kept"] == trace.details["facet"][:1]


def test_fsbv_enumerates_the_facets_once(monkeypatch):
    X = load_dataset_csv(GP83)
    calls = counting(monkeypatch, "enumerate_facets")
    empirical_fsbv(make_estimator("cmedian"), X)
    assert len(calls) == 1


def preimage_families(X, slopes, i=0):
    """Far and near shear families of the i-th h = 2 frame of X, with
    what the preimage check reads."""
    from conftest import shear_images

    frame = frames_of(make_estimator("cmedian"), X, 2)[i]
    a_idx, b_idx = frame.partition(4, "largest_projection")
    far = shear_images(X, frame.basis, "shear_replace_far", b_idx, slopes)
    near = shear_images(X, frame.basis, "shear_replace_near", a_idx, slopes)
    return far, near, frame.offsets, frame.kept


def deviation_message(far, points, slopes, j):
    """The message of a per-slope check of the near datasets ``points``
    against ``far`` at slope j, which must fail there."""
    image = shear_transform(slopes[j], far.basis).apply(points[j])
    diff = float(np.abs(image - far.points[j]).max())
    blown = max(1.0, float(np.abs(far.points[j]).max()), float(np.abs(points[j]).max()))
    bound = max(1e-9, 8.0 * float(np.finfo(float).eps) * slopes[j]) * blown
    assert diff > bound
    return f"shear families lost their preimage identity: max deviation {diff:.3e} > {bound:.3e}"


def perturbed(X, near, rows):
    """``near`` with each (slope index, row) of ``rows`` moved by 1e-6 of
    the scale of X along the diagonal."""
    points = near.points.copy()
    scale = float(np.abs(X.points).max())
    for j, row in rows:
        points[j, row] += 1e-6 * scale
    return near._replace(points=points)


def check_batch(sweeps):
    """The preimage check of (far, near, offsets, kept) sweeps as one batch."""
    from robloc.breakdown import _check_preimage_identity

    _check_preimage_identity(*(list(column) for column in zip(*sweeps)))


def test_preimage_check_catches_a_perturbed_row(demo10):
    slopes = (10.0, 100.0, 1000.0)
    far, near, offsets, kept = preimage_families(demo10, slopes)
    check_batch([(far, near, offsets, kept)])
    for j in (1, 2):
        near_j = perturbed(demo10, near, [(j, 0), (2, 1)])  # first failing slope is j
        with pytest.raises(RoblocError) as info:
            check_batch([(far, near_j, offsets, kept)])
        assert str(info.value) == deviation_message(far, near_j.points, slopes, j)


def test_preimage_check_catches_a_travelling_pinned_point(demo10):
    far, near, offsets, kept = preimage_families(demo10, (10.0, 100.0))
    moved = offsets.copy()
    moved[kept[0]] = 1e-3
    blown = max(1.0, float(np.abs(far.points[0]).max()), float(np.abs(near.points[0]).max()))
    message = f"pinned points travel {10.0 * 1e-3:.3e} under the shear, beyond {1e-9 * blown:.3e}"
    with pytest.raises(RoblocError) as info:
        check_batch([(far, near, moved, kept)])
    assert str(info.value) == message


def test_preimage_check_of_a_batch_raises_for_its_first_failing_sweep(demo10):
    # three sweeps of different frames; sweeps 2 and 3 fail, and sweep 3
    # fails at an earlier slope than sweep 2
    slopes = (10.0, 100.0, 1000.0)
    sweeps = [preimage_families(demo10, slopes, i) for i in range(3)]
    assert len({sweep[3] for sweep in sweeps}) == 3
    check_batch(sweeps)
    (far2, near2, *frame2), (far3, near3, *frame3) = sweeps[1:]
    near2, near3 = perturbed(demo10, near2, [(1, 0), (2, 1)]), perturbed(demo10, near3, [(0, 2)])
    with pytest.raises(RoblocError) as info:
        check_batch([sweeps[0], (far2, near2, *frame2), (far3, near3, *frame3)])
    assert str(info.value) == deviation_message(far2, near2.points, slopes, 1)
    with pytest.raises(RoblocError) as info:
        check_batch([sweeps[0], (far3, near3, *frame3), (far2, near2, *frame2)])
    assert str(info.value) == deviation_message(far3, near3.points, slopes, 0)


def test_preimage_check_of_a_batch_names_the_first_sweep_that_overflows(demo10):
    # at 1e300 the families are finite, but shearing the near rows back
    # overflows inside the check
    far1, near1, *frame1 = preimage_families(demo10, (10.0, 1e300), 0)
    far2, near2, *frame2 = preimage_families(demo10, (10.0, 100.0), 1)
    near2 = perturbed(demo10, near2, [(0, 0)])
    with pytest.raises(ParameterError, match=r"^slope 1e\+300 is too large: the preimage check overflows$"):
        check_batch([(far1, near1, *frame1), (far2, near2, *frame2)])
    with pytest.raises(RoblocError) as info:
        check_batch([(far2, near2, *frame2), (far1, near1, *frame1)])
    assert str(info.value) == deviation_message(far2, near2.points, (10.0, 100.0), 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_estimate_distances_match_one_by_one(k):
    from robloc.breakdown import _estimate_distances

    rng = np.random.default_rng(k)
    baseline = EstimateSet(rng.standard_normal((2, k)))
    for sizes in ((1,) * 9, (4,) * 9, (1, 4, 2, 1, 3, 4, 1)):
        ests = [EstimateSet(rng.standard_normal((s, k)) * 10.0 ** rng.integers(-3, 9)) for s in sizes]
        assert [e.size for e in ests] == list(sizes)
        members = np.concatenate([e.members for e in ests])
        stack = EstimateStack(members, np.cumsum(sizes) - sizes)
        want = [estimate_set_distance(e, baseline) for e in ests]
        assert _estimate_distances(stack, baseline).tolist() == want
        assert _estimate_distances(stack[2:5], baseline).tolist() == want[2:5]
    assert _estimate_distances(EstimateStack(np.empty((0, k)), []), baseline).tolist() == []


# --- cluster attack ------------------------------------------------------------

def test_cluster_attack_m_zero_distance_zero(demo5):
    T = make_estimator("cmedian")
    trace = translation_cluster_attack(T, demo5, 0, radius_grid=(10.0, 100.0),
                                       direction=np.array([1.0]))
    assert trace.max_distance == 0.0


def test_cluster_attack_median_m3_diverges(demo5):
    T = make_estimator("cmedian")
    trace = translation_cluster_attack(T, demo5, 3, direction=np.array([1.0]))
    assert trace.diverged
    assert trace.max_distance > 1e6 * demo5.diameter


def test_cluster_attack_median_m2_bounded(demo5):
    T = make_estimator("cmedian")
    trace = translation_cluster_attack(T, demo5, 2, direction=np.array([1.0]))
    assert trace.max_distance <= demo5.diameter


def test_cluster_attack_median_distance_monotone_in_radius(demo9):
    T = make_estimator("cmedian")
    for direction in (np.array([1.0]), np.array([-1.0])):
        trace = translation_cluster_attack(T, demo9, 5, direction=direction)
        dists = trace.distances_per_parameter()
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


@pytest.mark.parametrize("direction", [[1.0], [1.0, 0.0, 0.0]])
def test_cluster_direction_of_the_wrong_dimension_is_a_parameter_error(demo10, direction):
    message = f"^direction has dimension {len(direction)}, the data have dimension 2$"
    with pytest.raises(ParameterError, match=message):
        translation_cluster_attack(make_estimator("cmedian"), demo10, 3, direction=np.array(direction))


def test_cluster_attack_replaces_farthest_along_direction(demo9):
    trace = translation_cluster_attack(
        make_estimator("cmedian"), demo9, 3, radius_grid=(10.0,), direction=np.array([1.0])
    )
    assert trace.records[0].replaced == (6, 7, 8)


def test_cluster_attack_2d_jitter_avoids_exact_degeneracy(demo10):
    # a relative-size-1e-6 cluster far from the data cannot pass a
    # scale-relative collinearity test (two copies plus a distant original
    # always form a sliver), so the meaningful invariant is exact-arithmetic
    # nondegeneracy: no (k+1)-subset determinant vanishes
    from itertools import combinations

    trace = translation_cluster_attack(
        make_estimator("wmean"), demo10, 4, radius_grid=(10.0, 1e5), direction=np.array([1.0, 0.0])
    )
    anchor = np.array(trace.details["anchor"])
    for R in (10.0, 1e5):
        cluster = [anchor + R * np.array([1.0, 0.0]) + np.eye(2)[i % 2] * 1e-6 * R * (i + 1)
                   for i in range(4)]
        Xc = demo10.with_replaced(trace.records[0].replaced, cluster)
        for sub in combinations(range(Xc.n), 3):
            pts = Xc.points[list(sub)]
            assert abs(np.linalg.det(pts[1:] - pts[0])) > 0.0


def test_cluster_attack_matches_per_radius_construction(demo10):
    # the broadcast clusters equal theta + R*u + jitter built radius by
    # radius, bit for bit: this estimator returns every row it is given
    T = LocationEstimator("rows", "translation", lambda X: EstimateSet(X.points))
    radii = (7.3, 1234.567, 9.87e6, 3.3e8, 0.1)
    u = np.array([0.6, -0.8])
    m = 6
    trace = translation_cluster_attack(T, demo10, m, radius_grid=radii, direction=u)
    baseline = T(demo10)
    theta = baseline.canonical
    copies = np.arange(m)
    for j, R in enumerate(radii):
        jitter = np.zeros((m, 2))
        jitter[copies, copies % 2] = 1e-6 * R * (copies + 1)
        est = T(demo10.with_replaced(trace.replaced[0], theta + R * u + jitter))
        assert np.array_equal(trace.estimates[0][j].members, est.members)
        assert trace.distances[j, 0] == estimate_set_distance(est, baseline)


@pytest.mark.parametrize("make", [lambda: bundled_dataset("demo10_2d"), lambda: random_gp_dataset(9, 3, 7)])
def test_cmedian_cluster_stack_matches_per_radius_evaluation(make):
    # the hook sees all radii at once; each estimate must be the one
    # evaluate gives on that radius's dataset, to the bit
    X = make()
    T = make_estimator("cmedian")
    assert T.families is not None
    radii = (7.3, 1234.567, 9.87e6, 3.3e8, 0.1)
    theta = T(X).canonical
    for m in (0, 1, X.n // 2, X.n // 2 + 1, X.n):
        for u in np.vstack([np.eye(X.k), -np.eye(X.k)]):
            trace = translation_cluster_attack(T, X, m, radius_grid=radii, direction=u)
            copies = np.arange(m)
            for j, R in enumerate(radii):
                jitter = np.zeros((m, X.k))
                jitter[copies, copies % X.k] = 1e-6 * R * (copies + 1)
                want = T.evaluate(X.with_replaced(trace.replaced[0], theta + R * u + jitter))
                got = trace.estimates[0][j]
                assert np.array_equal(got.members, want.members)
                assert np.array_equal(got.canonical, want.canonical)
            per_radius = translation_cluster_attack(
                dataclasses.replace(T, families=None), X, m, radius_grid=radii, direction=u
            )
            assert json.dumps(trace.to_dict()) == json.dumps(per_radius.to_dict())


# --- empirical fsbv --------------------------------------------------------------

@pytest.mark.parametrize("name, scale", [
    ("cmedian", 1e-12), ("cmedian", 1e-150), ("cmedian", 1e110), ("tmean", 1e-150),
])
def test_fsbv_does_not_depend_on_the_scale_of_the_data(name, scale):
    # facets, tie directions and the shear screen are all scale-free, so a
    # scaled sample is certified as the sample itself, attack for attack
    X = load_dataset_csv(GP83)
    T = make_estimator(name, seed=0)
    want, got = empirical_fsbv(T, X), empirical_fsbv(T, DataSet(X.points * scale))
    assert got.fraction == want.fraction == {"cmedian": (4, 8), "tmean": (2, 8)}[name]
    for m, cert in want.certificates.items():
        assert got.certificates[m].attack_families_tried == cert.attack_families_tried

def test_fsbv_median_demo5(demo5):
    res = empirical_fsbv(make_estimator("cmedian"), demo5)
    assert res.fraction == (3, 5)
    assert res.certificates[2].status == "survived"
    assert res.certificates[3].status == "broken"
    assert res.certificates[3].witness is not None


def test_fsbv_requires_sane_threshold(demo5):
    # no distance exceeds a NaN or infinite threshold: every budget would
    # "survive"
    for factor in (10.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="^threshold_factor must be finite and at least 1e3"):
            empirical_fsbv(make_estimator("cmedian"), demo5, threshold_factor=factor)


def test_fsbv_survived_marker_for_unbreakable_estimator(demo10):
    center = demo10.points.mean(axis=0)
    T = LocationEstimator("pin", "translation", lambda X: EstimateSet(center))
    res = empirical_fsbv(T, demo10)
    assert res.fraction is None
    assert res.survived_all
    d = res.to_dict()
    assert d["marker"] == SURVIVED_MARKER
    assert all(c["status"] == "survived" for c in d["certificates"].values())


def test_fsbv_result_json_reproducible(demo5):
    a = empirical_fsbv(make_estimator("cmedian"), demo5).to_dict()
    b = empirical_fsbv(make_estimator("cmedian"), demo5).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_shear_attack_rejects_unknown_b_rule(demo5, demo10):
    # checked first, before the data's dimension
    for X in (demo5, demo10):
        with pytest.raises(ParameterError) as info:
            shear_attack(make_estimator("cmedian"), X, 1, b_rule="median_projection")
        assert str(info.value) == "unknown b_rule 'median_projection'"


def test_fsbv_mcd_demo10_smoke(demo10):
    # narrower grids keep this a quick regression check; the full-suite run
    # lives in the acceptance module
    suite = AttackSuite(gamma_grid=(1e2, 1e7), radius_grid=(1e3, 1e9))
    res = empirical_fsbv(make_estimator("mcd"), demo10, suite=suite)
    assert res.fraction == (4, 10)


def test_cmedian_beats_the_affine_ceiling_in_2d(demo10):
    # the coordinatewise median is only translation equivariant, so the
    # hyperplane-pinning argument does not bind it: it certifies the
    # translation bound 5/10, strictly above the affine ceiling 4/10
    res = empirical_fsbv(make_estimator("cmedian"), demo10)
    assert res.fraction == (5, 10)
    assert res.certificates[4].status == "survived"
    bounds = theoretical_bounds(10, 2, 2)
    assert res.fraction == bounds.translation
    assert res.fraction[0] > bounds.scatter[0]


def test_pm_certifies_above_the_affine_ceiling(demo10):
    # the projection median survives the budget that breaks MCD (m=4) and
    # falls exactly at its own bound floor((n-k+2)/2)/n: cluster attacks
    # saturate against its inflating projected scale, but the h=1 shear
    # finds the divergence
    T = make_estimator("pm", seed=4, random_count=300, grid_refinements=5)
    res = empirical_fsbv(T, demo10)
    assert res.fraction == (5, 10)
    assert res.certificates[4].status == "survived"
    assert res.fraction == theoretical_bounds(10, 2, 2).projection_median


def test_certified_fractions_match_theory_on_random_data():
    from robloc import random_gp_dataset

    # the centroid falls to a single replaced point
    X = random_gp_dataset(8, 2, seed=1)
    assert empirical_fsbv(make_estimator("wmean"), X).fraction == (1, 8)
    # exhaustive MCD attains floor((n-k+1)/2)/n, in the plane and in space
    for n, k, seed in ((9, 2, 12), (8, 3, 77)):
        X = random_gp_dataset(n, k, seed=seed)
        res = empirical_fsbv(make_estimator("mcd"), X)
        assert res.fraction == ((n - k + 1) // 2, n), (n, k, res.fraction)
    # trimming t points survives t replacements and falls to t + 1
    X = random_gp_dataset(9, 2, seed=41)
    res = empirical_fsbv(make_estimator("tmean", seed=5, trim_count=1), X)
    assert res.fraction == (2, 9)
    assert res.certificates[1].status == "survived"


def metamorphic_sets():
    shapes = ((7, 2, 0), (9, 2, 2), (6, 3, 1), (8, 3, 3))
    return [bundled_dataset("demo10_2d")] + [random_gp_dataset(n, k, seed) for n, k, seed in shapes]


@pytest.mark.parametrize("name", ["cmedian", "mcd"])
def test_fsbv_fraction_is_invariant_under_row_permutation(name):
    # row order only relabels facets and kept subsets; the estimators and
    # the attacks are permutation invariant in value
    rng = np.random.default_rng(3)
    T = make_estimator(name)
    for X in metamorphic_sets():
        fraction = empirical_fsbv(T, X).fraction
        assert fraction is not None
        for _ in range(2):
            shuffled = DataSet(X.points[rng.permutation(X.n)])
            assert empirical_fsbv(T, shuffled).fraction == fraction


def test_cmedian_fsbv_fraction_is_invariant_under_translation():
    T = make_estimator("cmedian")
    for X in metamorphic_sets():
        fraction = empirical_fsbv(T, X).fraction
        for shift in (np.full(X.k, 12.5), -3.75 * np.arange(1, X.k + 1)):
            assert empirical_fsbv(T, DataSet(X.points + shift)).fraction == fraction


# --- counterexample generator -----------------------------------------------------

def test_pm_counterexample_shape_and_gp():
    X = pm_counterexample(10, 0.1, noise_scale=0.1, seed=3)
    assert X.n == 22 and X.k == 2
    assert check_general_position(X).ok
    assert np.array_equal(X.points[0], [0.0, 0.1])
    assert np.array_equal(X.points[1], [0.0, -0.1])


def test_pm_counterexample_mirror_structure():
    m, delta = 6, 0.05
    X = pm_counterexample(m, delta, noise_scale=0.2, seed=11)
    xs = X.points[2 : 2 + m]
    mirrored = X.points[2 + m :]
    assert np.array_equal(xs[:, 0], mirrored[:, 0])
    assert np.array_equal(xs[:, 1], -mirrored[:, 1])
    assert np.all(xs[:, 0] >= 10.0) and np.all(xs[:, 0] <= 20.0)
    assert np.abs(xs[:, 1] - xs[:, 0]).max() <= delta * 0.2 + 1e-12


def test_pm_counterexample_diagonal_projection_cluster():
    # onto the direction orthogonal to y = -x, the two anchors and the m
    # mirrored points all project within O(delta) of zero: m + 2 of n values
    m, delta = 10, 1e-3
    X = pm_counterexample(m, delta, noise_scale=0.1, seed=5)
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    proj = X.points @ v
    small = np.abs(proj) <= 3 * delta
    assert small.sum() == m + 2
    assert np.sort(np.abs(proj))[m + 2] > 10.0


def test_pm_counterexample_validation():
    with pytest.raises(ParameterError):
        pm_counterexample(1, 0.1)
    with pytest.raises(ParameterError):
        pm_counterexample(5, 1.5)
    for noise_scale in (0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            pm_counterexample(5, 0.1, noise_scale=noise_scale)


# --- trace serialization ------------------------------------------------------------

def frac_det(rows):
    """Exact determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * frac_det(minor)
    return total


def test_shear_screen_matches_exact_rational_determinants():
    # the screen's claim: if points are displaced by gamma * c_i * v along a
    # common direction v, every (k+1)-subset determinant is exactly the
    # linear polynomial D0 + gamma * D1. Verify the algebra with Fraction
    # arithmetic on integer data, and the float screen against the exact
    # coefficients divided by diameter ** k.
    from itertools import combinations as comb

    from robloc.breakdown import _ShearPositionScreen

    rng = np.random.default_rng(8)
    for k in (2, 3):
        n = k + 4
        pts = rng.integers(-9, 10, size=(n, k))
        X = DataSet(pts.astype(float))
        v = rng.integers(-5, 6, size=k)
        if not v.any():
            v[0] = 1
        c = rng.integers(-4, 5, size=n)
        gamma = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 9)))

        screen = _ShearPositionScreen(X)
        M = screen.row_replacements(v.astype(float))
        d1 = screen.linear_coeff(M, c.astype(float))

        for s, subset in enumerate(comb(range(n), k + 1)):
            q = [[Fraction(int(x)) for x in pts[i]] for i in subset]
            cf = [Fraction(int(c[i])) for i in subset]
            moved = [
                [q[j][d] + gamma * cf[j] * Fraction(int(v[d])) for d in range(k)]
                for j in range(k + 1)
            ]
            rows = [[moved[j][d] - moved[0][d] for d in range(k)] for j in range(1, k + 1)]
            base_rows = [[q[j][d] - q[0][d] for d in range(k)] for j in range(1, k + 1)]
            exact_d0 = frac_det(base_rows)
            exact_d1 = Fraction(0)
            for j in range(k):
                alt = [list(r) for r in base_rows]
                alt[j] = [Fraction(int(x)) for x in v]
                exact_d1 += (cf[j + 1] - cf[0]) * frac_det(alt)
            # the algebraic identity itself, in exact arithmetic
            assert frac_det(rows) == exact_d0 + gamma * exact_d1, subset
            # and the float screen agrees with the exact coefficients, which
            # it takes in units of the data diameter
            unit = Fraction(X.diameter) ** k
            assert screen.d0[s] == pytest.approx(float(exact_d0 / unit), rel=1e-12, abs=1e-12)
            assert d1[s] == pytest.approx(float(exact_d1 / unit), rel=1e-12, abs=1e-12)


def row_replaced_dets(X, screen, e2):
    """The oracle of the screen's row determinants: for each row j, the LU
    determinant of every subset's difference rows (in units of the data
    diameter) with row j replaced by e2, one ``np.linalg.det`` call per j."""
    base = X.points[screen.subsets]
    rows = (base[:, 1:, :] - base[:, :1, :]) / screen.scale
    M = np.empty(rows.shape[:2])
    for j in range(X.k):
        mod = rows.copy()
        mod[:, j, :] = e2
        M[:, j] = np.linalg.det(mod)
    return M


def lu_det_error(m):
    """First-order bound, in units of eps, on the error of the LU
    determinant of an m x m matrix whose rows have 2-norm at most 1.

    With partial pivoting L U = P (A + E), |E| <= gamma_m |L| |U|, |L_ij|
    <= 1 and |U_ij| <= 2^(m-1) (the growth bound), so |E_ij| <= m 2^(m-1)
    gamma_m; every cofactor of A is at most 1 (Hadamard), so det(A + E)
    moves by at most m^2 of them: m^4 2^(m-1) eps. numpy multiplies the
    pivots p_i as exp of the sum of their logarithms. With every p_i at
    most 2^(m-1) and |det| at most 1, |det| sum |log p_i| < 1.4 m^2, so
    the logarithms, their sum and exp add at most ((m + 1) m^2 + 1) eps."""
    return m**4 * 2 ** (m - 1) + (m + 1) * m**2 + 1


@st.composite
def screen_cases(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 2, k + 5))
    kind = draw(st.sampled_from(("gp", "integer", "near_flat")))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "gp":
        X = random_gp_dataset(n, k, int(rng.integers(2**16)))
    elif kind == "integer":
        X = DataSet(rng.integers(-n, n + 1, size=(n, k)).astype(float))
    else:  # every subset nearly flat: the last coordinate is 1e-9 of the rest
        X = DataSet(rng.standard_normal((n, k)) * np.append(np.ones(k - 1), 1e-9))
    u = rng.standard_normal((3, k))
    return X, u / np.linalg.norm(u, axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(screen_cases())
def test_screen_cofactors_match_row_replaced_determinants(case):
    # every row and e2 has norm at most 1, so every determinant and
    # cofactor is at most 1: the oracle is within lu_det_error(k) eps of
    # the exact value, each cofactor within lu_det_error(k - 1) eps, and
    # their product with e2 adds at most sqrt(k) (that + k) eps. The bound
    # doubles the sum for second-order terms
    from robloc.breakdown import _ShearPositionScreen

    X, e2s = case
    k = X.k
    screen = _ShearPositionScreen(X)
    eps = float(np.finfo(float).eps)
    bound = 2 * (lu_det_error(k) + np.sqrt(k) * (lu_det_error(k - 1) + k)) * eps
    stacked = screen.row_replacements(e2s)
    assert stacked.shape == (len(e2s), len(screen.subsets), k)
    for e2, got in zip(e2s, stacked):
        assert np.array_equal(screen.row_replacements(e2), got)
        assert np.abs(got - row_replaced_dets(X, screen, e2)).max() <= bound


def test_mcd_objective_matches_exact_rational_covariance():
    # integer data keeps the covariance determinant inside Fraction
    # arithmetic; the SVD-based objective must agree to float precision
    rng = np.random.default_rng(9)
    pts = rng.integers(0, 20, size=(7, 2)).astype(float)
    X = DataSet(pts)
    if not check_general_position(X).ok:
        pytest.skip("integer draw happened to be degenerate")
    result = mcd_exhaustive(X, coverage=5)
    from itertools import combinations as comb

    best_exact = None
    for subset in comb(range(7), 5):
        q = [[Fraction(int(v)) for v in pts[i]] for i in subset]
        mean = [sum(col) / 5 for col in zip(*q)]
        sxx = sum((p[0] - mean[0]) ** 2 for p in q) / 4
        syy = sum((p[1] - mean[1]) ** 2 for p in q) / 4
        sxy = sum((p[0] - mean[0]) * (p[1] - mean[1]) for p in q) / 4
        det = sxx * syy - sxy * sxy
        if best_exact is None or det < best_exact:
            best_exact = det
    assert result.objective == pytest.approx(float(best_exact), rel=1e-12)


def test_attack_trace_wire_format(demo10):
    trace = shear_attack(make_estimator("mcd"), demo10, h=2, gamma_grid=(10.0, 100.0))
    d = trace.to_dict()
    for key in ("estimator", "n", "k", "h", "m", "family", "grid", "distances",
                "diverged", "witness_gamma", "seed", "config_hash"):
        assert key in d
    assert d["estimator"] == "mcd"
    assert len(d["grid"]) == len(d["distances"]) == 2
    assert json.dumps(d, sort_keys=True)  # JSON-serializable

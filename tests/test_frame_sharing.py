"""One frame object per pinned face, swept once per budget and partition.

For h < k the tie direction of a shear frame depends on its kept subset
alone, so ``_Attacks`` builds one frame per kept subset and every
admissible facet containing that subset gets the same object; the facet
is only a label. ``empirical_fsbv`` lists the shear attack under every
facet's label, but sweeps a frame only once per budget and partition; a
repeat cannot diverge or raise the certificate's ``max_distance``,
because its twin ran earlier at the same budget with the same distances
and did not diverge. These tests check that claim against each label's
own replay on a fresh attack context and count the work saved.
"""

import json
from collections import defaultdict
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from robloc import (
    AttackSuite,
    bundled_dataset,
    empirical_fsbv,
    load_dataset_csv,
    make_estimator,
    random_gp_dataset,
)
from robloc import breakdown, estimators
from robloc.breakdown import _PARTITION_RULES, _Attacks, _shear_frames
from conftest import recording_sweeps

SWEEP = breakdown._run_shear_sweep  # unwrapped, for the replays
GP83 = load_dataset_csv(Path(__file__).parent / "golden" / "gp8_3d.csv")
DEMO10 = bundled_dataset("demo10_2d")


def golden_certifications(golden_fsbv) -> tuple:
    """The recorded sweeps, and per golden fsbv case that has shear frames
    (its attack context, its certificates as ``robloc fsbv`` emits them)."""
    calls, cases = golden_fsbv
    runs = [(calls[start][0], json.loads(produced[f"{name}.json"])["certificates"])
            for name, (start, end, produced) in sorted(cases.items())
            if end > start]  # 1-D data have no shear frame
    return calls, runs


def bench_certifications(certify_pass, workload) -> tuple:
    """The same for every certification of one pass of a bench workload at seed 1."""
    calls, certifications = certify_pass(workload, 1)
    return calls, [(calls[cert.first_sweep][0], cert.result.to_dict()["certificates"]) for cert in certifications]


def listed(attacks, m):
    """Every (facet, frame, b_rule) the suite lists at budget m, in order."""
    return [(facet, frame, b) for facet, frame in _shear_frames(attacks)
            if m <= attacks.X.n - len(frame.kept) for b in _PARTITION_RULES]


def unswept_labels(calls, runs):
    """Every shear label a certificate lists but that ran no sweep of its
    own: (attacks, facet, frame, m, b_rule, certificate)."""
    swept = {(id(a), facet.indices, frame.kept, m, b) for a, facet, frame, m, b in calls}
    for attacks, certificates in runs:
        for m, cert in certificates.items():
            m = int(m)
            expected = listed(attacks, m)
            tried = [label for label in cert["attack_families_tried"] if label.startswith("shear(")]
            assert len(tried) <= len(expected)
            for (facet, frame, b_rule), label in zip(expected, tried):
                assert label == f"shear(h={len(frame.kept)},facet={facet.indices},rule={b_rule})"
                if (id(attacks), facet.indices, frame.kept, m, b_rule) not in swept:
                    yield attacks, facet, frame, m, b_rule, cert


def assert_unswept_labels_hold_on_their_own_frames(calls, runs):
    checked = 0
    for attacks, facet, frame, m, b_rule, cert in list(unswept_labels(calls, runs)):
        fresh = _Attacks(attacks.T, attacks.X, attacks.suite)
        own = fresh.frame(facet, frame.kept)  # built first for this label's facet
        assert own.kept == frame.kept and own.level == frame.level
        assert np.array_equal(own.normal, frame.normal)
        trace = SWEEP(fresh, facet, own, m, b_rule)
        assert trace.details["facet"] == list(facet.indices)
        assert not trace.diverged
        assert trace.max_distance <= cert["max_distance"]
        checked += 1
    assert checked > 0


def test_golden_labels_listed_without_a_sweep_hold_on_their_own_frames(golden_fsbv):
    calls, runs = golden_certifications(golden_fsbv)
    assert len(runs) == 5
    assert_unswept_labels_hold_on_their_own_frames(calls, runs)


@pytest.mark.parametrize("workload", ["certify-engine", "certify-mcd", "certify-probe"])
def test_bench_labels_listed_without_a_sweep_hold_on_their_own_frames(certify_pass, workload):
    calls, runs = bench_certifications(certify_pass, workload)
    assert_unswept_labels_hold_on_their_own_frames(calls, runs)


CASES_COUNTED = {"gp8_3d-cmedian": (GP83, "cmedian"), "demo10_2d-mcd": (DEMO10, "mcd")}


@pytest.mark.parametrize("case", sorted(CASES_COUNTED))
def test_pairs_share_one_frame_object_exactly_when_they_share_a_kept_subset(case):
    X, name = CASES_COUNTED[case]
    pairs = _shear_frames(_Attacks(make_estimator(name), X, AttackSuite()))
    by_kept = defaultdict(set)
    for facet, frame in pairs:
        assert set(frame.kept) <= set(facet.indices)
        by_kept[frame.kept].add(id(frame))
    assert all(len(ids) == 1 for ids in by_kept.values())
    assert len(set().union(*by_kept.values())) == len(by_kept)
    assert len(by_kept) < len(pairs)  # some kept subset is reached through several facets


def counting(monkeypatch, module, name) -> list:
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("case", sorted(CASES_COUNTED))
def test_each_frame_draws_once_builds_its_state_once_and_sweeps_once_per_partition(monkeypatch, case):
    X, name = CASES_COUNTED[case]
    T = make_estimator(name)
    ties = counting(monkeypatch, breakdown, "normal_cone_ties")
    sweeps = recording_sweeps(monkeypatch)
    screens = counting(monkeypatch, breakdown, "_ShearPositionScreen")
    builds = counting(monkeypatch, estimators, "MCDShearSweep")
    empirical_fsbv(T, X, suite=AttackSuite(cone_seed=0))

    admissible = _Attacks(T, X, AttackSuite()).admissible
    kept_below_k = {kept for f in admissible for h in range(1, X.k) for kept in combinations(f.indices, h)}
    assert len(ties) == len(kept_below_k)
    assert sorted(args[2] for args in ties) == sorted(kept_below_k)

    made = [(frame, frame.partition(m, b), m) for _, _, frame, m, b in sweeps]
    assert len(made) == len(set(made))
    swept = {frame for _, _, frame, _, _ in sweeps}
    assert len(builds) == (len(swept) if name == "mcd" else 0)
    # one position screen per attack context, whose cofactors serve every frame
    assert len({id(attacks) for attacks, *_ in sweeps}) == len(screens) == 1


def test_both_rules_at_m_equal_n_minus_h_are_one_sweep(monkeypatch):
    """At m = n - h both partition rules replace every non-kept point, so
    the second rule's label is listed without a sweep of its own."""
    X = random_gp_dataset(5, 3, 0)
    sweeps = recording_sweeps(monkeypatch)
    result = empirical_fsbv(make_estimator("cmedian"), X)
    m, h = 2, 3
    tried = result.certificates[m].attack_families_tried
    attacks = sweeps[0][0]
    at_m = [(frame, frame.partition(m, b)) for _, _, frame, mm, b in sweeps if mm == m]
    assert len(at_m) == len(set(at_m))
    listed_at_m = listed(attacks, m)[:sum(label.startswith("shear(") for label in tried)]
    assert {(frame, frame.partition(m, b)) for _, frame, b in listed_at_m} == set(at_m)

    full = [(facet, frame) for facet, frame, b in listed_at_m if len(frame.kept) == h and b == "smallest_projection"]
    assert [facet.indices for facet, _ in full] == [(0, 3, 4), (0, 1, 4), (0, 1, 3)]
    for facet, frame in full:
        assert frame.partition(m, "largest_projection") == frame.partition(m, "smallest_projection")
        assert f"shear(h={h},facet={facet.indices},rule=smallest_projection)" in tried
        made = [b for _, _, f, mm, b in sweeps if f is frame and mm == m]
        assert made == ["largest_projection"]


@pytest.mark.parametrize("n, k", [(9, 2), (8, 3), (9, 4)])
@pytest.mark.parametrize("cone_seed", [0, 7])
def test_frame_partitions_match_a_lexsort_oracle(n, k, cone_seed):
    """Each frame keeps one replacement order per rule, and ``partition``
    derives from it, for every budget m = 0..n-h, the split a lexsort of
    the offsets gives (ties by index), both sides sorted, as tuples of
    Python ints."""
    X = random_gp_dataset(n, k, 1)
    attacks = _Attacks(make_estimator("cmedian"), X, AttackSuite(cone_seed=cone_seed))
    frames = list({id(frame): frame for _, frame in _shear_frames(attacks)}.values())
    assert {len(frame.kept) for frame in frames} == set(range(1, k + 1))
    for frame in frames:
        rest = np.setdiff1d(np.arange(n), frame.kept)
        assert list(frame.orders) == list(_PARTITION_RULES)
        for rule, sign in zip(("largest_projection", "smallest_projection"), (-1.0, 1.0)):
            order = rest[np.lexsort((rest, sign * frame.offsets[rest]))]
            for m in range(len(rest) + 1):
                partition = frame.partition(m, rule)
                assert partition == (tuple(np.sort(order[m:]).tolist()), tuple(np.sort(order[:m]).tolist()))
                assert all(type(i) is int for side in partition for i in side)


# GP(7,3) set #4 of the certify-engine workload at seed 1, with its cone_seed
CONE_CASES = [(7, 3, 559134453, 1174444141)] + [(n, k, 1, cone_seed) for n, k in [(9, 2), (8, 3), (9, 4)]
                                                for cone_seed in (0, 7)]


@pytest.mark.parametrize("n, k, seed, cone_seed", CONE_CASES)
def test_frames_draw_tie_directions_until_one_is_taken(monkeypatch, n, k, seed, cone_seed):
    """For h < k a frame draws its tie directions from one stream in blocks
    of 1, 1, 2, 4, ..., 32 and stops at the first block holding a tie with
    the estimate strictly above: it takes the first such tie of a single
    64-draw call, or none when that call has none, and draws no block
    past the one that holds it."""
    X = random_gp_dataset(n, k, seed)
    draws = defaultdict(list)
    inner = breakdown.normal_cone_ties

    def drawing(X, facets, face, rng, samples, tol):
        draws[face].append(samples)
        return inner(X, facets, face, rng, samples, tol)

    monkeypatch.setattr(breakdown, "normal_cone_ties", drawing)
    attacks = _Attacks(make_estimator("cmedian"), X, AttackSuite(cone_seed=cone_seed))
    theta = attacks.baseline.canonical
    faces = {kept: facet for facet in attacks.admissible for h in range(1, k)
             for kept in combinations(facet.indices, h)}
    for kept, facet in faces.items():
        frame = attacks.frame(facet, kept)
        ties = inner(X, attacks.facets, kept, np.random.default_rng(cone_seed), 64, attacks.tol)
        taken = [(u, level) for u, level in ties if float(u @ theta) - level > attacks.tol]
        assert draws[kept] == [1, 1, 2, 4, 8, 16, 32][:len(draws[kept])]
        if not taken:
            assert frame is None and sum(draws[kept]) == 64
            continue
        u, level = taken[0]
        assert np.array_equal(frame.normal, u) and frame.level == level
        # the blocks before the last held no tie above the estimate
        before = inner(X, attacks.facets, kept, np.random.default_rng(cone_seed), sum(draws[kept][:-1]), attacks.tol)
        assert not any(float(v @ theta) - at > attacks.tol for v, at in before)
    if seed == 559134453:
        assert {kept: sum(sizes) for kept, sizes in draws.items() if sum(sizes) > 1} == {(2,): 2, (0, 2): 4, (2, 5): 4}

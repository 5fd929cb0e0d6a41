"""Byte pin of the benchmark's certifications.

Each certify workload of ``bench/workloads.py`` certifies seeded
general-position datasets with ``empirical_fsbv`` and serialises every
result as ``robloc fsbv`` prints it (``emit_fsbv``). One pass of each
workload at seeds 1, 2 and 1001 must reproduce the pinned SHA-256 of those
outputs, in operation order. A change that keeps every emitted byte leaves
the digests alone; a deliberate output change records new ones and says why.

Every broken certificate of those outputs, and of the ``fsbv`` golden
files, is also replayed from its JSON and the data alone: the witness
dataset ``Witness.from_dict`` rebuilds, evaluated without the estimator's
batch hook, must diverge by the recorded distance. Every survived
certificate must have run the whole suite: its labels end with the 2k
cluster attacks, and its h = k shear labels are the admissible facets
derived from the hull facets and T(X) alone.
"""

import dataclasses
import hashlib
import json

import pytest

from robloc import Witness, enumerate_facets, load_dataset_csv, make_estimator
from robloc.geometry import GP_RTOL
from robloc.metric import estimate_set_distance
from test_golden import CASES, GOLDEN

DIGESTS = {
    ("certify-engine", 1): "3f0809adffca4dd5d7403cbc04e34c1885d586f8b204579325cfb72de080f4c8",
    ("certify-mcd", 1): "dfb865e8f0b51044e9b2040eba0271f412490a8cf9fd9ba859ca39120f02dd77",
    ("certify-probe", 1): "8ae6bf8ec281ffee817f988b42a3e02d9c8f2051a7e4056d8742736d0c3f24d4",
    ("certify-engine", 2): "b847851d5edc8b3d148016edd611791076c8a8a121df95bc66162cf95c1aa367",
    ("certify-mcd", 2): "323c6c1ee3f66f3c8c28c5c198f517dca016275e72b98ea99ff72b92a6188733",
    ("certify-probe", 2): "fa8e5be02e79b8cdeb75a4366461255db5c4606b52605813020f92ae1dd9ac67",
    ("certify-engine", 1001): "277b698e96cb680fa66f6c95d005275e23239378c59377eba8e49ff49df2b638",
    ("certify-mcd", 1001): "f94e877f4ced23b0a95dedb5bea088ed45597e92149e3b8f346836967a53409e",
    ("certify-probe", 1001): "e263737f5690d9e943e6dcc7f21d2d5844e795024eb5666cd8291dbd33189352",
}


def survived_labels_ok(X, theta, m, tried) -> bool:
    """Whether the labels ``tried`` of a survived certificate at budget m
    cover the suite: they end with the cluster attacks along +e_1..+e_k,
    -e_1..-e_k, and their h = k shear labels are, best facet first, both
    rules of every hull facet whose halfspace holds the estimate ``theta``
    by more than the general-position tolerance, where m <= n - k."""
    n, k = X.n, X.k
    clusters = [f"cluster(direction={tuple(sign * float(i == j) for j in range(k))})"
                for sign in (1.0, -1.0) for i in range(k)]
    facets = []
    if k >= 2 and m <= n - k:
        tol = GP_RTOL * X.diameter
        admissible = [f for f in enumerate_facets(X) if f.margin_of(theta) > tol]
        facets = sorted(admissible, key=lambda f: (-f.margin_of(theta), f.indices))
    shears = [f"shear(h={k},facet={f.indices},rule={rule})"
              for f in facets for rule in ("largest_projection", "smallest_projection")]
    return (list(tried[-2 * k:]) == clusters
            and [label for label in tried if label.startswith(f"shear(h={k},")] == shears)


def replay(T, X, body, result=None) -> int:
    """Replay every broken certificate of an fsbv JSON ``body`` of T on X;
    with the ``result`` it was emitted from, its witness must also be the
    one ``Witness.from_dict`` reads. Every survived certificate must pass
    :func:`survived_labels_ok`. Returns the number replayed."""
    plain = dataclasses.replace(T, families=None)
    baseline = plain(X)
    for m, cert in body["certificates"].items():
        if cert["status"] == "survived":
            assert survived_labels_ok(X, baseline.canonical, int(m), cert["attack_families_tried"]), m
    broken = [(int(m), cert) for m, cert in body["certificates"].items() if cert["status"] == "broken"]
    for m, cert in broken:
        trace = cert["witness"]
        witness = Witness.from_dict(trace)
        if result is not None:
            assert witness == result.certificates[m].witness.witness_record
        threshold = trace["divergence_threshold"]
        recorded = next(r["distance"] for r in trace["records"] if r["distance"] > threshold)
        distance = estimate_set_distance(plain(witness.dataset(X)), baseline)
        assert distance > threshold, (m, witness)
        assert distance == pytest.approx(recorded, rel=1e-12, abs=0), (m, witness)
    return len(broken)


# seed 1 keeps the ids it was first pinned under
@pytest.mark.parametrize(
    "workload, seed", [pytest.param(w, s, id=w if s == 1 else f"{w}-{s}") for w, s in sorted(DIGESTS)]
)
def test_certify_pass_emits_pinned_bytes(workload, seed, certify_pass):
    _, certifications = certify_pass(workload, seed)
    digest = hashlib.sha256()
    for cert in certifications:
        digest.update(cert.text.encode("utf-8") + b"\n")
        assert replay(cert.T, cert.X, json.loads(cert.text), cert.result) > 0
    assert digest.hexdigest() == DIGESTS[workload, seed]


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("fsbv_")))
def test_golden_certificates_replay(name):
    args = CASES[name][0]
    options = dict(zip(args[2::2], args[3::2]))
    params = {"random_count": int(options["--random-count"])} if "--random-count" in options else {}
    seed = int(options["--seed"]) if "--seed" in options else None
    T = make_estimator(options["-e"], seed=seed, **params)
    body = json.loads((GOLDEN / f"{name}.json").read_bytes())
    assert replay(T, load_dataset_csv(args[1]), body) > 0


def perturbed(tried, k):
    """Label lists that each break one rule of a survived certificate."""
    shears = [j for j, label in enumerate(tried) if label.startswith(f"shear(h={k},")]
    first, second = shears[0], shears[2]  # the first rule of the two best facets
    swapped = list(tried)
    swapped[first], swapped[second] = swapped[second], swapped[first]
    yield swapped  # facets out of order
    yield tried[:first] + tried[first + 1:]  # a facet's rule missing
    yield tried[:-1]  # a cluster direction missing
    yield tried[:-2 * k] + tried[-k:] + tried[-2 * k:-k]  # -axes before +axes
    yield tried + [tried[-1]]  # a cluster attack repeated


@pytest.mark.parametrize("name", ["fsbv_mcd", "fsbv_gp83_cmedian"])
def test_survived_label_check_rejects_perturbed_labels(name):
    args = CASES[name][0]
    X = load_dataset_csv(args[1])
    theta = make_estimator(args[3])(X).canonical
    body = json.loads((GOLDEN / f"{name}.json").read_bytes())
    checked = 0
    for m, cert in body["certificates"].items():
        tried = cert["attack_families_tried"]
        if cert["status"] == "survived" and int(m) <= X.n - X.k:
            assert survived_labels_ok(X, theta, int(m), tried)
            for labels in perturbed(tried, X.k):
                assert not survived_labels_ok(X, theta, int(m), labels), labels
            checked += 1
    assert checked

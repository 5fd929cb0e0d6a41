"""Byte pin of ``shear_attack`` and ``translation_cluster_attack`` traces.

Each case runs ``shear_attack`` on one dataset for every tie order h = 1..k,
both partition rules, the budgets m = 1 and the default, and tie-direction
seeds 0 and 7, and hashes ``json.dumps(trace.to_dict(), sort_keys=True)``
of every trace in that order. The frame an attack picks (facet, kept points,
tie direction) is in every trace, so a change to how frames are built or
chosen shows here even where the golden attack files do not reach. A change
that keeps every byte leaves the digests alone; a deliberate output change
records new ones and says why.

The cluster cases run ``translation_cluster_attack`` on the default radius
grid for every budget m = 1..ceil(n/2) along each direction +e_1..+e_k,
-e_1..-e_k, in that order, and hash the traces the same way.
"""

import hashlib
import json
from pathlib import Path

import pytest

import numpy as np

from robloc import (
    PartitionRule,
    bundled_dataset,
    load_dataset_csv,
    make_estimator,
    random_gp_dataset,
    shear_attack,
    translation_cluster_attack,
)

GP83 = Path(__file__).parent / "golden" / "gp8_3d.csv"

DIGESTS = {
    ("cmedian", "demo10_2d"): "ba882480086404fdaeb2c3f65f0d62b3b6cdfa2eff36871161de2f423b65083b",
    ("cmedian", "gp8_3d"): "49383fdaae9193133bd466c109731b2bba0da7dc736abee400f4f3c09f4f6b46",
    ("mcd", "demo10_2d"): "43dfe6a7bf50fc58e6e8358354821924c410f19cd36dfc5cedd0f40dfacc4840",
    ("mcd", "gp8_3d"): "08f52ff302df552f139ce8b09de29dbd0c6f8f85cf09a6d74b903bf40c36a657",
}


def load(name):
    return load_dataset_csv(GP83) if name == "gp8_3d" else bundled_dataset(name)


@pytest.mark.parametrize("estimator, data", sorted(DIGESTS))
def test_shear_attack_emits_pinned_bytes(estimator, data):
    T = make_estimator(estimator)
    X = load(data)
    digest = hashlib.sha256()
    for h in range(1, X.k + 1):
        for b_rule in ("largest_projection", "smallest_projection"):
            for m in (1, None):
                for cone_seed in (0, 7):
                    trace = shear_attack(T, X, h, partition_rule=PartitionRule(b_rule), m=m,
                                         cone_seed=cone_seed)
                    digest.update(json.dumps(trace.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == DIGESTS[estimator, data]


CLUSTER_DIGESTS = {
    ("cmedian", "demo10_2d"): "bfba948430d723624f2eadfc0a95c830b0ec60ed3a131d4947e2bd2cfc3ef991",
    ("cmedian", "gp8_3d"): "6676299ef05ec82583c4a1d1d1069e2e82cfbe6a91461584b133c9c4cf2603ec",
    ("mcd", "demo10_2d"): "d69ddb53ebd6b2cf063a843c07b4147f567e80fc2547ced6cd7d546d65faf3c8",
    ("mcd", "gp8_3d"): "086eb2869e25fd5ba24956e181aaf2fe0229f2dd38bbb211c04c83fba6930062",
}


@pytest.mark.parametrize("estimator, data", sorted(CLUSTER_DIGESTS))
def test_cluster_attack_emits_pinned_bytes(estimator, data):
    T = make_estimator(estimator)
    X = load(data)
    digest = hashlib.sha256()
    for m in range(1, -(-X.n // 2) + 1):
        for direction in np.vstack([np.eye(X.k), -np.eye(X.k)]).tolist():
            trace = translation_cluster_attack(T, X, m, direction=direction)
            digest.update(json.dumps(trace.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == CLUSTER_DIGESTS[estimator, data]


# mcd traces on GP (16, 2) at seed 1, whose C(16, 9) = 11,440 coverage
# subsets make the families long: over 24 slopes from 10 to 1e8 for every
# h, both partition rules and budgets m = 4 and 7, and over 24 radii from
# 10 to 1e9 for m = 7 and 8 along +e_1 and -e_1, in that order
CHUNKED_DIGESTS = {
    "shear": "e1bcfae5fd8f2d5c4804db9f361f2b99f4d0a2f480c908cf237c28c4ec796165",
    "cluster": "a8d3477b83c449c8fcacc376f803fdc82c52669bcc7424e7c550f32d9cd4ab2b",
}


@pytest.mark.parametrize("family", sorted(CHUNKED_DIGESTS))
def test_long_mcd_families_emit_pinned_bytes(family):
    T = make_estimator("mcd")
    X = random_gp_dataset(16, 2, 1)
    digest = hashlib.sha256()
    if family == "shear":
        slopes = tuple(np.geomspace(10.0, 1e8, 24).tolist())
        traces = (shear_attack(T, X, h, gamma_grid=slopes, partition_rule=PartitionRule(rule), m=m)
                  for h in (1, 2) for rule in ("largest_projection", "smallest_projection") for m in (4, 7))
    else:
        radii = tuple(np.geomspace(10.0, 1e9, 24).tolist())
        traces = (translation_cluster_attack(T, X, m, radius_grid=radii, direction=u)
                  for m in (7, 8) for u in ([1.0, 0.0], [-1.0, 0.0]))
    for trace in traces:
        digest.update(json.dumps(trace.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == CHUNKED_DIGESTS[family]

"""Byte pin of exhaustive MCD results.

Each case hashes ``repr(objective)``, the optimal subsets and the bytes of
the members and the canonical point of ``mcd_exhaustive``, on every
dataset of the case in order. The cases are the 32 general-position
datasets of the benchmark's estimate-direct workload at seed 1, the
integer-grid sets whose subset determinants tie, ``demo10_2d`` shifted by
1e6, where rounding in the centering is large, and 1-D samples; the affine
equivariance reports of MCD on two of those datasets are pinned as well.
A change that keeps every byte leaves the digests alone; a deliberate
output change records new ones and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from robloc import DataSet, bundled_dataset, check_equivariance, make_estimator, random_gp_dataset
from robloc.estimators import mcd_exhaustive
from test_sweep import integer_gp_dataset

DIRECT_SHAPES = ((14, 2), (16, 2), (12, 3), (9, 4))


def subseed(seed, *tags):
    """The benchmark's derived seed of one input of a run."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def direct_datasets(n, k):
    return [random_gp_dataset(n, k, seed=subseed(1, n, k, i)) for i in range(8)]


CASES = {
    **{f"direct-{n}-{k}": (lambda n=n, k=k: direct_datasets(n, k)) for n, k in DIRECT_SHAPES},
    "integer-ties": lambda: [integer_gp_dataset(7, 2, 38), integer_gp_dataset(9, 2, 37),
                             integer_gp_dataset(8, 3, 34)],
    "demo10-shifted": lambda: [DataSet(bundled_dataset("demo10_2d").points + 1e6)],
    "one-dimensional": lambda: [DataSet(np.random.default_rng(11).standard_normal(11)),
                                DataSet(np.array([0.0, 0.1, 0.2, 0.3, 100.0, 0.4, 3.0]))],
}

DIGESTS = {
    "direct-14-2": "d9adaeddc6a5e927cac2745f2b0abf228d168f4191939d3c6634719f77cab977",
    "direct-16-2": "5928e57d07a626585439d8a32f4a902c1f54cc1ce015d85b369baa3fb7f75c53",
    "direct-12-3": "c498037bc55930b9ceb3eb903bdc665c6ea03e5ccdd006a4a50246f825d9af85",
    "direct-9-4": "f5401860d5f3e337611c1103e0faced9671da950bbc67b9cfad3fd5d5c4c039e",
    "integer-ties": "00d18e375b17bbaead73790f7f05b09e94aa484d125315e37742b8cd91516321",
    "demo10-shifted": "f03a5341d90a577300a953f1ab7306e9e44129c0ca55f69c43861017f29b482d",
    "one-dimensional": "984122051033139f8a8c5f5f83f0835a7c9b0a7aa5db0d66855ede378144aa1e",
}

EQUIVARIANCE_DIGESTS = {
    (16, 2): "9d1223a62146363873cff160aa130e071a678058d4753773242b006e2a3c34fe",
    (14, 2): "d6bd4b3e9d120748d3d11185dd4b1db43343cd31b35a91bb6c6edf71ca367896",
}


def mcd_digest(datasets):
    digest = hashlib.sha256()
    for X in datasets:
        result = mcd_exhaustive(X)
        digest.update(repr(result.objective).encode("utf-8") + b"\n")
        digest.update(repr(result.optimal_subsets).encode("utf-8") + b"\n")
        digest.update(result.estimates.members.tobytes() + result.estimates.canonical.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_mcd_results_are_pinned_bytes(case):
    assert mcd_digest(CASES[case]()) == DIGESTS[case]


@pytest.mark.parametrize("n, k", sorted(EQUIVARIANCE_DIGESTS))
def test_mcd_equivariance_reports_are_pinned_bytes(n, k):
    digest = hashlib.sha256()
    T = make_estimator("mcd")
    for i, X in enumerate(direct_datasets(n, k)[:2]):
        report = check_equivariance(T, X, "affine", trials=2, seed=subseed(1, 2, n, k, i))
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == EQUIVARIANCE_DIGESTS[n, k]

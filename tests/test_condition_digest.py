"""Byte pin of the condition and equivariance reports.

Each case draws one seeded general-position dataset and hashes, in order,
``condition_margin(T, X, h, seed).to_json()`` for h = 1..k with the
coordinatewise median and exhaustive MCD, then the affine
``check_equivariance`` report of MCD. The sampled normal-cone directions of
every h < k probe are in the report, so a change to how tie directions are
drawn, normalised or verified shows here; k = 4 is covered by no golden
file. A change that keeps every byte leaves the digests alone; a deliberate
output change records new ones and says why.
"""

import hashlib
import json

import pytest

from robloc import check_equivariance, condition_margin, make_estimator, random_gp_dataset

DIGESTS = {
    (14, 2, 5): "ce0ec2f27b7de857635b552e1c98c228f839428fd39ecf40f6778754be2b4aec",
    (12, 3, 6): "4f2bed9c39dd0a171e7e0ae343c52da82eaa18f0f87bdc5b4b059cc6c131a2bf",
    (9, 4, 7): "1319cd98207d58497553a543eca4f67fd19718bbd3ad2ba8eccb38253ed0e475",
}


@pytest.mark.parametrize("n, k, seed", sorted(DIGESTS))
def test_condition_reports_are_pinned_bytes(n, k, seed):
    X = random_gp_dataset(n, k, seed)
    digest = hashlib.sha256()
    for name in ("cmedian", "mcd"):
        T = make_estimator(name)
        for h in range(1, k + 1):
            digest.update(condition_margin(T, X, h, seed=seed + h).to_json().encode("utf-8") + b"\n")
    report = check_equivariance(make_estimator("mcd"), X, "affine", trials=2, seed=seed)
    digest.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == DIGESTS[n, k, seed]

"""Byte pin of the benchmark's certifications.

Each certify workload of ``bench/workloads.py`` certifies seeded
general-position datasets with ``empirical_fsbv`` and serialises every
result as ``robloc fsbv`` prints it (``emit_fsbv``). One pass of each
workload at seed 1 must reproduce the pinned SHA-256 of those outputs, in
operation order. A change that keeps every emitted byte leaves the digests
alone; a deliberate output change records new ones and says why.
"""

import hashlib

import pytest

import robloc
from test_tracer_targets import load_bench_module

DIGESTS = {
    "certify-engine": "3f0809adffca4dd5d7403cbc04e34c1885d586f8b204579325cfb72de080f4c8",
    "certify-mcd": "dfb865e8f0b51044e9b2040eba0271f412490a8cf9fd9ba859ca39120f02dd77",
    "certify-probe": "8ae6bf8ec281ffee817f988b42a3e02d9c8f2051a7e4056d8742736d0c3f24d4",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_certify_pass_emits_pinned_bytes(workload, monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)
    emit = workloads.emit_fsbv
    digest = hashlib.sha256()

    def recording_emit(result, seed):
        text = emit(result, seed)
        digest.update(text.encode("utf-8") + b"\n")
        return text

    monkeypatch.setattr(workloads, "emit_fsbv", recording_emit)
    ops, _ = workloads.build(robloc, workload, 1)
    for op in ops:
        assert op.check(op.run()) is None, op.label
    assert digest.hexdigest() == DIGESTS[workload]

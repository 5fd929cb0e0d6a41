import types

import numpy as np
import pytest

import robloc
from robloc import DataSet, breakdown, bundled_dataset, random_gp_dataset
from test_tracer_targets import load_bench_module


@pytest.fixture
def triangle():
    return DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


@pytest.fixture
def square_corners():
    return DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


@pytest.fixture
def demo10():
    return bundled_dataset("demo10_2d")


@pytest.fixture
def demo5():
    return bundled_dataset("demo5_1d")


@pytest.fixture
def demo9():
    return bundled_dataset("demo9_1d")


def gp_datasets(count, n, k, seed0):
    """Deterministic stream of general-position datasets for property runs."""
    return [random_gp_dataset(n, k, seed0 + i) for i in range(count)]


def shear_images(X, basis, family, replaced, gammas):
    """X with rows ``replaced`` moved by the shear of ``basis`` at each
    slope of ``gammas``, as one family; ``shear_replace_near`` takes the
    inverse shears, slope -gamma."""
    sign = -1.0 if family == "shear_replace_near" else 1.0
    slopes = sign * np.array([gammas], dtype=float)
    return breakdown._shear_families(X, [basis], [tuple(int(i) for i in replaced)], slopes)[0]


def recording_sweeps(mp) -> list:
    """Record, through the MonkeyPatch ``mp``, every shear sweep robloc
    makes as (attacks, facet, frame, m, b_rule), in the list returned."""
    sweeps, inner = [], breakdown._run_shear_sweep

    def sweep(attacks, facet, frame, m, b_rule, settled=None):
        sweeps.append((attacks, facet, frame, m, b_rule))
        return inner(attacks, facet, frame, m, b_rule, settled)

    mp.setattr(breakdown, "_run_shear_sweep", sweep)
    return sweeps


def record_certify_pass(workload, seed) -> tuple:
    """Run one pass of a certify workload of ``bench/workloads.py``, every
    operation's own check passing, and record in operation order every
    shear sweep robloc made, as (attacks, facet, frame, m, b_rule), and
    every certification: its estimator ``T`` and data ``X``, the
    ``result``, the ``text`` that ``emit_fsbv`` printed and the index of
    its ``first_sweep``."""
    certifications = []
    with pytest.MonkeyPatch.context() as mp:
        workloads = load_bench_module("workloads", mp)
        sweeps, inner_emit = recording_sweeps(mp), workloads.emit_fsbv

        def certify(T, X, **kwargs):
            certifications.append(types.SimpleNamespace(T=T, X=X, first_sweep=len(sweeps)))
            return robloc.empirical_fsbv(T, X, **kwargs)

        def emit(result, seed):
            text = inner_emit(result, seed)
            certifications[-1].result, certifications[-1].text = result, text
            return text

        mp.setattr(workloads, "emit_fsbv", emit)
        ops, _ = workloads.build(types.SimpleNamespace(**{**vars(robloc), "empirical_fsbv": certify}), workload, seed)
        for op in ops:
            assert op.check(op.run()) is None, op.label
    assert len(certifications) == len(ops)
    return sweeps, certifications


@pytest.fixture(scope="session")
def certify_pass():
    """``certify_pass(workload, seed)``: :func:`record_certify_pass`, run
    once per session for each workload and seed, so that the tests that
    check one pass share it."""
    passes = {}

    def get(workload, seed):
        if (workload, seed) not in passes:
            passes[workload, seed] = record_certify_pass(workload, seed)
        return passes[workload, seed]

    return get


@pytest.fixture(scope="session")
def golden_fsbv(tmp_path_factory):
    """Every ``fsbv`` case of ``test_golden.CASES`` run once per session
    through the CLI, its shear sweeps recorded: (sweeps, {case: (its first
    sweep, the end of its sweeps, {golden file name: bytes produced})})."""
    from test_golden import CASES, run_case

    runs, workdir = {}, tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        sweeps = recording_sweeps(mp)
        for name, (args, _) in sorted(CASES.items()):
            if args[0] == "fsbv":
                start = len(sweeps)
                produced = run_case(name, workdir)
                runs[name] = start, len(sweeps), produced
    return sweeps, runs

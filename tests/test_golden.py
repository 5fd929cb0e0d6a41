"""Byte-for-byte CLI output pinned by golden files.

Each case runs one ``robloc`` command on bundled or committed data and
compares its stdout (and the ``--emit-curve`` CSV, when written) with the
file under ``tests/golden/``. Refactors must leave every byte unchanged; a
deliberate output change regenerates the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

import robloc
from robloc.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMO10 = str(Path(robloc.__file__).parent / "data" / "demo10_2d.csv")
DEMO5 = str(Path(robloc.__file__).parent / "data" / "demo5_1d.csv")
GP83 = str(GOLDEN / "gp8_3d.csv")
COLLINEAR = str(GOLDEN / "collinear_2d.csv")
SAMPLE5 = str(GOLDEN / "sample5_1d.csv")

# name -> (arguments, writes a curve CSV)
CASES = {
    "estimate_mcd": (["estimate", DEMO10, "-e", "mcd"], False),
    "estimate_pm": (["estimate", DEMO10, "-e", "pm", "--seed", "3"], False),
    "estimate_tmean_params": (
        ["estimate", DEMO10, "-e", "tmean", "--trim-count", "2", "--scale-shift", "1"], False),
    "attack_mcd": (["attack", DEMO10, "-e", "mcd"], True),
    "attack_mcd_h1": (["attack", DEMO10, "-e", "mcd", "--h", "1", "--seed", "0"], True),
    "attack_cmedian_cluster": (
        ["attack", DEMO10, "-e", "cmedian", "--family", "cluster", "--m", "3"], True),
    "fsbv_mcd": (["fsbv", DEMO10, "-e", "mcd", "--seed", "0"], False),
    "fsbv_cmedian": (["fsbv", DEMO10, "-e", "cmedian", "--seed", "0"], False),
    "fsbv_pm": (["fsbv", DEMO10, "-e", "pm", "--seed", "0", "--random-count", "200"], False),
    "fsbv_tmean": (["fsbv", DEMO10, "-e", "tmean", "--seed", "0"], False),
    # 1-D certifications: no shear frame exists, so every witness is a cluster
    "fsbv_sample5_cmedian": (["fsbv", SAMPLE5, "-e", "cmedian"], False),
    "fsbv_sample5_tmean": (["fsbv", SAMPLE5, "-e", "tmean"], False),
    "bounds": (["bounds", "10", "2", "2"], False),
    "depth_exact2d": (["depth", DEMO10, "--point", "3.5,5.0"], False),
    "depth_sampled": (
        ["depth", DEMO10, "--point", "3.5,5.0", "--mode", "sampled", "--seed", "1",
         "--random-count", "50"], False),
    "condition_h2": (["condition", DEMO10, "-e", "mcd", "--seed", "0"], False),
    "condition_h1": (["condition", DEMO10, "-e", "mcd", "--h", "1", "--seed", "0"], False),
    "condition_h2_coverage": (
        ["condition", DEMO10, "-e", "mcd", "--coverage", "7", "--seed", "0"], False),
    "condition_collinear_h3": (["condition", COLLINEAR, "-e", "cmedian", "--h", "3"], False),
    "metric": (["metric", DEMO5, SAMPLE5], False),
    "scenario_pm": (
        ["scenario-pm", "--m", "3", "--deltas", "1e-1", "--seed", "1", "--random-count", "100",
         "--grid-refinements", "2"], False),
    "gp83_attack_h1": (["attack", GP83, "-e", "mcd", "--h", "1", "--seed", "0"], True),
    "gp83_attack_h2": (["attack", GP83, "-e", "mcd", "--h", "2", "--seed", "0"], True),
    "gp83_condition_h1": (["condition", GP83, "-e", "mcd", "--h", "1", "--seed", "0"], False),
    "gp83_condition_h2": (["condition", GP83, "-e", "mcd", "--h", "2", "--seed", "0"], False),
    # even n in 3-D: the witness boxes have 2^3 corners
    "fsbv_gp83_cmedian": (["fsbv", GP83, "-e", "cmedian", "--seed", "0"], False),
}


def run_case(name, workdir: Path) -> dict:
    """Run one case; return {golden file name: bytes produced}."""
    args, curve = CASES[name]
    curve_path = workdir / f"{name}.curve.csv"
    if curve:
        args = [*args, "--emit-curve", str(curve_path)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.stderr
    out = {f"{name}.json": result.stdout_bytes}
    if curve:
        out[curve_path.name] = curve_path.read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, golden_fsbv):
    # the fsbv cases run once per session, in the fixture that records their sweeps
    _, runs = golden_fsbv
    outputs = runs[name][2] if name in runs else run_case(name, tmp_path)
    for fname, produced in outputs.items():
        assert produced == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fname, produced in run_case(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(produced)
                print(f"wrote {fname} ({len(produced)} bytes)")

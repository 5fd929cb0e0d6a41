import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from robloc import DataSet, bundled_dataset, load_dataset_csv, save_dataset_csv
from robloc.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def demo10_csv(tmp_path):
    path = tmp_path / "demo10.csv"
    save_dataset_csv(bundled_dataset("demo10_2d"), path)
    return str(path)


@pytest.fixture
def demo5_csv(tmp_path):
    path = tmp_path / "demo5.csv"
    save_dataset_csv(bundled_dataset("demo5_1d"), path)
    return str(path)


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_estimate_mcd_json(runner, demo10_csv):
    result = invoke(runner, ["estimate", demo10_csv, "--estimator", "mcd"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["estimator"] == "mcd"
    assert payload["equivariance_class"] == "affine"
    assert len(payload["members"][0]) == 2
    assert "config_hash" in payload


def test_estimate_unknown_estimator_exits_3(runner, demo10_csv):
    result = runner.invoke(main, ["estimate", demo10_csv, "--estimator", "nope"])
    assert result.exit_code == 3


def test_estimate_empty_file_exits_2(runner, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    result = runner.invoke(main, ["estimate", str(empty), "--estimator", "mcd"])
    assert result.exit_code == 2


def test_estimate_missing_file_exits_2(runner):
    result = runner.invoke(main, ["estimate", "no-such.csv", "--estimator", "mcd"])
    assert result.exit_code == 2


def test_estimate_pm_requires_seed(runner, demo10_csv):
    result = runner.invoke(main, ["estimate", demo10_csv, "--estimator", "pm"])
    assert result.exit_code == 4


def test_attack_default_gamma_grid_emits_8_rows(runner, demo10_csv, tmp_path):
    curve = tmp_path / "curve.csv"
    result = invoke(
        runner,
        ["attack", demo10_csv, "--estimator", "mcd", "--family", "shear",
         "--emit-curve", str(curve)],
    )
    assert result.exit_code == 0
    rows = [line for line in curve.read_text().splitlines() if line.strip()]
    assert len(rows) == 8
    payload = json.loads(result.stdout)
    assert len(payload["grid"]) == 8
    assert payload["diverged"] is True


def test_attack_deterministic_bytes(runner, demo10_csv):
    args = ["attack", demo10_csv, "--estimator", "mcd", "--family", "shear",
            "--seed", "7", "--gamma-grid", "10,100"]
    out1 = invoke(runner, args).stdout
    out2 = invoke(runner, args).stdout
    assert out1 == out2


def test_attack_m_exceeding_n_exits_4(runner, demo10_csv, tmp_path):
    # the budget is checked before general position
    collinear = tmp_path / "collinear.csv"
    collinear.write_text("0,0\n1,0\n2,0\n0,1\n")
    for family in ("cluster", "shear"):
        assert_fails(runner, ["attack", demo10_csv, "-e", "mcd", "--family", family, "--m", "11"], 4)
        assert_fails(runner, ["attack", str(collinear), "-e", "cmedian", "--family", family, "--m", "5"], 4)


def test_attack_cluster_requires_m(runner, demo10_csv):
    result = runner.invoke(
        main, ["attack", demo10_csv, "--estimator", "mcd", "--family", "cluster"]
    )
    assert result.exit_code == 4


@pytest.mark.parametrize("args, grid", [
    (["fsbv", "-e", "cmedian", "--seed", "0", "--gamma-grid", "nan"], "gamma"),
    (["fsbv", "-e", "cmedian", "--seed", "0", "--gamma-grid", "inf"], "gamma"),
    (["fsbv", "-e", "cmedian", "--seed", "0", "--gamma-grid", "1e400"], "gamma"),
    (["fsbv", "-e", "cmedian", "--seed", "0", "--radius-grid", "10,nan"], "radius"),
    (["attack", "-e", "cmedian", "--family", "cluster", "--m", "3", "--radius-grid", "nan"], "radius"),
    (["attack", "-e", "cmedian", "--gamma-grid", "10,-inf"], "gamma"),
])
def test_non_finite_grid_exits_4(runner, demo10_csv, args, grid):
    # rejected before any contaminated dataset is built: no numpy warning,
    # one error line naming the grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [args[0], demo10_csv, *args[1:]])
    assert result.exit_code == 4
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {grid} grid must be nonempty and finite, got [")


@pytest.mark.parametrize("args, message", [
    (["fsbv", "-e", "cmedian", "--seed", "0", "--threshold-factor", "nan"],
     "threshold_factor must be finite and at least 1e3, got nan"),
    (["fsbv", "-e", "cmedian", "--seed", "0", "--threshold-factor", "inf"],
     "threshold_factor must be finite and at least 1e3, got inf"),
    (["depth", "--point", "nan,1"], "point coordinates must be finite, got [nan, 1.0]"),
    (["attack", "-e", "cmedian", "--family", "cluster", "--m", "3", "--direction", "nan,1"],
     "direction coordinates must be finite"),
], ids=["threshold-nan", "threshold-inf", "point-nan", "direction-nan"])
def test_non_finite_parameter_exits_4(runner, demo10_csv, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [args[0], demo10_csv, *args[1:]])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {message}"]


def test_grid_values_beyond_the_numerics_warn_nothing(runner, demo10_csv):
    # mcd's bound and determinants overflow at 1e100, where the family falls
    # back whole; at 1e300 the preimage check and the cluster's distance
    # cannot be evaluated at all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mcd = runner.invoke(main, ["attack", demo10_csv, "-e", "mcd", "--gamma-grid", "1e100"])
        shear = runner.invoke(main, ["attack", demo10_csv, "-e", "cmedian", "--gamma-grid", "1e300"])
        cluster = runner.invoke(main, ["attack", demo10_csv, "-e", "cmedian", "--family", "cluster",
                                       "--m", "6", "--radius-grid", "1e300"])
    assert mcd.exit_code == 0
    assert mcd.stderr == ""
    assert json.loads(mcd.stdout)["grid"] == [1e100]
    for result, message in ((shear, "slope 1e+300 is too large: the preimage check overflows"),
                            (cluster, "radius 1e+300 is too large: its distance overflows")):
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("args, message", [
    (["fsbv", "-e", "mcd", "--seed", "0", "--gamma-grid", "1e100"], "slope 1e+100"),
    (["attack", "-e", "mcd", "--family", "cluster", "--m", "6", "--radius-grid", "1e200"],
     "radius 1e+200"),
    # the subset means overflow before any determinant does
    (["attack", "-e", "mcd", "--family", "cluster", "--m", "6", "--radius-grid", "1.7e308"],
     "radius 1.7e+308"),
], ids=["fsbv-slope", "cluster-radius", "cluster-radius-mean"])
def test_mcd_determinants_that_all_overflow_exit_4(runner, demo10_csv, args, message):
    # every coverage subset of some dataset holds a huge row and no
    # determinant is finite: the grid value is out of range, the data are
    # not degenerate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [args[0], demo10_csv, *args[1:]])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: {message} is too large: every coverage subset's covariance determinant overflows"
    ]


@pytest.mark.parametrize("args, message", [
    (["fsbv", "-e", "pm", "--seed", "0", "--random-count", "50", "--gamma-grid", "1e154"],
     "slope 1e+154 is too large: "),
    (["fsbv", "-e", "pm", "--seed", "0", "--random-count", "50", "--gamma-grid", "1e160"],
     "slope 1e+160 is too large: "),
    (["attack", "-e", "pm", "--seed", "0", "--family", "cluster", "--m", "3", "--radius-grid", "1e200"],
     "radius 1e+200 is too large: "),
], ids=["pm-slope-1e154", "pm-slope-1e160", "pm-cluster-radius"])
def test_grid_value_whose_data_diameter_overflows_exits_4(runner, demo10_csv, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [args[0], demo10_csv, *args[1:]])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {message}the data diameter overflows"]


@pytest.mark.parametrize("args", [
    ["estimate", "-e", "pm", "--seed", "0"],
    ["fsbv", "-e", "cmedian", "--seed", "0"],
    ["fsbv", "-e", "tmean", "--seed", "0"],
    ["fsbv", "-e", "wmean", "--seed", "0"],
    ["condition", "-e", "cmedian", "--seed", "0"],
], ids=["estimate-pm", "fsbv-cmedian", "fsbv-tmean", "fsbv-wmean", "condition-cmedian"])
def test_finite_data_whose_diameter_overflows_exit_4(runner, tmp_path, args):
    # every coordinate is finite, but differences near 1e160 square beyond
    # the float range: a parameter error, not a false hyperplane witness
    path = tmp_path / "huge.csv"
    save_dataset_csv(DataSet(bundled_dataset("demo10_2d").points * 1e160), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: the data diameter overflows"]


def test_data_whose_subset_determinants_overflow(runner, tmp_path):
    # differences near 1e111 square within the float range, but 3x3
    # determinants reach about 1e333: the condition report and the shear
    # screen, which take determinants in units of the data's scale, both
    # run, and the certificate is the one of the unscaled data
    golden = Path(__file__).parent / "golden" / "gp8_3d.csv"
    path = tmp_path / "huge.csv"
    save_dataset_csv(DataSet(load_dataset_csv(golden).points * 1e110), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        condition = runner.invoke(main, ["condition", str(path), "-e", "cmedian", "--seed", "0"])
        fsbv = runner.invoke(main, ["fsbv", str(path), "-e", "cmedian", "--seed", "0"])
        unscaled = runner.invoke(main, ["fsbv", str(golden), "-e", "cmedian", "--seed", "0"])
    assert condition.exit_code == 0
    assert json.loads(condition.stdout)["h"] == 3
    assert (fsbv.exit_code, fsbv.stderr) == (0, "")
    got, want = json.loads(fsbv.stdout), json.loads(unscaled.stdout)
    assert got["fraction"] == want["fraction"] == [4, 8]
    for m, cert in want["certificates"].items():
        assert got["certificates"][m]["attack_families_tried"] == cert["attack_families_tried"]
        assert got["certificates"][m]["status"] == cert["status"]


@pytest.mark.parametrize("args, message", [
    (["attack", "-e", "cmedian", "--family", "cluster", "--m", "3", "--direction", "1"],
     "direction has dimension 1, the data have dimension 2"),
    (["attack", "-e", "cmedian", "--family", "cluster", "--m", "3", "--direction", "1,0,0"],
     "direction has dimension 3, the data have dimension 2"),
    (["estimate", "-e", "cmedian", "--coverage", "3"],
     "estimator 'cmedian' does not take parameters ['coverage']"),
    (["fsbv", "-e", "mcd", "--seed", "0", "--trim-count", "1"],
     "estimator 'mcd' does not take parameters ['trim_count']"),
], ids=["direction-1d", "direction-3d", "cmedian-coverage", "mcd-trim-count"])
def test_parameter_that_does_not_fit_exits_4(runner, demo10_csv, args, message):
    result = runner.invoke(main, [args[0], demo10_csv, *args[1:]])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {message}"]


def test_fsbv_median_demo5(runner, demo5_csv):
    # 1-D certification has no sampled directions, so no seed is needed
    result = invoke(runner, ["fsbv", demo5_csv, "--estimator", "cmedian"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["fraction"] == [3, 5]
    assert payload["certificates"]["3"]["status"] == "broken"
    assert payload["certificates"]["2"]["status"] == "survived"


def test_fsbv_2d_requires_seed(runner, demo10_csv):
    result = runner.invoke(main, ["fsbv", demo10_csv, "--estimator", "mcd"])
    assert result.exit_code == 4


def test_fsbv_mcd_demo10_certifies_4_of_10(runner, demo10_csv):
    result = invoke(runner, ["fsbv", demo10_csv, "--estimator", "mcd", "--seed", "0"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["fraction"] == [4, 10]


def test_condition_h_below_k_requires_seed(runner, demo10_csv):
    result = runner.invoke(main, ["condition", demo10_csv, "--estimator", "mcd", "--h", "1"])
    assert result.exit_code == 4


def test_estimate_matches_library_call(runner, demo10_csv):
    import numpy as np

    from robloc import bundled_dataset, make_estimator

    result = invoke(runner, ["estimate", demo10_csv, "--estimator", "mcd"])
    payload = json.loads(result.stdout)
    direct = make_estimator("mcd")(bundled_dataset("demo10_2d"))
    assert np.allclose(payload["members"], direct.members)
    assert np.allclose(payload["canonical"], direct.canonical)


def test_fsbv_deterministic_bytes(runner, demo5_csv):
    args = ["fsbv", demo5_csv, "--estimator", "cmedian", "--seed", "1"]
    assert invoke(runner, args).stdout == invoke(runner, args).stdout


def test_bounds_table(runner):
    result = invoke(runner, ["bounds", "10", "2", "2"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["translation"] == [5, 10]
    assert payload["affine_condition_h"] == [4, 10]
    assert payload["scatter"] == [4, 10]
    assert payload["projection_median"] == [5, 10]


def test_bounds_invalid_exits_4(runner):
    assert runner.invoke(main, ["bounds", "10", "2", "3"]).exit_code == 4


def test_depth_exact(runner, demo10_csv):
    result = invoke(runner, ["depth", demo10_csv, "--point", "3.5,5.0"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["mode"] == "exact2d"
    assert payload["depth"] >= 1


def test_depth_sampled_requires_seed(runner, demo10_csv):
    result = runner.invoke(main, ["depth", demo10_csv, "--point", "1,1", "--mode", "sampled"])
    assert result.exit_code == 4


def test_condition_report(runner, demo10_csv):
    result = invoke(runner, ["condition", demo10_csv, "--estimator", "mcd", "--seed", "0"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["h"] == 2
    assert payload["holds_empirically"] is True


def test_metric_between_samples(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0.0\n10.0\n")
    b.write_text("9.0\n1.0\n")
    result = invoke(runner, ["metric", str(a), str(b)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["distance"] == 1.0


def test_metric_rejects_multicolumn(runner, tmp_path, demo10_csv):
    b = tmp_path / "b.csv"
    b.write_text("1.0\n2.0\n")
    result = runner.invoke(main, ["metric", demo10_csv, str(b)])
    assert result.exit_code == 2


def test_scenario_pm_rejects_bad_delta(runner):
    result = runner.invoke(
        main, ["scenario-pm", "--deltas", "0.1,1.5", "--seed", "1"]
    )
    assert result.exit_code == 4


def test_scenario_pm_small_run(runner):
    args = ["scenario-pm", "--m", "4", "--deltas", "1e-1,1e-2", "--seed", "3",
            "--random-count", "100", "--grid-refinements", "3"]
    result = invoke(runner, args)
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["n"] == 10
    assert invoke(runner, args).stdout == result.stdout  # byte determinism


def assert_fails(runner, args, code):
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


def test_estimate_coverage_out_of_range_exits_4(runner, demo10_csv):
    # raised while evaluating, not while building: still a parameter error
    assert_fails(runner, ["estimate", demo10_csv, "-e", "mcd", "--coverage", "99"], 4)


def test_fsbv_coverage_out_of_range_exits_4(runner, demo10_csv):
    assert_fails(runner, ["fsbv", demo10_csv, "-e", "mcd", "--coverage", "99", "--seed", "0"], 4)


def test_depth_negative_random_count_exits_4(runner, demo10_csv):
    args = ["depth", demo10_csv, "--point", "1,1", "--mode", "sampled", "--seed", "1",
            "--random-count", "-1"]
    assert_fails(runner, args, 4)


def test_scenario_pm_negative_random_count_exits_4(runner):
    assert_fails(runner, ["scenario-pm", "--seed", "1", "--random-count", "-1"], 4)


@pytest.mark.parametrize("noise_scale", ["0", "nan", "inf"])
def test_scenario_pm_bad_noise_scale_exits_4(runner, noise_scale):
    assert_fails(runner, ["scenario-pm", "--seed", "1", "--noise-scale", noise_scale], 4)


def test_condition_on_degenerate_data_exits_3(runner, tmp_path):
    path = tmp_path / "collinear.csv"
    path.write_text("0,0\n1,0\n2,0\n0,1\n")
    assert_fails(runner, ["condition", str(path), "-e", "cmedian"], 3)


def test_condition_h_beyond_n_exits_4(runner):
    gp83 = str(Path(__file__).parent / "golden" / "gp8_3d.csv")
    assert_fails(runner, ["condition", gp83, "-e", "cmedian", "--h", "9"], 4)


def test_estimate_pm_negative_grid_refinements_exits_4(runner, demo10_csv):
    args = ["estimate", demo10_csv, "-e", "pm", "--seed", "3", "--grid-refinements", "-2"]
    assert_fails(runner, args, 4)


def test_scenario_pm_negative_grid_refinements_exits_4(runner):
    assert_fails(runner, ["scenario-pm", "--seed", "1", "--grid-refinements", "-1"], 4)


@pytest.mark.parametrize("args", [
    ["fsbv", "-e", "cmedian"],
    ["attack", "-e", "mcd", "--h", "1"],
    ["estimate", "-e", "pm"],
    ["estimate", "-e", "tmean"],
    ["depth", "--point", "3.5,5.0", "--mode", "sampled"],
    ["condition", "-e", "mcd", "--h", "1"],
    ["scenario-pm", "--m", "3", "--deltas", "1e-1"],
], ids=["fsbv", "attack", "estimate-pm", "estimate-tmean", "depth", "condition", "scenario-pm"])
def test_negative_seed_exits_4(runner, demo10_csv, args):
    data = [] if args[0] == "scenario-pm" else [demo10_csv]
    result = runner.invoke(main, [args[0], *data, *args[1:], "--seed", "-1"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: seed must be a nonnegative integer, got -1"]

"""Batch command-line runner.

Every command writes one JSON document (UTF-8, sorted keys) to stdout and is
byte-identical across runs given identical flags and seed; anything
timing-related goes to stderr. Exit codes: 0 ok, 2 input problem, 3
estimator problem, 4 parameter out of range.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
import time

import click
import numpy as np

from .breakdown import (
    AttackSuite,
    DEFAULT_GAMMA_GRID,
    DEFAULT_RADIUS_GRID,
    DEFAULT_THRESHOLD_FACTOR,
    config_digest,
    empirical_fsbv,
    pm_counterexample,
    shear_attack,
    theoretical_bounds,
    translation_cluster_attack,
    PartitionRule,
)
from .conditions import condition_margin
from .dataset import load_dataset_csv
from .depth import DirectionBudget, OutlyingnessEvaluator, tukey_depth
from .errors import DatasetFormatError, ParameterError, RoblocError
from .estimators import (_DEFAULT_GRID_REFINEMENTS, _DEFAULT_PROBE_COUNT, _ESTIMATOR_PARAMETERS, ESTIMATOR_NAMES,
                         make_estimator)
from .metric import sample_distance

EXIT_INPUT = 2
EXIT_ESTIMATOR = 3
EXIT_PARAMETER = 4


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path):
    try:
        return load_dataset_csv(path)
    except (DatasetFormatError, OSError) as exc:
        _fail(EXIT_INPUT, f"cannot read dataset {path}: {exc}")


def _parse_grid(text, what):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParameterError(f"cannot parse {what} grid {text!r}") from None
    if not values:
        raise ParameterError(f"{what} grid is empty")
    return tuple(values)


_ESTIMATOR_OPTIONS = [
    click.option("--estimator", "-e", required=True, type=str, help=f"one of: {', '.join(ESTIMATOR_NAMES)}"),
    click.option("--seed", type=int, default=None, help="seed for stochastic estimators/attacks"),
    click.option("--coverage", type=int, default=None, help="mcd: subset size"),
    click.option("--trim-count", type=int, default=None, help="tmean: points to trim"),
    click.option("--scale-shift", type=int, default=None, help="order-statistic shift of the MAD"),
    click.option("--random-count", type=int, default=None, help="random probe directions"),
    click.option("--grid-refinements", type=int, default=None, help="pm: grid halvings"),
]
_ESTIMATOR_PARAMS = tuple(dict.fromkeys(p for params in _ESTIMATOR_PARAMETERS.values() for p in params))


def _with_estimator_options(fn):
    """Add the estimator options to a command.

    The command receives the built estimator ``T``, ``seed``, and
    ``params``: the estimator parameters given on the command line, which
    its config hash records.
    """

    @functools.wraps(fn)
    def command(estimator, seed, **kwargs):
        params = {p: v for p in _ESTIMATOR_PARAMS if (v := kwargs.pop(p)) is not None}
        T = make_estimator(estimator, seed=seed, **params)
        return fn(T=T, seed=seed, params=params, **kwargs)

    for opt in reversed(_ESTIMATOR_OPTIONS):
        command = opt(command)
    return command


class _Commands(click.Group):
    """The one place library errors become exit codes: 4 for a parameter
    out of range, 3 for any other robloc error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParameterError as exc:
            _fail(EXIT_PARAMETER, str(exc))
        except RoblocError as exc:
            _fail(EXIT_ESTIMATOR, str(exc))


@click.group(cls=_Commands)
def main():
    """Robust location estimators and breakdown certification."""


@main.command()
@click.argument("dataset", type=click.Path())
@_with_estimator_options
def estimate(dataset, T, seed, params):
    """Evaluate an estimator on a CSV dataset."""
    X = _load(dataset)
    t0 = time.perf_counter()
    est = T(X)
    elapsed = time.perf_counter() - t0
    click.echo(f"runtime_seconds: {elapsed:.6f}", err=True)
    _emit(
        {
            "command": "estimate",
            "estimator": T.name,
            "equivariance_class": T.equivariance_class,
            "n": X.n,
            "k": X.k,
            "members": [[float(v) for v in row] for row in est.members],
            "canonical": [float(v) for v in est.canonical],
            "seed": seed,
            "config_hash": config_digest(
                {"command": "estimate", "estimator": T.name, "seed": seed, "params": params}
            ),
        }
    )


@main.command()
@click.argument("dataset", type=click.Path())
@_with_estimator_options
@click.option("--family", type=click.Choice(["shear", "cluster"]), default="shear")
@click.option("--h", "h_value", type=int, default=None, help="shear: tie order (default k)")
@click.option("--m", "m_value", type=int, default=None, help="replacement count")
@click.option("--gamma-grid", type=str, default=None, help="comma-separated shear slopes")
@click.option("--radius-grid", type=str, default=None, help="comma-separated cluster radii")
@click.option("--direction", type=str, default=None, help="cluster: comma-separated direction")
@click.option("--b-rule", type=click.Choice(["largest_projection", "smallest_projection"]),
              default="largest_projection")
@click.option("--emit-curve", type=click.Path(), default=None, help="write (parameter, distance) CSV")
def attack(dataset, T, seed, params, family, h_value, m_value, gamma_grid, radius_grid,
           direction, b_rule, emit_curve):
    """Run one contamination family against an estimator."""
    X = _load(dataset)
    if family == "shear":
        h = X.k if h_value is None else h_value
        if h < X.k and seed is None:
            raise ParameterError("shear attacks with h < k sample tie directions; --seed is mandatory")
        grid = DEFAULT_GAMMA_GRID if gamma_grid is None else _parse_grid(gamma_grid, "gamma")
        trace = shear_attack(
            T, X, h, gamma_grid=grid, partition_rule=PartitionRule(b_rule=b_rule),
            m=m_value, cone_seed=0 if seed is None else seed,
        )
    else:
        if m_value is None:
            raise ParameterError("cluster attack requires --m")
        grid = DEFAULT_RADIUS_GRID if radius_grid is None else _parse_grid(radius_grid, "radius")
        dir_vec = None
        if direction is not None:
            raw = np.array(_parse_grid(direction, "direction"))
            norm = np.linalg.norm(raw)
            if norm == 0:
                raise ParameterError("direction must be nonzero")
            with np.errstate(invalid="ignore"):  # inf / inf: the attack rejects the NaN
                dir_vec = raw / norm
        trace = translation_cluster_attack(T, X, m_value, radius_grid=grid, direction=dir_vec)
    if emit_curve:
        with open(emit_curve, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for param, dist in trace.curve_rows():
                writer.writerow([repr(float(param)), repr(float(dist))])
    payload = trace.to_dict()
    payload["command"] = "attack"
    payload["seed"] = seed
    _emit(payload)


@main.command()
@click.argument("dataset", type=click.Path())
@_with_estimator_options
@click.option("--threshold-factor", type=float, default=DEFAULT_THRESHOLD_FACTOR, show_default=True)
@click.option("--gamma-grid", type=str, default=None)
@click.option("--radius-grid", type=str, default=None)
def fsbv(dataset, T, seed, params, threshold_factor, gamma_grid, radius_grid):
    """Certify the empirical breakdown fraction of an estimator."""
    X = _load(dataset)
    if X.k >= 2 and seed is None:
        raise ParameterError("the attack suite samples tie directions for h < k; --seed is mandatory")
    suite = AttackSuite(
        gamma_grid=DEFAULT_GAMMA_GRID if gamma_grid is None else _parse_grid(gamma_grid, "gamma"),
        radius_grid=DEFAULT_RADIUS_GRID if radius_grid is None else _parse_grid(radius_grid, "radius"),
        cone_seed=0 if seed is None else seed,
    )
    result = empirical_fsbv(T, X, suite=suite, threshold_factor=threshold_factor)
    payload = result.to_dict()
    payload["command"] = "fsbv"
    payload["seed"] = seed
    _emit(payload)


@main.command()
@click.argument("n", type=int)
@click.argument("k", type=int)
@click.argument("h", type=int)
def bounds(n, k, h):
    """Print the exact breakdown bound table for (n, k, h)."""
    table = theoretical_bounds(n, k, h)
    payload = table.to_dict()
    payload["command"] = "bounds"
    payload["config_hash"] = config_digest({"command": "bounds", "n": n, "k": k, "h": h})
    _emit(payload)


@main.command()
@click.argument("dataset", type=click.Path())
@click.option("--point", required=True, type=str, help="comma-separated coordinates")
@click.option("--mode", type=click.Choice(["exact2d", "sampled"]), default="exact2d")
@click.option("--seed", type=int, default=None)
@click.option("--random-count", type=int, default=_DEFAULT_PROBE_COUNT)
def depth(dataset, point, mode, seed, random_count):
    """Halfspace depth of a point relative to a dataset."""
    X = _load(dataset)
    x = np.array(_parse_grid(point, "point"))
    budget = None
    if mode == "sampled":
        if seed is None:
            raise ParameterError("sampled mode requires --seed")
        budget = DirectionBudget(random_count, True, seed)
    value = tukey_depth(x, X, mode=mode, budget=budget)
    _emit(
        {
            "command": "depth",
            "point": [float(v) for v in x],
            "mode": mode,
            "depth": value,
            "depth_is_upper_bound": mode == "sampled",
            "n": X.n,
            "k": X.k,
            "seed": seed,
            "config_hash": config_digest(
                {"command": "depth", "point": [float(v) for v in x], "mode": mode,
                 "seed": seed, "random_count": random_count}
            ),
        }
    )


@main.command()
@click.argument("dataset", type=click.Path())
@_with_estimator_options
@click.option("--h", "h_value", type=int, default=None, help="tie order (default k)")
def condition(dataset, T, seed, params, h_value):
    """Margin report for an estimator above tied minimal projections."""
    X = _load(dataset)
    h = X.k if h_value is None else h_value
    if h < X.k and seed is None:
        raise ParameterError("h < k samples directions from normal cones; --seed is mandatory")
    report = condition_margin(T, X, h, seed=0 if seed is None else seed)
    payload = report.to_dict()
    payload["command"] = "condition"
    payload["estimator"] = T.name
    payload["seed"] = seed
    payload["config_hash"] = config_digest(
        {"command": "condition", "estimator": T.name, "h": h, "seed": seed, "params": params}
    )
    _emit(payload)


@main.command()
@click.argument("sample_x", type=click.Path())
@click.argument("sample_y", type=click.Path())
def metric(sample_x, sample_y):
    """Permutation-minimal sup distance between two 1-D samples (CSV, one
    value per row)."""
    X = _load(sample_x)
    Y = _load(sample_y)
    if X.k != 1 or Y.k != 1:
        _fail(EXIT_INPUT, "metric expects single-column samples")
    d = sample_distance(X.points[:, 0], Y.points[:, 0])
    _emit(
        {
            "command": "metric",
            "n": X.n,
            "distance": float(d),
            "config_hash": config_digest({"command": "metric", "n": X.n}),
        }
    )


@main.command("scenario-pm")
@click.option("--m", "m_value", type=int, default=10, show_default=True)
@click.option("--deltas", type=str, default="1e-1,1e-2,1e-3", show_default=True)
@click.option("--noise-scale", type=float, default=0.1, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--random-count", type=int, default=_DEFAULT_PROBE_COUNT, show_default=True)
@click.option("--grid-refinements", type=int, default=_DEFAULT_GRID_REFINEMENTS, show_default=True)
def scenario_pm(m_value, deltas, noise_scale, seed, random_count, grid_refinements):
    """Sweep the collapse scenario: projection-median norm and origin
    outlyingness as the anchor separation shrinks."""
    delta_values = _parse_grid(deltas, "delta")
    T = make_estimator("pm", seed=seed, random_count=random_count, grid_refinements=grid_refinements)
    budget = DirectionBudget(random_count, True, seed)
    datasets = [pm_counterexample(m_value, d, noise_scale=noise_scale, seed=seed) for d in delta_values]
    rows = []
    for d, X in zip(delta_values, datasets):
        est = T(X)
        evaluator = OutlyingnessEvaluator(X, X.k - 1, budget)
        rows.append(
            {
                "delta": float(d),
                "pm_norm": float(np.linalg.norm(est.canonical)),
                "pm_canonical": [float(v) for v in est.canonical],
                "origin_outlyingness": float(evaluator(np.zeros(X.k))),
                "n": X.n,
            }
        )
    _emit(
        {
            "command": "scenario-pm",
            "m": m_value,
            "noise_scale": noise_scale,
            "seed": seed,
            "rows": rows,
            "config_hash": config_digest(
                {
                    "command": "scenario-pm",
                    "m": m_value,
                    "deltas": [float(d) for d in delta_values],
                    "noise_scale": noise_scale,
                    "seed": seed,
                    "random_count": random_count,
                    "grid_refinements": grid_refinements,
                }
            ),
        }
    )


if __name__ == "__main__":
    main()

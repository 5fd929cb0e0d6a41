"""Point-set container and dataset I/O.

A :class:`DataSet` is an ordered collection of n points in R^k. Point order
matters only for indexing and reporting; every numerical operation in this
package is permutation-invariant in value. Instances are immutable so they
can be shared freely across attacks and their grids.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import (
    DatasetFormatError,
    GeneralPositionError,
    OverflowParameterError,
    ParameterError,
    require_integer,
)

__all__ = [
    "DataSet",
    "load_dataset_csv",
    "loads_dataset_csv",
    "save_dataset_csv",
    "bundled_dataset",
    "random_gp_dataset",
]


@dataclass(frozen=True)
class DataSet:
    """n points in R^k, stored as a read-only (n, k) float array.

    Geometric operations (hull facets, shear attacks) additionally require
    n > k and general position; those preconditions are checked at the call
    sites that need them, so degenerate sets (e.g. a singleton) can still be
    fed to purely coordinatewise estimators.
    """

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise DatasetFormatError(f"points must be a 2-D array, got ndim={pts.ndim}")
        n, k = pts.shape
        if n < 1 or k < 1:
            raise DatasetFormatError(f"need at least one point and one coordinate, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DatasetFormatError("all coordinates must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.points.shape[1]

    @cached_property
    def diameter(self) -> float:
        """Largest pairwise Euclidean distance (0 for a singleton). Finite
        points whose distance overflows raise OverflowParameterError."""
        with np.errstate(over="ignore"):
            d = self.points[:, None, :] - self.points[None, :, :]
            diameter = float(np.sqrt((d * d).sum(axis=2)).max())
        if not np.isfinite(diameter):
            raise OverflowParameterError("the data diameter overflows")
        return diameter

    def with_replaced(self, indices, new_points) -> "DataSet":
        """Return a copy in which ``points[indices]`` are replaced row-wise
        by ``new_points``, which must be finite (else DatasetFormatError):
        :meth:`replaced_stack` of one block."""
        block = np.asarray(new_points, dtype=float).reshape(1, 1, len(indices), self.k)
        return DataSet(self.replaced_stack([indices], block)[0, 0])

    def replaced_stack(self, indices, images) -> np.ndarray:
        """Copies with rows ``indices[f]`` set to ``images[f, j]``, for (F, r)
        indices and (F, G, r, k) images, as one read-only (F, G, n, k) stack.
        A family's indices must be distinct and in range (else ParameterError)."""
        F, G = np.shape(images)[:2]
        idx = np.asarray(indices, dtype=np.intp).reshape(F, -1)
        ordered = np.sort(idx, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ParameterError("replacement indices must be distinct")
        if ((idx < 0) | (idx >= self.n)).any():
            raise ParameterError("replacement index out of range")
        points = np.repeat(self.points[None], F * G, axis=0).reshape(F, G, self.n, self.k)
        points[np.arange(F)[:, None, None], np.arange(G)[:, None], idx[:, None]] = images
        points.setflags(write=False)
        return points

    def __iter__(self):
        return iter(self.points)


def loads_dataset_csv(text: str) -> DataSet:
    """Parse CSV text: one point per row, k numeric columns, no header."""
    rows = []
    width = None
    reader = csv.reader(io.StringIO(text))
    for lineno, row in enumerate(reader, start=1):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        try:
            vals = [float(cell) for cell in row]
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: non-numeric cell ({exc})") from None
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DatasetFormatError(
                f"line {lineno}: ragged row (expected {width} columns, got {len(vals)})"
            )
        rows.append(vals)
    if not rows:
        raise DatasetFormatError("no data rows found")
    return DataSet(np.array(rows, dtype=float))


def load_dataset_csv(path) -> DataSet:
    """Load a dataset from a CSV file (UTF-8, no header, decimal point)."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_dataset_csv(fh.read())


def save_dataset_csv(X: DataSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in X.points:
            writer.writerow([repr(float(v)) for v in row])


def bundled_dataset(name: str) -> DataSet:
    """Load one of the demo datasets shipped with the package.

    Available names: ``demo5_1d``, ``demo9_1d``, ``demo10_2d``.
    """
    fname = f"{name}.csv"
    try:
        text = resources.files("robloc").joinpath("data", fname).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DatasetFormatError(f"no bundled dataset named {name!r}") from None
    return loads_dataset_csv(text)


def random_gp_dataset(n: int, k: int, seed: int) -> DataSet:
    """Draw n seeded uniform points in [0, 10)^k until they are in general position.

    Uniform draws are in general position almost surely; the up to 200
    redraws only guard against the finite tolerance of the numerical test.
    """
    from .geometry import check_general_position

    n, k = require_integer(n, "n", None), require_integer(k, "k", None)
    if n <= k:
        raise ParameterError(f"need n > k for a general-position set, got n={n}, k={k}")
    rng = np.random.default_rng(require_integer(seed, "seed"))
    for _ in range(200):
        X = DataSet(rng.uniform(0.0, 10.0, size=(n, k)))
        if check_general_position(X).ok:
            return X
    raise GeneralPositionError(f"could not draw a GP dataset with n={n}, k={k} in 200 tries")

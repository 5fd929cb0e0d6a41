"""Convex-hull facets, general-position tests, orthonormal bases, shear maps.

Everything here is brute force by design: at desk scale (n <= 20, k <= 4)
exhaustive subset enumeration is fast and trustworthy enough to serve as its
own oracle, and the attack machinery built on top needs geometric answers it
can rely on, not approximations.

Tolerances are relative. Exact general position is a measure-one property of
continuous data; the floating-point stand-in used throughout is a threshold
of ``1e-9`` times the relevant diameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .dataset import DataSet
from .errors import GeneralPositionError, OverflowParameterError, ParameterError

__all__ = [
    "GP_RTOL",
    "GeneralPositionReport",
    "check_general_position",
    "Facet",
    "enumerate_facets",
    "tie_levels",
    "normal_cone_ties",
    "hyperplane_normal",
    "subset_index",
    "unit_direction",
    "OrthonormalBasis",
    "basis_from_normal",
    "AffineMap",
    "shear_transform",
    "apply_shears",
    "ReplacementFamily",
    "apply_map",
]

GP_RTOL = 1e-9

# Unit vectors are accepted if their norm is within this of 1.
_UNIT_ATOL = 1e-12
# Orthonormal bases must have Gram residual below this.
_GRAM_ATOL = 1e-10


class GeneralPositionReport(NamedTuple):
    ok: bool
    witness: tuple | None

    def __bool__(self):
        return self.ok


def unit_direction(u) -> np.ndarray:
    """Validate and return a finite unit vector (norm within 1e-12 of 1)."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if not np.all(np.isfinite(u)):
        raise ParameterError("direction coordinates must be finite")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > _UNIT_ATOL:
        raise ParameterError(f"direction is not unit-norm (|u| = {norm!r})")
    return u


def check_general_position(X: DataSet) -> GeneralPositionReport:
    """Test whether no k+1 points of X lie on a common affine hyperplane.

    Every (k+1)-subset is tested for affine independence via the determinant
    of its k x k difference matrix, with threshold ``1e-9`` relative to the
    subset diameter (the determinant scales like diameter**k). The points
    are first taken relative to the first one, in units of their largest
    coordinate difference, so the test is scale-free in floating point too:
    neither side overflows or underflows with the data. Returns
    ``(ok, witness)`` where ``witness`` is one violating index subset when
    ``ok`` is false. A coordinate difference that overflows raises
    OverflowParameterError.

    Attack sweeps re-test every contaminated dataset, so the subset loop is
    batched through numpy.
    """
    pts = X.points
    n, k = X.n, X.k
    if n < k + 1:
        return GeneralPositionReport(True, None)
    with np.errstate(over="ignore"):
        scale = float((pts.max(axis=0) - pts.min(axis=0)).max())
    if not np.isfinite(scale):
        raise OverflowParameterError("a difference of two data points overflows")
    subsets = subset_index(n, k + 1)  # (S, k+1)
    groups = ((pts - pts[0]) / (scale if scale > 0 else 1.0))[subsets]  # (S, k+1, k)
    diffs = groups[:, 1:, :] - groups[:, :1, :]  # (S, k, k)
    dets = np.abs(np.linalg.det(diffs))
    pair = groups[:, :, None, :] - groups[:, None, :, :]
    diams = np.sqrt((pair * pair).sum(axis=3)).max(axis=(1, 2))
    bad = dets <= GP_RTOL * diams**k
    if np.any(bad):
        witness = tuple(int(i) for i in subsets[int(np.flatnonzero(bad)[0])])
        return GeneralPositionReport(False, witness)
    return GeneralPositionReport(True, None)


def require_general_position(X: DataSet, context: str = "operation") -> None:
    report = check_general_position(X)
    if not report.ok:
        raise GeneralPositionError(
            f"{context} requires general position; points {report.witness} lie on a common hyperplane",
            witness=report.witness,
        )


@lru_cache(maxsize=32)
def subset_index(n: int, h: int) -> np.ndarray:
    """Every h-subset of range(n) in lexicographic order, as one shared
    read-only (C(n, h), h) index array."""
    idx = np.array(list(combinations(range(n), h)), dtype=int).reshape(-1, h)
    idx.setflags(write=False)
    return idx


def hyperplane_normal(groups: np.ndarray) -> tuple:
    """Unit normals of the affine hyperplanes through stacked k-point subsets.

    ``groups`` has shape (S, k, k): S subsets of k points in R^k. Returns
    ``(normals, degenerate)``: the (S, k) unit normals and an (S,) mask of
    subsets that do not span a full (k-1)-dimensional hyperplane, whose
    normal rows are meaningless. Each normal is the smallest right singular
    vector of the subset's difference matrix, from one batched SVD; the
    sign is canonicalized so the first component above 1e-14 in magnitude
    is positive. A subset is degenerate when its smallest singular value is
    at most 1e-12 times its largest absolute difference, a test that does
    not depend on the scale of the data. For k = 1 every normal is +1.
    """
    groups = np.asarray(groups, dtype=float)
    if groups.ndim != 3 or groups.shape[1] != groups.shape[2]:
        raise ParameterError(f"need a stack of k points in R^k, got shape {groups.shape}")
    S, k = groups.shape[:2]
    if k == 1:
        return np.ones((S, 1)), np.zeros(S, dtype=bool)
    diffs = groups[:, 1:] - groups[:, :1]  # (S, k-1, k)
    _, svals, vt = np.linalg.svd(diffs)
    degenerate = svals[:, -1] <= 1e-12 * np.abs(diffs).max(axis=(1, 2))
    normals = vt[:, -1]  # (S, k)
    nonzero = np.abs(normals) > 1e-14
    lead = normals[np.arange(S), np.argmax(nonzero, axis=1)]
    normals = np.where((nonzero.any(axis=1) & (lead < 0))[:, None], -normals, normals)
    # a per-row dot reproduces np.linalg.norm of each row bit for bit
    norms = np.sqrt(normals[:, None, :] @ normals[:, :, None])[:, 0]
    return normals / norms, degenerate


@dataclass(frozen=True)
class Facet:
    """A hull face spanned by exactly k data points.

    ``inward_normal`` points toward the rest of the data; ``support_value``
    is the common projection of the facet points onto that normal, so every
    non-facet point projects strictly above it.
    """

    indices: tuple
    inward_normal: np.ndarray = field(repr=False)
    support_value: float

    def margin_of(self, x) -> float:
        """Signed distance of a point above the facet hyperplane."""
        return float(self.inward_normal @ np.asarray(x, dtype=float) - self.support_value)


def enumerate_facets(X: DataSet) -> list[Facet]:
    """Enumerate all hull facets of a general-position dataset.

    Brute force over all C(n, k) point subsets: a subset spans a facet iff
    every other point lies strictly on one side of its hyperplane. Strictness
    threshold is ``1e-9`` times the data diameter. A non-facet point landing
    on a subset hyperplane within tolerance is a general-position violation
    and raises.
    """
    n, k = X.n, X.k
    if k < 2:
        raise ParameterError("facet enumeration requires k >= 2")
    if n <= k:
        raise ParameterError(f"facet enumeration requires n > k, got n={n}, k={k}")
    pts = X.points
    tol = GP_RTOL * max(X.diameter, 1e-300)
    subsets = subset_index(n, k)
    normals, degenerate = hyperplane_normal(pts[subsets])
    proj = (pts @ normals[:, :, None])[:, :, 0]  # (S, n)
    rows = np.arange(len(subsets))[:, None]
    support = proj[rows, subsets].mean(axis=1)
    side = proj - support[:, None]
    side[rows, subsets] = np.nan  # a subset's own points are on its hyperplane
    on_plane = np.abs(side) <= tol
    bad = np.flatnonzero(degenerate | on_plane.any(axis=1))
    if bad.size:
        subset = tuple(int(i) for i in subsets[bad[0]])
        if degenerate[bad[0]]:
            raise GeneralPositionError(f"facet points {subset} are affinely dependent", witness=subset)
        extra = int(np.flatnonzero(on_plane[bad[0]])[0])
        raise GeneralPositionError(
            f"point {extra} lies on the hyperplane through {subset}",
            witness=tuple(sorted(subset + (extra,))),
        )
    facets = []
    above = np.nanmin(side, axis=1) > tol
    below = np.nanmax(side, axis=1) < -tol
    for s in np.flatnonzero(above | below):
        subset = tuple(int(i) for i in subsets[s])
        if above[s]:
            facets.append(Facet(subset, normals[s], float(support[s])))
        else:
            facets.append(Facet(subset, -normals[s], -float(support[s])))
    return facets


def tie_levels(proj: np.ndarray, faces, tol: float) -> np.ndarray:
    """Levels at which each row of the (P, n) projections ``proj`` ties
    exactly its face at the minimum: the face points' mean projection
    where they agree within ``tol`` and every other point is more than
    ``tol`` above it, else NaN. ``faces`` is one (h,) face for every row
    or one face per row, (P, h)."""
    rows = np.arange(len(proj))[:, None]
    tied = proj[rows, faces]
    level = tied.mean(axis=1)
    untied = np.abs(tied - level[:, None]).max(axis=1) > tol
    gaps = proj - level[:, None]
    gaps[rows, faces] = np.inf  # the face itself is not "every other point"
    untied |= gaps.min(axis=1) <= tol
    return np.where(untied, np.nan, level)


def normal_cone_ties(X: DataSet, facets, face, rng: np.random.Generator, samples: int, tol: float,
                     until=None) -> list:
    """``(u, level, proj)`` of the verified directions in the normal cone of
    a hull face, in draw order.

    The normal cone of a face of a simplicial hull is positively spanned by
    the inward normals of the facets containing it; strictly positive
    combinations tie the face's points at the minimal projection and keep
    every other point above. All ``samples`` Dirichlet weights come from one
    call on ``rng`` and are checked in one pass, for both callers; each
    combination is normalized and kept only if :func:`tie_levels` confirms
    the tie, and with a predicate ``until(u, level)`` the list ends at the
    first tie accepted. A face on fewer than two facets gives an empty list
    and draws nothing: a boundary-of-cone direction would tie more points
    than the face.
    """
    normals = [f.inward_normal for f in facets if set(face) <= set(f.indices)]
    if len(normals) < 2:
        return []
    normals = np.array(normals)
    weights = rng.dirichlet(np.ones(len(normals)), size=samples)
    # stacked 1-row products reproduce ``w @ normals`` and ``X.points @ u``
    # of each draw bit for bit; one 2-D product (``weights @ normals``) does not
    U = np.matmul(weights[:, None, :], normals[None])[:, 0]
    norms = np.sqrt(U[:, None, :] @ U[:, :, None])[:, 0, 0]
    keep = norms > 1e-12
    U = U[keep] / norms[keep, None]
    proj = np.matmul(X.points[None], U[:, :, None])[:, :, 0]
    levels = tie_levels(proj, face, tol)
    tied = ~np.isnan(levels)
    ties = []
    for tie in zip(U[tied], levels[tied].tolist(), proj[tied]):
        ties.append(tie)
        if until is not None and until(*tie[:2]):
            break
    return ties


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Orthonormal vectors e_1..e_k plus the origin they are anchored at.

    ``vectors`` holds e_i in its columns. ``origin_shift`` places the
    reference hyperplane {x : e_1 . (x - origin_shift) = 0} through zero in
    basis coordinates. Every entry must be finite. Bases compare and hash
    by identity.
    """

    vectors: np.ndarray = field(repr=False)
    origin_shift: np.ndarray = field(repr=False)

    def __post_init__(self):
        E = np.asarray(self.vectors, dtype=float)
        o = np.asarray(self.origin_shift, dtype=float).reshape(-1)
        k = E.shape[0]
        if E.shape != (k, k) or o.shape != (k,):
            raise ParameterError("basis must be k x k with a k-vector origin")
        if not (np.isfinite(E).all() and np.isfinite(o).all()):
            raise ParameterError("basis vectors and origin must be finite")
        gram = E.T @ E - np.eye(k)
        if np.abs(gram).max() > _GRAM_ATOL:
            raise ParameterError(
                f"basis is not orthonormal (Gram residual {np.abs(gram).max():.2e})"
            )
        E = E.copy()
        E.setflags(write=False)
        o = o.copy()
        o.setflags(write=False)
        object.__setattr__(self, "vectors", E)
        object.__setattr__(self, "origin_shift", o)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    def e(self, i: int) -> np.ndarray:
        """Basis vector e_i, 1-indexed."""
        return self.vectors[:, i - 1]

    def to_coords(self, x) -> np.ndarray:
        return self.vectors.T @ (np.asarray(x, dtype=float) - self.origin_shift)

    def from_coords(self, c) -> np.ndarray:
        return self.vectors @ np.asarray(c, dtype=float) + self.origin_shift

    @cached_property
    def shear_terms(self) -> tuple:
        """(e2 e1^T, e1 . origin_shift, e2), read-only and built on first
        use: what every shear of the basis is built from."""
        if self.k < 2:
            raise ParameterError("shear transform requires k >= 2")
        e1, e2 = self.e(1), self.e(2)
        outer = np.outer(e2, e1)
        outer.setflags(write=False)
        return outer, np.float64(e1 @ self.origin_shift), e2


def basis_from_normal(u, origin) -> OrthonormalBasis:
    """Complete a unit direction u to an orthonormal basis with e_1 = u.

    Deterministic completion: the remaining vectors come from Gram-Schmidt
    on the standard axes, visited in order of increasing |u_i| so the axis
    most parallel to u is considered last (and dropped). Modified
    Gram-Schmidt keeps the Gram residual at machine precision.
    """
    u = unit_direction(u)
    k = u.size
    origin = np.asarray(origin, dtype=float).reshape(k)
    if k == 2:
        # The quarter-turn of u is orthogonal to it *exactly* in floating
        # point (the two products in the dot cancel bit for bit), which the
        # shear algebra downstream relies on at extreme slopes.
        return OrthonormalBasis(np.column_stack([u, [-u[1], u[0]]]), origin)
    cols = [u]
    order = np.argsort(np.abs(u), kind="stable")
    for axis in order:
        if len(cols) == k:
            break
        v = np.zeros(k)
        v[axis] = 1.0
        for b in cols:
            v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            cols.append(v / norm)
    if len(cols) != k:
        raise ParameterError("could not complete basis; direction is degenerate")
    return OrthonormalBasis(np.column_stack(cols), origin)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset, all finite, with a nonsingular matrix.

    Nonsingularity is checked on the row-equilibrated matrix so the test is
    insensitive to overall scale: |det| of the row-max-scaled matrix must
    exceed 1e-12.
    """

    matrix: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)

    def __post_init__(self):
        M, b = _set_affine(self, self.matrix, self.offset)
        row_max = np.abs(M).max(axis=1)
        if np.any(row_max == 0.0) or abs(np.linalg.det(M / row_max[:, None])) <= 1e-12:
            raise ParameterError("affine map matrix is singular")

    @property
    def k(self) -> int:
        return self.offset.size

    def apply(self, x) -> np.ndarray:
        """Apply to a point (k,) or stack of points (n, k)."""
        x = np.asarray(x, dtype=float)
        return x @ self.matrix.T + self.offset

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return AffineMap(self.matrix @ other.matrix, self.matrix @ other.offset + self.offset)

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return AffineMap(inv, -inv @ self.offset)

    @staticmethod
    def identity(k: int) -> "AffineMap":
        return AffineMap(np.eye(k), np.zeros(k))

    @staticmethod
    def translation(b) -> "AffineMap":
        b = np.asarray(b, dtype=float).reshape(-1)
        return AffineMap(np.eye(b.size), b)


def _set_affine(m: AffineMap, matrix, offset) -> tuple:
    """Store read-only float copies of a finite k x k ``matrix`` and
    k-vector ``offset`` on ``m``, and return them."""
    M = np.array(matrix, dtype=float)
    b = np.array(offset, dtype=float).reshape(-1)
    if M.shape != (b.size, b.size):
        raise ParameterError(f"matrix shape {M.shape} does not match offset length {b.size}")
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise ParameterError("affine map entries must be finite")
    for name, value in (("matrix", M), ("offset", b)):
        value.setflags(write=False)
        object.__setattr__(m, name, value)
    return M, b


def _trusted_affine(matrix: np.ndarray, offset: np.ndarray) -> AffineMap:
    """Construct an AffineMap bypassing the singularity guard.

    Only for maps nonsingular by construction: the guard compares a
    row-scaled determinant against 1e-12, which any scale-free measure must
    fail for extreme shears (condition number gamma^2) even though their
    determinant is exactly 1.
    """
    m = AffineMap.__new__(AffineMap)
    _set_affine(m, matrix, offset)
    return m


def _shear_stack(slopes: np.ndarray, outer: np.ndarray, shift, e2: np.ndarray) -> tuple:
    """Matrices (..., G, k, k) and offsets (..., G, k) of the shears of the
    slopes (..., G), from the ``shear_terms`` of one basis, or of one
    basis per row of slopes stacked along the leading axes. Every entry is
    an elementwise product, so its bits do not depend on the stack."""
    matrices = np.eye(outer.shape[-1]) + slopes[..., None, None] * outer[..., None, :, :]
    offsets = (-slopes * shift[..., None])[..., None] * e2[..., None, :]
    return matrices, offsets


def shear_transform(gamma: float, basis: OrthonormalBasis) -> AffineMap:
    """The volume-preserving shear that fixes the basis hyperplane.

    In basis coordinates the map sends e_1 to e_1 + gamma * e_2 and fixes
    e_j for j != 1. In ambient coordinates that is the rank-one update
    I + gamma * e_2 e_1^T, anchored at the basis origin so the hyperplane
    through the origin with normal e_1 is pointwise fixed. The matrix has
    determinant exactly 1 (it is unipotent), and a point with
    e_1-coordinate c travels a distance |gamma| * |c|. A slope whose
    shear overflows is too large.
    """
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise ParameterError(f"slope must be finite, got {gamma!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        matrices, offsets = _shear_stack(np.array([gamma]), *basis.shear_terms)
    if not (np.isfinite(matrices).all() and np.isfinite(offsets).all()):
        raise ParameterError.too_large("slope", gamma, "its shear overflows")
    return _trusted_affine(matrices[0], offsets[0])


def apply_shears(points: np.ndarray, slopes, basis: OrthonormalBasis) -> np.ndarray:
    """Images of points under the shear of every slope, as a (G, r, k) stack.

    ``points`` is one (r, k) array, mapped by every slope, or a (G, r, k)
    stack whose j-th block is mapped by the j-th slope. Block j equals
    ``shear_transform(slopes[j], basis).apply`` of the same rows to the
    last bit (``tests/test_geometry.py`` compares them).
    """
    matrices, offsets = _shear_stack(np.asarray(slopes, dtype=float).reshape(-1), *basis.shear_terms)
    return np.matmul(points, matrices.transpose(0, 2, 1)) + offsets[:, None, :]


class ReplacementFamily(NamedTuple):
    """Contaminated datasets of one attack, one per parameter, as one stack.

    ``points`` is a read-only (G, n, k) array: ``points[j]`` is the base
    data with rows ``replaced`` moved to their images at ``parameters[j]``.
    ``basis`` is the shear frame of a shear family, whose parameters are
    signed slopes (the near family of the shear attack uses the inverse
    shear, slope -gamma), and None for a cluster family, whose parameters
    are radii.
    """

    replaced: tuple
    parameters: tuple
    points: np.ndarray
    basis: OrthonormalBasis | None = None

    @classmethod
    def of(cls, X: DataSet, replaced, parameters, images, basis=None) -> "ReplacementFamily":
        """The family whose j-th dataset is X with rows ``replaced`` set to
        ``images[j]``: :meth:`stack` of one family."""
        return cls.stack(X, [tuple(int(i) for i in replaced)], [tuple(float(p) for p in parameters)],
                         np.asarray(images, dtype=float)[None], [basis])[0]

    @classmethod
    def stack(cls, X: DataSet, replaced, parameters, images: np.ndarray, bases) -> list:
        """The families whose f-th sets rows ``replaced[f]`` to ``images[f, j]``
        at ``parameters[f][j]``, from one ``X.replaced_stack``. The first
        image that is not finite, in family and grid order, is too large."""
        points = X.replaced_stack(replaced, images)
        families = [cls(*family) for family in zip(replaced, parameters, points, bases)]
        if not np.isfinite(images).all():
            f, j = np.argwhere(~np.isfinite(images).all(axis=(2, 3)))[0]
            raise families[f].too_large(j, "its image overflows")
        return families

    def too_large(self, j: int, reason) -> ParameterError:
        """The error for the j-th radius or slope, at which ``reason`` stops evaluation."""
        return ParameterError.too_large("radius" if self.basis is None else "slope", self.parameters[j], reason)


def apply_map(g: AffineMap, X: DataSet) -> DataSet:
    """Pointwise image of a dataset under an affine map."""
    if g.k != X.k:
        raise ParameterError(f"map dimension {g.k} does not match data dimension {X.k}")
    return DataSet(g.apply(X.points))

"""Convex bodies in R^n (n <= 8) and primitive geometric operations.

Representations: polytopes and Euclidean balls.  A `Polytope` is built from
its vertices (`VPolytope`) or its halfspaces (`HPolytope`) and computes the
other representation lazily, at most once; what it derives from one qhull
hull (its triangulated boundary, its H-rep, its moments) is cached on it as
well.  Affine images are applied eagerly and carry every representation
already computed, so every body is concrete.  Bodies are immutable apart
from these caches, and all operations are pure.

Conversions between representations go through Qhull (convex hull and
halfspace intersection, both through one fallback ladder); degenerate inputs
are detected via their affine hull and handled in intrinsic coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from . import rng as _rng

GEOM_TOL = 1e-9
MAX_DIM = 8


class GeometryError(ValueError):
    """Raised on malformed or out-of-contract geometric input."""


# ---------------------------------------------------------------------------
# linear algebra helpers


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def orthonormal_basis(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the given row vectors."""
    vectors = np.atleast_2d(_as_array(vectors))
    if vectors.size == 0:
        return np.zeros((0, vectors.shape[1] if vectors.ndim == 2 else 0))
    u, s, vt = np.linalg.svd(vectors, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))
    return vt[:rank]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^n given by an orthonormal basis (rows)."""

    ambient_dim: int
    basis: np.ndarray  # (d, n), orthonormal rows; possibly 0 rows for {0}

    def __post_init__(self):
        b = np.atleast_2d(_as_array(self.basis)).reshape(-1, self.ambient_dim)
        object.__setattr__(self, "basis", b)
        if b.shape[0]:
            gram = b @ b.T
            if not np.allclose(gram, np.eye(b.shape[0]), atol=1e-12):
                raise GeometryError("subspace basis is not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_span(cls, vectors, ambient_dim: int | None = None) -> "Subspace":
        vectors = np.atleast_2d(_as_array(vectors))
        n = ambient_dim if ambient_dim is not None else vectors.shape[1]
        return cls(n, orthonormal_basis(vectors))

    @classmethod
    def hyperplane(cls, normal) -> "Subspace":
        """The hyperplane normal^perp."""
        return cls(len(normal), _complement_basis(np.atleast_2d(_as_array(normal))))

    def complement(self) -> "Subspace":
        return Subspace(self.ambient_dim, _complement_basis(self.basis, self.ambient_dim))

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of (the projection of) ambient points in this basis."""
        return _as_array(x) @ self.basis.T

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Map intrinsic coordinates back to ambient R^n."""
        y = _as_array(y)
        if self.dim == 0:
            shape = y.shape[:-1] if y.ndim else ()
            return np.zeros(shape + (self.ambient_dim,))
        return y @ self.basis

    def contains_vector(self, v: np.ndarray, tol: float = 1e-12) -> bool:
        v = _as_array(v)
        resid = v - self.embed(self.coords(v))
        return float(np.linalg.norm(resid)) < tol * max(1.0, float(np.linalg.norm(v)))


def _complement_basis(basis: np.ndarray, ambient_dim: int | None = None) -> np.ndarray:
    basis = np.atleast_2d(basis)
    n = ambient_dim if ambient_dim is not None else basis.shape[1]
    if basis.shape[0] == 0:
        return np.eye(n)
    u, s, vt = np.linalg.svd(basis, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    return vt[rank:]


# ---------------------------------------------------------------------------
# body types


def _first_of_close(X: np.ndarray, tol: float, b: np.ndarray | None = None) -> np.ndarray:
    """Indices of the rows kept by a pass that drops each row within tol of an earlier kept row.

    With ``b``, two rows are close when their offsets are also within tol.
    The pairwise test runs in blocks of ~1 MB. A repeat of an earlier row is
    dropped whatever became of that row, so inputs larger than one block
    (qhull's triangulated facets repeat their equations) first lose their
    repeats.
    """
    n, d = X.shape
    block = 1 << 17
    idx = np.arange(n)
    if n * n * d > block:
        _, first = np.unique(X if b is None else np.hstack([X, b[:, None]]), axis=0,
                             return_index=True)
        idx = np.sort(first)
        X = X[idx]
        n = len(idx)
    keep = np.ones(n, dtype=bool)
    step = max(1, block // max(1, n * d))
    for s in range(0, n, step):
        close = np.linalg.norm(X[s:s + step, None, :] - X[None, :, :], axis=2) < tol
        if b is not None:
            close &= np.abs(b[idx[s:s + step], None] - b[idx][None, :]) < tol
        close &= np.arange(n) > np.arange(s, s + len(close))[:, None]
        for r in np.flatnonzero(close.any(axis=1)):
            if keep[s + r]:
                keep[close[r]] = False
    return idx[keep]


def _dedup_points(points: np.ndarray, tol: float = GEOM_TOL) -> np.ndarray:
    if len(points) > 400:
        # grid-based dedup for large clouds; exact pairwise testing is O(N^2)
        _, idx = np.unique(np.round(points / tol), axis=0, return_index=True)
        return points[np.sort(idx)]
    return points[_first_of_close(points, tol)]


def _dedup_halfspaces(A: np.ndarray, b: np.ndarray, tol: float = GEOM_TOL):
    keep = _first_of_close(A, tol, b)
    return A[keep], b[keep]


def _map_halfspaces(A: np.ndarray, b: np.ndarray, M: np.ndarray, shift: np.ndarray):
    """The halfspaces <a, x> <= b mapped by x -> M x + shift (M invertible), with unit normals.

    <a, x> <= b becomes <a M^-1, y> <= b + <a M^-1, shift>.
    """
    A = A @ np.linalg.inv(M)
    norms = np.linalg.norm(A, axis=1)
    return A / norms[:, None], (b + A @ shift) / norms


@dataclass(frozen=True)
class Boundary:
    """Triangulated boundary of a full-dimensional polytope, from one qhull hull.

    Row s of ``simplices`` indexes the d vertices of a (d-1)-simplex lying
    on the facet {x : <A[s], x> = b[s]}, where A[s] is the facet's unit
    outward normal. ``volume`` is the polytope's volume as qhull reports
    it, and ``fan_volume`` the total volume of the simplices coned from an
    interior point; they differ when the simplices overlap (qhull's
    triangulation of a facet with many coplanar vertices can overlap
    itself) or leave gaps.
    """

    simplices: np.ndarray  # (S, d) vertex indices
    A: np.ndarray  # (S, d)
    b: np.ndarray  # (S,)
    volume: float
    fan_volume: float

    @property
    def tiles(self) -> bool:
        """Whether the simplices tile the boundary: fan and hull volumes agree to 1e-9."""
        return abs(self.fan_volume - self.volume) <= 1e-9 * self.volume

    def mapped(self, M: np.ndarray, shift: np.ndarray) -> "Boundary":
        """The boundary of the image {M x + shift} of the polytope, M invertible.

        An affine map keeps the face lattice, so the simplices carry over.
        """
        scale = abs(float(np.linalg.det(M)))
        return Boundary(self.simplices, *_map_halfspaces(self.A, self.b, M, shift),
                        self.volume * scale, self.fan_volume * scale)


def _hull_boundary(hull: "ConvexHull", basis: np.ndarray, center: np.ndarray,
                   index: np.ndarray) -> Boundary:
    """Boundary of a hull qhull built on (points - center) @ basis.T, basis orthogonal.

    ``index`` maps hull point indices to vertex indices.
    """
    pts = hull.points
    fan = np.abs(np.linalg.det(pts[hull.simplices] - pts.mean(axis=0))).sum()
    # qhull equations: normal . y + offset <= 0 with unit normals
    A = hull.equations[:, :-1] @ basis
    b = A @ center - hull.equations[:, -1]
    return Boundary(index[hull.simplices], A, b, float(hull.volume),
                    float(fan) / math.factorial(pts.shape[1]))


def _extreme_points(points: np.ndarray, tol: float = GEOM_TOL):
    """Extreme points, affine-hull dimension, and the Boundary when full-dimensional."""
    points = np.atleast_2d(_as_array(points))
    points = _dedup_points(points, tol)
    if len(points) == 1:
        return points, 0, None
    center = points.mean(axis=0)
    centered = points - center
    basis = orthonormal_basis(centered, tol=1e-12)
    adim = basis.shape[0]
    if adim == 0:
        return points[:1], 0, None
    coords = centered @ basis.T
    if adim == 1:
        lo = int(np.argmin(coords[:, 0]))
        hi = int(np.argmax(coords[:, 0]))
        return points[[lo, hi]], 1, None
    hull = robust_hull(coords)
    kept = np.sort(hull.vertices)
    if adim < points.shape[1]:
        return points[kept], adim, None
    index = np.zeros(len(points), dtype=int)
    index[kept] = np.arange(len(kept))
    bd = _hull_boundary(hull, basis, center, index)
    # qhull triangulates the non-simplicial facets of the same points
    # differently in other coordinates; an overlapping triangulation here
    # is not kept, and `boundary` hulls the vertices again
    return points[kept], adim, bd if bd.tiles else None


def extreme_points(points: np.ndarray, tol: float = GEOM_TOL):
    """Extreme points of conv(points) and the affine-hull dimension.

    Handles degenerate (lower-dimensional) inputs by recursing inside the
    affine hull.
    """
    verts, adim, _ = _extreme_points(points, tol)
    return verts, adim


def _qhull(build, data: np.ndarray, *args, options: str = ""):
    """build(data, *args) by qhull, with one fallback for merge failures.

    Near-degenerate inputs can trip qhull's merge heuristics. On QhullError
    ``options`` are retried with Q12, which relaxes the wide-merge guard;
    when that fails too, GeometryError. Joggled input is never tried: it
    would move the vertices without a trace in the result.
    """
    last_exc = None
    for opts in (options, f"{options} Q12".lstrip()):
        try:
            return build(data, *args, qhull_options=opts or None)
        except QhullError as exc:
            last_exc = exc
    raise GeometryError(f"qhull failed: {last_exc}") from last_exc


def robust_hull(coords: np.ndarray) -> "ConvexHull":
    """Full-dimensional convex hull, triangulated, through the fallbacks of `_qhull`."""
    return _qhull(ConvexHull, coords, options="Qt Qx" if coords.shape[1] > 4 else "Qt")


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


class Polytope:
    """Polytope in R^dim, built from its vertices or from halfspaces <a_i, x> <= b_i.

    It holds the representation it was built from and derives the other at
    most once: ``vertices`` by a halfspace intersection, ``A`` and ``b``
    (unit normals) from the facet equations of its boundary. The boundary
    (`geometry.boundary`), its cone simplices (`volume.wedge_moment`), the
    moments (`volume.moments`) and the polar body (`geometry.polar`) are
    cached on it too. Build polytopes with `VPolytope` or `HPolytope`.
    """

    def __init__(self, vertices: np.ndarray | None = None, A: np.ndarray | None = None,
                 b: np.ndarray | None = None, affine_dim: int | None = None,
                 boundary: Boundary | None = None):
        self.dim = (vertices if A is None else A).shape[1]
        self._vertices = None if vertices is None else _read_only(vertices)
        self._A = None if A is None else _read_only(A)
        self._b = None if b is None else _read_only(b)
        self._affine_dim = affine_dim
        self._boundary_cache = boundary
        self._moments_cache = None
        self._cone_cache = None
        self._polar_cache = None

    def __repr__(self):
        return f"Polytope(dim={self.dim})"

    @property
    def vertices(self) -> np.ndarray:
        if self._vertices is None:
            P = _halfspace_polytope(self._A, self._b)
            if P is None:
                raise GeometryError("halfspace system empty or lower-dimensional")
            self._vertices, self._affine_dim = P._vertices, P._affine_dim
            if self._boundary_cache is None:
                self._boundary_cache = P._boundary_cache
        return self._vertices

    @property
    def A(self) -> np.ndarray:
        if self._A is None:
            bd = self._boundary()  # facet equations do not depend on the triangulation
            A, b = _dedup_halfspaces(bd.A, bd.b)
            self._A, self._b = _read_only(A), _read_only(b)
        return self._A

    @property
    def b(self) -> np.ndarray:
        self.A
        return self._b

    @property
    def affine_dim(self) -> int:
        if self._affine_dim is None:
            V = self.vertices
            if self._affine_dim is None:
                self._affine_dim = orthonormal_basis(V - V[0], tol=1e-12).shape[0]
        return self._affine_dim

    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    def _boundary(self) -> Boundary:
        """The boundary, hulled from the vertices unless their enumeration left one."""
        if self._boundary_cache is None:
            self.vertices
            if self._boundary_cache is None:
                self._boundary_cache = _vertex_boundary(self)
        return self._boundary_cache


def VPolytope(vertices, canonicalize: bool = True) -> Polytope:
    """The polytope conv(vertices); canonicalize keeps the extreme points only."""
    vertices = np.atleast_2d(_as_array(vertices))
    if vertices.size == 0:
        raise GeometryError("empty vertex list")
    if not canonicalize:
        return Polytope(vertices)
    V, adim, bd = _extreme_points(vertices)
    return Polytope(V, affine_dim=adim, boundary=bd)


def HPolytope(A, b, canonicalize: bool = True) -> Polytope:
    """The polytope {x : <a_i, x> <= b_i}, rows scaled to unit normals; canonicalize drops repeats."""
    A = np.atleast_2d(_as_array(A))
    b = np.atleast_1d(_as_array(b))
    if A.shape[0] != b.shape[0]:
        raise GeometryError("halfspace normal/offset count mismatch")
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms < 1e-14):
        raise GeometryError("zero halfspace normal")
    A = A / norms[:, None]
    b = b / norms
    if canonicalize:
        A, b = _dedup_halfspaces(A, b)
    return Polytope(A=A, b=b)


class Ball:
    def __init__(self, center, radius):
        center = np.atleast_1d(_as_array(center))
        if not (0 < radius < np.inf) or not np.all(np.isfinite(center)):
            raise GeometryError("ball radius must be positive and finite, its center finite")
        self.center = _read_only(center)
        self.radius = float(radius)
        self.dim = center.shape[0]

    def __repr__(self):
        return f"Ball(dim={self.dim})"


ConvexBody = Union[Polytope, Ball]


# ---------------------------------------------------------------------------
# representation conversion


def to_vrep(K: ConvexBody) -> Polytope:
    """The polytope K with its vertices computed (balls are rejected)."""
    if isinstance(K, Ball):
        raise GeometryError("a ball has no exact vertex representation")
    K.vertices
    return K


def to_hrep(K: ConvexBody) -> Polytope:
    """The full-dimensional polytope K with its halfspaces computed (balls are rejected)."""
    if isinstance(K, Ball):
        raise GeometryError("a ball has no exact halfspace representation")
    K.A
    return K


def boundary(K: ConvexBody) -> Boundary:
    """Triangulated boundary of a full-dimensional polytope, computed once per body.

    Raises GeometryError when the simplices do not tile the boundary (see
    `Boundary.tiles`), which would bias every volume computed from them.
    """
    bd = to_vrep(K)._boundary()
    if not bd.tiles:
        raise GeometryError(f"hull triangulation does not tile the polytope (simplices "
                            f"{bd.fan_volume:.17g}, hull {bd.volume:.17g})")
    return bd


def _vertex_boundary(K: Polytope) -> Boundary:
    if not K.is_full_dimensional():
        raise GeometryError(
            f"degenerate polytope (affine dim {K.affine_dim} < {K.dim}); "
            "convert in intrinsic coordinates"
        )
    V = K.vertices
    if K.dim == 1:
        lo, hi = int(np.argmin(V[:, 0])), int(np.argmax(V[:, 0]))
        length = float(V[hi, 0] - V[lo, 0])
        return Boundary(np.array([[hi], [lo]]), np.array([[1.0], [-1.0]]),
                        np.array([V[hi, 0], -V[lo, 0]]), length, length)
    d = K.dim
    return _hull_boundary(robust_hull(V), np.eye(d), np.zeros(d), np.arange(len(V)))


def chebyshev_center(A: np.ndarray, b: np.ndarray):
    """Center and radius of the largest ball inside {A x <= b} (unit rows)."""
    d = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(d + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=np.hstack([A, norms[:, None]]),
        b_ub=b,
        bounds=[(None, None)] * d + [(0, None)],
        method="highs",
    )
    if res.status == 3:
        raise GeometryError("unbounded halfspace system")
    if not res.success:
        return None, -np.inf
    return res.x[:d], float(res.x[d])


def interval_1d(a: np.ndarray, b: np.ndarray):
    """The interval {t : a_i t <= b_i for every i}, for each column of b.

    ``a`` has shape (H,) and ``b`` shape (H,) or (H, T). Returns (lo, hi,
    empty), each of b's shape without its first axis. A row with
    |a_i| <= 1e-14 bounds nothing and only tests 0 <= b_i. The interval is
    empty where such a test fails by more than GEOM_TOL, or where it is no
    longer than GEOM_TOL. Raises GeometryError when it is unbounded.
    """
    a_col = a.reshape((-1,) + (1,) * (b.ndim - 1))
    pos, neg = a > 1e-14, a < -1e-14
    if not pos.any() or not neg.any():
        raise GeometryError("unbounded 1-d halfspace system")
    hi = (b[pos] / a_col[pos]).min(axis=0)
    lo = (b[neg] / a_col[neg]).max(axis=0)
    empty = (b[~(pos | neg)] < -GEOM_TOL).any(axis=0) | (hi <= lo + GEOM_TOL)
    return lo, hi, empty


def _halfspace_polytope(A: np.ndarray, b: np.ndarray, interior=None) -> Polytope | None:
    """{y : A y <= b} as a polytope built from its vertices, or None when empty or lower-dimensional.

    Rows need not be unit; a zero row only tests 0 <= b_i. qhull starts from
    ``interior``, a point the caller knows to be clearly interior, or else
    from the Chebyshev centre, found by an LP. Raises GeometryError when the
    system is unbounded.
    """
    d = A.shape[1]
    if d == 1:
        lo, hi, empty = interval_1d(A[:, 0], b)
        return None if empty else VPolytope([[lo], [hi]], canonicalize=False)
    norms = np.linalg.norm(A, axis=1)
    ok = norms > 1e-14
    if np.any(b[~ok] < -GEOM_TOL):
        return None
    A = A[ok] / norms[ok, None]
    b = b[ok] / norms[ok]
    if interior is None:
        interior, r = chebyshev_center(A, b)
        if interior is None or r <= GEOM_TOL:
            return None
    hs = _qhull(HalfspaceIntersection, np.hstack([A, -b[:, None]]), interior)
    P = VPolytope(hs.intersections)
    return P if P.is_full_dimensional() else None


# ---------------------------------------------------------------------------
# constructors


def make_regular_simplex(n: int) -> Polytope:
    """Regular simplex in R^n with n+1 vertices and centroid exactly at 0."""
    _check_dim(n)
    # Vertices of the standard simplex in R^(n+1), centered, then expressed in
    # an orthonormal basis of the hyperplane sum(x)=0.
    pts = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1))
    basis = _complement_basis(np.ones((1, n + 1)))
    verts = pts @ basis.T
    verts -= verts.mean(axis=0)  # kill accumulated roundoff in the centroid
    return VPolytope(verts, canonicalize=False)


def make_cube(n: int) -> Polytope:
    """The cube [-1, 1]^n."""
    _check_dim(n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    return HPolytope(A, np.ones(2 * n), canonicalize=False)


def make_cross_polytope(n: int) -> Polytope:
    """conv(+-e_i)."""
    _check_dim(n)
    return VPolytope(np.vstack([np.eye(n), -np.eye(n)]), canonicalize=False)


def make_ball(n: int, r: float = 1.0, center=None) -> Ball:
    _check_dim(n)
    if center is None:
        center = np.zeros(n)
    return Ball(center, r)


def make_centered_cone(n: int, height: float = 1.0) -> Polytope:
    """Cone over a regular (n-1)-simplex base, apex on +e_n, centroid at 0.

    This is the Grunbaum equality body for the direction e_n: the halfspace
    {x_n >= 0} captures exactly (1+1/n)^(-n) of the volume.
    """
    _check_dim(n)
    if n == 1:
        return VPolytope([[-height / (n + 1)], [height * n / (n + 1)]])
    base = make_regular_simplex(n - 1).vertices
    base3 = np.hstack([base, np.zeros((n, 1))])
    apex = np.zeros((1, n))
    apex[0, -1] = height
    verts = np.vstack([base3, apex])
    # centroid of a cone sits at 1/(n+1) of the height above the base
    verts[:, -1] -= height / (n + 1)
    return VPolytope(verts, canonicalize=False)


def random_centered_polytope(n: int, num_points: int, seed: int) -> Polytope:
    """Hull of seeded uniform ball points, translated so its centroid is 0."""
    _check_dim(n)
    if num_points < n + 1:
        raise GeometryError("need at least n+1 points")
    for attempt in range(100):
        body = VPolytope(_rng.sample_ball(n, num_points, seed + 1000003 * attempt))
        if body.is_full_dimensional():
            from .volume import moments  # cycle kept local

            return translate(body, -moments(body).centroid)
    raise GeometryError("failed to reach full dimension after 100 retries")


def _check_dim(n: int):
    if not (1 <= n <= MAX_DIM):
        raise GeometryError(f"dimension {n} out of range [1, {MAX_DIM}]")


# ---------------------------------------------------------------------------
# functionals


def support(K: ConvexBody, u) -> float:
    """Support function h_K(u) = max_{x in K} <x, u>."""
    u = _as_array(u)
    if isinstance(K, Ball):
        return float(K.center @ u + K.radius * np.linalg.norm(u))
    return float(np.max(K.vertices @ u))


def _interior_hrep(K: ConvexBody) -> Polytope:
    H = to_hrep(K)
    if np.any(H.b <= GEOM_TOL):
        raise GeometryError("origin is not interior to the body")
    return H


def radial(K: ConvexBody, u) -> float:
    """Radial function r_K(u) = max{a >= 0 : a u in K}; 0 must be interior."""
    return float(radial_many(K, _as_array(u)[None, :])[0])


def radial_many(K: ConvexBody, U) -> np.ndarray:
    """radial(K, u) for each row u of an (N, n) array."""
    U = np.atleast_2d(_as_array(U))
    if isinstance(K, Ball):
        c, r = K.center, K.radius
        if np.linalg.norm(c) >= r - GEOM_TOL:
            raise GeometryError("origin is not interior to the ball")
        uu, uc = np.einsum("ij,ij->i", U, U), U @ c
        return (uc + np.sqrt(uc * uc + uu * (r * r - float(c @ c)))) / uu
    H = _interior_hrep(K)
    proj = U @ H.A.T
    with np.errstate(divide="ignore"):
        ratios = np.where(proj > 1e-14, H.b / proj, np.inf)
    return ratios.min(axis=1)


def minkowski_norm(K: ConvexBody, x) -> float:
    """Gauge ||x||_K = min{a >= 0 : x in aK}; 0 must be interior."""
    x = _as_array(x)
    if isinstance(K, Ball):
        r = radial(K, x) if np.linalg.norm(x) > 0 else np.inf
        return 0.0 if np.linalg.norm(x) == 0 else 1.0 / r
    return float(minkowski_norm_many(K, x[None, :])[0])


def minkowski_norm_many(K: ConvexBody, X) -> np.ndarray:
    """minkowski_norm(K, x) for each row x of an (N, n) array; polytopes only."""
    H = _interior_hrep(K)
    return np.maximum(0.0, (np.atleast_2d(_as_array(X)) @ H.A.T / H.b).max(axis=1))


def contains(K: ConvexBody, x, tol: float = GEOM_TOL) -> bool:
    x = _as_array(x)
    if isinstance(K, Ball):
        return bool(np.linalg.norm(x - K.center) <= K.radius + tol)
    H = to_hrep(K)
    return bool(np.all(H.A @ x <= H.b + tol))


def contains_many(K: ConvexBody, X: np.ndarray, tol: float = GEOM_TOL) -> np.ndarray:
    """Vectorized membership for an (N, n) array of points."""
    X = np.atleast_2d(_as_array(X))
    if isinstance(K, Ball):
        return np.linalg.norm(X - K.center, axis=1) <= K.radius + tol
    H = to_hrep(K)
    return np.all(X @ H.A.T <= H.b + tol, axis=1)


# ---------------------------------------------------------------------------
# polarity, projection, affine maps


def polar(K: ConvexBody) -> ConvexBody:
    """Polar body K^* with respect to the origin (0 must be interior); a polytope's is cached on it."""
    if isinstance(K, Ball):
        if np.linalg.norm(K.center) > GEOM_TOL:
            raise GeometryError("polar of an off-center ball is not a ball")
        return Ball(np.zeros(K.dim), 1.0 / K.radius)
    if K._polar_cache is None:
        has_halfspaces = K._A is not None  # before the interior test computes them
        H = _interior_hrep(K)
        K._polar_cache = (VPolytope(H.A / H.b[:, None]) if has_halfspaces
                          else HPolytope(K.vertices, np.ones(len(K.vertices))))
    return K._polar_cache


def translate(K: ConvexBody, shift) -> ConvexBody:
    shift = _as_array(shift)
    if isinstance(K, Ball):
        return Ball(K.center + shift, K.radius)
    return _mapped_polytope(K, np.eye(K.dim), shift)


def _mapped_polytope(K: Polytope, M: np.ndarray, shift: np.ndarray) -> Polytope:
    """{M x + shift : x in K}, M invertible, with every representation K has computed."""
    return Polytope(
        None if K._vertices is None else K._vertices @ M.T + shift,
        *((None, None) if K._A is None else _map_halfspaces(K._A, K._b, M, shift)),
        affine_dim=K._affine_dim,
        boundary=None if K._boundary_cache is None else K._boundary_cache.mapped(M, shift))


def polar_with_center(C: ConvexBody, z) -> ConvexBody:
    """Polar of C with respect to center z: z + (C - z)^*."""
    z = _as_array(z)
    return translate(polar(translate(C, -z)), z)


def project(K: ConvexBody, S: Subspace) -> ConvexBody:
    """Orthogonal projection of K onto S, in S's intrinsic coordinates."""
    if S.dim < 1:
        raise GeometryError("projection target must have dimension >= 1")
    if isinstance(K, Ball):
        return Ball(S.coords(K.center), K.radius)
    V = to_vrep(K)
    return VPolytope(S.coords(V.vertices))


def affine_map(K: ConvexBody, M, shift=None) -> ConvexBody:
    """Image {M x + shift : x in K}; M must be invertible."""
    M = np.atleast_2d(_as_array(M))
    n = M.shape[0]
    if shift is None:
        shift = np.zeros(n)
    shift = _as_array(shift)
    if M.shape != (n, n) or not np.all(np.isfinite(M)):
        raise GeometryError("affine map matrix must be square and finite")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise GeometryError("affine map matrix is singular")
    if isinstance(K, Ball):
        MMt = M @ M.T
        scale2 = MMt[0, 0]
        if not np.allclose(MMt, scale2 * np.eye(n), atol=1e-9 * max(1.0, scale2)):
            raise GeometryError("ball affine images are restricted to similarities")
        return Ball(M @ K.center + shift, K.radius * np.sqrt(scale2))
    return _mapped_polytope(K, M, shift)


# ---------------------------------------------------------------------------
# polyhedral cones


class PolyhedralCone:
    """Simplicial cone: a ray, a simplicial or an orthant cone.

    ``generators`` are linearly independent nonzero ambient vectors, as many
    as the dimension of their span G, in which the cone lives; other
    generator sets raise `GeometryError`.  When ``within`` is given, every
    generator must lie in that subspace (it is the F^perp of a flat's
    direction space).
    """

    def __init__(self, generators, within: Subspace | None = None):
        G = np.atleast_2d(_as_array(generators))
        norms = np.linalg.norm(G, axis=1)
        if np.any(norms < 1e-14):
            raise GeometryError("zero cone generator")
        G = G / norms[:, None]
        self.generators = G
        self.generators.setflags(write=False)
        self.ambient_dim = G.shape[1]
        self.span = Subspace.from_span(G)
        self.span_dim = self.span.dim
        if self.span_dim < 1:
            raise GeometryError("cone must span at least one dimension")
        if len(G) != self.span_dim:
            raise GeometryError(f"{len(G)} cone generators span {self.span_dim} dimensions: "
                                "only simplicial cones are supported")
        if within is not None:
            for g in G:
                if not within.contains_vector(g, tol=1e-12):
                    raise GeometryError("cone generator outside its ambient subspace")
        self.within = within

    def negated(self) -> "PolyhedralCone":
        return PolyhedralCone(-self.generators, within=self.within)

    def constraints_in_span(self) -> np.ndarray:
        """Rows r_i with C = {y in span-coords : r_i . y >= 0 for all i}."""
        W = self.span.coords(self.generators)  # (p, p), rows = generators
        return np.linalg.inv(W.T)  # y = W^T c, c >= 0  <=>  inv(W^T) y >= 0


def orthant_cone(directions, within: Subspace | None = None) -> PolyhedralCone:
    """Cone {x in span(u_i) : <x, u_i> >= 0} for pairwise-orthogonal u_i."""
    U = np.atleast_2d(_as_array(directions))
    U = U / np.linalg.norm(U, axis=1, keepdims=True)
    gram = U @ U.T
    if not np.allclose(gram, np.eye(len(U)), atol=1e-9):
        raise GeometryError("orthant cone requires pairwise-orthogonal directions")
    return PolyhedralCone(U, within=within)


# ---------------------------------------------------------------------------
# JSON specification loaders (external interface)


def _finite(values, what: str) -> np.ndarray:
    arr = _as_array(values)
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{what} must be finite numbers")
    return arr


def body_from_spec(spec: dict) -> ConvexBody:
    """Build a body from the body-specification JSON object."""
    kind = spec["type"]
    if kind == "vpolytope":
        V = np.atleast_2d(_finite(spec["vertices"], "vertices"))
        _check_dim(V.shape[-1])
        return VPolytope(V)
    if kind == "hpolytope":
        A = np.atleast_2d(_finite([h["a"] for h in spec["halfspaces"]], "halfspace normals"))
        _check_dim(A.shape[-1])
        return HPolytope(A, _finite([h["b"] for h in spec["halfspaces"]], "halfspace offsets"))
    if kind == "ball":
        n = spec.get("n", len(spec.get("center", [])))
        return make_ball(n, spec.get("radius", 1.0), spec.get("center"))
    if kind == "simplex":
        return make_regular_simplex(spec["n"])
    if kind == "cube":
        return make_cube(spec["n"])
    if kind == "cross":
        return make_cross_polytope(spec["n"])
    if kind == "cone":
        return make_centered_cone(spec["n"], spec.get("height", 1.0))
    if kind == "random":
        return random_centered_polytope(spec["n"], spec["points"], spec["seed"])
    raise GeometryError(f"unknown body type {kind!r}")


def cone_from_spec(spec: dict) -> tuple[Subspace, PolyhedralCone]:
    """Load {"generators": [...], "flat_basis": [...]} into (F, C)."""
    gens = np.atleast_2d(_as_array(spec["generators"]))
    n = gens.shape[1]
    flat = np.atleast_2d(_as_array(spec.get("flat_basis", np.zeros((0, n)))))
    if flat.size == 0:
        flat = np.zeros((0, n))
    F = Subspace.from_span(flat, ambient_dim=n) if flat.shape[0] else Subspace(n, np.zeros((0, n)))
    C = PolyhedralCone(gens, within=F.complement())
    return F, C

"""Convex bodies in R^n (n <= 8) and primitive geometric operations.

Representations: V-polytopes, H-polytopes, Euclidean balls.  Affine images are
applied eagerly (vertices / halfspaces are mapped on construction), so every
body is concrete.  All types are immutable after construction and all
operations are pure; what a polytope derives from one qhull hull (its
triangulated boundary, its H-rep, its moments) is computed once and cached
on its vertex representation.

Conversions between representations go through Qhull (convex hull and
halfspace intersection); degenerate inputs are detected via their affine hull
and handled in intrinsic coordinates.
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

        An affine map keeps the face lattice, so the simplices carry over;
        a facet <a, x> <= b maps to <a M^-1, y> <= b + <a M^-1, shift>.
        """
        A = self.A @ np.linalg.inv(M)
        norms = np.linalg.norm(A, axis=1)
        scale = abs(float(np.linalg.det(M)))
        return Boundary(self.simplices, A / norms[:, None], (self.b + A @ shift) / norms,
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


def robust_hull(coords: np.ndarray) -> "ConvexHull":
    """Full-dimensional convex hull with fallbacks for merge failures.

    Near-degenerate inputs can trip qhull's merge heuristics; Q12 relaxes
    the wide-merge guard and QJ (joggled input) is the last resort.
    """
    adim = coords.shape[1]
    base = "Qt Qx" if adim > 4 else "Qt"
    last_exc = None
    for options in (base, base + " Q12", "QJ"):
        try:
            return ConvexHull(coords, qhull_options=options)
        except QhullError as exc:
            last_exc = exc
    raise GeometryError(f"hull failed: {last_exc}") from last_exc


class _BodyBase:
    """Common base of the concrete body types."""

    dim: int

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class VPolytope(_BodyBase):
    """Polytope given by its vertices (extreme points after canonicalization)."""

    def __init__(self, vertices, canonicalize: bool = True):
        vertices = np.atleast_2d(_as_array(vertices))
        if vertices.size == 0:
            raise GeometryError("empty vertex list")
        self.dim = vertices.shape[1]
        adim = bd = None
        if canonicalize:
            vertices, adim, bd = _extreme_points(vertices)
        self.vertices = vertices
        self.vertices.setflags(write=False)
        self._affine_dim = adim
        # derived data, computed once: the boundary from one hull, and the
        # H-rep and the moments (volume.moments) that come from it
        self._boundary_cache: Boundary | None = bd
        self._hrep_cache: HPolytope | None = None
        self._moments_cache = None

    @property
    def affine_dim(self) -> int:
        if self._affine_dim is None:
            basis = orthonormal_basis(self.vertices - self.vertices[0], tol=1e-12)
            self._affine_dim = basis.shape[0]
        return self._affine_dim

    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim


class HPolytope(_BodyBase):
    """Polytope given by halfspaces <a_i, x> <= b_i with unit normals a_i."""

    def __init__(self, A, b, canonicalize: bool = True):
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
        self.dim = A.shape[1]
        self.A = A
        self.b = b
        self.A.setflags(write=False)
        self.b.setflags(write=False)
        self._vrep_cache: VPolytope | None = None


def _dedup_halfspaces(A: np.ndarray, b: np.ndarray, tol: float = GEOM_TOL):
    keep = _first_of_close(A, tol, b)
    return A[keep], b[keep]


class Ball(_BodyBase):
    def __init__(self, center, radius):
        center = np.atleast_1d(_as_array(center))
        if not (0 < radius < np.inf) or not np.all(np.isfinite(center)):
            raise GeometryError("ball radius must be positive and finite, its center finite")
        self.center = center
        self.center.setflags(write=False)
        self.radius = float(radius)
        self.dim = center.shape[0]


ConvexBody = Union[VPolytope, HPolytope, Ball]


# ---------------------------------------------------------------------------
# representation conversion


def to_vrep(K: ConvexBody) -> VPolytope:
    """Vertex representation of a polytope (balls are rejected)."""
    if isinstance(K, VPolytope):
        return K
    if isinstance(K, Ball):
        raise GeometryError("a ball has no exact vertex representation")
    if K._vrep_cache is None:
        K._vrep_cache = _hrep_to_vrep(K)
    return K._vrep_cache


def to_hrep(K: ConvexBody) -> HPolytope:
    """Halfspace representation of a full-dimensional polytope."""
    if isinstance(K, HPolytope):
        return K
    if isinstance(K, Ball):
        raise GeometryError("a ball has no exact halfspace representation")
    if K._hrep_cache is None:
        K._hrep_cache = _vrep_to_hrep(K)
    return K._hrep_cache


def boundary(K: ConvexBody) -> Boundary:
    """Triangulated boundary of a full-dimensional polytope, computed once per body.

    Raises GeometryError when the simplices do not tile the boundary (see
    `Boundary.tiles`), which would bias every volume computed from them.
    """
    bd = _cached_boundary(to_vrep(K))
    if not bd.tiles:
        raise GeometryError(f"hull triangulation does not tile the polytope (simplices "
                            f"{bd.fan_volume:.17g}, hull {bd.volume:.17g})")
    return bd


def _cached_boundary(K: VPolytope) -> Boundary:
    if K._boundary_cache is None:
        K._boundary_cache = _vertex_boundary(K)
    return K._boundary_cache


def _vertex_boundary(K: VPolytope) -> Boundary:
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


def _vrep_to_hrep(K: VPolytope) -> HPolytope:
    bd = _cached_boundary(K)  # facet equations do not depend on the triangulation
    A, b = _dedup_halfspaces(bd.A, bd.b)
    return HPolytope(A, b, canonicalize=False)


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


def _hrep_to_vrep(K: HPolytope) -> VPolytope:
    d = K.dim
    if d == 1:
        a = K.A[:, 0]
        pos = a > 0
        neg = a < 0
        if not pos.any() or not neg.any():
            raise GeometryError("unbounded 1-d halfspace system")
        hi = float(np.min(K.b[pos] / a[pos]))
        lo = float(np.max(K.b[neg] / a[neg]))
        if hi < lo - GEOM_TOL:
            raise GeometryError("empty halfspace system")
        return VPolytope([[lo], [hi]], canonicalize=False)
    center, radius = chebyshev_center(K.A, K.b)
    if center is None or radius <= GEOM_TOL:
        raise GeometryError("halfspace system empty or lower-dimensional")
    hs = HalfspaceIntersection(np.hstack([K.A, -K.b[:, None]]), center)
    V = VPolytope(hs.intersections)
    if not V.is_full_dimensional():
        raise GeometryError("halfspace system lower-dimensional")
    return V


def convert(K: ConvexBody, target: str) -> ConvexBody:
    """H <-> V conversion; ``target`` is 'vpolytope' or 'hpolytope'."""
    if target == "vpolytope":
        return to_vrep(K)
    if target == "hpolytope":
        return to_hrep(K)
    raise GeometryError(f"unknown target representation {target!r}")


# ---------------------------------------------------------------------------
# constructors


def make_regular_simplex(n: int) -> VPolytope:
    """Regular simplex in R^n with n+1 vertices and centroid exactly at 0."""
    _check_dim(n)
    # Vertices of the standard simplex in R^(n+1), centered, then expressed in
    # an orthonormal basis of the hyperplane sum(x)=0.
    pts = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1))
    basis = _complement_basis(np.ones((1, n + 1)))
    verts = pts @ basis.T
    verts -= verts.mean(axis=0)  # kill accumulated roundoff in the centroid
    return VPolytope(verts, canonicalize=False)


def make_cube(n: int) -> HPolytope:
    """The cube [-1, 1]^n."""
    _check_dim(n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    return HPolytope(A, np.ones(2 * n), canonicalize=False)


def make_cross_polytope(n: int) -> VPolytope:
    """conv(+-e_i)."""
    _check_dim(n)
    return VPolytope(np.vstack([np.eye(n), -np.eye(n)]), canonicalize=False)


def make_ball(n: int, r: float = 1.0, center=None) -> Ball:
    _check_dim(n)
    if center is None:
        center = np.zeros(n)
    return Ball(center, r)


def make_centered_cone(n: int, height: float = 1.0) -> VPolytope:
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


def random_centered_polytope(n: int, num_points: int, seed: int) -> VPolytope:
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
    if isinstance(K, VPolytope):
        return float(np.max(K.vertices @ u))
    if isinstance(K, Ball):
        return float(K.center @ u + K.radius * np.linalg.norm(u))
    res = linprog(-u, A_ub=K.A, b_ub=K.b, bounds=[(None, None)] * K.dim, method="highs")
    if res.status == 3:
        raise GeometryError("unbounded halfspace body")
    if not res.success:
        raise GeometryError("support LP failed (empty body?)")
    return float(-res.fun)


def _interior_hrep(K: ConvexBody) -> HPolytope:
    H = to_hrep(K)
    if np.any(H.b <= GEOM_TOL):
        raise GeometryError("origin is not interior to the body")
    return H


def radial(K: ConvexBody, u) -> float:
    """Radial function r_K(u) = max{a >= 0 : a u in K}; 0 must be interior."""
    u = _as_array(u)
    if isinstance(K, Ball):
        c, r = K.center, K.radius
        if np.linalg.norm(c) >= r - GEOM_TOL:
            raise GeometryError("origin is not interior to the ball")
        uu = float(u @ u)
        uc = float(u @ c)
        disc = uc * uc + uu * (r * r - float(c @ c))
        return (uc + np.sqrt(disc)) / uu
    return float(radial_many(K, u[None, :])[0])


def radial_many(K: ConvexBody, U) -> np.ndarray:
    """radial(K, u) for each row u of an (N, n) array; polytopes only."""
    H = _interior_hrep(K)
    proj = np.atleast_2d(_as_array(U)) @ H.A.T
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
    """Polar body K^* with respect to the origin (0 must be interior)."""
    if isinstance(K, Ball):
        if np.linalg.norm(K.center) > GEOM_TOL:
            raise GeometryError("polar of an off-center ball is not a ball")
        return Ball(np.zeros(K.dim), 1.0 / K.radius)
    if isinstance(K, VPolytope):
        if not contains(K, np.zeros(K.dim), tol=-GEOM_TOL):
            _interior_hrep(K)  # raises with the right message
        return HPolytope(K.vertices, np.ones(len(K.vertices)))
    H = _interior_hrep(K)
    return VPolytope(H.A / H.b[:, None])


def translate(K: ConvexBody, shift) -> ConvexBody:
    shift = _as_array(shift)
    if isinstance(K, Ball):
        return Ball(K.center + shift, K.radius)
    if isinstance(K, VPolytope):
        return _mapped_vpolytope(K, np.eye(K.dim), shift)
    return HPolytope(K.A, K.b + K.A @ shift, canonicalize=False)


def _mapped_vpolytope(K: VPolytope, M: np.ndarray, shift: np.ndarray) -> VPolytope:
    """{M x + shift : x in K}, keeping K's boundary when it is already computed."""
    image = VPolytope(K.vertices @ M.T + shift, canonicalize=False)
    image._affine_dim = K._affine_dim
    if K._boundary_cache is not None:
        image._boundary_cache = K._boundary_cache.mapped(M, shift)
    return image


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
    if isinstance(K, VPolytope):
        return _mapped_vpolytope(K, M, shift)
    Minv = np.linalg.inv(M)
    A = K.A @ Minv
    return HPolytope(A, K.b + A @ shift)


# ---------------------------------------------------------------------------
# polyhedral cones


class PolyhedralCone:
    """Finitely generated cone; only rays, simplicial and orthant cones.

    ``generators`` are nonzero ambient vectors; the cone lives in the span G
    of its generators.  When ``within`` is given, every generator must lie in
    that subspace (it is the F^perp of a flat's direction space).
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
        if within is not None:
            for g in G:
                if not within.contains_vector(g, tol=1e-12):
                    raise GeometryError("cone generator outside its ambient subspace")
        self.within = within

    def negated(self) -> "PolyhedralCone":
        return PolyhedralCone(-self.generators, within=self.within)

    def is_simplicial(self) -> bool:
        return self.generators.shape[0] == self.span_dim

    def constraints_in_span(self) -> np.ndarray:
        """Rows r_i with C = {y in span-coords : r_i . y >= 0 for all i}.

        Requires a simplicial cone (generator count equals span dimension).
        """
        if not self.is_simplicial():
            raise GeometryError(
                "only simplicial/ray/orthant cones have a supported facet structure"
            )
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

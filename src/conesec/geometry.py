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
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
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


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values s in descending order: those above
    1e-12 s[0], so it does not depend on the scale and is 0 for a zero input."""
    return int(np.sum(s > 1e-12 * s[0])) if len(s) else 0


def orthonormal_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the given row vectors (`_rank`)."""
    vectors = np.atleast_2d(_as_array(vectors))
    if vectors.size == 0:
        return np.zeros((0, vectors.shape[1] if vectors.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(vectors, full_matrices=False)
    return vt[:_rank(s)]


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
            if np.abs(gram - np.eye(b.shape[0])).max() > 1e-12:
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
        """The hyperplane normal^perp; GeometryError for a zero normal."""
        normal = _as_array(normal)
        if not normal.any():
            raise GeometryError("zero hyperplane normal")
        return cls(len(normal), _complement_basis(normal[None, :]))

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
    _, s, vt = np.linalg.svd(basis, full_matrices=True)
    return vt[_rank(s):]


# ---------------------------------------------------------------------------
# body types


@lru_cache
def _sort_direction(d: int) -> np.ndarray:
    """The fixed generic unit vector of `_first_of_close` in R^d."""
    w = np.cos(np.arange(1.0, d + 1.0))
    return _read_only(w / np.linalg.norm(w))


def _first_of_close(X: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Indices, ascending, of the rows that a pass in row order keeps when it
    drops each row within GEOM_TOL of an earlier kept row.

    With ``b``, two rows are close when their offsets are within GEOM_TOL too.
    Rows within GEOM_TOL of each other are within GEOM_TOL along every unit
    vector, so also along one fixed generic unit vector w. Sorted by <x, w>,
    close rows therefore fall in one run of neighbours less than GEOM_TOL
    apart (plus the rounding of <x, w>), and only rows of one run are
    compared. A row equal to its neighbour in the sort is a repeat (qhull
    repeats a facet's equation on every simplex of that facet); the pass
    drops the later copies whatever became of the first, so they are
    dropped before the pairs are compared.
    """
    n, d = X.shape
    t = X @ _sort_direction(d)
    order = np.argsort(t, kind="stable")
    # <x, w> is rounded by at most d eps sum |x_i| <= d^2 eps max |x_i|
    reach = GEOM_TOL + 4 * d * d * np.finfo(float).eps * (GEOM_TOL + np.abs(X).max())
    if not (np.diff(t[order]) < reach).any():
        return np.arange(n)  # no run holds two rows
    Z = (X if b is None else np.column_stack([X, b]))[order]
    first = np.flatnonzero(np.r_[True, (Z[1:] != Z[:-1]).any(axis=1)])
    rows = np.minimum.reduceat(order, first)  # the earliest copy of each row
    near = np.diff(t[rows]) < reach
    keep = np.bincount(rows, minlength=n) > 0
    # same[i]: rows[i] and rows[i + k] lie in one run
    same, k, pairs = near, 1, [np.zeros((2, 0), dtype=int)]
    while same.any():
        i = np.flatnonzero(same)
        pairs.append(rows[np.stack([i, i + k])])
        k += 1
        same = same[:-1] & near[k - 1:]
    lo, hi = np.sort(np.hstack(pairs), axis=0)
    close = np.linalg.norm(X[lo] - X[hi], axis=1) < GEOM_TOL
    if b is not None:
        close &= np.abs(b[lo] - b[hi]) < GEOM_TOL
    # in row order, so that keep[i] is final when it is read
    for i, j in sorted(zip(lo[close].tolist(), hi[close].tolist())):
        if keep[i]:
            keep[j] = False
    return np.flatnonzero(keep)


def _map_halfspaces(A: np.ndarray, b: np.ndarray, M: np.ndarray, shift: np.ndarray):
    """The halfspaces <a, x> <= b mapped by x -> M x + shift (M invertible), with unit normals.

    <a, x> <= b becomes <a M^-1, y> <= b + <a M^-1, shift>.
    """
    A = A @ np.linalg.inv(M)
    norms = np.linalg.norm(A, axis=1)
    return A / norms[:, None], (b + A @ shift) / norms


@dataclass(frozen=True)
class Boundary:
    """Triangulated boundary of a full-dimensional polytope.

    A hull becomes one in `_extreme_points` alone: a qhull hull in R^d,
    d >= 2, and the two end points in R^1. A sliced section
    (`sections.section`) gets its own from the slice, and an affine image
    carries its body's (`mapped`). Row s of ``simplices`` indexes the d
    vertices of a (d-1)-simplex lying on the facet
    {x : <A[s], x> = b[s]}, where A[s] is the facet's unit outward normal.
    ``volume`` is the polytope's volume as qhull reports it, and
    ``fan_volume`` the total volume of the simplices coned from an interior
    point; they differ when the simplices overlap (qhull's triangulation of
    a facet with many coplanar vertices can overlap itself) or leave gaps.
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

    @cached_property
    def simplicial(self) -> bool:
        """Whether the simplices tile the boundary and each is a whole facet.

        qhull gives every simplex of a triangulated facet that facet's
        equation, so no two rows of A are equal exactly when each facet is
        one simplex.
        """
        return self.tiles and len(np.unique(self.A, axis=0)) == len(self.simplices)

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


def _extreme_points(points: np.ndarray):
    """(keep, adim, bd) of the (N, d) float array ``points``: the indices of
    the extreme points of conv(points), the dimension of its affine hull,
    and its `Boundary` over points[keep] when it is full-dimensional (else
    None). The one place a hull becomes a Boundary.

    The points are hulled once, in an orthonormal basis of their affine
    hull about their mean. qhull triangulates the non-simplicial facets of
    the same points differently in other coordinates, so when that
    triangulation does not tile (`Boundary.tiles`) the extreme points are
    hulled once more in their own coordinates; `boundary` raises if that
    one does not tile either. In R^1 the boundary is the two end points.
    """
    first = _first_of_close(points)
    X = points[first]
    center = X.mean(axis=0)
    basis = orthonormal_basis(X - center)
    adim, d = basis.shape[0], X.shape[1]
    if adim == 0:
        return first[:1], 0, None
    coords = (X - center) @ basis.T
    if adim == 1:
        t = coords[:, 0] if d > 1 else X[:, 0]  # in R^1 the lower end comes first
        ends = [int(np.argmin(t)), int(np.argmax(t))]
        if d > 1:
            return first[ends], 1, None
        lo, hi = X[ends, 0]
        length = float(hi - lo)
        return first[ends], 1, Boundary(np.array([[1], [0]]), np.array([[1.0], [-1.0]]),
                                        np.array([hi, -lo]), length, length)
    hull = robust_hull(coords)
    kept = np.sort(hull.vertices)
    if adim < d:
        return first[kept], adim, None
    index = np.zeros(len(X), dtype=int)
    index[kept] = np.arange(len(kept))
    bd = _hull_boundary(hull, basis, center, index)
    if not bd.tiles:
        V = X[kept]
        bd = _hull_boundary(robust_hull(V), np.eye(d), np.zeros(d), np.arange(len(V)))
    return first[kept], adim, bd


def extreme_points(points: np.ndarray):
    """Extreme points of conv(points) and the affine-hull dimension.

    Points within GEOM_TOL of an earlier kept point are dropped first
    (`_first_of_close`). Degenerate (lower-dimensional) inputs are projected
    once onto their affine hull, and hulled there.
    """
    points = np.atleast_2d(_as_array(points))
    keep, adim, _ = _extreme_points(points)
    return points[keep], adim


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
    moments (`volume.moments`) and its facet ridges (`facet_ridges`) are
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
        self._ridge_cache = None

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
            keep = _first_of_close(bd.A, bd.b)
            self._A, self._b = _read_only(bd.A[keep]), _read_only(bd.b[keep])
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
                self._affine_dim = orthonormal_basis(V - V[0]).shape[0]
        return self._affine_dim

    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    def _boundary(self) -> Boundary:
        """The boundary, built from the vertices (`_extreme_points`) unless their enumeration left one."""
        if self._boundary_cache is None:
            V = self.vertices
            if self._boundary_cache is None:
                keep, adim, bd = _extreme_points(V)
                if bd is None:
                    raise GeometryError(f"degenerate polytope (affine dim {adim} < {self.dim}); "
                                        "convert in intrinsic coordinates")
                self._boundary_cache = replace(bd, simplices=keep[bd.simplices])
        return self._boundary_cache


def VPolytope(vertices) -> Polytope:
    """The polytope conv(vertices), which keeps the extreme points only (`extreme_points`)."""
    vertices = np.atleast_2d(_as_array(vertices))
    if vertices.size == 0:
        raise GeometryError("empty vertex list")
    keep, adim, bd = _extreme_points(vertices)
    return Polytope(vertices[keep], affine_dim=adim, boundary=bd)


def HPolytope(A, b) -> Polytope:
    """The polytope {x : <a_i, x> <= b_i}, rows scaled to unit normals.

    A row within GEOM_TOL of an earlier kept row, in normal and in offset,
    is dropped (`_first_of_close`).
    """
    A = np.atleast_2d(_as_array(A))
    b = np.atleast_1d(_as_array(b))
    if A.shape[0] != b.shape[0]:
        raise GeometryError("halfspace normal/offset count mismatch")
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms < 1e-14):
        raise GeometryError("zero halfspace normal")
    A = A / norms[:, None]
    b = b / norms
    keep = _first_of_close(A, b)
    return Polytope(A=A[keep], b=b[keep])


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

    It comes from the hull of the body's vertices (`_extreme_points`, which
    hulls them once more in their own coordinates when the first
    triangulation does not tile). Raises GeometryError when the simplices
    still do not tile the boundary (see `Boundary.tiles`), which would bias
    every volume computed from them.
    """
    bd = to_vrep(K)._boundary()
    if not bd.tiles:
        raise GeometryError(f"hull triangulation does not tile the polytope (simplices "
                            f"{bd.fan_volume:.17g}, hull {bd.volume:.17g})")
    return bd


def known_simplicial(K: ConvexBody) -> bool:
    """Whether K is a polytope known by its vertices whose boundary, hulled
    from them once per body, is triangulated by its own facets
    (`Boundary.simplicial`).

    False for a ball, and for a polytope known only by its halfspaces: its
    vertices would take a halfspace intersection and a hull (3 s for the
    8-cube), which a section of it does not need. Unlike `boundary`, it does
    not raise on a triangulation that does not tile.
    """
    return isinstance(K, Polytope) and K._vertices is not None and K._boundary().simplicial


@dataclass(frozen=True)
class Ridges:
    """The facet ridges of a full-dimensional polytope, as pairs of rows of its H-rep.

    ``pairs`` (R, 2) holds i < j for each pair of facets that share at least
    n - 1 vertices: every ridge, and possibly pairs that meet in a smaller
    face. ``neighbours`` (H, D) lists the facets each facet pairs with,
    padded with its own index. Facet i is {x : <A_i, x> = b_i} cut by the
    inequalities of its neighbours; a neighbour that meets it in a smaller
    face adds an inequality valid on K, which changes nothing.
    """

    pairs: np.ndarray
    neighbours: np.ndarray


def facet_ridges(K: Polytope) -> Ridges:
    """The `Ridges` of the polytope K, computed once per body.

    A vertex lies on a facet when its residual is within GEOM_TOL of max |b|,
    so the incidence does not depend on the scale. Ridges are taken from
    the facets of `to_hrep`, not from the boundary simplices, which are far
    more on non-simplicial bodies (113 458 on the 8-cube, which has 16
    facets).
    """
    if K._ridge_cache is None:
        A, b, V = to_hrep(K).A, K.b, to_vrep(K).vertices
        on = (np.abs(V @ A.T - b) <= GEOM_TOL * np.abs(b).max()).astype(float)
        adjacent = on.T @ on >= K.dim - 1  # counts of shared vertices
        np.fill_diagonal(adjacent, False)
        degree = adjacent.sum(axis=1)
        rows, cols = np.nonzero(adjacent)  # by rows, so each row's slots fill in order
        neighbours = np.repeat(np.arange(len(A))[:, None], max(1, degree.max()), axis=1)
        neighbours[rows, np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)] = cols
        upper = rows < cols
        K._ridge_cache = Ridges(_read_only(np.stack([rows[upper], cols[upper]], axis=1)),
                                _read_only(neighbours))
    return K._ridge_cache


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
    """The interval {t : a_i t <= b_i for every i}, a_i nonzero, as (lo, hi, empty).

    It is empty where it is no longer than GEOM_TOL. Raises GeometryError
    when it is unbounded.
    """
    pos, neg = a > 0, a < 0
    if not pos.any() or not neg.any():
        raise GeometryError("unbounded 1-d halfspace system")
    hi = (b[pos] / a[pos]).min()
    lo = (b[neg] / a[neg]).max()
    return lo, hi, bool(hi <= lo + GEOM_TOL)


def _halfspace_polytope(A: np.ndarray, b: np.ndarray, interior=None) -> Polytope | None:
    """{y : A y <= b} as a polytope built from its vertices, or None when empty or lower-dimensional.

    Rows need not be unit. A row that vanishes on the flat (norm <= 1e-14)
    bounds nothing and only tests 0 <= b_i, to rounding: 8 eps max |b|, so
    the test does not depend on the scale, and a facet parallel to the
    flat holds it only where the flat meets the facet. In one dimension
    the rest is an interval (`interval_1d`). Otherwise qhull starts from
    ``interior``, a point the caller knows to be clearly interior, or else
    from the Chebyshev centre, found by an LP. Raises GeometryError when
    the system is unbounded, or when a vertex qhull returns violates the
    normalised system by more than GEOM_TOL max(1, max |b|), as its Q12
    retry can after rejecting a system.
    """
    norms = np.linalg.norm(A, axis=1)
    ok = norms > 1e-14
    if np.any(b[~ok] < -8 * np.finfo(float).eps * np.abs(b).max()):
        return None
    A = A[ok] / norms[ok, None]
    b = b[ok] / norms[ok]
    if A.shape[1] == 1:
        lo, hi, empty = interval_1d(A[:, 0], b)
        return None if empty else VPolytope([[lo], [hi]])
    if interior is None:
        interior, r = chebyshev_center(A, b)
        if interior is None or r <= GEOM_TOL:
            return None
    hs = _qhull(HalfspaceIntersection, np.hstack([A, -b[:, None]]), interior)
    if np.max(hs.intersections @ A.T - b) > GEOM_TOL * max(1.0, np.abs(b).max()):
        raise GeometryError("halfspace intersection has vertices outside its system")
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
    return Polytope(verts)


def make_cube(n: int) -> Polytope:
    """The cube [-1, 1]^n."""
    _check_dim(n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    return HPolytope(A, np.ones(2 * n))


def make_cross_polytope(n: int) -> Polytope:
    """conv(+-e_i)."""
    _check_dim(n)
    return Polytope(np.vstack([np.eye(n), -np.eye(n)]))


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
    return Polytope(verts)


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


def _origin_interior(K: ConvexBody) -> ConvexBody:
    """K, with its halfspaces computed if it is a polytope.

    Raises GeometryError unless 0 is interior to K.
    """
    if isinstance(K, Ball):
        if np.linalg.norm(K.center) >= K.radius - GEOM_TOL:
            raise GeometryError("origin is not interior to the ball")
        return K
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
    H = _origin_interior(K)
    if isinstance(K, Ball):
        c, r = K.center, K.radius
        uu, uc = np.einsum("ij,ij->i", U, U), U @ c
        return (uc + np.sqrt(uc * uc + uu * (r * r - float(c @ c)))) / uu
    proj = U @ H.A.T
    with np.errstate(divide="ignore"):
        ratios = np.where(proj > 1e-14, H.b / proj, np.inf)
    return ratios.min(axis=1)


def minkowski_norm(K: ConvexBody, x) -> float:
    """Gauge ||x||_K = min{a >= 0 : x in aK}; 0 must be interior. One row of `minkowski_norm_many`."""
    return float(minkowski_norm_many(K, _as_array(x)[None, :])[0])


def minkowski_norm_many(K: ConvexBody, X) -> np.ndarray:
    """minkowski_norm(K, x) for each row x of an (N, n) array: 1 / radial(K, x), and 0 at x = 0."""
    X = np.atleast_2d(_as_array(X))
    H = _origin_interior(K)
    if isinstance(K, Ball):
        norms = np.zeros(len(X))
        moved = X.any(axis=1)
        norms[moved] = 1.0 / radial_many(K, X[moved])
        return norms
    return np.maximum(0.0, (X @ H.A.T / H.b).max(axis=1))


def contains(K: ConvexBody, x, tol: float = GEOM_TOL) -> bool:
    """Membership of one point: one row of `contains_many`."""
    return bool(contains_many(K, _as_array(x)[None, :], tol)[0])


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
    has_halfspaces = K._A is not None  # before the interior test computes them
    H = _origin_interior(K)
    return (VPolytope(H.A / H.b[:, None]) if has_halfspaces
            else HPolytope(K.vertices, np.ones(len(K.vertices))))


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
    if _rank(np.linalg.svd(M, compute_uv=False)) < n:
        raise GeometryError("affine map matrix is singular")
    if isinstance(K, Ball):
        # M M^T = s I entry by entry, to 1e-12 s, so the bound scales with M
        MMt = M @ M.T
        scale2 = np.trace(MMt) / n
        if np.abs(MMt - scale2 * np.eye(n)).max() > 1e-12 * scale2:
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

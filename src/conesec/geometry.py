"""Convex bodies in R^n (n <= 8) and primitive geometric operations.

Representations: polytopes and Euclidean balls.  A `Polytope` is built
complete: from its vertices (`VPolytope`), with the facet rows and the
boundary of their one hull, or from its halfspaces (`HPolytope`), with the
vertices of their one intersection.  Its facet rows ``A``, ``b`` are stored
once, on the body; a `Boundary` holds only its simplices and the row each
lies on.  What a body derives from these (a boundary pulled from its rows,
its vertex-facet incidence, its moments) is cached on it, and depends on
nothing but what it was built from.  Affine images are applied eagerly to
the vertices and the rows, and share the body's boundary, so every body is
concrete.  Bodies are immutable apart from these caches, and all
operations are pure.

qhull runs at most once per body or halfspace system, through `_qhull`: a
hull finds a vertex-built body's vertices and facets (with a Q12 retry), and
a halfspace intersection finds a system's vertices (one attempt).  The
points of an intersection are never hulled.  The boundary has one builder:
a facet with d vertices is its own simplex, and any other is pulled from
the facet-vertex incidence (`_pulled`); every built boundary passes a
closure guard (`_closed`).  Degenerate inputs are detected via their
affine hull and handled in intrinsic coordinates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np
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
    """Linear subspace of R^n given by an orthonormal basis (rows).

    The basis is a read-only copy of the one given, so a subspace that is
    shared (the corpus battery builds its flats once per dimension) cannot
    be changed by a caller writing into its basis.
    """

    ambient_dim: int
    basis: np.ndarray  # (d, n), orthonormal rows; possibly 0 rows for {0}

    def __post_init__(self):
        b = np.array(self.basis, dtype=float, ndmin=2).reshape(-1, self.ambient_dim)
        b.setflags(write=False)
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
        """The orthogonal complement, computed once: the subspace is frozen
        and its basis read-only, so the one kept cannot go stale."""
        if "_complement" not in self.__dict__:
            object.__setattr__(self, "_complement", Subspace(self.ambient_dim, _complement_basis(self.basis)))
        return self._complement

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of (the projection of) ambient points in this basis."""
        return _as_array(x) @ self.basis.T

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Map intrinsic coordinates back to ambient R^n."""
        return _as_array(y) @ self.basis

    def contains_vector(self, v: np.ndarray, tol: float = 1e-12) -> bool:
        v = _as_array(v)
        resid = v - self.embed(self.coords(v))
        return float(np.linalg.norm(resid)) < tol * max(1.0, float(np.linalg.norm(v)))


def trivial_flat(n: int) -> Subspace:
    """The subspace {0} in R^n (flat of a full-dimensional cone section)."""
    return Subspace(n, np.zeros((0, n)))


def _complement_basis(basis: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class Boundary:
    """Triangulated boundary of a full-dimensional polytope K.

    Row s of ``simplices`` indexes the d vertices of a (d-1)-simplex lying
    on the facet {x : <A_i, x> = b_i} of K's rows, i = facet[s]: the rows
    themselves are K's (`Polytope.A`, `Polytope.b`), stored once. A
    vertex-built body gets its boundary in `_extreme_points`, a body with
    facet rows in `_pulled`; both pass the closure guard `_closed`. A sliced
    section (`sections.section`) gets its own from the slice, and an affine
    image shares its body's.
    """

    simplices: np.ndarray  # (S, d) vertex indices
    facet: np.ndarray  # (S,) the row of K's A, b each simplex lies on


def _incidence(V: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, H) bool: vertex i of V lies on row j of the unit rows (A, b) when
    its residual |<A_j, v_i> - b_j| is within GEOM_TOL of max |b|, so the
    rule does not depend on the scale. max |b| is capped at max |v|, which
    bounds |b_j| on every row that touches the body, so a far redundant row
    does not loosen the rule."""
    return np.abs(V @ A.T - b) <= GEOM_TOL * min(np.abs(b).max(), np.linalg.norm(V, axis=1).max())


def _pulled(V: np.ndarray, A: np.ndarray, b: np.ndarray) -> Boundary:
    """The boundary of the full-dimensional polytope conv(V), whose facets
    are among the unit rows (A, b), read from the incidence of V on them
    (`_incidence`) alone.

    A row is a facet when its vertex set holds at least d vertices and lies
    in no other row's set (of rows with equal sets the first is kept), so
    redundant rows and rows that touch only a lower face drop out. The
    facets of a face of dimension k < d - 1 are the inclusion-maximal sets
    among its meets with K's facets that hold at least k vertices. A facet
    with d vertices is its own simplex; any other gets the
    pulling triangulation (De Loera, Rambau and Santos, *Triangulations*,
    2010, sec. 4.3): a face of dimension k with more than k + 1 vertices is
    the cone from its lowest-index vertex v over the pulled facets of the
    face that miss v. Faces are pulled once each, so a shared face gives
    both of its cofaces the same simplices, and the simplices tile the
    boundary. Each simplex lists its vertices in ascending order, and its
    ``facet`` is its row of (A, b).
    """
    on, d = _incidence(V, A, b), V.shape[1]
    rows = np.flatnonzero(on.sum(axis=0) >= d)
    shared = on[:, rows].T.astype(float) @ on[:, rows]
    count = np.diag(shared)
    # inside[i, j]: row i's set lies in row j's, which is larger or earlier
    inside = (shared == count[:, None]) & ((count > count[:, None]) | (rows < rows[:, None]))
    facet = ~inside.any(axis=1)
    rows, near = rows[facet], shared[np.ix_(facet, facet)] >= d - 1
    masks = [int.from_bytes(c.tobytes(), "little") for c in np.packbits(on[:, rows].T, axis=1, bitorder="little")]
    pulled = {0: [()]}  # the empty face: one simplex, with no vertex

    def pull(face: int, k: int, rows: list[int]) -> list[tuple]:
        # rows holds every facet of K that meets the face in k vertices or more
        if face not in pulled:
            v = face & -face
            below = [face ^ v]  # a simplex is the cone from v over its face opposite v
            if face.bit_count() > k + 1:
                rows = [m for m in rows if (face & m).bit_count() >= k]
                below = []  # the inclusion-maximal proper meets: the face's facets
                for G in sorted(dict.fromkeys(face & m for m in rows if face & m != face),
                                key=int.bit_count, reverse=True):
                    if not any(G & H == G for H in below):
                        below.append(G)
            pulled[face] = [(v.bit_length() - 1,) + s for G in below if not G & v for s in pull(G, k - 1, rows)]
        return pulled[face]

    per_facet = [pull(m, d - 1, [masks[i] for i in np.flatnonzero(near[j])] if m.bit_count() > d else [])
                 for j, m in enumerate(masks)]
    counts = np.array([len(p) for p in per_facet])
    simplices = np.array([s for p in per_facet for s in p], dtype=int).reshape(-1, d)
    return _closed(V, A, Boundary(simplices, np.repeat(rows, counts)))


def _closed(V: np.ndarray, A: np.ndarray, bd: Boundary) -> Boundary:
    """bd, the boundary of conv(V) on the unit rows A, once its simplices are
    seen to close up; GeometryError otherwise.

    The signed fan volume sum_s sign(b_s - <A_s, c>) |det(D_s - c)| / d! of
    a closed boundary is the same from every apex c, A_s the row of simplex
    s's facet. It is affine in c, with
    gradient -w / d, where w = sum_s a_s A_s and a_s is the (d-1)-volume of
    simplex s, so the fans from all apexes agree exactly when w = 0
    (Minkowski's relation for the facets of a polytope). An overlap or a gap
    of the simplices on a facet adds its area times the facet's normal to
    w. So w must vanish to 1e-9 of the total area sum_s a_s; this compares
    the fans from every pair of apexes at once, with one determinant per
    simplex (a_s (d-1)! = |det| of its edges from its first vertex and
    A_s), and it does not depend on the scale or on where 0 lies.
    """
    D, normals = V[bd.simplices], A[bd.facet]
    area = np.abs(np.linalg.det(np.concatenate([D[:, 1:] - D[:, :1], normals[:, None, :]], axis=1)))
    if not np.linalg.norm(area @ normals) <= 1e-9 * area.sum():
        raise GeometryError(f"boundary simplices do not close up (total area {area.sum():.17g} times (d-1)!)")
    return bd


def _extreme_points(points: np.ndarray):
    """(keep, adim, rows) of the (N, d) float array ``points``: the indices
    of the extreme points of conv(points), the dimension of its affine hull,
    and, when it is full-dimensional, (A, b, bd): its unit facet rows and
    its `Boundary` over points[keep] (else an empty tuple).

    The points are hulled once, by qhull, in an orthonormal basis of their
    affine hull about their mean. The rows are qhull's facet rows less
    those within GEOM_TOL of an earlier one (`_first_of_close`). When none
    is dropped, every facet is a simplex and the boundary is qhull's
    simplices as qhull gives them. Otherwise the boundary is pulled from
    the incidence on the rows (`_pulled`), not taken from qhull's `Qt`
    triangulation, which depends on the coordinates and can overlap itself.
    In R^1 the boundary is the two end points.
    """
    first = _first_of_close(points)
    X = points[first]
    center = X.mean(axis=0)
    basis = orthonormal_basis(X - center)
    adim, d = basis.shape[0], X.shape[1]
    if adim == 0:
        return first[:1], 0, ()
    coords = (X - center) @ basis.T
    if adim == 1:
        t = coords[:, 0] if d > 1 else X[:, 0]  # in R^1 the lower end comes first
        ends = [int(np.argmin(t)), int(np.argmax(t))]
        if d > 1:
            return first[ends], 1, ()
        lo, hi = X[ends, 0]
        return first[ends], 1, (np.array([[1.0], [-1.0]]), np.array([hi, -lo]),
                                Boundary(np.array([[1], [0]]), np.arange(2)))
    hull = robust_hull(coords)
    kept = np.sort(hull.vertices)
    if adim < d:
        return first[kept], adim, ()
    V = X[kept]
    # qhull equations: normal . y + offset <= 0 with unit normals
    A = hull.equations[:, :-1] @ basis
    b = A @ center - hull.equations[:, -1]
    rows = _first_of_close(A, b)
    A, b = A[rows], b[rows]
    if len(rows) < len(hull.equations):
        return first[kept], adim, (A, b, _pulled(V, A, b))
    index = np.zeros(len(X), dtype=int)
    index[kept] = np.arange(len(kept))
    return first[kept], adim, (A, b, _closed(V, A, Boundary(index[hull.simplices], rows)))


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
    """build(data, *args) by qhull, with one fallback for a hull's merge failures.

    Near-degenerate inputs can trip qhull's merge heuristics. On QhullError
    a hull (`ConvexHull`) retries ``options`` with Q12, which relaxes the
    wide-merge guard; when that fails too, GeometryError. A halfspace
    intersection takes one attempt, then GeometryError: after rejecting a
    system, its Q12 retry can return a polytope with vertices missing
    (4.7% of the volume on a scaled wedge system) or outside the system.
    A hull keeps the retry, which near-degenerate bodies need, and the
    boundary built from it passes the closure guard (`_closed`). Joggled
    input is never tried: it would move the vertices without a trace in
    the result.
    """
    ladder = [options, f"{options} Q12".lstrip()] if build is ConvexHull else [options]
    last_exc = None
    for opts in ladder:
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
    """Polytope in R^dim, built complete: it holds its vertices and affine
    dimension from construction and, when full-dimensional, its unit facet
    rows ``A``, ``b``: a vertex-built body's from its hull
    (`_extreme_points`), which brings its triangulated boundary too; an
    affine image's, mapped from its body's, whose boundary it shares; a
    sliced section's, with the boundary of the slice; or the halfspace rows
    it was built from (`HPolytope`, a halfspace-route section), whose
    vertices came from one halfspace intersection. A lower-dimensional body
    has no rows (None).

    A body with rows and no boundary pulls its boundary from the incidence
    of its vertices on them (`_pulled`), with no hull. What is derived from
    these is cached on the body: the boundary pulled (`geometry.boundary`),
    that incidence (shared with `facet_ridges` and `known_simplicial`), its
    cone simplices (`volume.wedge_moment`), the moments (`volume.moments`),
    its facet ridges and its section-volume functions
    (`sections.section_volume_fn`). Each is a function of what the body was
    built from, so no result depends on which was computed first. Build
    polytopes with `VPolytope` or `HPolytope`.
    """

    def __init__(self, vertices: np.ndarray, affine_dim: int, A: np.ndarray | None = None,
                 b: np.ndarray | None = None, boundary: Boundary | None = None):
        self.dim = vertices.shape[1]
        self.vertices = _read_only(vertices)
        self.affine_dim = affine_dim
        self.A = None if A is None else _read_only(A)
        self.b = None if b is None else _read_only(b)
        self._boundary_cache = boundary
        self._moments_cache = None
        self._cone_cache = None
        self._ridge_cache = None
        self._section_fn_cache = {}

    def __repr__(self):
        return f"Polytope(dim={self.dim})"

    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    def _boundary(self) -> Boundary:
        """The boundary it was built with, else pulled from its rows (`_pulled`)."""
        if self._boundary_cache is None:
            H = to_hrep(self)
            self._boundary_cache = _pulled(H.vertices, H.A, H.b)
        return self._boundary_cache

    @cached_property
    def _incidence(self) -> np.ndarray:
        """(N, H) bool, computed once: which vertices lie on which rows (`_incidence`)."""
        return _read_only(_incidence(self.vertices, self.A, self.b))


def VPolytope(vertices) -> Polytope:
    """The polytope conv(vertices), which keeps the extreme points only
    (`extreme_points`) and, when full-dimensional, the facet rows and
    boundary of their one hull."""
    vertices = np.atleast_2d(_as_array(vertices))
    if vertices.size == 0:
        raise GeometryError("empty vertex list")
    keep, adim, rows = _extreme_points(vertices)
    return Polytope(vertices[keep], adim, *rows)


def HPolytope(A, b) -> Polytope:
    """The polytope {x : <a_i, x> <= b_i}, rows scaled to unit normals.

    A row within GEOM_TOL of an earlier kept row, in normal and in offset,
    is dropped (`_first_of_close`). Only an exactly zero normal raises, so
    the system may have any scale. The vertices come from one halfspace
    intersection (`_halfspace_polytope`), started from 0 when 0 is clearly
    interior (`_clearly_interior_origin`), else from the Chebyshev centre's
    LP; GeometryError when the system is empty, lower-dimensional or
    unbounded.
    """
    A = np.atleast_2d(_as_array(A))
    b = np.atleast_1d(_as_array(b))
    if A.shape[0] != b.shape[0]:
        raise GeometryError("halfspace normal/offset count mismatch")
    norms = np.linalg.norm(A, axis=1)
    if not norms.all():
        raise GeometryError("zero halfspace normal")
    A = A / norms[:, None]
    b = b / norms
    keep = _first_of_close(A, b)
    A, b = A[keep], b[keep]
    P = _halfspace_polytope(A, b, _clearly_interior_origin(b, A.shape[1]))
    if P is None:
        raise GeometryError("halfspace system empty or lower-dimensional")
    return Polytope(P.vertices, A.shape[1], A, b)


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


class Ball:
    def __init__(self, center, radius):
        center = np.atleast_1d(_as_array(center))
        if not (0 < radius < np.inf) or not np.all(np.isfinite(center)):
            raise GeometryError("ball radius must be positive and finite, its center finite")
        self.center = _read_only(center)
        self.radius = float(radius)
        self.dim = center.shape[0]
        with np.errstate(over="ignore"):  # the pow of `volume.body_volume`: it raises on overflow, reads 0 on underflow
            vol = float(unit_ball_volume(self.dim) * np.float64(self.radius) ** self.dim)
        if not sys.float_info.min <= vol < math.inf:
            raise GeometryError(f"ball 'radius' {radius!r} in R^{self.dim} has a volume outside the range of a float")
        # the second moments of `volume.moments`, vol (c c^T + r^2 I / (n + 2)), are of scale max(r, |c|)^2 vol
        reach = max(self.radius, math.hypot(*center))
        if not math.isfinite(reach * reach * vol):
            field = "radius" if reach == self.radius else "center"
            raise GeometryError(f"ball {field!r} in R^{self.dim} gives second moments too large for a float")

    def __repr__(self):
        return f"Ball(dim={self.dim})"

    @property
    def centred(self) -> bool:
        """Whether the centre is 0 to 1e-12 of the radius: the one test by which a
        ball's closed forms (its cone cuts, its polar, its ray moments) take it."""
        return bool(np.linalg.norm(self.center) <= 1e-12 * self.radius)


ConvexBody = Union[Polytope, Ball]


# ---------------------------------------------------------------------------
# representation conversion


def to_vrep(K: ConvexBody) -> Polytope:
    """The polytope K, which holds its vertices (balls are rejected)."""
    if isinstance(K, Ball):
        raise GeometryError("a ball has no exact vertex representation")
    return K


def to_hrep(K: ConvexBody) -> Polytope:
    """The polytope K, which holds its facet rows from construction; balls
    and lower-dimensional polytopes are rejected."""
    if isinstance(K, Ball):
        raise GeometryError("a ball has no exact halfspace representation")
    if K.A is None:
        raise GeometryError(f"degenerate polytope (affine dim {K.affine_dim} < {K.dim}); "
                            "convert in intrinsic coordinates")
    return K


def boundary(K: ConvexBody) -> Boundary:
    """Triangulated boundary of a full-dimensional polytope, computed once per body.

    A vertex-built body brings it from their one hull (`_extreme_points`):
    qhull's simplices when every facet is a simplex, else facets pulled from
    their vertex incidence. A body with halfspace rows (`HPolytope`, a
    halfspace-route section) pulls its facets from the incidence of its
    vertices on those rows (`_pulled`), with no hull. A built boundary has
    passed the closure guard (`_closed`), so
    GeometryError is raised where the simplices would overlap or leave a
    gap, which would bias every volume computed from them.
    """
    return to_vrep(K)._boundary()


def known_simplicial(K: ConvexBody) -> bool:
    """Whether K is a full-dimensional polytope whose facets are simplices:
    no row of its H-rep holds more than n of its vertices (`Polytope._incidence`),
    because a row with more is a facet with more, or lies in one. It reads
    the incidence only, so no boundary is built. False for a ball and a
    lower-dimensional polytope."""
    return (isinstance(K, Polytope) and K.is_full_dimensional()
            and bool(K._incidence.sum(axis=0).max() <= K.dim))


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

    It reads the incidence cached on K (`_incidence`: a vertex lies on a
    row when its residual is within GEOM_TOL of max |b|), the one the
    boundary of a body with halfspace rows is pulled from, so a body known
    by its halfspaces takes one halfspace intersection and no hull. Ridges
    are taken from the rows of `to_hrep`, not from the boundary simplices,
    which are far more on non-simplicial bodies (80 640 on the 8-cube, which
    has 16 facets).
    """
    if K._ridge_cache is None:
        on = to_hrep(K)._incidence.astype(float)
        adjacent = on.T @ on >= K.dim - 1  # counts of shared vertices
        np.fill_diagonal(adjacent, False)
        degree = adjacent.sum(axis=1)
        rows, cols = np.nonzero(adjacent)  # by rows, so each row's slots fill in order
        neighbours = np.repeat(np.arange(on.shape[1])[:, None], max(1, degree.max()), axis=1)
        neighbours[rows, np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)] = cols
        upper = rows < cols
        K._ridge_cache = Ridges(_read_only(np.stack([rows[upper], cols[upper]], axis=1)),
                                _read_only(neighbours))
    return K._ridge_cache


def _clearly_interior_origin(b: np.ndarray, d: int) -> np.ndarray | None:
    """0 in R^d when it is clearly interior to {A x <= b}, A with unit rows,
    else None: every facet distance b_i is at least 1e-3 of the largest,
    which must be positive (with every b_i = 0, 0 lies on the boundary)."""
    return np.zeros(d) if b.max() > 0 and b.min() >= 1e-3 * b.max() else None


def _lp_max(c: np.ndarray, M: np.ndarray, h: np.ndarray, x: np.ndarray):
    """max <c, x> over {M x <= h}, walked from a feasible x, as (x, active, lam).

    A primal active-set walk, the simplex method in inequality form, with
    Bland's rule (Bland 1977), so it ends on degenerate vertices too. It
    steps along c projected onto the null space of its working rows, up to
    the first row that blocks (the smallest index on ties), which joins
    them. Where the projection vanishes, c = M[active].T @ lam: while some
    lam_i < 0, the row of smallest index among those leaves; else x is
    optimal, and lam >= 0 certifies it, since every feasible y then has
    <c, y> <= lam . h[active] = <c, x>. Tolerances are relative to |c| and
    the row norms, so M and h should be scaled near 1. Each step first puts
    x back onto its working rows, so rounding does not build up along the
    walk. Raises `GeometryError` when the ascent meets no row (unbounded)
    and when the walk exceeds its cap of 50 steps per row, far above the
    walks measured (at most 134 steps, on the 8376 rows of the chord LP of
    `random_centered_polytope(8, 30, 2)`).
    """
    x, active = np.array(x, dtype=float), []
    norms = np.linalg.norm(M, axis=1)
    for _ in range(50 * len(h)):
        Q, R = np.linalg.qr(M[active].T)
        x += Q @ np.linalg.solve(R.T, h[active] - M[active] @ x)
        p, lam = c - Q @ (Q.T @ c), np.linalg.solve(R, Q.T @ c)
        tol = 1e-12 * (np.linalg.norm(c) + np.abs(lam) @ norms[active])
        if np.linalg.norm(p) <= tol:
            if lam.min() >= -tol:
                return x, np.array(active, dtype=int), np.maximum(lam, 0.0)
            del active[int(np.argmax(lam < -tol))]
            continue
        p /= np.linalg.norm(p)
        rate = M @ p
        rate[active] = 0.0
        blocks = np.flatnonzero(rate > 1e-12 * norms)
        if not len(blocks):
            raise GeometryError("unbounded LP")
        slack = h[blocks] - M[blocks] @ x
        steps = np.where(slack > 1e-14 * norms[blocks], slack, 0.0) / rate[blocks]
        j = int(np.argmin(steps))
        x += steps[j] * p
        active = sorted(active + [int(blocks[j])])
    raise GeometryError("LP walk exceeded its step cap")


def chebyshev_center(A: np.ndarray, b: np.ndarray):
    """Center and radius of the largest ball inside {A x <= b} (unit rows), by
    one LP (`_lp_max`) over (x, r) with r free, walked from (0, min b),
    feasible for unit rows; (None, -inf) when the largest r is negative (an
    empty system). Raises GeometryError when r is unbounded."""
    d = A.shape[1]
    M = np.hstack([A, np.linalg.norm(A, axis=1)[:, None]])
    try:
        x = _lp_max(np.eye(d + 1)[d], M, b, np.r_[np.zeros(d), b.min()])[0]
    except GeometryError as err:
        raise GeometryError("unbounded halfspace system") from err
    return (None, -np.inf) if x[d] < 0 else (x[:d], float(x[d]))


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
    """{y : A y <= b} as a polytope with its vertices and halfspace rows, or
    None when empty or lower-dimensional.

    Rows need not be unit. A row that vanishes on the flat (norm <= 1e-14)
    bounds nothing and only tests 0 <= b_i, to rounding: 8 eps max |b|, so
    the test does not depend on the scale, and a facet parallel to the
    flat holds it only where the flat meets the facet. In one dimension
    the rest is an interval (`interval_1d`). Otherwise the system is scaled
    to max |b| = 1, since qhull's tolerances are absolute and the LP's are
    relative to 1, and qhull starts from ``interior``, a point the caller
    knows to be clearly interior (`HPolytope` and `sections.section` pass 0
    by `_clearly_interior_origin`), or else, with ``interior`` None, from
    the Chebyshev centre, found by the in-house LP (`chebyshev_center`),
    which loads no `scipy.optimize`. qhull takes the system once, with no
    Q12 retry (`_qhull`), and that is the only qhull call: the intersection
    points, less near repeats (`_first_of_close`), are the vertices, and
    the body is full-dimensional when they are (`_rank`). Its rows are the system's, less those farther
    from 0 than every vertex (they touch nothing); its boundary is pulled
    from them when asked for (`_pulled`). Raises GeometryError when the
    system is unbounded, when qhull rejects it, or when a vertex qhull
    returns is not finite or violates the normalised system by more than
    GEOM_TOL of its scale: a guard kept against any intersection that
    misplaces its vertices, and the one that catches an unbounded system
    started from a given point, whose intersection has points at infinity
    (qhull's division by zero there warns nothing: the guard reports it).
    """
    norms = np.linalg.norm(A, axis=1)
    ok = norms > 1e-14
    scale = np.abs(b).max() or 1.0
    if np.any(b[~ok] < -8 * np.finfo(float).eps * scale):
        return None
    A = A[ok] / norms[ok, None]
    b = b[ok] / norms[ok]
    if A.shape[1] == 1:
        lo, hi, empty = interval_1d(A[:, 0], b)
        return None if empty else VPolytope([[lo], [hi]])
    c, interior = b / scale, None if interior is None else interior / scale
    if interior is None:
        interior, r = chebyshev_center(A, c)
        if interior is None or r <= GEOM_TOL:
            return None
    with np.errstate(divide="ignore", invalid="ignore"):  # an unbounded system's points at infinity
        points = _qhull(HalfspaceIntersection, np.hstack([A, -c[:, None]]), interior).intersections
    if not np.all(points @ A.T - c <= GEOM_TOL):  # False at inf and nan too
        raise GeometryError("halfspace intersection unbounded or with vertices outside its system")
    V = points[_first_of_close(points)] * scale
    if _rank(np.linalg.svd(V - V.mean(axis=0), compute_uv=False)) < A.shape[1]:
        return None
    near = np.abs(b) <= np.linalg.norm(V, axis=1).max()
    return Polytope(V, A.shape[1], A[near], b[near])


# ---------------------------------------------------------------------------
# constructors


def _regular_simplex_vertices(n: int) -> np.ndarray:
    """The n+1 vertices of a regular simplex in R^n, centroid exactly at 0."""
    # Vertices of the standard simplex in R^(n+1), centered, then expressed in
    # an orthonormal basis of the hyperplane sum(x)=0.
    pts = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1))
    basis = _complement_basis(np.ones((1, n + 1)))
    verts = pts @ basis.T
    return verts - verts.mean(axis=0)  # kill accumulated roundoff in the centroid


def make_regular_simplex(n: int) -> Polytope:
    """Regular simplex in R^n with n+1 vertices and centroid exactly at 0."""
    _check_dim(n)
    return VPolytope(_regular_simplex_vertices(n))


def make_cube(n: int) -> Polytope:
    """The cube [-1, 1]^n."""
    _check_dim(n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    return HPolytope(A, np.ones(2 * n))


def make_cross_polytope(n: int) -> Polytope:
    """conv(+-e_i)."""
    _check_dim(n)
    return VPolytope(np.vstack([np.eye(n), -np.eye(n)]))


def make_ball(n: int, r: float = 1.0, center=None) -> Ball:
    _check_dim(n)
    center = np.zeros(n) if center is None else _as_array(center)
    if center.shape != (n,):
        raise GeometryError(f"ball center has shape {center.shape}, not ({n},)")
    return Ball(center, r)


def make_centered_cone(n: int, height: float = 1.0) -> Polytope:
    """Cone over a regular (n-1)-simplex base, apex on +e_n, centroid at 0.

    This is the Grunbaum equality body for the direction e_n: the halfspace
    {x_n >= 0} captures exactly (1+1/n)^(-n) of the volume.
    """
    _check_dim(n)
    if n == 1:
        return VPolytope([[-height / (n + 1)], [height * n / (n + 1)]])
    base = _regular_simplex_vertices(n - 1)
    base3 = np.hstack([base, np.zeros((n, 1))])
    apex = np.zeros((1, n))
    apex[0, -1] = height
    verts = np.vstack([base3, apex])
    # centroid of a cone sits at 1/(n+1) of the height above the base
    verts[:, -1] -= height / (n + 1)
    return VPolytope(verts)


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

    Raises GeometryError unless 0 is interior to K, judged relative to K's
    own scale, so the test holds at every scale: a polytope's facet offsets
    must exceed GEOM_TOL max |b|, and a ball's centre must lie within
    radius (1 - GEOM_TOL) of 0.
    """
    if isinstance(K, Ball):
        if np.linalg.norm(K.center) >= K.radius * (1.0 - GEOM_TOL):
            raise GeometryError("origin is not interior to the ball")
        return K
    H = to_hrep(K)
    if np.any(H.b <= GEOM_TOL * np.abs(H.b).max()):
        raise GeometryError("origin is not interior to the body")
    return H


def radial(K: ConvexBody, u) -> float:
    """Radial function r_K(u) = max{a >= 0 : a u in K}; 0 must be interior."""
    return float(radial_many(K, _as_array(u)[None, :])[0])


def radial_many(K: ConvexBody, U) -> np.ndarray:
    """radial(K, u) for each row u of an (N, n) array.

    A facet bounds the ray where <a, u> > 0, with no absolute floor, so the
    result is of degree -1 in u at every length of u.
    """
    U = np.atleast_2d(_as_array(U))
    H = _origin_interior(K)
    if isinstance(K, Ball):
        c, r = K.center, K.radius
        uu, uc = np.einsum("ij,ij->i", U, U), U @ c
        return (uc + np.sqrt(uc * uc + uu * (r * r - float(c @ c)))) / uu
    proj = U @ H.A.T
    with np.errstate(divide="ignore", over="ignore"):
        ratios = np.where(proj > 0, H.b / proj, np.inf)
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
    """Vectorized membership for an (N, n) array of points.

    ``tol`` is a share of K's own scale, as in `_origin_interior`: a point
    may lie tol max |b| outside a polytope's facets, or tol r outside a
    ball of radius r, so the test holds at every scale.
    """
    X = np.atleast_2d(_as_array(X))
    if isinstance(K, Ball):
        return np.linalg.norm(X - K.center, axis=1) <= K.radius * (1.0 + tol)
    H = to_hrep(K)
    return np.all(X @ H.A.T <= H.b + tol * np.abs(H.b).max(), axis=1)


# ---------------------------------------------------------------------------
# polarity, projection, affine maps


def polar(K: ConvexBody) -> ConvexBody:
    """Polar body K^* with respect to the origin (0 must be interior): a
    polytope's is the hull of its facet normals a_i / b_i."""
    if isinstance(K, Ball):
        if not K.centred:
            raise GeometryError("polar of an off-center ball is not a ball")
        return Ball(np.zeros(K.dim), 1.0 / K.radius)
    H = _origin_interior(K)
    return VPolytope(H.A / H.b[:, None])


def translate(K: ConvexBody, shift) -> ConvexBody:
    shift = _as_array(shift)
    if isinstance(K, Ball):
        return Ball(K.center + shift, K.radius)
    return _mapped_polytope(K, np.eye(K.dim), shift)


def _mapped_polytope(K: Polytope, M: np.ndarray, shift: np.ndarray) -> Polytope:
    """{M x + shift : x in K}, M invertible: K's vertices and rows, mapped.

    An affine map keeps the face lattice, so the image shares K's
    `Boundary`, which K pulls first if it has none, so the image does not
    depend on whether it had; <a, x> <= b becomes
    <a M^-1, y> <= b + <a M^-1, shift>, with unit normals, once per row.
    GeometryError for a degenerate K."""
    bd = K._boundary()
    A = K.A @ np.linalg.inv(M)
    norms = np.linalg.norm(A, axis=1)
    return Polytope(K.vertices @ M.T + shift, K.affine_dim, A / norms[:, None], (K.b + A @ shift) / norms, bd)


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

    ``generators`` are linearly independent nonzero ambient vectors of any
    scale, as many as the dimension of their span G, in which the cone
    lives; other generator sets raise `GeometryError`.  When ``within`` is given, every
    generator must lie in that subspace (it is the F^perp of a flat's
    direction space).
    """

    def __init__(self, generators, within: Subspace | None = None):
        G = np.atleast_2d(_as_array(generators))
        norms = np.linalg.norm(G, axis=1)
        if not norms.all():
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
        self._flats = {}  # `sections._cone_flat`'s (S, R) per flat basis

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


def _field(spec, key: str, what: str = "body spec", kind: type | None = None, default=None):
    """spec[key], or ``default`` when it is given and the field is absent.

    GeometryError naming the field when spec is no JSON object, lacks a
    field that has no default (a null counts as absent), or holds a value
    not of ``kind``: ``int`` wants an integer, ``float`` a real (an integer
    too) that a float holds finitely; a boolean is neither.
    """
    if not isinstance(spec, dict):
        raise GeometryError(f"{what} must be a JSON object, not {type(spec).__name__}")
    value = spec.get(key, default)
    if value is None:
        raise GeometryError(f"{what} has no {key!r} field")
    if kind and (isinstance(value, bool) or not isinstance(value, (int, kind))
                 or kind is float and not abs(value) <= sys.float_info.max):
        raise GeometryError(f"{what} field {key!r} must be {'an integer' if kind is int else 'a finite real'}, "
                            f"not {value!r}")
    return value


def body_from_spec(spec: dict) -> ConvexBody:
    """Build a body from the body-specification JSON object."""
    kind = _field(spec, "type")
    if kind == "vpolytope":
        V = np.atleast_2d(_finite(_field(spec, "vertices"), "vertices"))
        _check_dim(V.shape[-1])
        return VPolytope(V)
    if kind == "hpolytope":
        halfspaces = _field(spec, "halfspaces")
        A = np.atleast_2d(_finite([_field(h, "a", "halfspace") for h in halfspaces], "halfspace normals"))
        _check_dim(A.shape[-1])
        return HPolytope(A, _finite([_field(h, "b", "halfspace") for h in halfspaces], "halfspace offsets"))
    if kind == "ball":
        n = _field(spec, "n", kind=int, default=len(spec.get("center", [])))
        return make_ball(n, _field(spec, "radius", kind=float, default=1.0), spec.get("center"))
    if kind == "simplex":
        return make_regular_simplex(_field(spec, "n", kind=int))
    if kind == "cube":
        return make_cube(_field(spec, "n", kind=int))
    if kind == "cross":
        return make_cross_polytope(_field(spec, "n", kind=int))
    if kind == "cone":
        return make_centered_cone(_field(spec, "n", kind=int), _field(spec, "height", kind=float, default=1.0))
    if kind == "random":
        return random_centered_polytope(*(_field(spec, key, kind=int) for key in ("n", "points", "seed")))
    raise GeometryError(f"unknown body type {kind!r}")


def cone_from_spec(spec: dict) -> tuple[Subspace, PolyhedralCone]:
    """Load {"generators": [...], "flat_basis": [...]} into (F, C)."""
    gens = np.atleast_2d(_as_array(_field(spec, "generators", "cone spec")))
    n = gens.shape[1]
    flat = np.atleast_2d(_as_array(spec.get("flat_basis", np.zeros((0, n)))))
    if flat.size == 0:
        flat = np.zeros((0, n))
    F = Subspace.from_span(flat, ambient_dim=n)
    C = PolyhedralCone(gens, within=F.complement())
    return F, C

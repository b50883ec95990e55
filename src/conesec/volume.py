"""Exact volumes, centroids and moments of polytopes via triangulation.

Each full-dimensional polytope is fanned from the vertex average into the
simplices over its cached boundary simplices (`geometry.boundary`);
per-simplex closed forms give volume, centroid, second moments and arbitrary
integer moments of a linear functional.  Wedge moments, the integrals of
<r, x>^q over K cap {R x >= 0} with r the last row of R, come from the same
boundary simplices, coned from the origin: hyperplanes through 0 slice them
down to the cones of a section of K, the hyperplanes of the rows before the
last split them, and the last row weights each piece by an exact recursion
on its vertex values.  At q = 0 they are wedge volumes; the ray moments of
section functions are wedge moments of sliced cones (`sections`).  A seeded
Monte Carlo estimator provides an independent cross-check, and the
isotropic-position transform whitens the centered second-moment matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .geometry import (
    Ball,
    ConvexBody,
    GeometryError,
    affine_map,
    boundary,
    contains_many,
    to_vrep,
    translate,
)


@dataclass(frozen=True)
class MomentSummary:
    """Volume, centroid and second moments (about the origin) of a body."""

    volume: float
    centroid: np.ndarray
    covariance: np.ndarray  # integral of x x^T over the body


@dataclass(frozen=True)
class IsotropicTransform:
    """Affine map x -> matrix @ x + shift putting a body in isotropic position."""

    matrix: np.ndarray
    shift: np.ndarray
    isotropy_constant: float


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def triangulate(K: ConvexBody):
    """Simplices (S, d+1, d) fanning the polytope from its vertex average.

    The fan is over the cached boundary simplices; GeometryError when the
    polytope is degenerate or qhull's triangulation of its boundary does
    not tile it (`geometry.boundary`).
    """
    V = to_vrep(K)
    d = V.dim
    if not V.is_full_dimensional():
        raise GeometryError("cannot triangulate a degenerate polytope")
    verts = V.vertices
    if d == 1:
        lo, hi = verts.min(), verts.max()
        return np.array([[[lo], [hi]]])
    facets = verts[boundary(V).simplices]  # (S, d, d)
    apexes = np.broadcast_to(verts.mean(axis=0), (facets.shape[0], 1, d))
    return np.concatenate([apexes, facets], axis=1)


def _simplex_volumes(simplices: np.ndarray) -> np.ndarray:
    d = simplices.shape[2]
    M = simplices[:, 1:, :] - simplices[:, :1, :]
    return np.abs(np.linalg.det(M)) / math.factorial(d)


def moments(K: ConvexBody) -> MomentSummary:
    """Exact volume, centroid and second-moment matrix of a polytope or ball.

    A polytope's moments are computed once and cached on its vertex
    representation; their arrays are read-only.
    """
    if isinstance(K, Ball):
        d, r, c = K.dim, K.radius, K.center
        vol = unit_ball_volume(d) * r**d
        cov = vol * (np.outer(c, c) + (r * r / (d + 2)) * np.eye(d))
        return MomentSummary(vol, c.copy(), cov)
    V = to_vrep(K)
    if V._moments_cache is None:
        V._moments_cache = _polytope_moments(V)
    return V._moments_cache


def _polytope_moments(K: ConvexBody) -> MomentSummary:
    simplices = triangulate(K)
    d = simplices.shape[2]
    vols = _simplex_volumes(simplices)
    vol = float(vols.sum())
    if vol <= 0:
        raise GeometryError("degenerate body has zero volume")
    centroids = simplices.mean(axis=1)
    centroid = (vols[:, None] * centroids).sum(axis=0) / vol
    # int_S x x^T dx = vol_S / ((d+1)(d+2)) * (sum_i v_i v_i^T + s s^T), s = sum_i v_i
    s = simplices.sum(axis=1)
    outer_sum = np.einsum("sia,sib->sab", simplices, simplices)
    outer_s = np.einsum("sa,sb->sab", s, s)
    cov = np.einsum("s,sab->ab", vols, outer_sum + outer_s) / ((d + 1) * (d + 2))
    cov = 0.5 * (cov + cov.T)
    centroid.setflags(write=False)
    cov.setflags(write=False)
    return MomentSummary(vol, centroid, cov)


# boundary simplices per block of `wedge_moment` when rows before the last
# split them; each split multiplies a block by at most C(d, d/2)
_WEDGE_BLOCK = 512


def wedge_moment(K: ConvexBody, R, q: int = 0, normals=()) -> float:
    """Integral of <R[-1], x>^q over L cap W, W = {x : <r, x> >= 0 for each row r of R}.

    K is a polytope, q >= 0 an integer and L the section of K by the
    orthogonal complement of the orthonormal rows ``normals``, K itself when
    there are none; q = 0 gives the wedge volume. Every facet of W lies in a
    hyperplane through 0, so the integral is the sum over K's boundary
    simplices D of sign(b_D) times the integral over the simplex
    conv(0, D) cap W, b_D the offset of D's facet; this holds wherever the
    origin is. Each normal first slices the simplices down to their faces in
    its hyperplane (`_slice`), which the same sum turns into L. Each row
    before the last splits the simplices it crosses (`_split_positive`). The
    last row only weights each piece by the part of its cone from 0 on the
    row's positive side, which depends on the vertex values alone
    (`_positive_fraction`). The pieces grow quickly with the number of rows,
    so wedges with many facets are better cut by a halfspace intersection.
    """
    V = to_vrep(K)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    simplices, weights = _cone_simplices(V)
    block = _WEDGE_BLOCK if len(R) + len(normals) > 1 else len(simplices)
    total = 0.0
    for s in range(0, len(simplices), block):
        pts, w = simplices[s:s + block], weights[s:s + block]
        for nu in normals:
            pts, w = _slice(pts, w, nu)
        for r in R[:-1]:
            pts, w, _ = _split_positive(pts, w, r)
        total += float(w @ _positive_fraction(pts @ R[-1], q))
    # a d-simplex with vertices 0, v_1..v_d has integral |det| q! / (d + q)! h_q(<r, v_i>)
    return total * math.factorial(q) / math.factorial(V.dim - len(normals) + q)


def _cone_simplices(V: ConvexBody):
    """V's boundary simplices (S, d, d) and their cone weights sign(b) |det|, cached on V."""
    if V._cone_cache is None:
        bd = boundary(V)
        simplices = V.vertices[bd.simplices]
        weights = np.sign(bd.b) * np.abs(np.linalg.det(simplices))
        simplices.setflags(write=False)
        weights.setflags(write=False)
        V._cone_cache = simplices, weights
    return V._cone_cache


def _split_positive(pts: np.ndarray, w: np.ndarray, r: np.ndarray):
    """The pieces (pts, w, c) of the simplices ``pts`` (weights ``w``) where c = <r, x> >= 0.

    A simplex with vertices v_i (value c_i > 0) and v_j (c_j < 0), i and j
    its largest and smallest values, is split at the crossing point
    x_ij = (c_i v_j - c_j v_i) / (c_i - c_j), whose value is set to exactly
    0: x_ij replaces v_j in one child and v_i in the other, whose
    determinants are the fractions c_i / (c_i - c_j) and -c_j / (c_i - c_j)
    of the parent's, so nothing cancels.
    """
    c = pts @ r
    done_pts, done_w, done_c = [pts[:0]], [w[:0]], [c[:0]]
    while len(pts):
        inside = np.all(c >= 0, axis=1)
        done_pts.append(pts[inside])
        done_w.append(w[inside])
        done_c.append(c[inside])
        mixed = ~inside & np.any(c > 0, axis=1)
        pts, c, w = pts[mixed], c[mixed], w[mixed]
        rows = np.arange(len(pts))
        i, j = c.argmax(axis=1), c.argmin(axis=1)
        ci, cj = c[rows, i], c[rows, j]
        gap = ci - cj
        x = (ci[:, None] * pts[rows, j] - cj[:, None] * pts[rows, i]) / gap[:, None]
        keep_i, keep_j = pts.copy(), pts
        keep_i[rows, j] = x
        keep_j[rows, i] = x
        c_i, c_j = c.copy(), c
        c_i[rows, j] = 0.0
        c_j[rows, i] = 0.0
        pts = np.concatenate([keep_i, keep_j])
        c = np.concatenate([c_i, c_j])
        w = np.concatenate([w * (ci / gap), w * (-cj / gap)])
    return np.concatenate(done_pts), np.concatenate(done_w), np.concatenate(done_c)


def _slice(pts: np.ndarray, w: np.ndarray, nu: np.ndarray):
    """The faces in nu^perp (nu a unit vector) of the cones from 0 over the simplices ``pts``.

    A piece that `_split_positive` keeps on the side <nu, x> >= 0 meets
    nu^perp in a face of full dimension only when exactly one of its values
    c_+ is positive; the others are exactly 0, crossings included. That
    face, with 0, is the base of the piece's cone, of height c_+, so its
    weight is w / c_+. Faces the hyperplane holds whole are counted once,
    from the positive side.
    """
    pts, w, c = _split_positive(pts, w, nu)
    one = np.count_nonzero(c, axis=1) == 1
    pts, w, c = pts[one], w[one], c[one]
    S, d, n = pts.shape
    return pts[c == 0].reshape(S, d - 1, n), w / c.max(axis=1)


def _positive_fraction(c: np.ndarray, q: int = 0) -> np.ndarray:
    """For simplices with vertex values c (S, d), the part of each cone from 0 where the value is >= 0.

    At q = 0 it is the total weight of the pieces `_split_positive` keeps;
    at q > 0 each kept piece counts with h_q of its vertex values instead of
    1, h_q the complete homogeneous polynomial of degree q (Baldoni, Berline,
    De Loera, Koeppe and Vergne, "How to integrate a polynomial over a
    simplex", Math. Comp. 2011). The split pairs the largest positive value
    left with the most negative one, so for positive values
    p_1 >= ... >= p_a and negative ones n_1 <= ... <= n_b (zeros drop out)
    the part is phi(1, 1) of the recursion
    phi(s, t) = (p_s phi(s, t+1) - n_t phi(s+1, t)) / (p_s - n_t),
    phi(s, b+1) = h_q(p_s, ..., p_a), phi(a+1, t) = 0. Its weights are the
    split's own: >= 0 and summing to 1, so nothing cancels. Padding p and n
    with zeros to length d leaves every phi(1, 1) unchanged.
    """
    frac = np.zeros(len(c))
    inside = np.all(c >= 0, axis=1)
    frac[inside] = _suffix_h(c[inside].T, q)[0]
    mixed = np.any(c > 0, axis=1) & np.any(c < 0, axis=1)
    # row s of p and n holds p_s and n_s of each simplex with both signs
    p = np.sort(np.maximum(c[mixed], 0.0), axis=1)[:, ::-1].T.copy()
    n = np.sort(np.minimum(c[mixed], 0.0), axis=1).T.copy()
    d = c.shape[1]
    phi = _suffix_h(p, q)  # row s: phi(s, t + 1), overwritten by phi(s, t)
    phi[d] = 0.0
    for t in reversed(range(d)):
        for s in reversed(range(d)):
            gap = p[s] - n[t]  # 0 only where both are padding, a state no weight reaches
            phi[s] = (p[s] * phi[s] - n[t] * phi[s + 1]) / np.where(gap > 0, gap, 1.0)
    frac[mixed] = phi[0]
    return frac


def _suffix_h(x: np.ndarray, q: int) -> np.ndarray:
    """Row s of the result is h_q(x_s, ..., x_d-1), for values x (d, S); row d is h_q() (1 or 0)."""
    h = np.zeros((len(x) + 1, q + 1, x.shape[1]))
    h[:, 0] = 1.0
    for s in reversed(range(len(x))):
        h[s] = h[s + 1]
        for j in range(1, q + 1):
            h[s, j] += x[s] * h[s, j - 1]
    return h[:, q]


def volume(K: ConvexBody) -> float:
    return moments(K).volume


def centroid(K: ConvexBody) -> np.ndarray:
    return moments(K).centroid


_SUPPORTED_P = (0, 1, 2, 3, 4)


def moment_p(K: ConvexBody, u, p: int) -> float:
    """Exact integral of <x, u>^p over a polytope, p in {0,...,4}."""
    if p not in _SUPPORTED_P:
        raise GeometryError(f"unsupported moment degree p={p}")
    u = np.asarray(u, dtype=float)
    simplices = triangulate(K)
    d = simplices.shape[2]
    vols = _simplex_volumes(simplices)
    if p == 0:
        return float(vols.sum())
    c = simplices @ u  # (S, d+1) vertex values of the functional
    # complete homogeneous symmetric polynomial h_p of the vertex values
    S = c.shape[0]
    h = np.zeros((S, p + 1))
    h[:, 0] = 1.0
    for i in range(c.shape[1]):
        for j in range(1, p + 1):
            h[:, j] += c[:, i] * h[:, j - 1]
    coef = math.factorial(d) * math.factorial(p) / math.factorial(d + p)
    return float(coef * (vols * h[:, p]).sum())


def bounding_box(K: ConvexBody):
    if isinstance(K, Ball):
        return K.center - K.radius, K.center + K.radius
    V = to_vrep(K).vertices
    return V.min(axis=0), V.max(axis=0)


def monte_carlo_volume(K: ConvexBody, N: int, seed: int):
    """Rejection-sampling volume estimate and its binomial standard error."""
    if N < 1000:
        raise GeometryError("need at least 1000 Monte Carlo samples")
    lo, hi = bounding_box(K)
    box_vol = float(np.prod(hi - lo))
    gen = _rng.generator(seed)
    pts = lo + gen.random((N, len(lo))) * (hi - lo)
    frac = float(contains_many(K, pts).mean())
    est = frac * box_vol
    stderr = box_vol * math.sqrt(max(frac * (1 - frac), 1.0 / N) / N)
    return est, stderr


def centered_second_moment(K: ConvexBody) -> np.ndarray:
    """Second-moment matrix about the centroid."""
    m = moments(K)
    return m.covariance - m.volume * np.outer(m.centroid, m.centroid)


def isotropic_position(K: ConvexBody):
    """Translate the centroid to 0 and whiten the second-moment matrix.

    The whitening matrix is scaled to have determinant 1 so the volume is
    unchanged; the resulting common value of the second moments is recorded
    as the isotropy constant.
    """
    m = moments(K)
    n = len(m.centroid)
    M = m.covariance - m.volume * np.outer(m.centroid, m.centroid)
    w, Q = np.linalg.eigh(M)
    if np.any(w <= 1e-14 * max(1.0, w.max())):
        raise GeometryError("second-moment matrix is not positive definite")
    inv_sqrt = Q @ np.diag(w**-0.5) @ Q.T
    scale = float(np.prod(w) ** (1.0 / (2 * n)))  # det(T) = 1
    T = scale * inv_sqrt
    body = affine_map(translate(K, -m.centroid), T)
    transform = IsotropicTransform(T, -T @ m.centroid, scale * scale)
    return body, transform

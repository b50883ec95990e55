"""Exact volumes, centroids and moments of polytopes via triangulation.

Each full-dimensional polytope has one fan (`_fan`) over its cached boundary
simplices (`geometry.boundary`): the cones from 0 while 0 lies in it, from
its vertex average otherwise, where the cones from 0 cancel. Per-simplex
closed forms on that fan give volume, centroid, second moments and
arbitrary integer moments of a linear functional. Wedge moments, the
integrals of <r, x>^q over K cap {R x >= 0} with r the last row of R, come
from the same boundary simplices, always coned from the origin: hyperplanes
through 0 slice them down to the cones of a section of K, building only the
faces they keep (`_slice`), the hyperplanes of the rows before the last
split them, and the last row weights each piece by an exact recursion on
its vertex values.  At q = 0 they are wedge volumes.  One call cuts a stack of wedges of one body:
the vertex values of many wedges go through one recursion, in blocks of
about 1 MB, and a wedge R and its negative -R share one split, so a
direction grid of halfspaces or a part-1 pair costs one pass over the cones.
`sections` slices a simplicial K's cones by every normal for the ray moments
of section functions at m >= 2, and for their values f(x) (`sections.section_volume`),
a wedge moment of K - x by a zero row, whose wedge is the whole space, so
the call gives the section's volume; and once for each central hyperplane
section body of a simplicial polytope, whose faces and weights become that
section's own boundary and cone simplices. Non-simplicial bodies and
segments, where a halfspace intersection or an interval measured faster,
do not slice.  The convexified
section integrals of `intersection_bodies` take a section's fan
(`triangulate`) as it is.
A body's volume, moments and polynomial moments along one direction are
read from that one fan (`body_volume`: its weights over d!, a ball's closed
form; `moments`; `moment_p`), so a body that contains 0 takes no
determinant beyond the one pass of its cones, which its wedge cuts share.
A seeded Monte Carlo estimator provides an independent cross-check, and the
isotropic-position transform whitens the centered second-moment matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .geometry import (
    Ball,
    ConvexBody,
    GeometryError,
    _read_only,
    affine_map,
    boundary,
    contains_many,
    to_vrep,
    translate,
    unit_ball_volume,
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


def _fan(V: ConvexBody):
    """(apex, simplices, weights): V's one fan, over its cached boundary simplices.

    The apex is 0 while no cone weight of `_cone_simplices` is negative, and
    the simplices and weights are then the cached arrays themselves. With 0
    outside V the cones from 0 cancel (at a shift of 1e4 on a 6-D body their
    sum loses 1e-8 relative), so the apex is the vertex average and the
    weights |det(D - apex)| are >= 0. The simplices (S, d, d) are relative to
    the apex, and a weight is d! times its simplex's volume.
    """
    simplices, weights = _cone_simplices(V)
    if weights.min() >= 0:
        return np.zeros(V.dim), simplices, weights
    apex = V.vertices.mean(axis=0)
    simplices = simplices - apex
    return apex, simplices, np.abs(np.linalg.det(simplices))


def triangulate(K: ConvexBody):
    """Simplices (S, d+1, d) of the polytope's fan (`_fan`), apex first.

    The fan is over the cached boundary simplices, in R^1 the two end
    points; GeometryError when the polytope is degenerate or its boundary
    simplices do not close up (`geometry.boundary`).
    """
    V = to_vrep(K)
    facets = _cone_simplices(V)[0]
    return np.concatenate([np.broadcast_to(_fan(V)[0], (len(facets), 1, V.dim)), facets], axis=1)


def moments(K: ConvexBody) -> MomentSummary:
    """Exact volume, centroid and second-moment matrix of a polytope or ball.

    A polytope's moments are read from its fan (`_fan`), so a body that
    contains 0 takes no determinant beyond its cached cones, and the volume
    is `body_volume`'s to the bit. They are computed once and cached on the
    polytope; their arrays are read-only.
    """
    if isinstance(K, Ball):
        d, r, c = K.dim, K.radius, K.center
        vol = body_volume(K)
        cov = vol * (np.outer(c, c) + (r * r / (d + 2)) * np.eye(d))
        return MomentSummary(vol, c.copy(), cov)
    V = to_vrep(K)
    if V._moments_cache is None:
        V._moments_cache = _polytope_moments(V)
    return V._moments_cache


def _polytope_moments(V: ConvexBody) -> MomentSummary:
    apex, simplices, weights = _fan(V)
    d, scale = V.dim, math.factorial(V.dim)
    vol = float(weights.sum()) / scale
    if vol <= 0:
        raise GeometryError("degenerate body has zero volume")
    # about the apex, a simplex with vertices 0, y_1..y_d and s = sum_i y_i has
    # int y = vol_S s / (d+1) and int y y^T = vol_S (sum_i y_i y_i^T + s s^T) / ((d+1)(d+2)),
    # vol_S its weight over d!, divided out once at the end
    s = simplices.sum(axis=1)
    first = weights @ s / ((d + 1) * scale)
    second = (np.einsum("s,sia,sib->ab", weights, simplices, simplices)
              + np.einsum("s,sa,sb->ab", weights, s, s)) / ((d + 1) * (d + 2) * scale)
    # about 0, int x x^T = int y y^T + apex (int y)^T + (int y) apex^T + vol apex apex^T,
    # the middle terms from the symmetric part of 2 apex (int y)^T
    cov = second + np.outer(apex, 2 * first + vol * apex)
    return MomentSummary(vol, _read_only(apex + first / vol), _read_only(0.5 * (cov + cov.T)))


# boundary simplices per block of `wedge_moment` when rows before the last
# split them; each split multiplies a block by at most C(d, d/2)
_WEDGE_BLOCK = 512

# vertex values per `_positive_fraction` call of `wedge_moment`: one call takes
# as many wedges as the block's simplices fit, which bounds its temporaries
# near 1 MB for a grid of single-row wedges of any size; split pieces can
# exceed it, but they are held anyway
_VALUE_BLOCK_ELEMENTS = 1 << 17


def wedge_moment(K: ConvexBody, R, q: int = 0, normals=()):
    """Integral of <R[-1], x>^q over L cap W, W = {x : <r, x> >= 0 for each row r of R}.

    K is a polytope, q >= 0 an integer and L the section of K by the
    orthogonal complement of the orthonormal rows ``normals``, K itself when
    there are none; q = 0 gives the wedge volume. R is one wedge (r, n),
    which gives a float, or a stack of m wedges of r rows each (m, r, n),
    which gives one value per wedge in an (m,) array. Every facet of W lies
    in a hyperplane through 0, so the integral is the sum over K's boundary
    simplices D of sign(b_D) times the integral over the simplex
    conv(0, D) cap W, b_D the offset of D's facet; this holds wherever the
    origin is. Each normal first slices the simplices down to their faces in
    its hyperplane (`_slice`), which the same sum turns into L. Each row
    before the last splits the simplices it crosses (`_split`); a wedge whose
    first row is the negative of another wedge's takes the other side of
    one split by that row's fixed sign (`_wedge_pieces`), so R and -R cost
    one split, and a stack gives the bits of its wedges cut alone. The last
    row only weights each piece by the part of its cone from 0 on the row's
    positive side, which depends on the vertex values alone
    (`_positive_fraction`), taken for as many wedges in one call as
    `_VALUE_BLOCK_ELEMENTS` allows; each wedge's sum over its pieces stays
    its own. The pieces grow quickly with the number of rows, so wedges
    with many facets are better cut by a halfspace intersection. Each normal multiplies the pieces too, by up to
    C(d - 2, d/2 - 1) per simplex, and a polytope whose facets are cut into
    many simplices has many to slice. `sections` slices a simplicial body
    by normals here for the ray moments at m >= 2 and for the values of Brunn's function
    (`sections.section_volume`): there R is one zero row, so W is the whole
    space, h_0 = 1 and the call is the volume of L. Its section bodies
    slice K's cones once themselves (`sections._sliced_section`) and seed
    the section's cone simplices, so their wedges are cut here with no
    normal.
    """
    stack = np.array(R, dtype=float, ndmin=3)
    simplices, weights = _cone_simplices(to_vrep(K))
    tol = _in_plane_tol(K)
    block = _WEDGE_BLOCK if stack.shape[1] + len(normals) > 1 else len(simplices)
    total = np.zeros(len(stack))
    for s in range(0, len(simplices), block):
        pts, w = simplices[s:s + block], weights[s:s + block]
        for nu in normals:
            pts, w, _ = _slice(pts, w, nu, tol)
        per_call = max(1, _VALUE_BLOCK_ELEMENTS // max(1, pts.shape[0] * pts.shape[1]))
        total += _weigh(_wedge_pieces(pts, w, stack), q, per_call)
    # a d-simplex with vertices 0, v_1..v_d has integral |det| q! / (d + q)! h_q(<r, v_i>)
    total = total * math.factorial(q) / math.factorial(simplices.shape[2] - len(normals) + q)
    return total if np.ndim(R) == 3 else float(total[0])


def _wedge_pieces(pts: np.ndarray, w: np.ndarray, stack: np.ndarray):
    """Per wedge R of the stack, (w, c) of the pieces of the simplices ``pts`` on the
    positive side of its rows before the last: their weights, and their vertex values along R[-1].

    The first row splits by whichever of +-R[0] has its first nonzero entry
    positive, and R takes that split's side, so a wedge cut alone or in a
    stack with its negative gets the same pieces, in the same order.
    """
    sides = {}  # first row -> the pieces on its positive side
    for R in stack:
        key = (R[0] + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0
        if len(R) > 1 and key not in sides:
            flip = R[0][R[0] != 0][:1].sum() < 0  # the sign of the first nonzero entry
            pos, neg = _split(pts, w, 0.0 - R[0] if flip else R[0])
            sides[key], sides[(0.0 - R[0]).tobytes()] = (neg, pos) if flip else (pos, neg)
        piece_pts, piece_w = sides.get(key, (pts, w))
        for r in R[1:-1]:
            (piece_pts, piece_w), _ = _split(piece_pts, piece_w, r)
        yield piece_w, piece_pts @ R[-1]


def _weigh(pieces, q: int, per_call: int) -> np.ndarray:
    """w @ `_positive_fraction`(c, q) for each (w, c) of ``pieces``, with one call per ``per_call`` of them."""
    out = []
    while group := list(itertools.islice(pieces, per_call)):
        frac = _positive_fraction(np.concatenate([c for _, c in group]), q)
        ends = np.cumsum([len(w) for w, _ in group])
        out += [w @ frac[e - len(w):e] for (w, _), e in zip(group, ends)]
    return np.array(out)


def _cone_simplices(V: ConvexBody):
    """V's boundary simplices (S, d, d) and their cone weights sign(b) |det|,
    b the offset of each simplex's facet row (`Boundary.facet`), cached on V.

    A sliced section (`sections.section`) comes with them already cached.
    """
    if V._cone_cache is None:
        bd = boundary(V)
        simplices = V.vertices[bd.simplices]
        weights = np.sign(V.b[bd.facet]) * np.abs(np.linalg.det(simplices))
        simplices.setflags(write=False)
        weights.setflags(write=False)
        V._cone_cache = simplices, weights
    return V._cone_cache


def body_volume(K: ConvexBody | None) -> float:
    """|K|: a polytope's fan weights summed over d! (`_fan`), a ball's closed
    form, and 0 for None (an empty section).

    While 0 lies in K the weights are the cached cone weights every wedge cut
    of K reads, and a sliced section (`sections.section`) comes with them, so
    a volume read takes no determinant twice; with 0 outside K they are
    those of the vertex-average fan, which has no cancellation.
    """
    if K is None:
        return 0.0
    if isinstance(K, Ball):
        return unit_ball_volume(K.dim) * K.radius**K.dim
    return float(_fan(to_vrep(K))[2].sum()) / math.factorial(K.dim)


def _split(pts: np.ndarray, w: np.ndarray, r: np.ndarray):
    """The pieces ((pts, w), (pts, w)) of the simplices ``pts`` (weights ``w``) where <r, x> >= 0 and where <r, x> <= 0.

    A simplex with vertices v_i (value c_i > 0) and v_j (c_j < 0), i and j
    its largest and smallest values, is split at the crossing point
    x_ij = (c_i v_j - c_j v_i) / (c_i - c_j), whose value is set to exactly
    0: x_ij replaces v_j in one child and v_i in the other, whose
    determinants are the fractions c_i / (c_i - c_j) and -c_j / (c_i - c_j)
    of the parent's, so nothing cancels. The crossings, children and
    fractions of the split by -r are the same, so its positive side is this
    split's negative side, in another order.
    """
    c = pts @ r
    sides = [(pts[:0], w[:0])], [(pts[:0], w[:0])]
    while len(pts):
        for side, held in zip(sides, (np.all(c >= 0, axis=1), np.all(c <= 0, axis=1))):
            side.append((pts[held], w[held]))
        mixed = np.any(c > 0, axis=1) & np.any(c < 0, axis=1)
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
    return tuple(tuple(map(np.concatenate, zip(*side))) for side in sides)


def _in_plane_tol(K: ConvexBody) -> float:
    """The vertex value within which `_slice` puts a vertex of the polytope K
    in its hyperplane: 1e-13 of K's largest coordinate, some 500 times the
    rounding of a vertex that lies there, so a flat that holds a face of K
    holds its vertices too."""
    return 1e-13 * float(np.abs(K.vertices).max())


def _slice(pts: np.ndarray, w: np.ndarray, nu: np.ndarray, tol: float):
    """The faces in nu^perp (nu a unit vector) of the cones from 0 over the simplices ``pts``.

    A simplex with P positive values p_1 >= ... >= p_P (vertices a_s) and N
    negative ones n_1 <= ... <= n_N (vertices b_t), sorted as
    `_positive_fraction` sorts them, meets nu^perp in its zero vertices
    joined with a copy of Delta_{P-1} x Delta_{N-1}, whose vertices are the
    crossings x_st = (p_s b_t - n_t a_s) / (p_s - n_t). `_split` at x_st
    sends a piece at (s, t) to (s, t + 1) with the fraction
    p_s / (p_s - n_t) of its weight and to (s + 1, t) with
    -n_t / (p_s - n_t). The pieces with one positive vertex a_P left are the
    monotone lattice paths from (1, 1) that leave (P, N) to (P, N + 1):
    C(P + N - 2, P - 1) of them, the staircase triangulation of the product
    of simplices (De Loera, Rambau and Santos, *Triangulations*, 2010,
    Sec. 6.2). Each path's face is the zero vertices and the crossings it
    visits; with 0 it is the base of its piece's cone, of height p_P, so its
    weight is w times the fractions along the path over p_P. Only those
    faces are built. A value within ``tol`` of 0 counts as 0
    (`_in_plane_tol`). A simplex with one positive value and the rest zero
    is its own face; faces the hyperplane holds whole are counted once,
    from the positive side, so a caller slicing by a hyperplane that
    supports the body orients nu toward it (`sections._slicing_normals`).

    Returns (faces, weights, ends). ``ends`` (F, d - 1, 2) holds, for each
    face vertex, the indices into pts.reshape(-1, n) of the two simplex
    vertices whose crossing it is (a zero vertex twice), so a face's
    simplex is ends[f, 0, 0] // d.
    """
    d, n = pts.shape[1:]
    c = pts @ nu
    c[np.abs(c) <= tol] = 0.0
    order = np.argsort(-c, axis=1, kind="stable")  # positives, zeros, negatives from the top
    slots = order + d * np.arange(len(pts))[:, None]
    pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    c = np.take_along_axis(c, order, axis=1)
    pos, neg = np.count_nonzero(c > 0, axis=1), np.count_nonzero(c < 0, axis=1)
    faces, weights, ends = [pts[:0, 1:]], [w[:0]], [slots[:0, 1:, None].repeat(2, axis=2)]
    for P, N in set(zip(pos.tolist(), neg.tolist())):
        if P == 0 or (N == 0 and P > 1):
            continue  # no face of full dimension in nu^perp
        group = (pos == P) & (neg == N)
        x, cg, o, G = pts[group], c[group], slots[group], np.count_nonzero(group)
        a, p = x[:, :P], cg[:, :P]
        b, m = x[:, ::-1][:, :N], cg[:, ::-1][:, :N]
        gap = p[:, :, None] - m[:, None, :]  # (G, P, N)
        cross = (p[:, :, None, None] * b[:, None] - m[:, None, :, None] * a[:, :, None]) / gap[..., None]
        fractions = np.stack([-m[:, None, :] / gap, p[:, :, None] / gap], axis=1).reshape(G, -1)
        states, steps = _lattice_paths(P, N)
        zeros = np.broadcast_to(x[:, None, P:d - N], (G, len(states), d - P - N, n))
        faces.append(np.concatenate([zeros, cross.reshape(G, P * N, n)[:, states]],
                                    axis=2).reshape(-1, d - 1, n))
        weights.append((w[group, None] * fractions[:, steps].prod(axis=2) / p[:, -1:]).ravel())
        pairs = np.stack(np.broadcast_arrays(o[:, :P, None], o[:, ::-1][:, None, :N]), axis=3)
        zero_ends = np.broadcast_to(o[:, None, P:d - N, None], (G, len(states), d - P - N, 2))
        ends.append(np.concatenate([zero_ends, pairs.reshape(G, P * N, 2)[:, states]],
                                   axis=2).reshape(-1, d - 1, 2))
    return np.concatenate(faces), np.concatenate(weights), np.concatenate(ends)


@functools.cache
def _lattice_paths(P: int, N: int):
    """(states, steps) of the monotone lattice paths of `_slice`, one row per path.

    A path from (1, 1) takes P - 1 steps s -> s + 1 and N - 1 steps
    t -> t + 1 in any order, then t -> t + 1 from (P, N). ``states`` indexes
    the crossings x_st it leaves in a (P, N) array, and ``steps`` the
    fraction of each step in a (2, P, N) array: first those of the steps
    s -> s + 1, then those of the steps t -> t + 1.
    """
    ups = list(itertools.combinations(range(P + N - 2), P - 1))
    up = np.zeros((len(ups), P + N - 1), dtype=int)
    for row, cols in zip(up, ups):
        row[list(cols)] = 1
    s = np.cumsum(up, axis=1) - up
    states = s * N + np.arange(P + N - 1) - s
    return states, states + P * N * (1 - up)


def _positive_fraction(c: np.ndarray, q: int = 0) -> np.ndarray:
    """For simplices with vertex values c (S, d), the part of each cone from 0 where the value is >= 0.

    At q = 0 it is the total weight of the pieces on the positive side of
    `_split`; at q > 0 each such piece counts with h_q of its vertex values
    instead of 1, h_q the complete homogeneous polynomial of degree q
    (Baldoni, Berline, De Loera, Koeppe and Vergne, "How to integrate a
    polynomial over a simplex", Math. Comp. 2011). The split pairs the largest positive value
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


def _centred(K: ConvexBody, x: np.ndarray) -> bool:
    """Whether x, K's centroid or a projection of it, is 0 to 1e-9 times max(1, |K|^(1/n))."""
    return bool(np.linalg.norm(x) <= 1e-9 * max(1.0, moments(K).volume ** (1.0 / K.dim)))


def volume(K: ConvexBody) -> float:
    return moments(K).volume


def centroid(K: ConvexBody) -> np.ndarray:
    return moments(K).centroid


def moment_p(K: ConvexBody, u, p: int) -> float:
    """Exact integral of <x, u>^p over a polytope, p >= 0 an integer.

    It is the sum over K's fan (`_fan`) of its weights, d! times each
    simplex's volume, times p! / (d + p)! h_p of the simplex's vertex values
    <u, x>, apex and boundary vertices (Baldoni et al., see
    `_positive_fraction`). While 0 lies in K the fan is K's cached cones,
    the ones every volume read and wedge cut of K takes, and the apex's
    values are zeros; with 0 outside K the vertex-average fan keeps the sum
    from cancelling.
    """
    if p < 0 or p != int(p):
        raise GeometryError(f"moment degree p={p} is not a nonnegative integer")
    apex, simplices, weights = _fan(to_vrep(K))
    u, p = np.asarray(u, dtype=float), int(p)
    values = np.vstack([np.zeros(len(simplices)), (simplices @ u).T]) + apex @ u  # apex first
    h = _suffix_h(values, p)[0]
    return float(weights @ h) * math.factorial(p) / math.factorial(K.dim + p)


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
    w, Q = np.linalg.eigh(centered_second_moment(K))
    if np.any(w <= 1e-14 * max(1.0, w.max())):
        raise GeometryError("second-moment matrix is not positive definite")
    inv_sqrt = Q @ np.diag(w**-0.5) @ Q.T
    scale = float(np.prod(w) ** (1.0 / (2 * n)))  # det(T) = 1
    T = scale * inv_sqrt
    body = affine_map(translate(K, -m.centroid), T)
    transform = IsotropicTransform(T, -T @ m.centroid, scale * scale)
    return body, transform

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
its vertex values, run per sign pattern.  No cut reads a coordinate, so
the slices and splits carry each vertex's values along the normals and
rows still to come, one product per row at the start of a block.  At
q = 0 they are wedge volumes.  One call cuts a stack of wedges of one body,
of one or two rows each: the vertex values of many wedges go through one
recursion, in blocks of about 1 MB, and a wedge R and its negative -R share
one split, so a direction grid of halfspaces, a part-1 pair and part 2's
row together cost one pass over the cones (`verify.checks_for_body`).
`sections` slices a simplicial K's cones by a basis of S^perp wherever it
needs K cap S, S a flat through 0 of dimension >= 2: for the cone cuts of
up to two rows (`sections._cut_volume`) at every codimension, for the ray
moments of section functions at m >= 2, and for their values f(x)
(`sections.section_volume`), a wedge moment of K - x by a zero row, whose
wedge is the whole space, so the call gives the section's volume; and it
slices once for each central hyperplane section body of a simplicial
polytope, whose faces and weights become that section's own boundary and
cone simplices. Non-simplicial bodies and segments, where a halfspace
intersection or an interval measured faster, do not slice
(`sections._slices_cones`).  The convexified
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
    support,
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


# boundary simplices per block of `wedge_moment` for the wedges that a row
# before the last or a normal cuts; each split multiplies a block by at most
# C(d, d/2)
_WEDGE_BLOCK = 512

# vertex values per `_positive_fraction` call of `wedge_moment`: one call takes
# as many pieces as fit, so a grid of single-row wedges of any size is weighed
# in blocks of about 1 MB, whose temporaries reach about 3 MB (the corpus
# battery's one pass on the 6-cube's 1440 cones, its 15-row Grünbaum grid
# and two two-row wedges, peaks at 3.3 MB); a split piece can exceed it, but
# it is held anyway
_VALUE_BLOCK_ELEMENTS = 1 << 17


def wedge_moment(K: ConvexBody, R, q: int = 0, normals=()):
    """Integral of <R[-1], x>^q over L cap W, W = {x : <r, x> >= 0 for each row r of R}.

    K is a polytope, q >= 0 an integer and L the section of K by the
    orthogonal complement of the orthonormal rows ``normals``, K itself when
    there are none; q = 0 gives the wedge volume. R is one wedge (r, n),
    which gives a float, or a stack of m wedges, which gives one value per
    wedge in an (m,) array: an (m, r, n) array, or a list of m wedges
    (r_i, n) whose row counts may differ, so one call cuts a direction grid
    of halfspaces and wedges of two rows together (`_wedge_stack`). Every
    facet of W lies in a hyperplane through 0, so the integral is the sum
    over K's boundary simplices D of sign(b_D) times the integral over the
    simplex conv(0, D) cap W, b_D the offset of D's facet; this holds
    wherever the origin is. Each normal first slices the simplices down to
    their faces in its hyperplane (`_slice`), which the same sum turns into
    L. Each row before the last splits the simplices it crosses (`_split`);
    a wedge whose first row is the negative of another wedge's takes the
    other side of one split by that row's fixed sign (`_wedge_pieces`), so R
    and -R cost one split. The last row only weights each piece by the part
    of its cone from 0 on the row's positive side, which depends on the
    vertex values alone (`_positive_fraction`, simplex by simplex), taken
    for the pieces of all wedges in as few calls as `_VALUE_BLOCK_ELEMENTS`
    allows; each wedge's sum over its pieces stays its own. A wedge of one
    row with no normal takes all the cones at once, any other wedge takes
    them in `_WEDGE_BLOCK` blocks, so a stack gives the bits of its wedges
    cut alone; where one block holds all the cones, every wedge of the stack
    shares one pass and the same `_positive_fraction` calls.

    No cut reads a vertex's coordinates, only its values along the normals
    and rows still to come, and a crossing's values are interpolated as its
    coordinates would be. So each block takes one product ``pts @ r`` per
    normal and per distinct row up to sign (`_rows_up_to_sign`), and the
    slices and splits carry those values, not the n coordinates: a two-row
    cut carries one value per vertex. The pieces grow quickly with the
    number of rows, so wedges with many facets are better cut by a halfspace
    intersection. Each normal multiplies the pieces too, by up to
    C(d - 2, d/2 - 1) per simplex, and a polytope whose facets are cut into
    many simplices has many to slice. `sections` slices a simplicial body
    by normals here for its cone cuts of up to two rows at every
    codimension (`sections._cut_volume`), for the ray moments at m >= 2
    and for the values of Brunn's function (`sections.section_volume`):
    there R is one zero row, so W is the whole space, h_0 = 1 and the call
    is the volume of L. Its section bodies slice K's cones once themselves
    (`sections._sliced_section`) and seed the section's cone simplices, so
    their wedges are cut here with no normal. The corpus battery cuts each
    body's whole-space wedges in one call (`verify.checks_for_body`).
    """
    wedges, one = _wedge_stack(R)
    if not wedges:
        return np.zeros(0)
    rows, index, sign = _rows_up_to_sign(wedges)
    simplices, weights = _cone_simplices(to_vrep(K))
    # one pass over all the cones for a wedge of one row and no normal, and
    # for every wedge when one block holds them all; blocks for the others
    at_once = np.array([len(simplices) <= _WEDGE_BLOCK or (len(i) == 1 and not len(normals)) for i in index])
    ids, values = [], []
    for group, block in ((np.flatnonzero(at_once), len(simplices)), (np.flatnonzero(~at_once), _WEDGE_BLOCK)):
        for s in range(0, len(simplices) if len(group) else 0, block):
            pts, w = simplices[s:s + block], weights[s:s + block]
            value = lambda j, pts=pts: pts @ rows[j]  # noqa: E731
            if len(normals):
                # a slice keeps the values of the later normals and of the rows
                X = np.stack([pts @ r for r in (*normals, *rows)], axis=2)
                for _ in normals:
                    X, w = _slice(X[..., 1:], w, X[..., 0], _in_plane_tol(K))
                value = lambda j, X=X: X[..., j]  # noqa: E731
            weighed = _weigh(_wedge_pieces(value, w, group, index, sign), q)
            ids, values = ids + weighed[0], values + weighed[1]
    total = np.bincount(ids, values, minlength=len(wedges))  # each wedge's blocks added in order
    # a d-simplex with vertices 0, v_1..v_d has integral |det| q! / (d + q)! h_q(<r, v_i>)
    total = total * math.factorial(q) / math.factorial(simplices.shape[2] - len(normals) + q)
    return float(total[0]) if one else total


def _wedge_stack(R):
    """(wedges, one): R as a list of wedges, each an (r, n) array, and whether
    R is one wedge.

    A list of 2-D wedges is a stack whatever their row counts, as is an
    (m, r, n) array; anything else is one wedge, so ``[e]`` of a vector e
    is the wedge of one row.
    """
    if isinstance(R, list) and all(np.ndim(W) == 2 for W in R):
        return [np.asarray(W, dtype=float) for W in R], False
    return list(np.array(R, dtype=float, ndmin=3)), np.ndim(R) < 3


def _rows_up_to_sign(wedges: list):
    """(rows, index, sign) of a list of wedges (r_i, n): their distinct rows
    up to sign, each with its first nonzero entry positive, and for row t of
    wedge i the index and sign with R_i[t] = sign[i][t] rows[index[i][t]].

    A value along -r is the negative of one along r to the bit, so a wedge
    and its negative carry the same values.
    """
    flat = np.concatenate(wedges)
    sign = np.where(flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)] < 0, -1.0, 1.0)
    keys = {}  # the bytes of each distinct row, + 0.0 turning -0.0 into 0.0 -> its index
    index = np.array([keys.setdefault(r.tobytes(), len(keys)) for r in flat * sign[:, None] + 0.0])
    ends = np.cumsum([len(W) for W in wedges]).tolist()
    index, sign = ([a[i:j] for i, j in zip([0] + ends, ends)] for a in (index, sign))
    return np.frombuffer(b"".join(keys)).reshape(-1, flat.shape[1]), index, sign


def _wedge_pieces(value, w: np.ndarray, group: list, index: list, sign: list):
    """Per wedge t of ``group``, (t, w, c) of the pieces of a block's
    simplices on the positive side of its rows before the last: their
    weights, and their vertex values along its last row.

    ``value(j)`` gives the simplices' vertex values along the distinct row j
    of `_rows_up_to_sign`, whose ``index`` and ``sign`` give each wedge's
    rows. The first row splits by its distinct row, whose first nonzero entry
    is positive, carrying the values of the later rows of every wedge that
    starts with it or its negative, and a wedge takes that split's side by
    its sign; so a wedge cut alone or in a stack with its negative gets the
    same pieces, in the same order, and the same values.
    """
    sides = {}  # distinct first row -> (its wedges' later rows, its split)
    for t in group:
        i, s = index[t], sign[t]
        if len(i) == 1:
            yield t, w, s[0] * value(i[0])
            continue
        if i[0] not in sides:
            later = np.unique(np.concatenate([j[1:] for j in index if j[0] == i[0]]))
            sides[i[0]] = later, _split(np.stack([value(j) for j in later], axis=2), w, value(i[0]))
        later, split = sides[i[0]]
        X, piece_w = split[int(s[0] < 0)]
        X = X[..., np.searchsorted(later, i[1:])] * s[1:]
        for _ in i[2:]:
            (X, piece_w), _ = _split(X[..., 1:], piece_w, X[..., 0])
        yield t, piece_w, X[..., 0]


def _weigh(pieces, q: int):
    """(wedges, values): for each piece (t, w, c), its wedge t and
    w @ `_positive_fraction`(c, q), with one call for as many pieces as
    `_VALUE_BLOCK_ELEMENTS` vertex values hold (at least one)."""
    wedges, values, group = [], [], []
    for piece in itertools.chain(pieces, [None]):
        if group and (piece is None or sum(c.size for *_, c in group + [piece]) > _VALUE_BLOCK_ELEMENTS):
            frac = _positive_fraction(np.concatenate([c for *_, c in group]), q)
            ends = np.cumsum([len(w) for _, w, _ in group])
            wedges += [t for t, _, _ in group]
            values += [w @ frac[e - len(w):e] for (_, w, _), e in zip(group, ends)]
            group = []
        group += [piece] if piece is not None else []
    return wedges, values


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


def _split(pts: np.ndarray, w: np.ndarray, c: np.ndarray):
    """The pieces ((pts, w), (pts, w)) of the simplices with vertex values ``c``
    (S, d) along a row r (weights ``w``) where <r, x> >= 0 and where <r, x> <= 0.

    ``pts`` (S, d, k) is what each vertex carries: anything affine on the
    simplex, such as its coordinates or its values along later rows
    (`wedge_moment` carries only those). A simplex with vertices v_i
    (value c_i > 0) and v_j (c_j < 0), i and j its largest and smallest
    values, is split at the crossing point, which carries
    (c_i X_j - c_j X_i) / (c_i - c_j) of the payloads X_i and X_j of v_i and
    v_j and whose value is set to exactly 0: it replaces v_j in one child and
    v_i in the other, whose determinants are the fractions c_i / (c_i - c_j)
    and -c_j / (c_i - c_j) of the parent's, so nothing cancels. The
    crossings, children and fractions of the split by -r are the same, so
    its positive side is this split's negative side, in another order.
    """
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
        pts, c = np.concatenate([keep_i, keep_j]), np.concatenate([c_i, c_j])
        w = np.concatenate([w * (ci / gap), w * (-cj / gap)])
    return tuple(tuple(map(np.concatenate, zip(*side))) for side in sides)


def _in_plane_tol(K: ConvexBody) -> float:
    """The vertex value within which `_slice` puts a vertex of the polytope K
    in its hyperplane: 1e-13 of K's largest coordinate, some 500 times the
    rounding of a vertex that lies there, so a flat that holds a face of K
    holds its vertices too."""
    return 1e-13 * float(np.abs(K.vertices).max())


def _slice(pts: np.ndarray, w: np.ndarray, c: np.ndarray, tol: float, ends: bool = False):
    """The faces in nu^perp of the cones from 0 over simplices with vertex
    values ``c`` (S, d) along nu, a unit vector, and weights ``w``.

    ``pts`` (S, d, k) is what each vertex carries, as in `_split`, and each
    face vertex carries its crossing's interpolation of it:
    `sections._sliced_section` passes coordinates, because its faces become
    the section's boundary, and `wedge_moment` only the values along the
    normals and rows still to come. A simplex with P positive values
    p_1 >= ... >= p_P (vertices a_s) and N negative ones n_1 <= ... <= n_N
    (vertices b_t), sorted as `_positive_fraction` sorts them, meets nu^perp
    in its zero vertices joined with a copy of Delta_{P-1} x Delta_{N-1},
    whose vertices are the crossings x_st = (p_s b_t - n_t a_s) / (p_s - n_t). `_split` at x_st
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

    Returns (faces, weights), and with ``ends`` (F, d - 1, 2) as well: for
    each face vertex, the indices into pts.reshape(-1, k) of the two
    simplex vertices whose crossing it is (a zero vertex twice), so a
    face's simplex is ends[f, 0, 0] // d. Only `sections._sliced_section`
    asks for them; building them took about 40% of a slice's time.
    """
    d, k = pts.shape[1:]
    c = np.where(np.abs(c) <= tol, 0.0, c)
    order = np.argsort(-c, axis=1, kind="stable")  # positives, zeros, negatives from the top
    slots = order + d * np.arange(len(pts))[:, None]
    pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    c = np.take_along_axis(c, order, axis=1)
    pos, neg = np.count_nonzero(c > 0, axis=1), np.count_nonzero(c < 0, axis=1)
    out = [pts[:0, 1:]], [w[:0]], [slots[:0, 1:, None].repeat(2, axis=2)]
    for P, N in set(zip(pos.tolist(), neg.tolist())):
        if P == 0 or (N == 0 and P > 1):
            continue  # no face of full dimension in nu^perp
        group = (pos == P) & (neg == N)
        x, cg, G = pts[group], c[group], np.count_nonzero(group)
        a, p = x[:, :P], cg[:, :P]
        b, m = x[:, ::-1][:, :N], cg[:, ::-1][:, :N]
        gap = p[:, :, None] - m[:, None, :]  # (G, P, N)
        cross = (p[:, :, None, None] * b[:, None] - m[:, None, :, None] * a[:, :, None]) / gap[..., None]
        fractions = np.stack([-m[:, None, :] / gap, p[:, :, None] / gap], axis=1).reshape(G, -1)
        vertices, steps, pairs = _lattice_paths(P, N, d)
        out[0].append(np.concatenate([x, cross.reshape(G, P * N, k)], 1).take(vertices, 1).reshape(-1, d - 1, k))
        out[1].append((w[group, None] * fractions[:, steps].prod(axis=2) / p[:, -1:]).ravel())
        if ends:
            out[2].append(slots[group].take(pairs, axis=1).reshape(-1, d - 1, 2))
    return tuple(map(np.concatenate, out[:2 + ends]))


@functools.cache
def _lattice_paths(P: int, N: int, d: int):
    """(vertices, steps, pairs) of the monotone lattice paths of `_slice`, one row per path.

    A path from (1, 1) takes P - 1 steps s -> s + 1 and N - 1 steps
    t -> t + 1 in any order, then t -> t + 1 from (P, N). ``vertices``
    indexes its face's vertices, the d - P - N zero vertices and then the
    crossings x_st it leaves, in the d sorted vertices of a simplex followed
    by its crossings as a (P, N) array; ``pairs`` gives for each the two
    sorted vertices it lies between (a zero vertex twice). ``steps``
    indexes the fraction of each step in a (2, P, N) array: first those of
    the steps s -> s + 1, then those of the steps t -> t + 1.
    """
    ups = list(itertools.combinations(range(P + N - 2), P - 1))
    up = np.zeros((len(ups), P + N - 1), dtype=int)
    for row, cols in zip(up, ups):
        row[list(cols)] = 1
    s = np.cumsum(up, axis=1) - up
    states = s * N + np.arange(P + N - 1) - s
    vertices = np.hstack([np.tile(np.arange(P, d - N), (len(up), 1)), d + states])
    pairs = np.r_[np.c_[np.arange(d), np.arange(d)], np.c_[np.arange(P * N) // N, d - 1 - np.arange(P * N) % N]]
    return vertices, states + P * N * (1 - up), pairs[vertices]


def _positive_fraction(c: np.ndarray, q: int = 0) -> np.ndarray:
    """For simplices with vertex values c (S, d), the part of each cone from 0 where the value is >= 0.

    At q = 0 it is the total weight of the pieces on the positive side of
    `_split`; at q > 0 each such piece counts with h_q of its vertex values
    instead of 1, h_q the complete homogeneous polynomial of degree q
    (Baldoni, Berline, De Loera, Koeppe and Vergne, "How to integrate a
    polynomial over a simplex", Math. Comp. 2011). The split pairs the largest positive value
    left with the most negative one, so for positive values
    p_1 >= ... >= p_P and negative ones n_1 <= ... <= n_N (zeros drop out)
    the part is phi(1, 1) of the recursion
    phi(s, t) = (p_s phi(s, t+1) - n_t phi(s+1, t)) / (p_s - n_t),
    phi(s, N+1) = h_q(p_s, ..., p_P), phi(P+1, t) = 0. Its weights are the
    split's own: >= 0 and summing to 1, so nothing cancels. The simplices
    are grouped by their counts (P, N), as `_slice` groups them, and each
    group runs the P x N states it has, every gap p_s - n_t > 0.
    """
    frac, base = np.zeros(len(c)), c.shape[1] + 1
    code = np.count_nonzero(c > 0, axis=1) * base + np.count_nonzero(c < 0, axis=1)
    inside = code % base == 0  # no negative value: the whole cone
    frac[inside] = _suffix_h(c[inside].T, q)[0]
    for k in np.flatnonzero(np.bincount(code)):
        (P, N), group = divmod(int(k), base), code == k
        if P and N:
            v = np.sort(c[group], axis=1)  # negatives, zeros, positives
            p, n = v[:, :-P - 1:-1].T.copy(), v[:, :N].T.copy()  # row s: p_s, n_s of the group
            phi = _suffix_h(p, q)  # row s: phi(s, t + 1), overwritten by phi(s, t)
            phi[P] = 0.0
            for t in reversed(range(N)):
                for s in reversed(range(P)):
                    phi[s] = (p[s] * phi[s] - n[t] * phi[s + 1]) / (p[s] - n[t])
            frac[group] = phi[0]
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
    """The corners (lo, hi) of K's axis-parallel box, from K's support along -e_i and e_i."""
    E = np.eye(K.dim)
    return np.array([-support(K, -e) for e in E]), np.array([support(K, e) for e in E])


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


def _isotropic_matrix(K: ConvexBody):
    """(T, c, scale): the symmetric whitening matrix T of K's centred second
    moments, scaled to determinant 1, K's centroid c and the scale, so that
    T(K - c) is in isotropic position; GeometryError unless the second-moment
    matrix is positive definite. `isotropic_position` builds that body, and
    part 2 of the main theorem pulls its flat and cone back through T
    instead (`verify.check_main_theorem_part2`)."""
    m = moments(K)
    n = len(m.centroid)
    w, Q = np.linalg.eigh(centered_second_moment(K))
    if np.any(w <= 1e-14 * max(1.0, w.max())):
        raise GeometryError("second-moment matrix is not positive definite")
    inv_sqrt = Q @ np.diag(w**-0.5) @ Q.T
    scale = float(np.prod(w) ** (1.0 / (2 * n)))  # det(T) = 1
    return scale * inv_sqrt, m.centroid, scale


def isotropic_position(K: ConvexBody):
    """Translate the centroid to 0 and whiten the second-moment matrix.

    The whitening matrix (`_isotropic_matrix`) is scaled to have
    determinant 1 so the volume is unchanged; the resulting common value of
    the second moments is recorded as the isotropy constant. The body is an
    affine image of K that shares its boundary (`geometry.affine_map`).
    """
    T, c, scale = _isotropic_matrix(K)
    body = affine_map(translate(K, -c), T)
    return body, IsotropicTransform(T, -T @ c, scale * scale)

"""Sections of bodies by affine flats and polyhedral cones.

Provides the section operation (in the flat's intrinsic coordinates), the
Brunn section-volume function f(x) = |K cap (F + x)|, and cone-section
volumes |K cap (F + C)| by two independent routes: polyhedral intersection
and radial integration over the cone's spherical cross-section.  One rule
(`_slices_cones`) decides whether K cap S, S a flat through 0, is read from
K's cached boundary cones, sliced down to S inside `volume.wedge_moment`,
or from a section body: the cones for a polytope in the whole space and
for a simplicial one at every codimension with dim S >= 2, the body
elsewhere. Every section body is one central `section` call, which alone
picks its route: a hyperplane section of a simplicial polytope is sliced
from K's cached boundary cones, any other a halfspace intersection.  Every
f value is one `section_volume` call, the one place that translates K.
The polyhedral route has one cut, `_cut_volume(K, S, R)` with
S = F + span C (`_cone_flat`): up to two rows it is one wedge moment of
K's cones sliced down to S where the rule allows, with no section body,
qhull call or LP, and a part-1 pair cuts the stack [R, -R] in that one
call; more rows, balls and other polytopes cut the section body. A centred
ball's wedge keeps its solid angle's share of the ball, and every solid
angle is one rule on the cone's rows, the orthant probability of
`_orthant_fraction`.  The ray moments int_0^T t^(p-1) f(t theta) dt of
the radial route are exact for every section profile: radial(K, theta)^p / p
at m = 0; Euler's integral for 2F1 for a ball of any centre; for a
polytope at m = 1 a closed form between the chord's kinks, which are the
ray's crossings with K's cached facet ridges (`geometry.facet_ridges`), and
T from the Fourier-Motzkin rows of those ridges and of the facets parallel
to F, with no projection hulled (`_Chords`); and at m >= 2, per direction
of the section K cap (F + R theta), one cut (`_cut_volume`) of degree
p - 1 at integer p, by the same rule, and a polynomial fit on each knot
interval between its vertex heights at real p (`_knot_moments`).

A polytope keeps one `SectionVolumeFunction` per flat (`section_volume_fn`),
so F^perp, the chord data of `_Chords` and the support projection are built
once per (K, F); a radial query builds only what depends on its cone and
its directions: the arc's kink angles, the directions' facet products,
extents, kinks and chord lengths, and their moments.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, hyp2f1, roots_jacobi

from .geometry import (
    Ball,
    Boundary,
    ConvexBody,
    GEOM_TOL,
    GeometryError,
    PolyhedralCone,
    Polytope,
    Subspace,
    _clearly_interior_origin,
    _complement_basis,
    _halfspace_polytope,
    _read_only,
    boundary,
    contains,
    facet_ridges,
    known_simplicial,
    project,
    radial,
    radial_many,
    to_hrep,
    to_vrep,
    translate,
)
from .volume import (_centred, _cone_simplices, _in_plane_tol, _slice, _wedge_stack, body_volume, moments,
                     unit_ball_volume, wedge_moment)


def section(K: ConvexBody, S: Subspace):
    """K intersected with the flat S through 0, in S's orthonormal coordinates.

    Returns a body of intrinsic dimension dim(S), or None when the section
    is empty or of measure zero in the flat. An affine section is the
    central section of the translated body, which only `section_volume`
    takes. A hyperplane S of a simplicial polytope
    (`geometry.known_simplicial`, read from K's incidence, so a body that is
    not simplicial builds no boundary to decide) is cut from one slice of
    K's cached boundary cones by S's normal (`_sliced_section`), with no
    qhull call and no LP. Every other flat
    intersects the halfspaces with S by one qhull halfspace intersection,
    whose boundary is pulled from the system's rows; when 0 is clearly
    interior to the body (`geometry._clearly_interior_origin`: its distance
    to every facet is at least 1e-3 of the largest), 0 starts that
    intersection and no Chebyshev-centre LP is solved.
    """
    if S.dim < 1:
        raise GeometryError("flat dimension must be >= 1")
    if isinstance(K, Ball):
        # |B^T y - c|^2 = |y - q|^2 + |w|^2 with q the in-flat part of c
        q = S.coords(K.center)
        r2 = K.radius**2 - float(K.center @ K.center - q @ q)
        return Ball(q, math.sqrt(r2)) if r2 > GEOM_TOL**2 else None
    if S.dim == S.ambient_dim - 1 and known_simplicial(K):
        return _sliced_section(K, S)
    H = to_hrep(K)
    return _halfspace_polytope(H.A @ S.basis.T, H.b, _clearly_interior_origin(H.b, S.dim))


def _slicing_normals(K: Polytope, S: Subspace) -> np.ndarray:
    """An orthonormal basis (rows) of S^perp by which to slice K's cones
    (`volume._slice`) down to K cap S, S through 0.

    `_slice` counts a face that lies in its hyperplane only from the
    hyperplane's positive side, so a flat that supports K from the other
    side would read 0. At k = dim S^perp = 1 the normal is negated when no
    vertex of K is positive along it by more than `volume._in_plane_tol`,
    which leaves every section through an interior 0 as it was. At k >= 2
    the last normal is the unit S^perp-part of c, K's vertex average: every
    earlier hyperplane then passes through c, interior to K, and the last
    leaves c on its positive side. Where that part is 0, S passes through c
    and S^perp's own basis serves.
    """
    N = S.complement().basis
    if len(N) == 1:
        return N if (K.vertices @ N[0] > _in_plane_tol(K)).any() else -N
    e = N.T @ (N @ K.vertices.mean(axis=0))
    if not e.any():
        return N
    e /= np.linalg.norm(e)
    return np.vstack([_complement_basis(np.vstack([S.basis, e])), e])


def _sliced_section(K: Polytope, S: Subspace):
    """K cap S for a hyperplane S through 0 and a simplicial K, from one
    `volume._slice` of K's cached cones by S's normal (`_slicing_normals`).

    The section's vertices are the crossings of K's edges with S and K's
    vertices in S, each taken once by its pair of K's vertex indices, so no
    coordinate tolerance merges them. Its rows are the rows of the facets
    of K it crosses, restricted to S, and its boundary is the sliced faces,
    each labelled by its parent facet's row (`Boundary.facet`); they tile
    the section's boundary by construction. Its volume is the sum of the slice weights
    over (n - 1)!, and the faces and weights are its cached cone simplices,
    so a wedge cut of it takes no new determinant. None when that volume
    is not positive.
    """
    (pts, w), bd = _cone_simplices(K), boundary(K)
    faces, weights, ends = _slice(pts, w, pts @ _slicing_normals(K, S)[0], _in_plane_tol(K), ends=True)
    vol = float(weights.sum()) / math.factorial(S.dim)
    if vol <= 0:
        return None
    edges = np.sort(bd.simplices.ravel()[ends], axis=2)
    _, first, index = np.unique((edges[..., 0] * len(K.vertices) + edges[..., 1]).ravel(),
                                return_index=True, return_inverse=True)
    vertices = S.coords(faces.reshape(-1, K.dim)[first])
    simplices = index.reshape(len(faces), S.dim)
    rows, facet = np.unique(bd.facet[ends[:, 0, 0] // K.dim], return_inverse=True)
    A = K.A[rows] @ S.basis.T
    norms = np.linalg.norm(A, axis=1)
    L = Polytope(vertices, S.dim, A / norms[:, None], K.b[rows] / norms, Boundary(simplices, facet))
    L._cone_cache = _read_only(vertices[simplices]), _read_only(weights)
    return L


def _slices_cones(K: ConvexBody, S) -> bool:
    """Whether K cap S, S a flat through 0 or None for R^n, is cut from K's
    cached boundary cones, sliced down to S by `_slicing_normals` inside
    `volume.wedge_moment`, rather than from a section body: for a polytope
    when S is R^n (no slice), or when K is simplicial
    (`geometry.known_simplicial`, read from K's incidence, so a body that is
    not simplicial builds no boundary to decide) and dim S >= 2.

    The one slice-or-section rule of every cut, f value and ray moment. It
    was set by measurement: the 8-cube's 80 640 boundary simplices took 4 s
    to slice at codimension 2 against 9 ms for a halfspace intersection,
    and slicing a segment took 3-7 times as long as its interval. It does
    not change under translation, so it may be read on K before K moves.
    """
    return isinstance(K, Polytope) and (S is None or (S.dim >= 2 and known_simplicial(K)))


def section_volume(K: ConvexBody, S: Subspace, x0=None) -> float:
    """|K cap (x0 + S)| in dimension m = dim(S), 0 when the section is empty.

    The one function that takes an affine flat: K - x0 is built once,
    carries K's vertices and rows and shares its boundary
    (`geometry.translate`), so no evaluation hulls K again. Where
    `_slices_cones` holds, read on K itself so no translate computes its
    incidence again, the volume is one wedge moment (`volume.wedge_moment`)
    of K - x0 by a zero row, whose wedge is the whole space, sliced by a
    basis of S^perp that counts a supporting flat's face
    (`_slicing_normals`): K's cached boundary cones cut down to the section,
    with no qhull call and no LP, clipped at 0: near the support's edge the
    cones from x0 cancel, and their rounding can leave a residue below 0
    (-8e-33 of f(0) on random bodies). Balls, other polytopes and segments
    (m = 1, an interval with no qhull call) read the volume of the section
    body (`section`, `volume.body_volume`).
    """
    moved = K if x0 is None or not np.any(x0) else translate(K, np.negative(x0, dtype=float))
    if _slices_cones(K, S):
        return max(0.0, wedge_moment(moved, np.zeros((1, K.dim)), 0, _slicing_normals(moved, S)))
    return body_volume(section(moved, S))


class SectionVolumeFunction:
    """Brunn's function f(x) = |K cap (F + x)| for x in F^perp coordinates.

    f is 1/m-concave on its support with m = n - k (k = codim of F).  For
    F = {0} (k = n) the 0-dimensional convention f = indicator of K is used.
    Each evaluation is one `section_volume` call, a slice of K's cached
    cones for a simplicial polytope at m >= 2, with no
    qhull call, and one section of K elsewhere. `ray_moments` is the one entry
    point for its ray moments, exact on every route: no section profile takes
    the adaptive ray rule.

    Built once per instance: F^perp (one SVD, here), and on first use the
    support projection (`ray_extent`) and, at m = 1, the chord data
    (`_Chords`). Built per call: everything that depends on the directions.
    `section_volume_fn` gives one instance per polytope and flat basis, so
    every query on one (K, F) shares them; so does the kept panel data of the
    last one-block chord call, which gives the bits of a fresh instance.

    It answers the profile-oracle protocol of `ball_bodies` itself: ``dim``
    (= k), ``concavity_index`` (m, None for the indicator at m = 0),
    ``support_radius`` (the largest vertex norm of K, or r + |c| for a
    ball) and ``barycenter_zero``, read from K's centroid.
    """

    def __init__(self, body: ConvexBody, F: Subspace):
        self.body = body
        self.F = F
        self.Fperp = F.complement()
        self.dim = self.k = self.Fperp.dim
        self.m = F.dim  # section dimension n - k
        self._proj = None  # the support of f: projection of K onto F^perp
        self._chord_cache = None  # `_Chords` of a polytope with sections of dimension 1
        self._profile = None  # (thetas bytes, panels) of the last one-block chord call

    @property
    def concavity_index(self) -> int | None:
        return self.m if self.m > 0 else None

    @property
    def support_radius(self) -> float:
        """Radius of a ball about 0 outside which f vanishes."""
        if isinstance(self.body, Ball):
            return self.body.radius + float(np.linalg.norm(self.body.center))
        return float(np.max(np.linalg.norm(to_vrep(self.body).vertices, axis=1)))

    @property
    def barycenter_zero(self) -> bool:
        """Whether int x f(x) dx = |K| P_{F^perp} centroid(K) vanishes, to the
        relative tolerance of the centroid checks (`volume._centred`)."""
        return _centred(self.body, self.Fperp.coords(moments(self.body).centroid))

    def ray_extent(self, theta) -> float:
        """Largest t with f(t theta) > 0 (0 must be interior to the support).

        The support of f is the projection of K onto F^perp, in F^perp
        coordinates, built on the first call.
        """
        if self._proj is None:
            self._proj = project(self.body, self.Fperp)
        return radial(self._proj, np.asarray(theta, dtype=float))

    def ray_moments(self, thetas, p) -> np.ndarray:
        """int_0^T t^(p-1) f(t theta) dt for each row theta of an (N, k) array, p > 0.

        Exact up to rounding on every route, with no adaptive rule. At m = 0,
        f is the indicator of K, whose moment is radial(K, theta)^p / p for
        every real p > 0. For a ball B(c, r) and m >= 1, f(x) is
        omega_m (r^2 - |x - c'|^2)_+^(m/2), c' the centre in F^perp
        coordinates; with D = r^2 - |c'|^2 and t+ the ray's end, the positive
        root of D + 2 t <theta, c'> - t^2 |theta|^2 (`geometry.radial_many`
        on B(c', r), by the stable root formula), the moment is Euler's
        integral for 2F1:
        omega_m D^(m/2) t+^p B(p, m/2 + 1) 2F1(-m/2, p; p + m/2 + 1; -|theta|^2 t+^2 / D)
        for every real p > 0, which at c' = 0 is
        omega_m r^(p+m) |theta|^(-p) B(p/2, m/2 + 1) / 2. At m = 1 on a
        polytope, f is the chord length, linear between its kinks, where
        the ray's plane crosses a ridge of two facets of K that face the
        same way along F;
        each panel is integrated in closed form for every real p > 0. The
        ridges are cached on K (`geometry.facet_ridges`), and the ray's
        extent T comes from the Fourier-Motzkin rows of the ridges between
        facets that face opposite ways, so no projection of K is hulled
        (`_Chords`). The kinks and chord lengths do not depend on p: after a
        call whose directions fit in one block, a call at another p on the
        same directions reuses its panel data (`_chord_moments`), with the
        same result bits. At m >= 2 on a polytope each direction e = theta / |theta|
        takes the section L = K cap (F + R e) (`_wedge_moments`): at integer
        p one wedge moment of degree p - 1, at real p the knot-interval fit
        of f between L's vertex heights. Raises `GeometryError` unless p is
        positive and finite and every row has k entries, is nonzero and is
        finite, and for a ball unless |c'| < r (1 - GEOM_TOL): 0 must be
        interior to the support of f.
        """
        thetas = _ray_arguments(thetas, p, self.k)
        if self.m == 0:
            return radial_many(self.body, self.Fperp.embed(thetas)) ** p / p
        if isinstance(self.body, Ball):
            m, B = self.m, project(self.body, self.Fperp)  # B(c', r), the support of f
            D, top = B.radius**2 - float(B.center @ B.center), radial_many(B, thetas)
            return (unit_ball_volume(m) * D ** (m / 2) * top**p * beta(p, m / 2 + 1)
                    * hyp2f1(-m / 2, p, p + m / 2 + 1, -(thetas**2).sum(axis=1) * top**2 / D))
        if self.m == 1:
            return self._chord_moments(thetas, p)
        return self._wedge_moments(thetas, p)

    def _chords(self) -> "_Chords":
        """The chord data of K and F, built once from K's cached ridges (`_Chords`)."""
        if self._chord_cache is None:
            self._chord_cache = _Chords.of(self.body, self.F)
        return self._chord_cache

    def _chord_moments(self, thetas: np.ndarray, p: float) -> np.ndarray:
        """Ray moments at m = 1: the moments at p of each block's chord profile.

        The profile's panel data (`_Chords.profile`: breakpoints, steps and
        the chord at both ends of each panel) do not depend on p. A call
        whose directions fit in one block keeps them, keyed by the bytes of
        the directions, which have k entries each, so a call at another p
        on the same directions only takes the moments
        (`_piecewise_linear_moments`: at integer p one nonnegative sum per
        panel, at real p the power steps and one weighted sum).
        Larger calls keep nothing: T and W are computed for the whole call,
        and BLAS may round a block's rows differently when they are computed
        alone, so a kept block would not give the bits of a fresh call.
        """
        key = thetas.tobytes()
        if self._profile is not None and self._profile[0] == key:
            return _piecewise_linear_moments(self._profile[1], p)
        ch = self._chords()
        X = thetas @ self.Fperp.basis  # the directions in R^n
        W = X @ ch.A.T  # (N, H): w_i = <A_i, theta>
        T = ch.extent(X)
        out = np.empty(len(thetas))
        for s in range(0, len(thetas), ch.block):
            panels = ch.profile(W[s:s + ch.block], T[s:s + ch.block, None])
            out[s:s + ch.block] = _piecewise_linear_moments(panels, p)
        self._profile = (key, panels) if 0 < len(thetas) <= ch.block else None
        return out

    def _wedge_moments(self, thetas: np.ndarray, p: float) -> np.ndarray:
        """Ray moments at m >= 2 of a polytope: per direction e, the section
        L = K cap (F + R e), at k = 1 K itself.

        At integer p it is one wedge moment of degree p - 1 of L by e, the one
        cut of the polyhedral route (`_cut_volume`), so L is taken by f's
        route rule (`_slices_cones`): a simplicial K is sliced by a basis of
        F^perp cap e^perp, its cached cones cut down to L, and any other K
        takes the section body (`section`, one halfspace intersection), which
        is cut alone: the 8-cube's 80 640 boundary simplices took 1.2-1.8 s to
        slice per direction at k = 2 against 0.07-0.16 s for its section
        (2-core Xeon). At real p, f(s e) is a polynomial of degree <= m
        between the heights <v, e> of L's vertices, and `_knot_moments`
        integrates it one knot interval at a time; L is the section body at
        k >= 2 (`section`, qhull-free at k = 2 for a simplicial K). The knot
        route is 40-80 times as slow as the wedge cut at integer p, so it
        serves only real p.
        """
        r = np.linalg.norm(thetas, axis=1)
        out = np.empty(len(thetas))
        for i, (u, e) in enumerate(zip(thetas / r[:, None], self.Fperp.embed(thetas / r[:, None]))):
            S = None if self.k == 1 else Subspace(self.body.dim, np.vstack([self.F.basis, e]))
            if float(p).is_integer():
                out[i] = _cut_volume(self.body, S, [e], int(p) - 1)
            else:  # e is S's last basis vector
                heights = self.body.vertices @ e if S is None else section(self.body, S).vertices[:, -1]
                out[i] = _knot_moments(lambda s: self(s * u), heights, p, self.m)
        return out * r ** -p

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        point = self.Fperp.embed(x)
        if self.m == 0:
            return 1.0 if contains(self.body, point) else 0.0
        return section_volume(self.body, self.F, point)


def _ray_arguments(thetas, p, k: int) -> np.ndarray:
    """thetas as an (N, k) array; GeometryError unless p is positive and
    finite and every row has k entries, is nonzero and is finite: the one
    argument check of every `ray_moments`, before any route takes a ray."""
    if not 0 < p < math.inf:
        raise GeometryError("p must be positive and finite")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1:] != (k,):
        raise GeometryError(f"ray directions must have {k} entries")
    if not thetas.any(axis=1).all():
        raise GeometryError("ray directions must be nonzero")
    if not np.isfinite(thetas).all():
        raise GeometryError("ray directions must be finite")
    return thetas


def _fit(g, ends, m: int):
    """(P, values): the polynomial P of degree m through g at the m + 1
    Chebyshev points of the interval ends, all interior to it, and g's
    values there. Exact up to rounding where g is such a polynomial."""
    nodes = np.polynomial.polyutils.mapdomain(np.polynomial.chebyshev.chebpts1(m + 1), [-1.0, 1.0], ends)
    values = [g(t) for t in nodes]
    return np.polynomial.Chebyshev.fit(nodes, values, m, domain=ends), values


def _knot_moments(g, heights: np.ndarray, p: float, m: int) -> float:
    """int_0^T t^(p-1) g(t) dt for g a spline of degree <= m on [0, T] whose
    knots are among the heights, T the largest.

    The knots are 0 and the heights above 1e-12 T, a height within 1e-12 T
    of the next taken as that one (tied knots); the result is 0 when no
    height is positive. On each knot interval g is fitted from its values at
    m + 1 interior points (`_fit`), so a jump at an end, as where a facet is
    parallel to the flat, is read from inside. On [0, k1] the (m + 1)-node
    Gauss-Jacobi rule of weight t^(p-1) is exact for the fit; on [a, b] with
    a > 0 the 12-node Gauss-Legendre rule (`_fixed_gl`) on [a, 2a], [2a, 4a],
    ..., b, where the singularity of t^(p-1) at 0 is three half-widths from
    each piece's centre: an error factor of about (3 + 2 sqrt 2)^-24, 1e-18.
    """
    h = np.sort(heights[heights > 1e-12 * heights.max()])
    if not len(h):
        return 0.0  # no height above 0: g vanishes on the ray
    knots = np.concatenate([[0.0], h[np.diff(h, append=math.inf) > 1e-12 * h[-1]]])
    (x, w), P = roots_jacobi(m + 1, 0.0, p - 1), _fit(g, knots[:2], m)[0]
    total = (knots[1] / 2) ** p * float(w @ P(knots[1] / 2 * (x + 1)))
    for a, b in zip(knots[1:-1], knots[2:]):
        P, edges = _fit(g, (a, b), m)[0], np.append(a * 2.0 ** np.arange(math.ceil(math.log2(b / a))), b)
        total += _fixed_gl(lambda t: t ** (p - 1) * P(t), edges, 12)
    return total


# directions x kink ridges x neighbours per block of `_chord_moments`: it
# bounds the (neighbours, candidate crossings) slack of `_Chords.profile`,
# which holds at most that many elements, and so its (directions, kinks)
# crossings, near 1 MB for any batch size; the envelopes' (facets,
# breakpoints, directions) array is bounded only through the directions
_RAY_BLOCK_ELEMENTS = 1 << 17

# a crossing stays a breakpoint while it misses a neighbour's inequality by at
# most this share of max |b|: an extra breakpoint only splits a linear panel,
# a lost kink is an error
_RIDGE_SLACK = 1e-9


@dataclass(frozen=True)
class _Chords:
    """The chord profiles of a polytope K along a line F = R f (m = 1), from K's ridges.

    The chord of K over t theta is [lo(t), hi(t)] in units of f: hi is the
    lower envelope of the lines c_i + g_i t of the facets with
    a_i = <A_i, f> > 0, lo the upper envelope of those with a_i < 0, where
    c_i = b_i / a_i and g_i = -<A_i, theta> / a_i. f(t theta) = hi - lo is
    linear between the envelopes' kinks, and a kink is where the ray's
    plane crosses a ridge of two facets that face the same way along f
    (`facet_ridges`): the crossing t_ij = (c_j - c_i) / (g_i - g_j) of their
    lines counts when it lies in (0, T) and the point there meets the
    inequalities of facet i's neighbours, to `_RIDGE_SLACK`. The ray ends at
    T, the radial function of K's projection onto F^perp. That projection's
    halfspaces are its Fourier-Motzkin rows (Ziegler, *Lectures on
    Polytopes*, 1995, Sec. 1.2): (-a_j) A_i + a_i A_j <= (-a_j) b_i + a_i b_j
    for the ridges of an upper facet i and a lower facet j, and the facets
    parallel to f; so no projection is hulled. Every gather that does not
    depend on theta is taken once, here, as a contiguous array: each kink's
    two facets and c at the first, the first facet's neighbours as a
    (D, R) table with b and a at each slot, and c on the facets with
    a_i > 0, then on those with a_i < 0.
    """

    A: np.ndarray  # (H, n) K's unit facet normals
    rows: np.ndarray  # (M, n) the projection's unit normals
    beta: np.ndarray  # (M,) and offsets
    scale: np.ndarray  # (H,) a_i, and 1 on the facets parallel to f
    facets: np.ndarray  # the U facets with a_i > 0, then those with a_i < 0
    uppers: int  # U
    c_facets: np.ndarray  # (U + L, 1, 1) c on those facets
    first: np.ndarray  # (R,) facet i of each ridge (i, j) of two upper or two lower facets
    second: np.ndarray  # (R,) and facet j
    c_first: np.ndarray  # (R,) c_i
    rise: np.ndarray  # (R,) c_j - c_i
    near: np.ndarray  # (D, R) the neighbours of facet i
    near_b: np.ndarray  # (D, R) their offsets b
    near_a: np.ndarray  # (D, R) and their a
    floor: float  # the least slack of a kink, -_RIDGE_SLACK max |b|
    block: int  # directions per block, R D of them within _RAY_BLOCK_ELEMENTS

    @classmethod
    def of(cls, K: ConvexBody, F: Subspace) -> "_Chords":
        ridges = facet_ridges(K)
        A, b = K.A, K.b
        a = A @ F.basis[0]
        side = np.where(a > 1e-12, 1, np.where(a < -1e-12, -1, 0))
        i, j = ridges.pairs.T
        same, across = side[i] * side[j] > 0, side[i] * side[j] < 0
        up = np.where(side[i] > 0, i, j)[across]
        lo = np.where(side[i] > 0, j, i)[across]
        rows = np.vstack([-a[lo, None] * A[up] + a[up, None] * A[lo], A[side == 0]])
        beta = np.concatenate([-a[lo] * b[up] + a[up] * b[lo], b[side == 0]])
        norms = np.linalg.norm(rows, axis=1)
        rows, beta = rows / norms[:, None], beta / norms
        if beta.min() <= GEOM_TOL * np.abs(b).max():
            raise GeometryError("origin is not interior to the body")
        first, second = i[same], j[same]
        near = ridges.neighbours[first].T.copy()
        scale = np.where(side != 0, a, 1.0)
        c = b / scale
        facets = np.concatenate([np.flatnonzero(side > 0), np.flatnonzero(side < 0)])
        return cls(A, rows, beta, scale, facets, np.count_nonzero(side > 0), c[facets, None, None],
                   first, second, c[first], c[second] - c[first], near, b[near], a[near],
                   -_RIDGE_SLACK * np.abs(b).max(), max(1, _RAY_BLOCK_ELEMENTS // max(1, near.size)))

    def extent(self, X: np.ndarray) -> np.ndarray:
        """T per row of X, directions in R^n within F^perp: min beta / <h, theta> over the rows h."""
        proj = X @ self.rows.T
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(proj > 0, self.beta / proj, np.inf).min(axis=1)

    def profile(self, W: np.ndarray, top: np.ndarray):
        """The p-free panel data of each row's chord profile: (ts, step,
        left, right), for `_piecewise_linear_moments`.

        W holds <A_i, theta> per direction, top its T. ts holds each row's
        breakpoints in [0, T]: 0, the kinks and T, rows with fewer kinks
        padded with T. step is their differences, 0 on the padding, and
        left and right f(t theta) = hi(t) - lo(t) >= 0 at each panel's two
        ends. The candidate crossings are the flat indices of the
        (directions, kinks) array that lie in (0, T); g and W are read at
        them by flat index, and their slack in the neighbours' inequalities
        is a (D, P) array, reduced over its leading axis.
        """
        g = -W / self.scale
        t = np.take(g, self.first, axis=1)
        t -= np.take(g, self.second, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self.rise, t, out=t)
        on = t > 0
        on &= t < top
        hit = np.flatnonzero(on)
        row, ridge = np.divmod(hit, len(self.rise))
        t = t.take(hit)
        # the crossing's height on facet i, and its slack in the inequalities of i's neighbours
        at = row * W.shape[1]  # where the crossing's row starts in the raveled g and W
        height = g.take(at + self.first.take(ridge))
        height *= t
        height += self.c_first.take(ridge)
        near = np.take(self.near, ridge, axis=1)
        near += at
        slack = W.take(near)
        slack *= t
        np.subtract(np.take(self.near_b, ridge, axis=1), slack, out=slack)
        slack -= height * np.take(self.near_a, ridge, axis=1)
        on = slack.min(axis=0) >= self.floor
        row, t = row[on], t[on]
        count = np.bincount(row, minlength=len(W))
        width = count.max(initial=0) + 2
        ts = np.repeat(top, width, axis=1)
        ts[:, 0] = 0.0
        # each row's crossings fill its slots from 1, in the order found
        start = np.arange(1, len(W) * width + 1, width) - (np.cumsum(count) - count)
        np.put(ts, np.arange(len(row)) + start.take(row), t)
        ts.sort(axis=1)
        # both envelopes in one facet-major (U + L, breakpoints, N) array:
        # each reduction runs over its leading axis, of contiguous planes
        lines = g.T[self.facets][:, None, :] * ts.T.copy()
        lines += self.c_facets
        chord = lines[:self.uppers].min(axis=0)
        chord -= lines[self.uppers:].max(axis=0)
        chord = np.clip(chord, 0.0, None, out=chord).T.copy()
        return ts, ts[:, 1:] - ts[:, :-1], chord[:, :-1], chord[:, 1:]


def _power_steps(t: np.ndarray, q: float):
    """The steps t[:, j+1]**e - t[:, j]**e along sorted rows t >= 0 at e = q and
    e = q + 1, to rounding also on short steps: t1^e expm1(e log1p((t2 - t1) / t1)),
    and t2^e where t1 = 0."""
    t1, t2 = t[:, :-1], t[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log1p((t2 - t1) / t1)
        return tuple(np.where(t1 > 0, t1**e * np.expm1(e * log), t2**e) for e in (q, q + 1))


@functools.cache
def _panel_weights(q: int) -> np.ndarray:
    """The (q + 1, 2, 1, 1) weights of `_piecewise_linear_moments` at p = q + 1:
    C(q, j) / ((j + 1)(j + 2)) and C(q, j) / (j + 2) for j = 0 .. q."""
    return np.array([[math.comb(q, j) / ((j + 1) * (j + 2)), math.comb(q, j) / (j + 2)]
                     for j in range(q + 1)])[..., None, None]


def _piecewise_linear_moments(panels, p: float) -> np.ndarray:
    """Row sums of int t^(p-1) f(t) dt over the panels [t_j, t_j+1] of sorted rows t.

    panels is the p-free data of `_Chords.profile`: (t, step, left, right),
    f linear on each panel with values left[:, j], right[:, j] >= 0 at its
    ends. At integer p = q + 1 a panel [t1, t1 + h] gives h (left a + right b),
    with a = sum_j C(q, j) t1^(q-j) h^j / ((j+1)(j+2)) and
    b = sum_j C(q, j) t1^(q-j) h^j / (j+2) (`_panel_weights`), both by one
    Horner pass in h: every term is >= 0, so nothing cancels, and an empty
    panel gives exactly 0. C(q, j) is a finite float up to q = 1029, so at
    real p, and at integer p > 1024, the panel is left (W - w) + right w
    with W = int t^(p-1) dt and w = int t^(p-1) (t - t1) dt / h from
    `_power_steps`, and 0 when empty.
    """
    t, step, left, right = panels
    if float(p).is_integer() and p <= 1024:
        *weights, ab = _panel_weights(int(p) - 1)
        for i, w in enumerate(reversed(weights), 1):  # Horner's rule in h; w holds the weights of j = q - i
            ab = ab * step + w * t[:, :-1] ** i
        return (step * (left * ab[0] + right * ab[1])).sum(axis=1)
    steps, next_steps = _power_steps(t, p)
    whole = steps / p
    share = np.divide(next_steps / (p + 1) - t[:, :-1] * whole, step, out=np.zeros_like(step), where=step > 0)
    return (left * (whole - share) + right * share).sum(axis=1)


def section_volume_fn(K: ConvexBody, F: Subspace) -> SectionVolumeFunction:
    """The `SectionVolumeFunction` of (K, F), one per polytope and flat basis.

    A polytope keeps the functions it has given, keyed by the exact bytes of
    F's basis, so the queries on one (K, F) share F^perp, the chord data and
    the support projection; a ball's function is built anew.
    """
    cache = K._section_fn_cache if isinstance(K, Polytope) else {}
    key = F.basis.shape, F.basis.tobytes()
    return cache[key] if key in cache else cache.setdefault(key, SectionVolumeFunction(K, F))


# ---------------------------------------------------------------------------
# cone sections, polyhedral route


def cone_section_volume_polyhedral(K: ConvexBody, F: Subspace, C: PolyhedralCone) -> float:
    """|K cap (F + C)| in dimension dim(F) + dim(span C), exact for polytopes
    and for balls centred at 0.

    It is K cap (F + span C) cut by the cone's rows (`_cut_volume`), which
    raises `GeometryError` on a ball section off 0.
    """
    return _cut_volume(K, *_cone_flat(F, C))


def _cone_flat(F: Subspace, C: PolyhedralCone):
    """(S, R): the flat S = F + span C through 0, None when it is the whole
    space, and read-only rows R in R^n with F + C = {y in S : R y >= 0}.

    The rows of -C are -R, whatever basis its span gets, so one flat serves
    both signs. C keeps the pair it has given, keyed by the exact bytes of
    F's basis as `section_volume_fn` keys a polytope's functions, so a cone
    used again with the same F takes no SVD or inverse. Raises
    `GeometryError` unless C lies in F^perp, on every call: nothing is kept
    for such an F.
    """
    key = F.basis.shape, F.basis.tobytes()
    if key not in C._flats:
        if (np.linalg.norm(F.coords(C.generators), axis=1) > 1e-9).any():
            raise GeometryError("cone does not lie in the orthogonal complement of F")
        whole = F.dim + C.span_dim == F.ambient_dim
        S = None if whole else Subspace.from_span(np.vstack([F.basis, C.span.basis]), ambient_dim=F.ambient_dim)
        R = C.constraints_in_span() @ C.span.basis
        R.setflags(write=False)
        C._flats[key] = S, R
    return C._flats[key]


def _cut_volume(K: ConvexBody, S, R, q: int = 0):
    """The integral of <R[-1], y>^q over K cap S cap {y : R y >= 0}, the one
    cut of the polyhedral route: S is a flat through 0, None for R^n, and R
    in R^n is one wedge (r, n) of linearly independent rows in S, which
    gives a float, or a stack of m wedges, which gives one value per wedge
    in an (m,) array, as `volume.wedge_moment` takes them: an (m, r, n)
    array or a list of wedges whose row counts may differ. q = 0 gives the
    volume; q > 0 is for polytopes cut by up to two rows.

    Up to two rows, where `_slices_cones` holds, the stack is cut from K's
    cached boundary cones in one `wedge_moment` call, sliced down to S by
    `_slicing_normals`, so a wedge and its negative share one split and no
    section body, qhull call or LP is taken, at every codimension; in the
    whole space that one call takes wedges of one and of two rows together
    (the corpus battery's direction grid, part 1's orthant pair and part 2's
    row). Anywhere else the cut reads the section body L = K cap S
    (`section`), with R in S's coordinates; 0 for an empty section. A ball
    must be centred at 0 (`Ball.centred`; GeometryError otherwise). Its
    wedges are taken one at a time: W keeps the share of the ball's volume
    that the wedge {W y >= 0} takes of the sphere, the orthant probability
    of W's rows (`_orthant_fraction`), the one rule `solid_angle_fraction`
    takes on a cone's rows too. A polytope section
    is cut up to two rows from the boundary simplices L already has in one
    `wedge_moment` call. More rows intersect L's halfspaces with each
    wedge's, one halfspace intersection per wedge whose volume is read from
    its cone weights (`volume.body_volume`), because the wedge kernel's
    pieces multiply with every facet of the cone.
    """
    wedges, one = _wedge_stack(R)
    rows = max(map(len, wedges), default=0)
    if rows <= 2 and _slices_cones(K, S):
        return wedge_moment(K, R, q, () if S is None else _slicing_normals(K, S))
    L, wedges = (K, wedges) if S is None else (section(K, S), [S.coords(W) for W in wedges])
    if L is None:
        out = np.zeros(len(wedges))
    elif isinstance(L, Ball):
        if not L.centred:
            raise GeometryError("cone sections of balls require the center at 0")
        out = body_volume(L) * np.array([_orthant_fraction(W) for W in wedges])
    elif rows <= 2:
        out = wedge_moment(L, wedges, q)
    else:
        H = to_hrep(L)
        out = np.array([body_volume(_halfspace_polytope(np.vstack([H.A, -W]), np.concatenate([H.b, np.zeros(len(W))])))
                        for W in wedges])
    return float(out[0]) if one else out


def solid_angle_fraction(C: PolyhedralCone) -> float:
    """Fraction of the sphere S^(p-1) of span(C) inside C: the orthant
    probability of C's rows in the coordinates of its span
    (`_orthant_fraction`), so at most 7 generators that are not orthogonal
    to all the others."""
    return _orthant_fraction(C.constraints_in_span())


def _orthant_fraction(R) -> float:
    """The share of the sphere inside the wedge {y : R y >= 0}, R of linearly
    independent rows: the Gaussian orthant probability P(R Z >= 0), Z
    standard normal, whose covariance R R^T enters only through its
    correlation matrix, so rows of any scale give the same share.

    It is Plackett's reduction (`_orthant_probability`): Sheppard's closed
    form, taken once, for up to three rows, and for four to seven a
    quadrature whose node counts are refined by `_refine` over
    QUADRATURE.sphere_nodes with the sphere rule's tolerances, its
    `QuadratureWarning` and its `QuadratureNonConvergence`. A row whose
    correlation with every other row is within 1e-9 of 0, the tolerance
    `geometry.orthant_cone` accepts, is taken as independent of the rest
    and keeps half of their share: exact for an orthogonal row, otherwise
    off by about 2 / pi 1e-9 relative at most per pair taken as
    uncorrelated. An orthant of any dimension gives exactly 2^-p. Raises
    `GeometryError` when more than 7 rows are left.
    """
    U = R / np.linalg.norm(R, axis=1, keepdims=True)
    R = R[(np.abs(U @ U.T - np.eye(len(U))) > 1e-9).any(axis=1)]  # the rows correlated with another
    # a level of n nodes on q rows takes q (q - 1) / 2 * n levels on q - 2 rows:
    # 7 rows take under 0.1 s at 16 and 32 nodes, 8 rows 1.5 s at 16 alone
    if len(R) > 7:
        raise GeometryError(f"the orthant rule takes at most 7 correlated cone rows, not {len(R)}")
    value_at = lambda levels: [0.5 ** (len(U) - len(R)) * float(_orthant_probability(R @ R.T, n))  # noqa: E731
                               for n in levels]
    # up to three rows, Sheppard's closed form takes no nodes: one value, not two refinement levels
    return value_at((0,))[0] if len(R) <= 3 else _refine(
        value_at, QUADRATURE.sphere_nodes, QUADRATURE.sphere_rel_tol, QUADRATURE.sphere_fail_tol)


def _orthant_probability(S: np.ndarray, n: int) -> np.ndarray:
    """P(X >= 0) for X ~ N(0, S), one value per covariance matrix of the stack S (..., q, q).

    Plackett's reduction ("A reduction formula for normal multivariate
    integrals", Biometrika 1954) on the correlation matrix, which S is
    scaled to first, along S(t) = I + t (S - I):
    P(S) = 2^-q + int_0^1 sum_(i<j) S_ij phi_2(0, 0; t S_ij) P(S_ij|t) dt,
    where phi_2(0, 0; r) = 1 / (2 pi sqrt(1 - r^2)) and S_ij|t is the
    covariance of the other q - 2 coordinates given X_i = X_j = 0 under
    S(t). Sheppard's closed form 2^-q + sum_(i<j) arcsin S_ij / (2^(q-1) pi)
    ends the recursion at q <= 3. The integral takes n Gauss-Legendre nodes
    in u with t = 1 - u^2, graded toward t = 1: there a narrow cone's S(t)
    nears singular and the integrand nears a (1 - t)^(-1/2) singularity,
    which the grading smooths (with ungraded nodes remark 2's vertex cone at
    n = 4, eps = 0.05 ran to 128 nodes and warned, 4e-9 off the radial
    route).
    """
    d = np.sqrt(np.diagonal(S, axis1=-2, axis2=-1))
    S = S / d[..., :, None] / d[..., None, :]
    q = S.shape[-1]
    I, J = np.triu_indices(q, 1)
    if q <= 3:
        return 2.0**-q + np.arcsin(S[..., I, J]).sum(axis=-1) / (2 ** (q - 1) * math.pi)
    x, w = _gl_cache(n)
    u = 0.5 * (x + 1.0)
    St = np.eye(q) + (1.0 - u**2)[:, None, None] * (S[..., None, :, :] - np.eye(q))  # (..., n, q, q)
    total = 0.0
    for i, j in zip(I, J):
        o = [i, j, *(k for k in range(q) if k not in (i, j))]
        M = St[..., o][..., o, :]
        for _ in range(2):  # condition on X_i, then on X_j
            M = M[..., 1:, 1:] - M[..., 1:, :1] * M[..., :1, 1:] / M[..., :1, :1]
        total += (S[..., i, j, None] / np.sqrt(1.0 - St[..., i, j] ** 2) * _orthant_probability(M, n)) @ (w * u)
    return 2.0**-q + total / (2 * math.pi)


# ---------------------------------------------------------------------------
# cone sections, radial route


@dataclass(frozen=True)
class QuadratureSpec:
    """The tolerances of the ray and spherical quadrature of the radial route
    and of the orthant rule of solid angles.

    One instance, the module constant `QUADRATURE`, serves every caller;
    no public function takes a spec, so no call can loosen a tolerance.

    Both rules are refinement loops of one routine (`_refine`): each takes
    its levels in turn, the first two in one call, until two agree. The ray
    fields drive the adaptive ray rule `_composite_gl`, whose levels are 1,
    2, 4, ... ray_max_panels panels of ray_panel_nodes nodes each. It
    serves only `ball_bodies.ConcaveFunctionOracle`: every section profile,
    of a polytope or a ball, has exact ray moments
    (`SectionVolumeFunction.ray_moments`), so the radial route never
    reaches it. The sphere fields always apply: the integral over the cone's directions
    stays numerical. Its levels are sphere_nodes, whose first two share one
    batch of ray moments. On a 2-D cone a level is the number of intervals
    of a Clenshaw-Curtis rule (`_nested_cc`) on each piece of the arc
    between the directions where the integrand kinks (`_arc_kinks`). The
    levels nest: the default first two, 16 and 32, take 33 directions per
    piece, and each later level only its new nodes. On a wider cone a level
    is the 1-D order of a Gauss-Legendre simplex rule.
    The sphere fields drive the orthant rule of solid angles
    (`_orthant_fraction`) too: there a level is the node count of each
    path integral of Plackett's reduction, refined by the same `_refine`
    with the same tolerances.

    Each rule warns with a `QuadratureWarning` when it returns without
    meeting its relative tolerance: the ray rule when its panels run out,
    the sphere rule when its last two levels differ by more than
    sphere_rel_tol. A sphere-rule gap beyond sphere_fail_tol raises
    `QuadratureNonConvergence` instead; the ray rule never raises.
    """

    ray_panel_nodes: int = 32
    ray_max_panels: int = 16
    ray_rel_tol: float = 1e-8
    sphere_nodes: tuple = (16, 32, 64, 128)
    sphere_rel_tol: float = 1e-6
    sphere_fail_tol: float = 1e-3  # hard nonconvergence threshold


QUADRATURE = QuadratureSpec()


class QuadratureNonConvergence(RuntimeError):
    def __init__(self, value: float, error_estimate: float):
        super().__init__(
            f"quadrature did not reach tolerance (value {value}, est. error {error_estimate})"
        )
        self.value = value
        self.error_estimate = error_estimate


@functools.cache
def _gl_cache(n: int):
    """The n-node Gauss-Legendre rule (nodes, weights) on [-1, 1], built once per n."""
    return np.polynomial.legendre.leggauss(n)


class QuadratureWarning(RuntimeWarning):
    """A quadrature rule returned its finest level without meeting its tolerance.

    Issued by the refinement loop (`_refine`) of the adaptive ray rule
    (`_composite_gl`, which only `ball_bodies.ConcaveFunctionOracle` takes)
    when ray_max_panels runs out before two panel levels agree to
    ray_rel_tol, and of the sphere rule and the orthant rule
    (`_orthant_fraction`) when their last two levels differ by more than
    sphere_rel_tol but not by more than sphere_fail_tol.
    ``value`` is the returned (finest) estimate and ``gap`` the difference
    between the last two levels.
    """

    def __init__(self, value: float, gap: float, rel_tol: float):
        super().__init__(
            f"quadrature did not reach rel. tolerance {rel_tol:g} "
            f"(value {value:.12g}, last gap {gap:.3g})"
        )
        self.value = value
        self.gap = gap


def _refine(value_at, levels: tuple, rel_tol: float, fail_tol: float) -> float:
    """The one refinement loop of the ray and sphere rules: levels in turn until two agree.

    value_at takes a tuple of levels and returns one value per level. The
    first call takes the first two levels, which no integral can skip, so a
    caller may batch them; each later call takes one level. Returns the
    first level within rel_tol of the one before. When no two levels agree,
    raises QuadratureNonConvergence if the last gap exceeds fail_tol, else
    warns with a QuadratureWarning and returns the finest level.
    """
    values = list(value_at(levels[:2]))
    for n in (*levels[2:], None):  # None: no level left
        est = abs(values[-1] - values[-2]) if len(values) > 1 else math.inf
        scale = max(abs(values[-1]), 1e-300)
        if est <= rel_tol * scale:
            return values[-1]
        if n is not None:
            values += value_at((n,))
    if est > fail_tol * scale:
        raise QuadratureNonConvergence(values[-1], est)
    warnings.warn(QuadratureWarning(values[-1], est, rel_tol), stacklevel=2)
    return values[-1]


def _composite_gl(fn, a: float, b: float, spec: QuadratureSpec) -> float:
    """The adaptive ray rule: int_a^b fn by composite Gauss-Legendre with panel
    doubling, which only `ball_bodies.ConcaveFunctionOracle.ray_moments` calls.

    fn maps an array of nodes to their values. A level of P panels is one
    `_fixed_gl` call with spec.ray_panel_nodes nodes on each of the P equal
    panels of [a, b]; the levels are 1, 2, 4, ... ray_max_panels panels,
    refined by `_refine` to ray_rel_tol with no failure bound: when the
    panels run out, it warns with a QuadratureWarning and returns the
    finest level.
    """
    def value_at(levels: tuple) -> list:
        return [_fixed_gl(fn, np.linspace(a, b, panels + 1), spec.ray_panel_nodes) for panels in levels]

    levels = tuple(2**i for i in range(spec.ray_max_panels.bit_length()))
    return _refine(value_at, levels, spec.ray_rel_tol, math.inf)


def ray_moment(f: SectionVolumeFunction, theta_fperp, p: float) -> float:
    """Integral of t^(p-1) f(t theta) over the ray, i.e. I_p(f, theta)^p.

    One row of `f.ray_moments`.
    """
    return float(f.ray_moments(np.asarray(theta_fperp, dtype=float)[None, :], p)[0])


def _std_simplex_quadrature(d: int, n1d: int):
    """Nodes/weights on the standard simplex {l >= 0, sum <= 1} via Duffy maps."""
    x, w = _gl_cache(n1d)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    pts, wts = np.zeros((1, 0)), np.array([1.0])
    for _ in range(d):
        rem = 1.0 - pts.sum(axis=1)  # remaining budget per point
        pts = np.vstack([np.hstack([pts, (rem * xj)[:, None]]) for xj in x])
        wts = np.concatenate([wts * wj * rem for wj in w])
    return pts, wts  # weights sum to 1/d!


# nodes of the largest level of the radial route's simplex rule, whose
# level of n nodes per axis takes n^(p - 1) directions. It bounds only the
# radial route, which solid angles no longer take. Every level fits up to
# p = 4 (128^3 = 2^21); at p = 5 the levels 16 and 32, 1.1 M directions in
# one batch, peak near 400 MB, and the next, 64^4 = 2^24 directions, would
# take gigabytes
_SIMPLEX_NODES = 1 << 21


def cone_section_volume_radial(K: ConvexBody, F: Subspace, C: PolyhedralCone) -> float:
    """|K cap (F + C)| as the integral of I_p(f, theta)^p over C cap S^(p-1).

    f is the section-volume function of (K, F); requires 0 interior to the
    support of f restricted to span(C). On a 2-D cone the arc rule is split
    at the directions where its integrand kinks (`_arc_kinks`), and its
    nested Clenshaw-Curtis levels (`_nested_cc`) reuse the ray moments of
    the levels before them. On a wider cone the simplex rule takes only the
    levels of sphere_nodes with at most _SIMPLEX_NODES nodes, and raises
    GeometryError when fewer than two fit (p >= 6).
    """
    S, _ = _cone_flat(F, C)
    spec = QUADRATURE
    f = section_volume_fn(K, F)
    p = C.span_dim
    Gc = f.Fperp.coords(C.span.basis)  # (p, k) orthonormal rows: G inside F^perp

    def fp(theta_g: np.ndarray) -> np.ndarray:
        # theta_g: (N, p) unit directions in G-basis coordinates
        return f.ray_moments(theta_g @ Gc, p)

    g = f.Fperp.coords(C.generators) @ Gc.T  # generator coordinates in the G basis
    g = g / np.linalg.norm(g, axis=1, keepdims=True)
    if p == 1:
        return float(fp(np.array([[math.copysign(1.0, g[0, 0])]]))[0])
    if p == 2:
        a1 = math.atan2(g[0, 1], g[0, 0])
        a2 = math.atan2(g[1, 1], g[1, 0])
        delta = (a2 - a1) % (2 * math.pi)
        if delta > math.pi:
            a1, delta = a2, 2 * math.pi - delta

        def arc(phis):
            return fp(np.stack([np.cos(phis), np.sin(phis)], axis=1))

        edges = np.concatenate([[a1], _arc_kinks(K, S, C, a1, delta), [a1 + delta]])
        return _refine(_nested_cc(arc, edges), spec.sphere_nodes, spec.sphere_rel_tol, spec.sphere_fail_tol)
    # p >= 3: integrate over the transversal simplex T = conv(unit generators):
    # int_{C cap S^{p-1}} phi(theta) dtheta = h * int_T phi(x/|x|) |x|^-p dA(x)
    levels = tuple(n for n in spec.sphere_nodes if n ** (p - 1) <= _SIMPLEX_NODES)
    if len(levels) < 2:
        raise GeometryError(f"the simplex rule of a {p}-D cone has fewer than two levels "
                            f"of at most {_SIMPLEX_NODES} nodes")
    U = g  # (p, p) unit generators, rows
    nvec = np.linalg.solve(U, np.ones(p))
    h = 1.0 / np.linalg.norm(nvec)  # distance from 0 to aff(T)
    M = U[:-1] - U[-1]
    volT = math.sqrt(max(np.linalg.det(M @ M.T), 0.0)) / math.factorial(p - 1)

    def simplex_value(levels: tuple) -> list:
        # every level's simplex nodes in one call of fp
        rules = [_std_simplex_quadrature(p - 1, n1d) for n1d in levels]
        lam = np.vstack([nodes for nodes, _ in rules])
        lam_full = np.hstack([lam, 1.0 - lam.sum(axis=1, keepdims=True)])
        xs = lam_full @ U
        norms = np.linalg.norm(xs, axis=1)
        vals = fp(xs / norms[:, None]) / norms**p
        split = np.cumsum([len(wts) for _, wts in rules])[:-1]
        # weights carry 1/(p-1)!
        return [h * volT * math.factorial(p - 1) * float((wts * v).sum())
                for (_, wts), v in zip(rules, np.split(vals, split))]

    return _refine(simplex_value, levels, spec.sphere_rel_tol, spec.sphere_fail_tol)


def _arc_kinks(K: ConvexBody, S, C: PolyhedralCone, a1: float, delta: float) -> np.ndarray:
    """Sorted angles in (a1, a1 + delta) where the arc rule's integrand may kink.

    On a polytope, the integrand of the 2-D cone's arc is analytic between
    the directions of the vertices of L = K cap S, S = F + span C through 0
    (`_cone_flat`, None for R^n), projected onto span C: one product of
    L's vertices, in R^n, with span C's basis, whose coordinates give the
    angles. A ball has no kinks. A kink within 1e-12 delta of an arc end or
    of the kink before it is dropped: the sliver piece it would bound costs
    a whole level of nodes.
    """
    if isinstance(K, Ball):
        return np.zeros(0)
    L = K if S is None else section(K, S)
    if L is None:
        return np.zeros(0)
    Y = C.span.coords(L.vertices if S is None else S.embed(L.vertices))
    norms = np.hypot(Y[:, 0], Y[:, 1])
    Y = Y[norms > 1e-12 * norms.max()]  # vertices in F have no direction
    rel = np.sort((np.arctan2(Y[:, 1], Y[:, 0]) - a1) % (2 * math.pi))
    tol, before = 1e-12 * delta, np.concatenate(([0.0], rel[:-1]))
    return a1 + rel[(rel - before > tol) & (rel < delta - tol)]


def _fixed_gl(fn, edges: np.ndarray, n: int) -> float:
    """n-node Gauss-Legendre on each piece [edges[j], edges[j+1]], with every
    piece's nodes in one call of fn."""
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x, w = _gl_cache(n)
    return float((half[:, None] * w).ravel() @ fn((mid[:, None] + half[:, None] * x).ravel()))


@functools.cache
def _cc_cache(n: int):
    """The (n + 1)-point Clenshaw-Curtis rule (nodes, weights) on [-1, 1], built once per n.

    Its nodes cos(k pi / n), k = 0..n, nest: when m divides n, every
    (n / m)-th node of level n is a node of level m. The weights are the
    cosine sums of Clenshaw and Curtis (Numer. Math. 1960), exact for
    polynomials of degree n.
    """
    k, j = np.arange(n + 1), np.arange(1, n // 2 + 1)
    x = np.sin(0.5 * np.pi * ((n - 2 * k) / n))  # cos(k pi / n), odd under k -> n - k
    b = np.where(2 * j == n, 1.0, 2.0) / (4 * j**2 - 1)
    c = np.where((k == 0) | (k == n), 1.0, 2.0)
    return x, c / n * (1.0 - np.cos(np.pi * (2 * np.outer(k, j) % (2 * n)) / n) @ b)


def _nested_cc(fn, edges: np.ndarray):
    """The arc rule's value_at for `_refine`: level n is the (n + 1)-point
    Clenshaw-Curtis rule on each piece [edges[j], edges[j+1]].

    A level takes the node values of the finest level before it, in the same
    call or an earlier one, that divides it, and evaluates only its other
    nodes; a level that no earlier level divides is evaluated whole. The
    new nodes of all the levels of one call go to fn in one call. The node
    values live as long as the returned function, one query.
    """
    mid, half = 0.5 * (edges[1:, None] + edges[:-1, None]), 0.5 * np.diff(edges)
    values = {}  # level -> (pieces, level + 1) node values

    def value_at(levels: tuple) -> list:
        plans = []
        for i, n in enumerate(levels):
            m = max((m for m in (*values, *levels[:i]) if n % m == 0), default=None)
            plans.append((n, m, np.arange(n + 1) % (n // m) != 0 if m else slice(None)))
        nodes = [(mid + half[:, None] * _cc_cache(n)[0][new]).ravel() for n, _, new in plans]
        v, start = fn(np.concatenate(nodes)), 0
        for (n, m, new), t in zip(plans, nodes):
            V = np.empty((len(half), n + 1))
            V[:, new] = v[start:start + len(t)].reshape(len(half), -1)
            if m:
                V[:, :: n // m] = values[m]
            values[n], start = V, start + len(t)
        return [float(half @ values[n] @ _cc_cache(n)[1]) for n in levels]

    return value_at

"""Sections of bodies by affine flats and polyhedral cones.

Provides the section operation (in the flat's intrinsic coordinates), the
Brunn section-volume function f(x) = |K cap (F + x)|, and cone-section
volumes |K cap (F + C)| by two independent routes: polyhedral intersection
and radial integration over the cone's spherical cross-section.  The ray
moments int_0^T t^(p-1) f(t theta) dt of the radial route are exact for
polytopes: radial(K, theta)^p / p at m = 0, a closed form on chord kinks at
m = 1, and at m >= 2 and integer p one wedge moment (`volume.wedge_moment`)
per direction, of K's cached boundary cones sliced down to the section
K cap (F + R theta).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .geometry import (
    Ball,
    ConvexBody,
    GEOM_TOL,
    GeometryError,
    PolyhedralCone,
    Subspace,
    _halfspace_polytope,
    project,
    radial,
    radial_many,
    to_hrep,
)
from .special import beta
from .volume import moments, unit_ball_volume, wedge_moment


class EmptySection:
    """Explicit marker for an empty (or measure-zero) section."""

    def __init__(self, dim: int):
        self.dim = dim

    def __repr__(self):
        return f"EmptySection(dim={self.dim})"


def section(K: ConvexBody, S: Subspace, x0=None):
    """K intersected with the flat x0 + S, in S's orthonormal coordinates.

    Returns a body of intrinsic dimension dim(S), or an EmptySection marker.
    When x0 is clearly interior to the polytope K (its distance to every
    facet is at least 1e-3 of the largest), x0 starts qhull's halfspace
    intersection and no Chebyshev-centre LP is solved.
    """
    if S.dim < 1:
        raise GeometryError("flat dimension must be >= 1")
    n = S.ambient_dim
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if isinstance(K, Ball):
        # |x0 + B^T y - c|^2 = |y - q|^2 + |w|^2 with q the in-flat part
        delta = K.center - x0
        q = S.coords(delta)
        w2 = float(delta @ delta - q @ q)
        r2 = K.radius**2 - w2
        if r2 <= GEOM_TOL**2:
            return EmptySection(S.dim)
        return Ball(q, math.sqrt(r2))
    H = to_hrep(K)
    b = H.b - H.A @ x0
    interior = np.zeros(S.dim) if b.min() >= 1e-3 * b.max() else None
    sec = _halfspace_polytope(H.A @ S.basis.T, b, interior)
    return EmptySection(S.dim) if sec is None else sec


def section_volume(K: ConvexBody, S: Subspace, x0=None) -> float:
    sec = section(K, S, x0)
    if isinstance(sec, EmptySection):
        return 0.0
    return moments(sec).volume


class SectionVolumeFunction:
    """Brunn's function f(x) = |K cap (F + x)| for x in F^perp coordinates.

    f is 1/m-concave on its support with m = n - k (k = codim of F).  For
    F = {0} (k = n) the 0-dimensional convention f = indicator of K is used.
    Each evaluation takes one section of K. `ray_moments` is the one entry
    point for its ray moments: exact where `has_exact_ray_moments` holds,
    adaptive elsewhere.
    """

    def __init__(self, body: ConvexBody, F: Subspace):
        self.body = body
        self.F = F
        self.Fperp = F.complement()
        self.k = self.Fperp.dim
        self.m = F.dim  # section dimension n - k
        self._proj = None  # support body: projection of K onto F^perp
        # chord data of polytopes with sections of dimension 1
        self._fast = None
        self._profile = None  # (thetas bytes, ts, chord) of the last one-block chord call
        if not isinstance(body, Ball) and self.m == 1:
            H = to_hrep(body)
            self._fast = ((H.A @ F.basis.T)[:, 0], H.A, H.b)

    @property
    def concavity_index(self) -> int:
        return self.m

    def support_body(self) -> ConvexBody:
        """Projection of K onto F^perp: the support of f, in F^perp coords."""
        if self._proj is None:
            self._proj = project(self.body, self.Fperp)
        return self._proj

    def ray_extent(self, theta) -> float:
        """Largest t with f(t theta) > 0 (0 must be interior to the support)."""
        return radial(self.support_body(), np.asarray(theta, dtype=float))

    def has_exact_ray_moments(self, p) -> bool:
        """Whether `ray_moments` is exact at p: at m = 0 (f the indicator of
        K), for K a ball centred at 0, or a polytope with m = 1, or m >= 2
        and p an integer (a wedge moment of degree p - 1)."""
        if isinstance(self.body, Ball) and self.m > 0:
            return bool(np.linalg.norm(self.body.center) < 1e-14)
        return self.m <= 1 or float(p).is_integer()

    def ray_moments(self, thetas, p) -> np.ndarray:
        """int_0^T t^(p-1) f(t theta) dt for each row theta of an (N, k) array, p > 0.

        Where `has_exact_ray_moments(p)` holds the moments are exact up to
        rounding. At m = 0, f is the indicator of K, whose moment is
        radial(K, theta)^p / p for every real p > 0. At m = 1, f is the
        chord length, linear between the kinks of the facet lines bounding
        the chord, and each panel is integrated in closed form for every
        real p > 0. The kinks and chord lengths do not depend on p: after a
        call whose directions fit in one block, a call at another p on the
        same directions reuses them (`_chord_moments`), with the same result
        bits. At m >= 2 and integer p, the moment is |theta|^(-p) times the integral of <e, x>^(p-1) over
        L cap {<e, x> >= 0}, with e = theta / |theta| in R^n and
        L = K cap (F + R e): one wedge moment of K's cached boundary cones,
        sliced by the k - 1 normals of F + R e (`_wedge_moments`). For a ball
        of radius r centred at 0 and m >= 1, f(t theta) is
        omega_m (r^2 - t^2 |theta|^2)^(m/2), whose moment is
        omega_m r^(p+m) |theta|^(-p) B(p/2, m/2 + 1) / 2 for every real p > 0.

        Elsewhere (off-centre balls at m >= 1, and non-integer p at m >= 2)
        each row takes the adaptive rule `_composite_gl` on [0, `ray_extent`],
        which evaluates f one section per node and warns with a
        `QuadratureWarning` when it misses its tolerance.
        """
        if p <= 0:
            raise GeometryError("p must be positive")
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if not self.has_exact_ray_moments(p):
            out = np.empty(len(thetas))
            for i, theta in enumerate(thetas):
                T = self.ray_extent(theta)
                out[i] = 0.0 if T <= 0 else _composite_gl(
                    lambda ts: ts ** (p - 1) * self.ray_values(theta, ts), 0.0, T, QUADRATURE)
            return out
        if self.m == 0:
            return radial_many(self.support_body(), thetas) ** p / p
        if isinstance(self.body, Ball):
            m, r = self.m, self.body.radius
            return (unit_ball_volume(m) * r ** (p + m) * beta(p / 2, m / 2 + 1) / 2
                    * np.linalg.norm(thetas, axis=1) ** -p)
        if self.m == 1:
            return self._chord_moments(thetas, p)
        return self._wedge_moments(thetas, int(p))

    def _chord_moments(self, thetas: np.ndarray, p: float) -> np.ndarray:
        """Ray moments at m = 1: the moments at p of each block's chord profile.

        The profile (`_chord_profile`) does not depend on p. A call whose
        directions fit in one block keeps its profile, keyed by the bytes of
        the directions, so a call at another p on the same directions only
        takes the moments (`_piecewise_linear_moments`). Larger calls keep
        nothing: T and W are computed for the whole call, and BLAS may round
        a block's rows differently when they are computed alone, so a kept
        block would not give the bits of a fresh call.
        """
        key = thetas.tobytes()
        if self._profile is not None and self._profile[0] == key:
            return _piecewise_linear_moments(*self._profile[1:], p)
        a, A, b = self._fast
        W = thetas @ self.Fperp.basis @ A.T  # (N, H): w_i = <A_i, theta>
        T = radial_many(self.support_body(), thetas)
        block = max(1, _RAY_BLOCK_ELEMENTS // len(a) ** 2)
        out = np.empty(len(thetas))
        for s in range(0, len(thetas), block):
            profile = self._chord_profile(W[s:s + block], T[s:s + block, None])
            out[s:s + block] = _piecewise_linear_moments(*profile, p)
        self._profile = (key, *profile) if 0 < len(thetas) <= block else None
        return out

    def _chord_profile(self, W: np.ndarray, top: np.ndarray):
        """(ts, chord): each row's breakpoints in [0, T] and f(t theta) = hi(t) - lo(t) there.

        W holds <A_i, theta> per direction, top its T. hi (lo) is the lower
        (upper) envelope of the lines (b_i - t w_i) / a_i of the facets with
        a_i > 0 (a_i < 0), so f is linear between the kinks of the two
        envelopes. Facets parallel to F only bound t, and T accounts for them.
        """
        a, _, b = self._fast
        pos, neg = a > 1e-12, a < -1e-12
        c_hi, c_lo = b[pos] / a[pos], b[neg] / a[neg]
        g_hi, g_lo = -W[:, pos] / a[pos], -W[:, neg] / a[neg]
        ts = np.sort(np.hstack([np.zeros_like(top), _envelope_kinks(c_hi, g_hi, top),
                                _envelope_kinks(-c_lo, -g_lo, top), top]), axis=1)
        hi = (c_hi + g_hi[:, None, :] * ts[:, :, None]).min(axis=2)
        lo = (c_lo + g_lo[:, None, :] * ts[:, :, None]).max(axis=2)
        return ts, np.clip(hi - lo, 0.0, None)

    def _wedge_moments(self, thetas: np.ndarray, p: int) -> np.ndarray:
        """Ray moments at m >= 2 and integer p: per direction, one wedge moment
        of K sliced by a basis of F^perp cap e^perp (none when k = 1)."""
        r = np.linalg.norm(thetas, axis=1)
        units = thetas / r[:, None]
        out = np.empty(len(thetas))
        for i, (u, e) in enumerate(zip(units, self.Fperp.embed(units))):
            normals = self.Fperp.embed(Subspace.hyperplane(u).basis)
            out[i] = wedge_moment(self.body, [e], p - 1, normals)
        return out * r ** -p

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        point = self.Fperp.embed(x)
        if self.m == 0:
            from .geometry import contains

            return 1.0 if contains(self.body, point) else 0.0
        sec = section(self.body, self.F, point)
        if isinstance(sec, EmptySection):
            return 0.0
        return moments(sec).volume

    def ray_values(self, theta, ts: np.ndarray) -> np.ndarray:
        """f(t * theta) for an array of parameters t >= 0, one evaluation each."""
        theta = np.asarray(theta, dtype=float)
        return np.array([self(t * theta) for t in np.asarray(ts, dtype=float)])


# directions x facets^2 per block of `_chord_moments`, which bounds its
# (directions, breakpoints, facets) temporaries near 1 MB for any batch size
_RAY_BLOCK_ELEMENTS = 1 << 17


def _envelope_kinks(c: np.ndarray, g: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Kinks in (0, top) of the lower envelope t -> min_i (c_i + g_i t), per row of g.

    c: (L,) intercepts; g: (N, L) slopes; top: (N, 1). The walk starts on the
    lowest line at t = 0 and moves to the first line of smaller slope that
    crosses the current one, so the slope falls at every step and a row ends
    within L steps. Returns (N, steps), padded with top where a row ended.
    Lines crossing at one point give repeated kinks, which are harmless.
    """
    rows = np.arange(len(g))
    cur = np.full(len(g), np.argmin(c))
    t = np.zeros((len(g), 1))
    kinks = []
    while True:
        gc = g[rows, cur][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.maximum((c - c[cur][:, None]) / (gc - g), t)
        cross = np.where(g < gc, cross, np.inf)
        nxt = cross.argmin(axis=1)
        t_next = cross[rows, nxt][:, None]
        going = t_next < top
        if not going.any():
            return np.hstack(kinks) if kinks else np.zeros((len(g), 0))
        t = np.where(going, t_next, top)
        cur = np.where(going[:, 0], nxt, cur)
        kinks.append(t)


def _power_steps(t: np.ndarray, q: float) -> np.ndarray:
    """t[:, j+1]**q - t[:, j]**q along sorted rows t >= 0, to rounding also on short steps."""
    t1, t2 = t[:, :-1], t[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        short = t1**q * np.expm1(q * np.log1p((t2 - t1) / t1))
    return np.where(t1 > 0, short, t2**q)


def _piecewise_linear_moments(t: np.ndarray, f: np.ndarray, p: float) -> np.ndarray:
    """Row sums of int t^(p-1) f(t) dt over the panels [t_j, t_j+1] of sorted rows t.

    f is linear on each panel with values f[:, j], f[:, j+1] at its ends; the
    panel integral is f_j (W - w) + f_j+1 w with W = int t^(p-1) dt and
    w = int t^(p-1) (t - t_j) dt / (t_j+1 - t_j), both free of cancellation
    against steep f. Empty panels contribute 0.
    """
    dt = np.diff(t, axis=1)
    whole = _power_steps(t, p) / p
    lever = _power_steps(t, p + 1) / (p + 1) - t[:, :-1] * whole
    right = np.divide(lever, dt, out=np.zeros_like(dt), where=dt > 0)
    return (f[:, :-1] * (whole - right) + f[:, 1:] * right).sum(axis=1)


def section_volume_fn(K: ConvexBody, F: Subspace) -> SectionVolumeFunction:
    return SectionVolumeFunction(K, F)


# ---------------------------------------------------------------------------
# cone sections, polyhedral route


def _check_cone_flat(F: Subspace, C: PolyhedralCone):
    for g in C.generators:
        if np.linalg.norm(F.coords(g)) > 1e-9:
            raise GeometryError("cone does not lie in the orthogonal complement of F")


def cone_section_volume_polyhedral(K: ConvexBody, F: Subspace, C: PolyhedralCone) -> float:
    """|K cap (F + C)| in dimension dim(F) + dim(span C), exact for polytopes.

    One section of K by F + span C when that is not the whole space, then
    the cut by the cone's rows (`_cut_volume`).
    """
    if isinstance(K, Ball):
        _check_cone_flat(F, C)
        if np.linalg.norm(K.center) > GEOM_TOL:
            raise GeometryError("cone sections of balls require the center at 0")
        d = F.dim + C.span_dim
        return solid_angle_fraction(C) * unit_ball_volume(d) * K.radius**d
    return _cut_volume(*_section_and_rows(K, F, C))


def _section_and_rows(K: ConvexBody, F: Subspace, C: PolyhedralCone):
    """(L, R): the section L of the polytope K by F + span C, and rows R with F + C = {y : R y >= 0}.

    L is K itself, in its own coordinates, when F + span C is the whole
    space, and None when the section is empty. The rows of the opposite
    cone -C are -R, whatever basis its span gets.
    """
    _check_cone_flat(F, C)
    G = C.span
    rows = C.constraints_in_span() @ G.basis
    if F.dim + G.dim == K.dim:
        return K, rows
    S = Subspace.from_span(np.vstack([F.basis, G.basis]) if F.dim else G.basis, ambient_dim=K.dim)
    sec = section(K, S)
    return (None if isinstance(sec, EmptySection) else sec), S.coords(rows)


def _cut_volume(L, R: np.ndarray) -> float:
    """|L cap {y : R y >= 0}| for a polytope L (0 for None).

    Up to two rows, the wedge is cut from the boundary simplices L already
    has (`volume.wedge_moment`). More rows intersect L's halfspaces with the
    cone's, because the wedge kernel's pieces multiply with every facet of
    the cone.
    """
    if L is None:
        return 0.0
    if len(R) <= 2:
        return wedge_moment(L, R)
    H = to_hrep(L)
    body = _halfspace_polytope(np.vstack([H.A, -R]), np.concatenate([H.b, np.zeros(len(R))]))
    return 0.0 if body is None else moments(body).volume


def solid_angle_fraction(C: PolyhedralCone, mc_samples: int = 4_000_000, seed: int = 20240801) -> float:
    """Fraction of the sphere S^(p-1) of span(C) inside C.

    Closed forms for p <= 2 and orthogonal generators; spherical-triangle
    excess for p = 3; seeded Monte Carlo beyond that.
    """
    p = C.span_dim
    U = C.span.coords(C.generators)  # unit rows in span coords
    if p == 1:
        return 0.5
    gram = U @ U.T
    if np.allclose(gram, np.eye(p), atol=1e-9):
        return 2.0**-p
    if p == 2:
        ang = math.acos(np.clip(gram[0, 1], -1, 1))
        return ang / (2 * math.pi)
    if p == 3:
        # spherical excess via the dihedral angles of the triangle (a, b, c)
        a, b, c = U
        angles = []
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            ty = y - (y @ x) * x
            tz = z - (z @ x) * x
            angles.append(math.acos(np.clip(ty @ tz / (np.linalg.norm(ty) * np.linalg.norm(tz)), -1, 1)))
        return (sum(angles) - math.pi) / (4 * math.pi)
    R = C.constraints_in_span()
    dirs = _rng.sample_sphere(p, mc_samples, seed)
    inside = np.all(dirs @ R.T >= 0, axis=1)
    return float(inside.mean())


# ---------------------------------------------------------------------------
# cone sections, radial route


@dataclass(frozen=True)
class QuadratureSpec:
    """The tolerances of the ray and spherical quadrature of the radial route.

    One instance, the module constant `QUADRATURE`, serves every caller;
    no public function takes a spec, so no call can loosen a tolerance.

    The ray fields drive the adaptive rule `_composite_gl`, which integrates
    only the profiles without exact ray moments: off-centre balls at m >= 1,
    oracles other than section functions, and non-integer p at m >= 2. Ray
    moments are exact for indicators (m = 0), for centred balls, and for
    polytope section functions at m = 1, or at m >= 2 with integer p, where
    they are wedge moments (`SectionVolumeFunction.ray_moments`). The sphere
    fields always apply: the integral over the cone's directions stays
    numerical. Its rule (`_integrate_refining`) takes the levels of
    sphere_nodes in turn; on a 2-D cone a level puts that many nodes on each
    piece of the arc between the directions where the integrand kinks
    (`_arc_kinks`), on a wider cone it is the 1-D order of a simplex rule.

    Each rule warns with a `QuadratureWarning` when it returns without
    meeting its relative tolerance: the ray rule when its panels run out,
    the sphere rule when its last two levels differ by more than
    sphere_rel_tol. A sphere-rule gap beyond sphere_fail_tol raises
    `QuadratureNonConvergence` instead.
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


def _gl_cache(n: int, _cache={}):
    if n not in _cache:
        _cache[n] = np.polynomial.legendre.leggauss(n)
    return _cache[n]


class QuadratureWarning(RuntimeWarning):
    """A quadrature rule returned its finest level without meeting its tolerance.

    Issued by the adaptive ray rule (`_composite_gl`) when
    ray_max_panels runs out before two panel levels agree to ray_rel_tol,
    and by the sphere rule (`_integrate_refining`) when its last two levels
    differ by more than sphere_rel_tol but not by more than sphere_fail_tol.
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


def _composite_gl(fn, a: float, b: float, spec: QuadratureSpec) -> float:
    """Composite Gauss-Legendre with panel doubling; fn maps node array -> values.

    Warns with a QuadratureWarning when ray_max_panels runs out before two
    successive levels agree to ray_rel_tol, and returns the finest level.
    """
    x0, w0 = _gl_cache(spec.ray_panel_nodes)
    prev = None
    gap = math.inf
    panels = 1
    while panels <= spec.ray_max_panels:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        ts = (mid[:, None] + half * x0[None, :]).ravel()
        ws = np.tile(half * w0, panels)
        val = float(ws @ fn(ts))
        if prev is not None:
            gap = abs(val - prev)
            if gap <= spec.ray_rel_tol * max(abs(val), 1e-300):
                return val
        prev = val
        panels *= 2
    warnings.warn(QuadratureWarning(prev, gap, spec.ray_rel_tol), stacklevel=2)
    return prev


def ray_moment(f: SectionVolumeFunction, theta_fperp, p: float) -> float:
    """Integral of t^(p-1) f(t theta) over the ray, i.e. I_p(f, theta)^p.

    One row of `f.ray_moments`.
    """
    return float(f.ray_moments(np.asarray(theta_fperp, dtype=float)[None, :], p)[0])


def _std_simplex_quadrature(d: int, n1d: int):
    """Nodes/weights on the standard simplex {l >= 0, sum <= 1} via Duffy maps."""
    x, w = _gl_cache(n1d)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts = np.zeros((1, 0))
    wts = np.array([1.0])
    for i in range(d):
        rem = 1.0 - pts.sum(axis=1)  # remaining budget per point
        new_pts = []
        new_wts = []
        for j in range(len(x)):
            lam = rem * x[j]
            new_pts.append(np.hstack([pts, lam[:, None]]))
            new_wts.append(wts * w[j] * rem)
        pts = np.vstack(new_pts)
        wts = np.concatenate(new_wts)
    return pts, wts  # weights sum to 1/d!


def cone_section_volume_radial(K: ConvexBody, F: Subspace, C: PolyhedralCone) -> float:
    """|K cap (F + C)| as the integral of I_p(f, theta)^p over C cap S^(p-1).

    f is the section-volume function of (K, F); requires 0 interior to the
    support of f restricted to span(C). On a 2-D cone the arc rule is split
    at the directions where its integrand kinks (`_arc_kinks`).
    """
    _check_cone_flat(F, C)
    f = section_volume_fn(K, F)
    p = C.span_dim
    Gc = f.Fperp.coords(C.span.basis)  # (p, k) orthonormal rows: G inside F^perp
    gens = f.Fperp.coords(C.generators)

    def fp(theta_g: np.ndarray) -> np.ndarray:
        # theta_g: (N, p) unit directions in G-basis coordinates
        return f.ray_moments(theta_g @ Gc, p)

    g = gens @ Gc.T  # generator coordinates in the G basis
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

        edges = np.concatenate([[a1], _arc_kinks(K, F, C, a1, delta), [a1 + delta]])
        return _integrate_refining(lambda n: _fixed_gl(arc, edges, n), QUADRATURE)
    # p >= 3: integrate over the transversal simplex T = conv(unit generators):
    # int_{C cap S^{p-1}} phi(theta) dtheta = h * int_T phi(x/|x|) |x|^-p dA(x)
    U = g  # (p, p) unit generators, rows
    nvec = np.linalg.solve(U, np.ones(p))
    h = 1.0 / np.linalg.norm(nvec)  # distance from 0 to aff(T)
    M = U[:-1] - U[-1]
    volT = math.sqrt(max(np.linalg.det(M @ M.T), 0.0)) / math.factorial(p - 1)

    def simplex_value(n1d: int) -> float:
        lam, wts = _std_simplex_quadrature(p - 1, n1d)
        lam_full = np.hstack([lam, 1.0 - lam.sum(axis=1, keepdims=True)])
        xs = lam_full @ U
        norms = np.linalg.norm(xs, axis=1)
        vals = fp(xs / norms[:, None])
        mean_on_std = float((wts * vals / norms**p).sum())  # weights carry 1/(p-1)!
        return h * volT * math.factorial(p - 1) * mean_on_std

    return _integrate_refining(simplex_value, QUADRATURE)


def _arc_kinks(K: ConvexBody, F: Subspace, C: PolyhedralCone, a1: float, delta: float) -> np.ndarray:
    """Sorted angles in (a1, a1 + delta) where the arc rule's integrand may kink.

    On a polytope, the integrand of the 2-D cone's arc is analytic between
    the directions of the vertices of L = K cap (F + span C), projected onto
    span C. Angles are taken in span C's basis. A ball has no kinks.
    """
    if isinstance(K, Ball):
        return np.zeros(0)
    L, R = _section_and_rows(K, F, C)
    if L is None:
        return np.zeros(0)
    # R y holds the coefficients of y's projection onto span C on C's
    # generators (`constraints_in_span`), so this is that projection
    Y = L.vertices @ R.T @ C.span.coords(C.generators)
    norms = np.linalg.norm(Y, axis=1)
    Y = Y[norms > 1e-12 * norms.max()]  # vertices in F have no direction
    rel = np.unique((np.arctan2(Y[:, 1], Y[:, 0]) - a1) % (2 * math.pi))
    return a1 + rel[(rel > 0) & (rel < delta)]


def _fixed_gl(fn, edges: np.ndarray, n: int) -> float:
    """n-node Gauss-Legendre on each piece [edges[j], edges[j+1]], in one call of fn."""
    x, w = _gl_cache(n)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return float((half[:, None] * w).ravel() @ fn((mid[:, None] + half[:, None] * x).ravel()))


def _integrate_refining(value_at, spec: QuadratureSpec) -> float:
    """The sphere rule: value_at(n) at each level n of sphere_nodes until two agree.

    Returns the first level within sphere_rel_tol of the one before. When
    no two levels agree, raises QuadratureNonConvergence if the last gap
    exceeds sphere_fail_tol, else warns with a QuadratureWarning and returns
    the finest level.
    """
    values = [value_at(n) for n in spec.sphere_nodes[:1]]
    for n in spec.sphere_nodes[1:]:
        values.append(value_at(n))
        if abs(values[-1] - values[-2]) <= spec.sphere_rel_tol * max(abs(values[-1]), 1e-300):
            return values[-1]
    est = abs(values[-1] - values[-2]) if len(values) > 1 else math.inf
    if est > spec.sphere_fail_tol * max(abs(values[-1]), 1e-300):
        raise QuadratureNonConvergence(values[-1], est)
    warnings.warn(QuadratureWarning(values[-1], est, spec.sphere_rel_tol), stacklevel=2)
    return values[-1]

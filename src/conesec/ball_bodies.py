"""Star bodies built from concave function oracles via one-dimensional moments.

The central object is the body whose radial function in direction x is
I_p(f, x) = (int_0^inf t^(p-1) f(t x) dt)^(1/p) for a log-concave f.  The
module also provides the moment identities linking these bodies back to f,
the Berwald inclusion constants, and sampled geometric-distance bounds
between star bodies.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import beta

from . import rng as _rng
from .geometry import (
    Ball,
    GeometryError,
    Polytope,
    VPolytope,
    _lp_max,
    make_ball,
    to_hrep,
    to_vrep,
    trivial_flat,
)
from .sections import QUADRATURE, SectionVolumeFunction, _composite_gl, _fit, _gl_cache, _ray_arguments
from .volume import unit_ball_volume


# points and seed of the grid that starts `_search_max`
_SEARCH_GRID, _SEARCH_SEED = 512, 23


class ConcaveFunctionOracle:
    """Evaluable f: R^k -> R_+, 1/m-concave (or log-concave only), from a plain callable.

    The profile-oracle protocol that the moment bodies and the profile checks
    read: ``dim`` (k), ``concavity_index`` (m, or None), calls f(x),
    ``ray_extent`` and ``ray_moments``, and ``support_radius`` (f = 0
    outside that ball) and ``barycenter_zero`` (the first moment of f
    vanishes), which this class takes as given. A `SectionVolumeFunction`
    answers the same protocol from its body (`oracle_from_section_fn`),
    with exact ray moments; this class serves every other profile, and its
    `ray_moments` is the one user of the adaptive ray rule.
    """

    def __init__(
        self,
        dim: int,
        evaluate: Callable[[np.ndarray], float],
        concavity_index: float | None,
        support_radius: float,
        barycenter_zero: bool = False,
    ):
        self.dim = dim
        self._evaluate = evaluate
        self.concavity_index = concavity_index
        self.support_radius = float(support_radius)
        self.barycenter_zero = barycenter_zero
        if evaluate(np.zeros(dim)) <= 0:
            raise GeometryError("f(0) must be positive (0 interior to the support)")

    def __call__(self, x) -> float:
        return float(self._evaluate(np.atleast_1d(np.asarray(x, dtype=float))))

    def ray_extent(self, x) -> float:
        """Largest t with f(t x) > 0, by bisection below `support_radius`."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        hi = self.support_radius / max(np.linalg.norm(x), 1e-300) * 1.001
        if self(hi * x) > 0:
            return hi
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self(mid * x) > 0:
                lo = mid
            else:
                hi = mid
        return lo

    def ray_moments(self, xs, p: float) -> np.ndarray:
        """int_0^inf t^(p-1) f(t x) dt for each row x of an (N, k) array.

        The adaptive rule `_composite_gl` on [0, `ray_extent`] per row, which
        calls f once per node and warns with a `QuadratureWarning` when it
        misses its tolerance. It is looked up in this module at each call, so
        a rebinding of `ball_bodies._composite_gl` applies. Raises
        `GeometryError` unless p is positive and finite and every row has k
        entries, is nonzero and is finite.
        """
        def moment(x):
            T = self.ray_extent(x)
            return 0.0 if T <= 0 else _composite_gl(
                lambda ts: ts ** (p - 1) * np.array([self(t * x) for t in ts]), 0.0, T, QUADRATURE)

        return np.array([moment(x) for x in _ray_arguments(xs, p, self.dim)])


def oracle_from_section_fn(svf: SectionVolumeFunction) -> SectionVolumeFunction:
    """The section-volume function itself, untouched, as a profile oracle.

    A `SectionVolumeFunction` answers the oracle protocol (see
    `ConcaveFunctionOracle`) from its body: its barycentre is K's centroid
    projected onto F^perp, so only a body whose centroid lies in F passes
    the barycentre-zero checks. Nothing is written on the function, which
    `sections.section_volume_fn` shares between the queries on one (K, F).
    Raises `GeometryError` unless f(0) > 0.
    """
    if svf(np.zeros(svf.dim)) <= 0:
        raise GeometryError("f(0) must be positive (0 interior to the support)")
    return svf


def ball_indicator_oracle(k: int, r: float = 1.0) -> SectionVolumeFunction:
    """Indicator of r B_2^k (1/m-concave for every m): the m = 0 profile of
    the ball, with f(0) = 1, whose ray moments are exact."""
    return SectionVolumeFunction(make_ball(k, r), trivial_flat(k))


# ---------------------------------------------------------------------------
# the I_p functional and its star bodies


def I_p(f: ConcaveFunctionOracle | SectionVolumeFunction, x, p: float) -> float:
    """(int_0^inf t^(p-1) f(t x) dt)^(1/p); homogeneous of degree -1 in x.

    One row of `f.ray_moments`: exact for every section profile of a
    polytope or a ball, by the adaptive ray rule for a
    `ConcaveFunctionOracle`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float((f.ray_moments(x[None, :], p) ** (1.0 / p))[0])


class StarBodyOracle:
    """Direction -> radius map with an inscribed polytope approximation.

    ``radial_many`` maps an (N, dim) array of directions to their N radii.
    """

    def __init__(self, dim: int, radial_many: Callable[[np.ndarray], np.ndarray]):
        self.dim = dim
        self._radial_many = radial_many

    def radial(self, theta) -> float:
        return float(self.radial_many(np.atleast_1d(np.asarray(theta, dtype=float))[None, :])[0])

    def radial_many(self, thetas: np.ndarray) -> np.ndarray:
        return self._radial_many(np.atleast_2d(np.asarray(thetas, dtype=float)))

    def polytope_approx(self, num_dirs: int | None = None, seed: int = 0) -> Polytope:
        """Inscribed polytope: hull of the boundary points in num_dirs directions.

        At dim 2 the directions are the evenly spaced angles 2 pi i / num_dirs
        of `sphere_quadrature` (the four axes among them when 4 divides
        num_dirs), so the seed is not read: an inscribed polygon at equal
        angles has an area deficit of clean order num_dirs^-2, the law that
        `moment_identity_check` extrapolates away. At dim 1 the directions
        are +-1, and at dim >= 3 the seeded grid `rng.sphere_grid` (the +-axes
        and num_dirs uniform directions).
        """
        if num_dirs is None:
            num_dirs = 2 ** (self.dim + 4)
        dirs = sphere_quadrature(2, num_dirs)[0] if self.dim == 2 else _rng.sphere_grid(self.dim, num_dirs, seed)
        return VPolytope(dirs * self.radial_many(dirs)[:, None])


def ball_body(f: ConcaveFunctionOracle | SectionVolumeFunction, p: float) -> StarBodyOracle:
    """The convex body whose radial function is theta -> I_p(f, theta)."""
    return StarBodyOracle(f.dim, lambda thetas: f.ray_moments(thetas, p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# sphere quadrature (k <= 3) and the moment identity


def sphere_quadrature(k: int, level: int = 64):
    """Nodes and weights integrating continuous functions over S^(k-1), k <= 3."""
    if k == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if k == 2:
        ang = 2 * math.pi * np.arange(level) / level
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return dirs, np.full(level, 2 * math.pi / level)
    if k == 3:
        z, wz = _gl_cache(level)
        m_az = 2 * level
        az = 2 * math.pi * np.arange(m_az) / m_az
        Z, AZ = np.meshgrid(z, az, indexing="ij")
        s = np.sqrt(1 - Z**2)
        dirs = np.stack([s * np.cos(AZ), s * np.sin(AZ), Z], axis=-1).reshape(-1, 3)
        wts = np.broadcast_to(wz[:, None] * (2 * math.pi / m_az), Z.shape).reshape(-1)
        return dirs, wts.copy()
    raise GeometryError("sphere quadrature implemented for k <= 3")


def function_moment(f: ConcaveFunctionOracle | SectionVolumeFunction, u, p: int,
                    level: int | None = None) -> float:
    """int_{R^k} <x,u>^p f(x) dx via polar coordinates and sphere quadrature."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    k = f.dim
    if level is None:
        level = {1: 1, 2: 1024, 3: 64}.get(k, 64)
    dirs, wts = sphere_quadrature(k, level)
    vals = f.ray_moments(dirs, k + p)
    return float(np.sum(wts * (dirs @ u) ** p * vals))


def moment_identity_check(f: ConcaveFunctionOracle | SectionVolumeFunction, u, p: int,
                          approx_dirs: int | None = None, seed: int = 11):
    """Both sides of int_{L_{k+p}(f)} <x,u>^p dx = 1/(k+p) int <x,u>^p f(x) dx.

    The left side uses an inscribed polytope approximation of L_{k+p}(f)
    (`StarBodyOracle.polytope_approx`) and exact polytope moments; the right
    side uses direct quadrature of f. At k >= 2 the left side extrapolates
    the moments of the polytopes of approx_dirs / 2 and approx_dirs radii,
    whose deficit falls as N^(-2/(k-1)), to N = inf. At k = 2 the radii sit
    at evenly spaced angles, where that law holds cleanly, so 2048 of them
    (the default) leave a smaller gap than 8192 seeded random radii; the
    seed applies only at k >= 3 (24576 radii by default).
    """
    if p not in (0, 1, 2):
        raise GeometryError("moment identity implemented for p in {0, 1, 2}")
    from .volume import moment_p

    k = f.dim
    u = np.atleast_1d(np.asarray(u, dtype=float))
    L = ball_body(f, k + p)
    if approx_dirs is None:
        approx_dirs = {1: 2, 2: 2048, 3: 24576}.get(k, 2 ** (k + 12))
    if k == 1:
        lhs = moment_p(L.polytope_approx(2, seed), u, p)
    else:
        # inscribed-hull moments carry a deficit ~ N^(-2/(k-1)); extrapolate
        # from two resolutions to cancel the leading term
        n1, n2 = approx_dirs // 2, approx_dirs
        m1 = moment_p(L.polytope_approx(n1, seed), u, p)
        m2 = moment_p(L.polytope_approx(n2, seed), u, p)
        alpha = 2.0 / (k - 1)
        w1, w2 = float(n1) ** alpha, float(n2) ** alpha
        lhs = (m2 * w2 - m1 * w1) / (w2 - w1)
    rhs = function_moment(f, u, p) / (k + p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# inclusion constants and distances


def berwald_inclusion_constants(p: float, q: float, m: float):
    """Scalar factors of the L_q(f) -> L_p(f) sandwich for 1/m-concave f.

    lower * f(0)^(1/p-1/q) * L_q(f)  is inside  L_p(f)  is inside
    upper * max(f)^(1/p-1/q) * L_q(f).
    """
    if not (0 < p <= q) or m <= 0:
        raise GeometryError("need 0 < p <= q and m > 0")
    lower = float(beta(p, m + 1) ** (1 / p) / beta(q, m + 1) ** (1 / q))
    upper = q ** (1 / q) / p ** (1 / p)
    return lower, upper


def fradelizi_constant(k: int, m: float) -> float:
    """max f <= (1 + k/(m+1))^m f(0) for barycenter-zero 1/m-concave f."""
    return (1 + k / (m + 1)) ** m


def negative_ray_factor(k: int, m: float, p: float) -> float:
    """Factor lambda with -L_p(f) inside lambda L_p(f) for barycenter-zero f."""
    return k * geometric_distance_factor(k, m, p)


def geometric_distance_factor(k: int, m: float, p: float) -> float:
    """Bound on d_g(L_{k+1}(f), L_p(f)) for barycenter-zero 1/m-concave f."""
    num = ((k + 1) * beta(k + 1, m + 1)) ** (1 / (k + 1))
    den = (p * beta(p, m + 1)) ** (1 / p)
    return float((1 + k / (m + 1)) ** (m / p) * num / den)


def max_route(f: ConcaveFunctionOracle | SectionVolumeFunction) -> str:
    """The route by which `estimate_max` finds max f.

    For a section-volume function: "closed-form" at m = 0 (the indicator of
    K) and for a ball, "lp" for a polytope at m = 1, "vertex-heights" for a
    polytope at k = 1 and m >= 2. "search" for the rest: polytopes at
    k >= 2 and m >= 2, and every `ConcaveFunctionOracle`. Every route but
    "search" is exact up to rounding, and "lp" is certified by its LP's
    multipliers (`_chord_max`).
    """
    if not isinstance(f, SectionVolumeFunction):
        return "search"
    if f.m == 0 or isinstance(f.body, Ball):
        return "closed-form"
    if f.m == 1:
        return "lp"
    return "vertex-heights" if f.k == 1 else "search"


def estimate_max(f: ConcaveFunctionOracle | SectionVolumeFunction) -> float:
    """max f over its support, by the route `max_route(f)` names.

    - "closed-form": 1 for an indicator (m = 0), and omega_m r^m for the
      profile of a ball of radius r at m >= 1, its section through the centre.
    - "lp": at m = 1, f(x) is the length of K's chord along F over x,
      concave and piecewise linear; its maximum is one LP (`_chord_max`),
      solved by `geometry._lp_max` and certified by its multipliers.
    - "vertex-heights": at k = 1, f is a polynomial of degree <= m between
      consecutive heights <v, e> of K's vertices (`_height_max`).
    - "search": a grid of _SEARCH_GRID points of seed _SEARCH_SEED in the
      support ball, then a Nelder-Mead ascent from the best (`_search_max`).
      It is uncertified: nothing bounds how far below max f it ends.

    The LP and vertex-height routes return f at the point they find, a
    section value.
    """
    route = max_route(f)
    if route == "closed-form":
        return 1.0 if f.m == 0 else unit_ball_volume(f.m) * f.body.radius ** f.m
    if route == "lp":
        return _chord_max(f)
    if route == "vertex-heights":
        return _height_max(f)
    return _search_max(f)


def _chord_max(f: SectionVolumeFunction) -> float:
    """max f at m = 1: K's longest chord along F = R u.

    One LP (`geometry._lp_max`): max s over (z, s) in R^n x R with A z <= b
    and A (z + s u) <= b, on K's rows with b scaled to max |b| = 1, since
    the walk's tolerances are relative to 1. It starts at (v, 0), v the mean
    of K's vertices: feasible for every K, and off every row of z, so the
    walk takes few degenerate steps (from a vertex it took 5 to 40 times as
    many on random 6-D and 8-D bodies). The ascent from s = 0 keeps
    s >= 0. Its multipliers lam >= 0 certify the optimum: lam . h[active]
    bounds s from above. Returns f at the maximiser z, after checking that
    it and that bound agree with s to 1e-9. Raises `GeometryError` when the
    walk fails or they disagree.
    """
    K = to_hrep(f.body)
    n = K.dim
    scale = float(np.abs(K.b).max())
    M = np.block([[K.A, np.zeros((len(K.b), 1))], [K.A, (K.A @ f.F.basis[0])[:, None]]])
    h = np.r_[K.b, K.b] / scale
    x, active, lam = _lp_max(np.eye(n + 1)[n], M, h, np.r_[to_vrep(K).vertices.mean(axis=0) / scale, 0.0])
    s, bound = x[n] * scale, lam @ h[active] * scale
    value = f(f.Fperp.coords(x[:n] * scale))
    if max(abs(value - s), abs(bound - s)) > 1e-9 * s:
        raise GeometryError(f"chord LP optimum {s!r} is not the chord {value!r} at its maximiser, "
                            f"or not its bound {bound!r}")
    return value


def _height_max(f: SectionVolumeFunction) -> float:
    """max f at k = 1 from K's vertex heights h = <v, e>, e spanning F^perp.

    f^(1/m) is concave, so max f lies in the one or two intervals next to
    the height where f is largest. On each, f is a polynomial of degree
    <= m: it is fitted from f at m + 1 Chebyshev nodes (`sections._fit`, the
    fit of the real-p ray moments too), and f is taken at the real parts of
    its derivative's roots inside the interval. Returns
    the largest f value taken. Raises `GeometryError` when a fitted
    polynomial misses f at its interval's ends by more than 1e-8 of the
    largest value, as a section wrongly measured at a vertex height would.
    """
    heights = np.unique(to_vrep(f.body).vertices @ f.Fperp.basis[0])
    at = np.array([f(t) for t in heights])
    j = int(np.argmax(at))
    best = at[j]
    for i in range(max(j - 1, 0), min(j + 1, len(heights) - 1)):
        ends = heights[i:i + 2]
        poly, values = _fit(f, ends, f.m)
        if np.abs(poly(ends) - at[i:i + 2]).max() > 1e-8 * at[j]:
            raise GeometryError("sections at vertex heights miss the polynomial between them")
        crit = poly.deriv().roots().real
        values += [f(t) for t in crit[(crit > ends[0]) & (crit < ends[1])]]
        best = max(best, max(values))
    return float(best)


def _search_max(f: ConcaveFunctionOracle | SectionVolumeFunction) -> float:
    """max f over its support, estimated: a grid of _SEARCH_GRID points of seed
    _SEARCH_SEED in the support ball, then local ascent from the best point.

    For concave-power f any local maximum is global, so the polish step is a
    Nelder-Mead ascent restricted to the support. Uncertified: its value is
    f at some point, so it can only fall short of max f, by an unbounded gap.
    `scipy.optimize` is imported here, at the first search.
    """
    from scipy.optimize import minimize

    k = f.dim
    pts = _rng.sample_ball(k, _SEARCH_GRID, _SEARCH_SEED) * f.support_radius
    pts = np.vstack([np.zeros((1, k)), pts])
    vals = np.array([f(x) for x in pts])
    best = pts[int(np.argmax(vals))]
    res = minimize(lambda x: -f(x), best, method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000})
    return float(max(vals.max(), -res.fun))


def geometric_distance_lb(A: StarBodyOracle, B: StarBodyOracle, num_dirs: int = 256,
                          seed: int = 5) -> float:
    """Certified lower bound on d_g(A, B) from sampled radial ratios."""
    if A.dim != B.dim:
        raise GeometryError("dimension mismatch")
    dirs = _rng.sphere_grid(A.dim, num_dirs, seed)
    ra = A.radial_many(dirs)
    rb = B.radial_many(dirs)
    if np.any(ra <= 0) or np.any(rb <= 0):
        raise GeometryError("radial functions must be positive")
    return float(np.max(ra / rb) * np.max(rb / ra))

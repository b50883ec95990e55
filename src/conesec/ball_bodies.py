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
from scipy.optimize import minimize

from . import rng as _rng
from .geometry import GeometryError, Polytope, VPolytope
from .sections import QuadratureSpec, SectionVolumeFunction, _composite_gl
from .special import beta


class ConcaveFunctionOracle:
    """Evaluable f: R^k -> R_+, 1/m-concave (or log-concave only).

    ``support_radius`` bounds the support: f = 0 outside that ball.
    ``barycenter_zero`` asserts that the first moment of f vanishes.
    ``section_fn`` is the polytope or ball section-volume function that f
    evaluates, if any; its exact ray moments then replace the adaptive rule.
    """

    def __init__(
        self,
        dim: int,
        evaluate: Callable[[np.ndarray], float],
        concavity_index: float | None,
        support_radius: float,
        barycenter_zero: bool = False,
        label: str = "oracle",
        ray_values: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        ray_extent: Callable[[np.ndarray], float] | None = None,
        section_fn: SectionVolumeFunction | None = None,
    ):
        self.dim = dim
        self._evaluate = evaluate
        self.concavity_index = concavity_index
        self.support_radius = float(support_radius)
        self.barycenter_zero = barycenter_zero
        self.label = label
        self._ray_values = ray_values
        self._ray_extent = ray_extent
        self.section_fn = section_fn
        if evaluate(np.zeros(dim)) <= 0:
            raise GeometryError("f(0) must be positive (0 interior to the support)")

    def __call__(self, x) -> float:
        return float(self._evaluate(np.atleast_1d(np.asarray(x, dtype=float))))

    def ray_values(self, x, ts: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._ray_values is not None:
            return self._ray_values(x, ts)
        return np.array([self(t * x) for t in ts])

    def ray_extent(self, x) -> float:
        """Largest t with f(t x) > 0, by bisection unless a closed form exists."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._ray_extent is not None:
            return float(self._ray_extent(x))
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


def oracle_from_section_fn(svf: SectionVolumeFunction, label: str = "section-volume") -> ConcaveFunctionOracle:
    """Wrap a Brunn section-volume function (of a centered body) as an oracle."""
    from .geometry import to_vrep
    from .geometry import Ball

    if isinstance(svf.body, Ball):
        R = svf.body.radius + float(np.linalg.norm(svf.body.center))
    else:
        R = float(np.max(np.linalg.norm(to_vrep(svf.body).vertices, axis=1)))
    return ConcaveFunctionOracle(
        dim=svf.k,
        evaluate=lambda x: svf(x),
        concavity_index=svf.m if svf.m > 0 else None,
        support_radius=R,
        barycenter_zero=True,
        label=label,
        ray_values=svf.ray_values,
        ray_extent=svf.ray_extent,
        section_fn=svf,
    )


def ball_indicator_oracle(k: int, r: float = 1.0) -> ConcaveFunctionOracle:
    """Indicator of r B_2^k (1/m-concave for every m)."""

    def ray_values(x, ts):
        return (ts * np.linalg.norm(x) <= r).astype(float)

    return ConcaveFunctionOracle(
        dim=k,
        evaluate=lambda x: 1.0 if np.linalg.norm(x) <= r else 0.0,
        concavity_index=None,
        support_radius=r,
        barycenter_zero=True,
        label=f"indicator(B_2^{k})",
        ray_values=ray_values,
        ray_extent=lambda x: r / np.linalg.norm(x),
    )


# ---------------------------------------------------------------------------
# the I_p functional and its star bodies


def _exact_section_fn(f: ConcaveFunctionOracle, p: float) -> SectionVolumeFunction | None:
    """The section function behind f when its ray moments at p are exact, else None."""
    svf = f.section_fn
    return svf if svf is not None and svf.has_exact_ray_moments(p) else None


def I_p(f: ConcaveFunctionOracle, x, p: float, spec: QuadratureSpec | None = None) -> float:
    """(int_0^inf t^(p-1) f(t x) dt)^(1/p); homogeneous of degree -1 in x.

    Exact for polytope section profiles (see `_exact_section_fn`), else by
    the adaptive ray rule.
    """
    if p <= 0:
        raise GeometryError("p must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.linalg.norm(x) == 0:
        raise GeometryError("x must be nonzero")
    svf = _exact_section_fn(f, p)
    if svf is not None:
        return float(svf.ray_moments(x[None, :], p)[0]) ** (1.0 / p)
    spec = spec or QuadratureSpec()
    T = f.ray_extent(x)
    if T <= 0:
        return 0.0
    val = _composite_gl(lambda ts: ts ** (p - 1) * f.ray_values(x, ts), 0.0, T, spec)
    return val ** (1.0 / p)


class StarBodyOracle:
    """Direction -> radius map with a cached polytope approximation."""

    def __init__(self, dim: int, radial: Callable[[np.ndarray], float], label: str = "star-body",
                 radial_many: Callable[[np.ndarray], np.ndarray] | None = None):
        self.dim = dim
        self._radial = radial
        self._radial_many = radial_many
        self.label = label
        self._approx_cache: dict[tuple, Polytope] = {}

    def radial(self, theta) -> float:
        return float(self._radial(np.atleast_1d(np.asarray(theta, dtype=float))))

    def radial_many(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if self._radial_many is not None:
            return self._radial_many(thetas)
        return np.array([self.radial(t) for t in thetas])

    def polytope_approx(self, num_dirs: int | None = None, seed: int = 0) -> Polytope:
        """Inscribed polytope: hull of boundary points at a seeded direction grid."""
        if num_dirs is None:
            num_dirs = 2 ** (self.dim + 4)
        key = (num_dirs, seed)
        if key not in self._approx_cache:
            dirs = _rng.sphere_grid(self.dim, num_dirs, seed)
            radii = self.radial_many(dirs)
            self._approx_cache[key] = VPolytope(dirs * radii[:, None])
        return self._approx_cache[key]


def ball_body(f: ConcaveFunctionOracle, p: float, spec: QuadratureSpec | None = None) -> StarBodyOracle:
    """The convex body whose radial function is theta -> I_p(f, theta)."""
    svf = _exact_section_fn(f, p)
    many = None if svf is None else (lambda thetas: svf.ray_moments(thetas, p) ** (1.0 / p))
    return StarBodyOracle(f.dim, lambda th: I_p(f, th, p, spec), label=f"L_{p}({f.label})",
                          radial_many=many)


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
        z, wz = np.polynomial.legendre.leggauss(level)
        m_az = 2 * level
        az = 2 * math.pi * np.arange(m_az) / m_az
        Z, AZ = np.meshgrid(z, az, indexing="ij")
        s = np.sqrt(1 - Z**2)
        dirs = np.stack([s * np.cos(AZ), s * np.sin(AZ), Z], axis=-1).reshape(-1, 3)
        wts = np.broadcast_to(wz[:, None] * (2 * math.pi / m_az), Z.shape).reshape(-1)
        return dirs, wts.copy()
    raise GeometryError("sphere quadrature implemented for k <= 3")


def function_moment(f: ConcaveFunctionOracle, u, p: int, level: int | None = None,
                    spec: QuadratureSpec | None = None) -> float:
    """int_{R^k} <x,u>^p f(x) dx via polar coordinates and sphere quadrature."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    k = f.dim
    if level is None:
        level = {1: 1, 2: 1024, 3: 64}.get(k, 64)
    dirs, wts = sphere_quadrature(k, level)
    svf = _exact_section_fn(f, k + p)
    if svf is not None:
        vals = svf.ray_moments(dirs, k + p)
    else:
        vals = np.array([I_p(f, th, k + p, spec) ** (k + p) for th in dirs])
    return float(np.sum(wts * (dirs @ u) ** p * vals))


def moment_identity_check(f: ConcaveFunctionOracle, u, p: int,
                          approx_dirs: int | None = None, seed: int = 11,
                          spec: QuadratureSpec | None = None):
    """Both sides of int_{L_{k+p}(f)} <x,u>^p dx = 1/(k+p) int <x,u>^p f(x) dx.

    The left side uses an inscribed polytope approximation of L_{k+p}(f) and
    exact polytope moments; the right side uses direct quadrature of f.
    """
    if p not in (0, 1, 2):
        raise GeometryError("moment identity implemented for p in {0, 1, 2}")
    from .volume import moment_p

    k = f.dim
    u = np.atleast_1d(np.asarray(u, dtype=float))
    L = ball_body(f, k + p, spec)
    if approx_dirs is None:
        approx_dirs = {1: 2, 2: 8192, 3: 24576}.get(k, 2 ** (k + 12))
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
    rhs = function_moment(f, u, p, spec=spec) / (k + p)
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
    lower = beta(p, m + 1) ** (1 / p) / beta(q, m + 1) ** (1 / q)
    upper = q ** (1 / q) / p ** (1 / p)
    return lower, upper


def fradelizi_constant(k: int, m: float) -> float:
    """max f <= (1 + k/(m+1))^m f(0) for barycenter-zero 1/m-concave f."""
    return (1 + k / (m + 1)) ** m


def negative_ray_factor(k: int, m: float, p: float) -> float:
    """Factor lambda with -L_p(f) inside lambda L_p(f) for barycenter-zero f."""
    num = ((k + 1) * beta(k + 1, m + 1)) ** (1 / (k + 1))
    den = (p * beta(p, m + 1)) ** (1 / p)
    return k * (1 + k / (m + 1)) ** (m / p) * num / den


def geometric_distance_factor(k: int, m: float, p: float) -> float:
    """Bound on d_g(L_{k+1}(f), L_p(f)) for barycenter-zero 1/m-concave f."""
    num = ((k + 1) * beta(k + 1, m + 1)) ** (1 / (k + 1))
    den = (p * beta(p, m + 1)) ** (1 / p)
    return (1 + k / (m + 1)) ** (m / p) * num / den


def estimate_max(f: ConcaveFunctionOracle, seed: int = 23, grid: int = 512) -> float:
    """max f over its support: seeded grid then local ascent from the best point.

    For concave-power f any local maximum is global, so the polish step is a
    Nelder-Mead ascent restricted to the support.
    """
    k = f.dim
    pts = _rng.sample_ball(k, grid, seed) * f.support_radius
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

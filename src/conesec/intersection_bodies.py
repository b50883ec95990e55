"""Star bodies built from central hyperplane sections.

For a body K with centroid at the origin the map u -> |K cap u^perp| is the
radial function of a star body; a convexified variant replaces the section
volume by the minimum over admissible centers z of the section integral of
the kernel (1 - <z, y>)^(-n).  The admissible centers are the z with
h_L(z) < 1 on the section L = K cap u^perp, the interior of its polar body
(which is the projection of K's polar onto u^perp).  The minimization is a
smooth convex problem over a shrunken copy of that region, solved by damped
Newton descent from the always-feasible start z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .geometry import Ball, ConvexBody, GeometryError, Polytope, Subspace, _origin_interior, support
from .sections import section, section_volume
from .volume import _cone_simplices, body_volume

_SHRINK = 1.0 - 1e-6  # admissible centers z keep h_L(z) <= _SHRINK on the section L
_MAX_ITER = 10_000


@dataclass(frozen=True)
class CIEvaluation:
    """One direction's worth of plain and convexified section radii."""

    direction: np.ndarray
    i_radius: float
    ci_radius: float
    minimizer_z: np.ndarray  # ambient point in u^perp
    iterations: int
    certified_gap: float  # gradient norm at the minimizer, relative certificate
    certified: bool


def intersection_radial(K: ConvexBody, u) -> float:
    """Volume of the central hyperplane section K cap u^perp."""
    return section_volume(K, Subspace.hyperplane(u))


class _SectionIntegrator:
    """Kernel integrals over K cap u^perp, in hyperplane coordinates.

    The map y -> y / (1 - <z, y>) on the d = n - 1 dimensional section has
    Jacobian (1 - <z, y>)^(-n), so int (1 - <z, y>)^(-n) dy is the volume of
    the section's projective image, in closed form. A simplex with vertices
    v_i maps to the simplex with vertices Y_i = v_i / g_i, g_i = 1 - <z, v_i>,
    of volume w = vol / prod_i g_i; its z-gradient is w s and its Hessian
    w (s s^T + sum_i Y_i Y_i^T), s = sum_i Y_i. A ball of centre c and radius
    r maps to an ellipsoid of volume omega_d r^d q^(-n/2),
    q = (1 - <c, z>)^2 - r^2 |z|^2. Both are finite exactly when the kernel
    argument is positive on the section; otherwise GeometryError. The
    simplices are the section's boundary simplices coned from 0, signed by
    their facet's side of 0 (`volume._cone_simplices`), and the volume is
    their sum (`volume.body_volume`); a sliced section has them cached, so
    no triangulation or determinant is taken again. Each evaluation gives the
    value, gradient and Hessian together, one kernel call per Newton step.
    """

    def __init__(self, K: ConvexBody, u):
        u = np.asarray(u, dtype=float)
        self.n = len(u)
        self.S = Subspace.hyperplane(u)
        self.u = u / np.linalg.norm(u)
        self.section = sec = section(K, self.S)
        if sec is None:
            raise GeometryError("central section is empty; 0 must be interior to K")
        self.volume = body_volume(sec)
        if isinstance(sec, Polytope):  # the origin's row has g = 1 and Y = 0
            cones, weights = _cone_simplices(sec)
            self.simplices = np.insert(cones, 0, 0.0, axis=1)
            self._simplex_vols = weights / math.factorial(self.n - 1)

    def integrals(self, zc: np.ndarray):
        """(value, gradient, Hessian) of the kernel integral, in flat coords."""
        zc = np.asarray(zc, dtype=float)
        if isinstance(self.section, Ball):
            return self._ball_closed_form(zc)
        g = 1.0 - self.simplices @ zc  # (S, d+1)
        if np.min(g) <= 0:
            raise GeometryError("kernel argument nonpositive: z outside admissible region")
        w = self._simplex_vols / np.prod(g, axis=1)
        Y = self.simplices / g[:, :, None]
        s = Y.sum(axis=1)
        hess = (w[:, None] * s).T @ s + np.einsum("s,sia,sib->ab", w, Y, Y)
        return float(w.sum()), w @ s, hess

    def _ball_closed_form(self, zc: np.ndarray):
        c, r, n = self.section.center, self.section.radius, self.n
        gc = 1.0 - float(c @ zc)
        rz = r * float(np.linalg.norm(zc))
        if gc <= rz:
            raise GeometryError("kernel argument nonpositive: z outside admissible region")
        q = (gc - rz) * (gc + rz)
        F = self.volume * q ** (-n / 2)
        a = gc * c + r * r * zc
        hess = n * F / q * ((n + 2) / q * np.outer(a, a) + r * r * np.eye(len(zc)) - np.outer(c, c))
        return F, n * F / q * a, hess


def _flat_coords(integ: _SectionIntegrator, z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if abs(z @ integ.u) > 1e-8 * max(1.0, np.linalg.norm(z)):
        raise GeometryError("z must lie in u^perp")
    return integ.S.coords(z)


def ci_objective(K: ConvexBody, u, z) -> float:
    """int_{K cap u^perp} (1 - <z, y>)^(-n) dy for z in u^perp."""
    integ = _SectionIntegrator(K, u)
    val, _, _ = integ.integrals(_flat_coords(integ, z))
    return val


def ci_objective_gradient(K: ConvexBody, u, z) -> np.ndarray:
    """Gradient of ci_objective in z, returned as an ambient vector in u^perp."""
    integ = _SectionIntegrator(K, u)
    _, grad, _ = integ.integrals(_flat_coords(integ, z))
    return integ.S.embed(grad)


def ci_radial(K: ConvexBody, u, tol: float = 1e-8) -> CIEvaluation:
    """Minimize the section kernel integral over admissible centers z.

    Damped Newton descent with Armijo backtracking from z = 0, keeping
    iterates where the support function of the section L = K cap u^perp is
    at most _SHRINK; the objective is convex there (its Hessian is a
    positive multiple of a second-moment matrix), so a small relative
    gradient norm certifies global optimality. Raises GeometryError unless 0
    is interior to K, not only to L: with 0 on K's boundary the region
    h_L(z) < 1 is unbounded in general.

    A step is evaluated only where h_L(z) <= _SHRINK. There every kernel
    argument is at least 1 - _SHRINK > 0: 1 - <z, v> >= 1 - h_L(z) at each
    vertex v of a polytope section, and 1 - <c, z> - r |z| = 1 - h_L(z) for a
    ball. So the kernel integral is finite at every step it takes.
    """
    integ = _SectionIntegrator(K, u)
    _origin_interior(K)
    d = integ.n - 1
    z = np.zeros(d)
    f, g, H = integ.integrals(z)
    i_radius = integ.volume
    iterations = 0
    while iterations < _MAX_ITER:
        gap = float(np.linalg.norm(g))
        if gap <= tol * f:
            break
        try:
            direction = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            direction = -g / gap
        slope = float(g @ direction)
        if slope >= 0:  # numerical Hessian lost definiteness; fall back
            direction = -g / gap
            slope = -gap
        # once the predicted decrease -slope is below the rounding of f, Armijo
        # cannot see it: take the full step if it shrinks the exact gradient
        tiny = -slope <= 1e-12 * f
        t = 1.0
        accepted = False
        while True:
            z_new = z + t * direction
            if support(integ.section, z_new) <= _SHRINK:
                f_new, g_new, H_new = integ.integrals(z_new)
                if np.linalg.norm(g_new) < gap if tiny else f_new <= f + 1e-4 * t * slope:
                    z, f, g, H = z_new, f_new, g_new, H_new
                    accepted = True
                    break
            t *= 0.5
            if tiny or t * abs(slope) <= 1e-16 * f:
                break
        iterations += 1
        if not accepted:
            break  # no feasible descent step at machine precision
    gap = float(np.linalg.norm(g))
    return CIEvaluation(
        direction=integ.u,
        i_radius=float(i_radius),
        ci_radius=float(f),
        minimizer_z=integ.S.embed(z),
        iterations=iterations,
        certified_gap=gap,
        certified=bool(gap <= tol * f),
    )


def ci_inclusion_report(K: ConvexBody, num_dirs: int, seed: int,
                        tol: float = 1e-8) -> dict:
    """Per-direction radii of both section bodies plus the inclusion summary.

    Asserts nothing itself; records ci_radius <= i_radius status and the
    extreme radius ratios over a seeded direction grid.
    """
    n = K.dim
    dirs = _rng.sphere_grid(n, num_dirs, seed)
    records = []
    ratios = []
    num_uncertified = 0
    for u in dirs:
        ev = ci_radial(K, u, tol=tol)
        ratio = ev.ci_radius / ev.i_radius
        ratios.append(ratio)
        if not ev.certified:
            num_uncertified += 1
        records.append({
            "u": [float(x) for x in ev.direction],
            "i_radius": ev.i_radius,
            "ci_radius": ev.ci_radius,
            "ratio": ratio,
            "minimizer_z": [float(x) for x in ev.minimizer_z],
            "iterations": ev.iterations,
            "certified": ev.certified,
        })
    return {
        "body_dim": n,
        "num_dirs": len(dirs),
        "seed": seed,
        "records": records,
        "summary": {
            "min_ratio": float(min(ratios)),
            "max_ratio": float(max(ratios)),
            "num_uncertified": num_uncertified,
            "upper_inclusion_holds": bool(max(ratios) <= 1.0 + 1e-9),
        },
    }

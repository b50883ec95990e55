"""Central-section star bodies and their convexified radial minimization."""

import math

import numpy as np
import pytest

from conesec import rng
from conesec.geometry import (
    Ball,
    GeometryError,
    Subspace,
    VPolytope,
    affine_map,
    make_ball,
    make_cross_polytope,
    make_cube,
    make_regular_simplex,
    minkowski_norm,
    polar,
    project,
    random_centered_polytope,
    support,
    translate,
)
from conesec.intersection_bodies import (
    _SectionIntegrator,
    ci_inclusion_report,
    ci_objective,
    ci_objective_gradient,
    ci_radial,
    intersection_radial,
)
from conesec.sections import section
from conesec.volume import moments
from conftest import halfspace_section


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# plain central sections


def test_ball_central_sections():
    B = make_ball(3)
    for u in (np.eye(3)[2], unit([1.0, 1.0, 1.0])):
        assert intersection_radial(B, u) == pytest.approx(math.pi, rel=1e-9)


def test_cube_axis_and_diagonal_sections():
    cube = make_cube(3)
    assert intersection_radial(cube, np.eye(3)[2]) == pytest.approx(4.0)
    assert intersection_radial(cube, unit([1.0, 1.0, 0.0])) == pytest.approx(
        4.0 * math.sqrt(2), rel=1e-9)


# ---------------------------------------------------------------------------
# the convexifying objective


def test_objective_at_zero_is_section_volume():
    for K in (make_cube(3), make_regular_simplex(3),
              random_centered_polytope(4, 14, 3)):
        n = K.dim
        u = unit(np.arange(1.0, n + 1.0))
        z = np.zeros(n)
        assert ci_objective(K, u, z) == pytest.approx(
            intersection_radial(K, u), rel=1e-9)


def test_objective_1d_closed_form():
    # section of the disc by u^perp is [-1, 1]; kernel integral with shift z
    # along the section line: int_{-1}^{1} (1 - z t)^{-2} dt = 2 / (1 - z^2)
    B = make_ball(2)
    u = np.array([0.0, 1.0])
    for z1 in (0.0, 0.3, -0.55):
        z = np.array([z1, 0.0])
        assert ci_objective(B, u, z) == pytest.approx(
            2.0 / (1.0 - z1 * z1), rel=1e-9)
        g = ci_objective_gradient(B, u, z)
        expect = 4.0 * z1 / (1.0 - z1 * z1) ** 2
        assert g @ np.array([1.0, 0.0]) == pytest.approx(expect, rel=1e-7, abs=1e-9)


def test_gradient_vanishes_at_center_of_symmetry():
    cube = make_cube(3)
    u = unit([1.0, 2.0, 0.5])
    g = ci_objective_gradient(cube, u, np.zeros(3))
    assert np.linalg.norm(g) < 1e-8


def test_gradient_matches_finite_differences():
    K = make_regular_simplex(3)
    u = unit([0.3, -0.2, 1.0])
    S = np.eye(3) - np.outer(u, u)
    z0 = S @ np.array([0.05, -0.02, 0.0])
    g = ci_objective_gradient(K, u, z0)
    h = 1e-6
    for d in (S @ np.eye(3)[0], S @ np.eye(3)[1]):
        fd = (ci_objective(K, u, z0 + h * d) - ci_objective(K, u, z0 - h * d)) / (2 * h)
        assert g @ d == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_objective_rejects_z_outside_hyperplane():
    with pytest.raises(GeometryError):
        ci_objective(make_cube(3), np.eye(3)[2], np.array([0.0, 0.0, 0.5]))


def _admissible_points(K, u, count, seed, scale):
    """Random z in u^perp, each at `scale` times the edge of the admissible region."""
    S = Subspace.hyperplane(u)
    admissible = project(polar(K), S)
    X = np.random.default_rng(seed).standard_normal((count, K.dim - 1))
    return [S.embed(scale * x / minkowski_norm(admissible, x)) for x in X]


@pytest.mark.parametrize("K", [random_centered_polytope(3, 12, 21), make_regular_simplex(4),
                               random_centered_polytope(4, 14, 22),
                               random_centered_polytope(5, 16, 23)],
                         ids=["random3", "simplex4", "random4", "random5"])
def test_objective_is_volume_of_projective_image(K):
    # y -> y / (1 - <z, y>) has Jacobian (1 - <z, y>)^(-n) on the section, so
    # the objective is the volume of an independent hull of the image vertices
    n = K.dim
    for u in rng.sphere_grid(n, 3, 7 + n):
        S = Subspace.hyperplane(u)
        V = section(K, S).vertices
        for z in _admissible_points(K, u, 3, seed=n, scale=0.8):
            image = VPolytope(V / (1.0 - V @ S.coords(z))[:, None])
            assert ci_objective(K, u, z) == pytest.approx(moments(image).volume, rel=1e-12)


def _inner_points(sec, count, seed, bound=0.4):
    """Random z, in the section's coordinates, with |<z, y>| <= bound on it."""
    if isinstance(sec, Ball):
        reach = sec.radius + np.linalg.norm(sec.center)
    else:
        reach = np.max(np.linalg.norm(sec.vertices, axis=1))
    X = np.random.default_rng(seed).standard_normal((count, sec.dim))
    return bound / reach * X / np.linalg.norm(X, axis=1, keepdims=True)


def _polar_quadrature(center, radius, zc, n, nodes=48):
    """Tensor Gauss-Legendre value and gradient of the kernel integral over a d-ball, d = 2, 3."""
    d = len(center)
    x, w = np.polynomial.legendre.leggauss(nodes)
    t, wt = 0.5 * radius * (x + 1), 0.5 * radius * w
    phi, wphi = math.pi * (x + 1), math.pi * w
    if d == 2:
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        wdir = wphi
    else:
        th, wth = 0.5 * math.pi * (x + 1), 0.5 * math.pi * w
        TH, PH = np.meshgrid(th, phi, indexing="ij")
        dirs = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                         np.cos(TH)], axis=-1).reshape(-1, 3)
        wdir = (np.outer(wth * np.sin(th), wphi)).ravel()
    Y = center + t[:, None, None] * dirs[None]  # (T, D, d)
    wts = (wt * t ** (d - 1))[:, None] * wdir[None]
    g = 1.0 - Y @ zc
    value = float(np.sum(wts * g ** -n))
    grad = n * np.einsum("td,tda->a", wts * g ** (-n - 1), Y)
    return value, grad


@pytest.mark.parametrize("d", [2, 3])
def test_off_centre_ball_sections_match_polar_quadrature(d):
    n = d + 1
    B = make_ball(n, 1.3, center=0.2 * np.arange(1.0, n + 1.0) / n)
    u = unit(np.arange(n, 0.0, -1.0))
    S = Subspace.hyperplane(u)
    sec = section(B, S)
    assert np.linalg.norm(sec.center) > 0.1
    for zc in _inner_points(sec, 3, seed=d):
        value, grad = _polar_quadrature(sec.center, sec.radius, zc, n)
        z = S.embed(zc)
        assert ci_objective(B, u, z) == pytest.approx(value, rel=1e-10)
        assert ci_objective_gradient(B, u, z) == pytest.approx(S.embed(grad), rel=1e-10)


@pytest.mark.parametrize("K", [random_centered_polytope(4, 14, 24),
                               make_ball(3, 1.2, center=[0.1, -0.3, 0.2]),
                               make_ball(4, 0.9, center=[0.2, 0.1, 0.0, -0.1])],
                         ids=["random4", "ball3", "ball4"])
def test_hessian_matches_differences_of_the_gradient(K):
    n = K.dim
    u = unit(np.arange(1.0, n + 1.0))
    integ = _SectionIntegrator(K, u)
    h = 1e-5
    for zc in _inner_points(section(K, integ.S), 3, seed=n, bound=0.5):
        _, _, H = integ.integrals(zc)
        fd = np.column_stack([
            (integ.integrals(zc + h * e)[1] - integ.integrals(zc - h * e)[1]) / (2 * h)
            for e in np.eye(n - 1)])
        assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(H))


@pytest.mark.parametrize("K", [random_centered_polytope(n, 2 * n + 6, 30 + n) for n in range(3, 7)]
                         + [make_cube(4), make_cross_polytope(5), make_ball(4, 1.3)],
                         ids=["random3", "random4", "random5", "random6", "cube4", "cross5", "ball4"])
def test_section_support_is_the_gauge_of_the_projected_polar(K):
    # (K cap S)^* = P_S(K^*) for 0 interior to K: the support function of the
    # section, which bounds the admissible centres, is the gauge of that body
    n, K_polar = K.dim, polar(K)
    for u in rng.sample_sphere(n, 3, 5 + n):
        S = Subspace.hyperplane(u)
        L, admissible = section(K, S), project(K_polar, S)
        for y in np.random.default_rng(n).standard_normal((4, n - 1)):
            assert support(L, y) == pytest.approx(minkowski_norm(admissible, y), rel=1e-12)


def test_edge_of_admissible_region_raises():
    # the kernel argument 1 - <z, y> reaches 0 on the section: a square
    # vertex for the cube, a boundary point of the disc for the ball
    u = np.eye(3)[2]
    for K, z in ((make_cube(3), np.array([0.5, 0.5, 0.0])),
                 (make_ball(3), np.array([0.6, 0.8, 0.0]))):
        with pytest.raises(GeometryError, match="nonpositive"):
            ci_objective(K, u, z)
        with pytest.raises(GeometryError, match="nonpositive"):
            ci_objective_gradient(K, u, z)
        assert ci_objective(K, u, (1.0 - 1e-9) * z) > 0
    # just past the edge on a body without exact coordinates
    K = random_centered_polytope(4, 14, 25)
    u = unit([1.0, -2.0, 0.5, 1.0])
    (z,) = _admissible_points(K, u, 1, seed=3, scale=1.0 + 1e-12)
    with pytest.raises(GeometryError, match="nonpositive"):
        ci_objective(K, u, z)


# ---------------------------------------------------------------------------
# minimization


@pytest.mark.parametrize("K", [translate(make_cube(3), [1.0, 0.0, 0.0]),
                               make_ball(3, 1.0, center=[0.0, 0.6, 0.8])],
                         ids=["cube-0-on-facet", "ball-0-on-sphere"])
def test_ci_radial_needs_0_interior_to_the_body(K):
    # 0 lies on K's boundary and on the section's: the centres with
    # h_L(z) < 1 then form an unbounded region, along which the kernel
    # integral tends to 0
    u = unit([0.3, 0.5, 0.8])
    assert intersection_radial(K, u) > 0
    with pytest.raises(GeometryError, match="origin is not interior"):
        ci_radial(K, u)


def test_off_centre_ball_certifies_below_its_section():
    B = make_ball(3, 1.2, center=[0.3, -0.4, 0.2])
    for u in rng.sphere_grid(3, 4, 1):
        res = ci_radial(B, u)
        assert res.certified
        assert res.ci_radius <= res.i_radius
        assert ci_objective(B, u, res.minimizer_z) == pytest.approx(res.ci_radius, rel=1e-12)


@pytest.mark.parametrize("index", [25, 33])
@pytest.mark.parametrize("radius", ["ci", "intersection"])
def test_6d_sections_whose_hull_does_not_tile(radius, index):
    # qhull's triangulation of these 5-D sections overlaps itself. Both
    # radii take the section sliced from K's cones, ci_radial integrating
    # over its faces; the reference is a halfspace intersection under a
    # seeded rotation in which qhull tiles its hull
    K, u = random_centered_polytope(6, 18, 5), rng.sphere_grid(6, 50, 7)[index]
    if radius == "ci":
        res = ci_radial(K, u)
        assert res.certified
        value = res.i_radius
    else:
        value = intersection_radial(K, u)
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    ref = moments(halfspace_section(affine_map(K, Q), Subspace.hyperplane(Q @ u))).volume
    assert value == pytest.approx(ref, rel=1e-10)


def test_symmetric_bodies_minimize_at_zero():
    for K in (make_cube(3), make_cross_polytope(3), make_ball(3)):
        u = unit([1.0, 0.7, -0.2])
        res = ci_radial(K, u)
        assert res.certified
        assert res.ci_radius == pytest.approx(res.i_radius, rel=1e-6)
        assert np.linalg.norm(res.minimizer_z) < 1e-5


def test_simplex_minimizer_strictly_below_section():
    K = make_regular_simplex(2)
    u = unit([0.0, 1.0])
    res = ci_radial(K, u)
    assert res.certified
    assert res.ci_radius < res.i_radius * (1 - 1e-3)
    # the reported minimizer actually achieves the reported value
    assert ci_objective(K, u, res.minimizer_z) == pytest.approx(
        res.ci_radius, rel=1e-9)


def test_minimizer_beats_grid_search():
    K = make_regular_simplex(2)
    u = unit([1.0, 0.4])
    res = ci_radial(K, u)
    S = np.eye(2) - np.outer(u, u)
    d = unit(S @ np.array([1.0, 0.0]))
    best = min(
        ci_objective(K, u, t * d)
        for t in np.linspace(-0.3, 0.3, 121))
    assert res.ci_radius <= best + 1e-9


def test_inclusion_report_cube():
    rep = ci_inclusion_report(make_cube(3), num_dirs=8, seed=3)
    s = rep["summary"]
    assert s["upper_inclusion_holds"]
    assert s["num_uncertified"] == 0
    assert s["min_ratio"] == pytest.approx(1.0, abs=1e-6)
    assert s["max_ratio"] == pytest.approx(1.0, abs=1e-6)


def test_inclusion_report_random_body():
    K = random_centered_polytope(3, 12, 8)
    rep = ci_inclusion_report(K, num_dirs=12, seed=5)
    s = rep["summary"]
    assert s["num_uncertified"] == 0
    assert s["upper_inclusion_holds"]  # convexification only shrinks radii
    for rec in rep["records"]:
        assert rec["ratio"] == pytest.approx(
            rec["ci_radius"] / rec["i_radius"], rel=1e-12)
        assert rec["ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize("n, K, indices", [
    (3, random_centered_polytope(3, 12, 44), [137, 172]),
    (4, make_regular_simplex(4), [189]),
    (4, random_centered_polytope(4, 14, 45), [212]),
], ids=["random3", "simplex4", "random4"])
def test_directions_that_stalled_below_the_certificate_certify(n, K, indices):
    # with a quadrature objective these stopped at a relative gradient of
    # 1.0-1.9e-8, just above the 1e-8 certificate
    dirs = rng.sphere_grid(n, 220, 1629943578)
    for i in indices:
        res = ci_radial(K, dirs[i])
        assert res.certified
        assert res.certified_gap <= 1e-8 * res.ci_radius


@pytest.mark.parametrize("K", [random_centered_polytope(3, 12, 44),
                               random_centered_polytope(4, 14, 45)],
                         ids=["random3", "random4"])
def test_newton_certifies_below_the_rounding_of_f(K):
    # at tol = 1e-12 the last Newton steps predict a decrease below the
    # rounding of f, where Armijo sees none: the full step is taken when it
    # shrinks the gradient
    for u in rng.sphere_grid(K.dim, 20, 1629943578):
        res = ci_radial(K, u, tol=1e-12)
        assert res.certified, u


@pytest.mark.parametrize("index", [0, 32, 45, 46])
def test_central_sections_of_the_8_cube_certify(index):
    # the H-built 8-cube's central sections take the halfspace route, whose
    # boundary is pulled from the system's rows; the hull of the
    # intersection points did not tile at indices 32, 45 and 46
    u = rng.sphere_grid(8, 32, 0)[index]
    assert ci_radial(make_cube(8), u).certified

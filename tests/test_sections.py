"""Flat sections, section-volume functions and cone-section volumes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.spatial import ConvexHull, HalfspaceIntersection

import conesec
from conesec import sections
from conesec.geometry import (
    GeometryError,
    HPolytope,
    PolyhedralCone,
    Subspace,
    _halfspace_polytope,
    affine_map,
    boundary,
    make_ball,
    make_centered_cone,
    make_cross_polytope,
    make_cube,
    make_regular_simplex,
    orthant_cone,
    radial,
    random_centered_polytope,
    to_hrep,
    to_vrep,
    translate,
)
from conesec.sections import (
    EmptySection,
    QuadratureSpec,
    QuadratureWarning,
    SectionVolumeFunction,
    _RAY_BLOCK_ELEMENTS,
    _composite_gl,
    cone_section_volume_polyhedral,
    cone_section_volume_radial,
    ray_moment,
    section,
    section_volume,
    section_volume_fn,
    solid_angle_fraction,
)
from conesec.verify import checks_for_body
from conesec.volume import moment_p, volume, wedge_moment

dims = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)


def random_body(n, seed):
    return random_centered_polytope(n, 2 * n + 6, seed)


def trivial_flat(n):
    return Subspace(n, np.zeros((0, n)))


# ---------------------------------------------------------------------------
# flat sections


def test_cube_axis_section():
    S = Subspace.hyperplane(np.array([0.0, 0.0, 1.0]))
    assert section_volume(make_cube(3), S) == pytest.approx(4.0)


def test_cube_diagonal_section():
    # {x1 + x2 = 0} cuts [-1,1]^n in a slab of volume sqrt(2) * 2^(n-1)
    for n in (3, 4, 5):
        u = np.zeros(n)
        u[:2] = 1.0 / math.sqrt(2)
        S = Subspace.hyperplane(u)
        assert section_volume(make_cube(n), S) == pytest.approx(
            math.sqrt(2) * 2 ** (n - 1), rel=1e-9)


def test_section_through_a_clearly_interior_point_solves_no_lp(monkeypatch):
    # 0 starts qhull when it is clearly interior to K, at every scale; the
    # sections agree with the ones from the Chebyshev centre
    lps = []
    real = conesec.geometry.chebyshev_center
    monkeypatch.setattr(conesec.geometry, "chebyshev_center", lambda A, b: lps.append(1) or real(A, b))
    K, e = random_body(4, 17), np.eye(4)
    S = Subspace.from_span(e[:3], ambient_dim=4)
    ref = section_volume(K, S)
    for scale in (1e-6, 1e-2, 1.0, 1e4):
        H = to_hrep(affine_map(K, scale * e))
        assert section_volume(H, S) == pytest.approx(scale**3 * ref, rel=1e-12, abs=0.0)
        lp_route = _halfspace_polytope(H.A @ S.basis.T, H.b)
        assert volume(lp_route) == pytest.approx(scale**3 * ref, rel=1e-12, abs=0.0)
    assert len(lps) == 4  # the LP routes only
    # a flat through a point near the boundary still takes the LP
    x0 = 0.9999 * radial(K, e[3]) * e[3]
    assert section_volume(K, S, x0) > 0
    assert len(lps) == 5


def test_ball_section_radius_shrinks():
    B = make_ball(3, r=2.0)
    S = Subspace.hyperplane(np.array([0.0, 0.0, 1.0]))
    assert section_volume(B, S) == pytest.approx(math.pi * 4.0)
    off = section_volume(B, S, x0=np.array([0.0, 0.0, 1.0]))
    assert off == pytest.approx(math.pi * 3.0)


def test_section_outside_body_is_empty():
    S = Subspace.hyperplane(np.array([0.0, 1.0]))
    sec = section(make_cube(2), S, x0=np.array([0.0, 5.0]))
    assert isinstance(sec, EmptySection)
    assert section_volume(make_cube(2), S, x0=np.array([0.0, 5.0])) == 0.0


def test_line_section_of_simplex():
    S = Subspace.from_span([[1.0, 0.0, 0.0]])
    val = section_volume(make_cube(3), S)
    assert val == pytest.approx(2.0)
    assert section_volume(make_regular_simplex(3), S) > 0.0


# ---------------------------------------------------------------------------
# section-volume (Brunn) functions


def test_brunn_function_basic_values():
    F = Subspace.from_span([[1.0, 0, 0], [0, 1.0, 0]])
    f = section_volume_fn(make_cube(3), F)
    assert f.concavity_index == 2
    assert f([0.0]) == pytest.approx(4.0)
    assert f([0.5]) == pytest.approx(4.0)
    assert f([1.5]) == 0.0
    assert f.ray_extent([1.0]) == pytest.approx(1.0)


def test_brunn_function_codim_n_is_indicator():
    f = section_volume_fn(make_cube(2), trivial_flat(2))
    assert f.concavity_index == 0
    assert f([0.2, 0.3]) == 1.0
    assert f([1.2, 0.0]) == 0.0


@given(dims, seeds)
def test_brunn_power_concavity(n, seed):
    # f^(1/m) is concave along any segment inside the support
    K = random_body(n, seed)
    F = Subspace.from_span(np.eye(n)[: n - 1])
    f = section_volume_fn(K, F)
    m = f.concavity_index
    a = 0.6 * f.ray_extent(np.array([1.0]))
    b = -0.6 * f.ray_extent(np.array([-1.0]))
    mid = 0.5 * (a + b)
    lhs = f([mid]) ** (1.0 / m)
    rhs = 0.5 * (f([a]) ** (1.0 / m) + f([b]) ** (1.0 / m))
    assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def test_ball_ray_moment_closed_form():
    # chord length of the disc: f(t) = 2 sqrt(1-t^2); int_0^1 f = pi/2
    F = Subspace.from_span([[1.0, 0.0]])
    f = section_volume_fn(make_ball(2), F)
    assert ray_moment(f, np.array([1.0]), 1.0) == pytest.approx(math.pi / 2, rel=1e-6)
    # int_0^1 t f(t) dt = 2/3
    assert ray_moment(f, np.array([1.0]), 2.0) == pytest.approx(2.0 / 3.0, rel=1e-6)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_centred_ball_ray_moments_are_exact(m):
    # f(t theta) = omega_m (r^2 - t^2 |theta|^2)^(m/2) for the ball rB in R^(m+2)
    f = section_volume_fn(make_ball(m + 2, r=1.5), Subspace.from_span(np.eye(m + 2)[:m]))
    theta = np.array([1.02, -0.34])  # |theta| = 1.075...
    T = 1.5 / np.linalg.norm(theta)
    for p in (0.5, 2.0, 3.5):
        assert f.has_exact_ray_moments(p)
        ref = quad(lambda t: t ** (p - 1) * f.ray_values(theta, np.array([t]))[0], 0.0, T,
                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert f.ray_moments([theta, -2.0 * theta], p) == pytest.approx(
            [ref, ref * 2.0 ** -p], rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_centred_ball_indicator_ray_moments_are_exact(k):
    # at m = 0, f is the indicator of rB: int_0^(r/|theta|) t^(p-1) dt = (r/|theta|)^p / p
    f = section_volume_fn(make_ball(k, r=1.5), trivial_flat(k))
    theta = np.linspace(0.4, 1.1, k)
    R = 1.5 / np.linalg.norm(theta)
    assert f.ray_values(theta, R * np.array([0.5, 0.999, 1.001, 2.0])).tolist() == [1, 1, 0, 0]
    for p in (0.5, 2.0, 3.5):
        assert f.has_exact_ray_moments(p)
        assert f.ray_moments([theta, -2.0 * theta], p) == pytest.approx(
            [R ** p / p, (R / 2) ** p / p], rel=1e-13)


def test_adaptive_ray_rule_warns_when_it_misses_its_tolerance():
    # the disc chord 2 sqrt(1 - t^2) has a square-root edge at t = 1: the
    # panel doubling runs out before two levels agree to 1e-8 (`ray_moment`
    # itself takes the closed form for a centred ball)
    f = section_volume_fn(make_ball(2), Subspace.from_span([[1.0, 0.0]]))
    theta = np.array([1.0])

    def chord(spec):
        return _composite_gl(lambda ts: f.ray_values(theta, ts), 0.0, 1.0, spec)

    spec = QuadratureSpec()
    with pytest.warns(QuadratureWarning) as record:
        got = chord(spec)
    warning = record[0].message
    assert warning.value == got
    assert warning.gap > spec.ray_rel_tol * got
    assert got == pytest.approx(math.pi / 2, rel=1e-6)
    # a looser tolerance is met, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loose = chord(QuadratureSpec(ray_rel_tol=1e-5))
    assert loose == pytest.approx(math.pi / 2, rel=1e-5)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 2.5])
def test_off_centre_ball_ray_moments_take_the_adaptive_rule(p):
    # no closed form off centre: `ray_moments` integrates each row with the
    # adaptive rule, silently at the rule's tolerance
    f = section_volume_fn(make_ball(4, center=[0, 0, 0.1, -0.05]), Subspace.from_span(np.eye(4)[:2]))
    assert not f.has_exact_ray_moments(p)
    thetas = np.array([[1.0, 0.0], [-0.3, 0.8], [0.6, -1.2]])
    refs = [quad(lambda t: t ** (p - 1) * f(t * theta), 0.0, f.ray_extent(theta),
                 epsabs=0.0, epsrel=1e-13, limit=200)[0] for theta in thetas]
    got = f.ray_moments(thetas, p)
    assert got == pytest.approx(refs, rel=1e-12 if float(p).is_integer() else 1e-8)
    assert [ray_moment(f, theta, p) for theta in thetas] == got.tolist()


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_polytope_indicator_ray_moments_are_exact(p):
    # at m = 0, f is the indicator of K: int_0^T t^(p-1) dt = radial(K, theta)^p / p
    K = make_cube(3)
    f = section_volume_fn(K, trivial_flat(3))
    assert f.has_exact_ray_moments(p)
    thetas = np.array([[1.0, 0.2, -0.4], [-0.3, 0.9, 0.1], [0.0, 0.0, -2.0]])
    assert f.ray_moments(thetas, p) == pytest.approx(
        [radial(K, theta) ** p / p for theta in thetas], rel=1e-14)


def test_ray_moments_reject_nonpositive_p():
    f = section_volume_fn(make_ball(4, center=[0, 0, 0.1, -0.05]), Subspace.from_span(np.eye(4)[:2]))
    for p in (0.0, -1.0):
        with pytest.raises(GeometryError):
            f.ray_moments([[1.0, 0.0]], p)


# ---------------------------------------------------------------------------
# exact ray moments of polytope profiles


def _slab(K, F, theta_amb):
    """K cap (F + R theta) in the coordinates (F basis, unit theta)."""
    e = theta_amb / np.linalg.norm(theta_amb)
    return section(K, Subspace(K.dim, np.vstack([F.basis, e])))


def _fubini_ray_moment(K, F, theta_amb, p):
    """int_0^T t^(p-1) f(t theta) dt as the moment of K cap (F + R_+ theta)."""
    H = to_hrep(_slab(K, F, theta_amb))
    d = H.dim
    e_last = np.eye(d)[-1]
    half = HPolytope(np.vstack([H.A, -e_last]), np.append(H.b, 0.0))
    return moment_p(half, e_last, p - 1) / np.linalg.norm(theta_amb) ** p


def _unit_rows(k, count, seed):
    X = np.random.default_rng(seed).standard_normal((count, k))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


@pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3)])
def test_exact_ray_moments_match_fubini(n, m):
    # (n, m) = (4, 2) and (5, 2) take a wedge moment of K's cones sliced by
    # one and two normals per direction, the others one of K itself
    # (m >= 2, k = 1) or the chord lines (m = 1)
    K = random_body(n, 40 + n + m)
    F = Subspace.from_span(np.eye(n)[:m], ambient_dim=n)
    f = section_volume_fn(K, F)
    thetas = _unit_rows(f.k, 3, seed=n + m)
    thetas[0] *= 1.7  # homogeneity: any nonzero direction vector
    for p in (1, 2, 3, 4, 5):
        assert f.has_exact_ray_moments(p)
        got = f.ray_moments(thetas, p)
        for value, theta in zip(got, thetas):
            ref = _fubini_ray_moment(K, F, f.Fperp.embed(theta), p)
            assert value == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("points, seed, index, rotation", [
    (30, 4, 1, 92), (30, 4, 3, 95), (30, 4, 47, 95), (18, 10, 221, 60)])
def test_ray_moments_of_6d_bodies_match_fubini(points, seed, index, rotation):
    # F = span(e1..e4), theta the index-th of 240 equally spaced angles. A
    # section of K per direction raised on directions 1, 3 and 221 (qhull
    # could not hull it, or its triangulation did not tile it) and was
    # 4.2e-5 off on 47. The reference takes its section of K under a seeded
    # rotation in which qhull tiles it.
    K, e = random_centered_polytope(6, points, seed), np.eye(6)
    F = Subspace.from_span(e[:4])
    f = section_volume_fn(K, F)
    phi = 2 * math.pi * index / 240
    theta = np.array([math.cos(phi), math.sin(phi)])
    Q = np.linalg.qr(np.random.default_rng(rotation).standard_normal((6, 6)))[0]
    ref = _fubini_ray_moment(affine_map(K, Q), Subspace.from_span(e[:4] @ Q.T),
                             Q @ f.Fperp.embed(theta), 2)
    assert f.ray_moments(theta[None, :], 2)[0] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("p", [1.5, 3.5])
def test_chord_ray_moments_at_real_p(p):
    # at m = 1 the closed form holds for real p: compare with adaptive
    # Gauss-Kronrod on each panel between the slab polygon's vertex heights
    K = random_body(4, 17)
    F = Subspace.from_span(np.eye(4)[:1])
    f = section_volume_fn(K, F)
    assert f.has_exact_ray_moments(p)
    for theta in _unit_rows(f.k, 3, seed=5):
        T = f.ray_extent(theta)
        heights = _slab(K, F, f.Fperp.embed(theta)).vertices[:, -1]
        edges = np.unique(np.clip(np.append(heights, [0.0, T]), 0.0, T))
        ref = sum(quad(lambda t: t ** (p - 1) * f.ray_values(theta, np.array([t]))[0],
                       a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                  for a, b in zip(edges[:-1], edges[1:]))
        assert f.ray_moments(theta[None, :], p)[0] == pytest.approx(ref, rel=1e-11)


def test_non_integer_p_at_m2_is_not_exact():
    f = section_volume_fn(random_body(3, 2), Subspace.from_span(np.eye(3)[:2]))
    assert f.has_exact_ray_moments(2.0)
    assert not f.has_exact_ray_moments(2.5)
    # a ball's profile is exact only when the ball is centred at 0 (closed form)
    assert section_volume_fn(make_ball(3), Subspace.from_span(np.eye(3)[:1])).has_exact_ray_moments(2.5)
    off = make_ball(3, center=[0.0, 0.1, 0.0])
    assert not section_volume_fn(off, Subspace.from_span(np.eye(3)[:1])).has_exact_ray_moments(2)
    assert section_volume_fn(make_cube(2), trivial_flat(2)).has_exact_ray_moments(2.5)


@pytest.mark.parametrize("m", [1, 2])
def test_batched_ray_moments_equal_per_direction(m):
    # 300 directions on a 4-D chord body span several blocks at m = 1
    K = random_body(4, 9)
    f = section_volume_fn(K, Subspace.from_span(np.eye(4)[:m]))
    thetas = _unit_rows(f.k, 300 if m == 1 else 12, seed=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exact route never warns
        batched = f.ray_moments(thetas, 3)
        single = [ray_moment(f, theta, 3) for theta in thetas]
    assert batched == pytest.approx(single, rel=1e-13)


def test_chord_moments_at_several_degrees_equal_fresh_ones():
    # the chord profile of a one-block call is kept for calls at other p;
    # every result equals the one of a function that has seen no direction
    K, F = random_body(4, 9), Subspace.from_span(np.eye(4)[:1])
    f = section_volume_fn(K, F)
    block = _RAY_BLOCK_ELEMENTS // len(f._fast[0]) ** 2
    for count in (block, 3 * block + 5):
        thetas = _unit_rows(f.k, count, seed=count)
        for p in (1, 2, 3, 2.5):
            fresh = section_volume_fn(K, F).ray_moments(thetas, p)
            assert f.ray_moments(thetas, p).tolist() == fresh.tolist()
    # directions changed in place are new directions
    thetas = _unit_rows(f.k, 8, seed=3)
    f.ray_moments(thetas, 2)
    thetas[:4] *= -1.5
    assert f.ray_moments(thetas, 2).tolist() == section_volume_fn(K, F).ray_moments(thetas, 2).tolist()


def test_degrees_on_one_block_walk_the_envelopes_once(monkeypatch):
    walks, extents = [], []
    real_walk, real_extent = conesec.sections._envelope_kinks, conesec.sections.radial_many
    monkeypatch.setattr(conesec.sections, "_envelope_kinks", lambda *a: walks.append(1) or real_walk(*a))
    monkeypatch.setattr(conesec.sections, "radial_many", lambda *a: extents.append(1) or real_extent(*a))
    f = section_volume_fn(random_body(3, 8), Subspace.from_span(np.eye(3)[:1]))
    thetas = _unit_rows(f.k, 32, seed=1)
    for p in (1, 2, 3):
        f.ray_moments(thetas, p)
    assert len(walks) == 2  # the upper and the lower envelope
    assert len(extents) == 1


def test_coinciding_breakpoints_give_exact_values():
    # cube, axis-aligned theta: every facet line is parallel to the ray or
    # to F, so crossings are at infinity and vertex heights repeat
    cube = make_cube(3)
    for p in (1, 2, 3.5):
        f1 = section_volume_fn(cube, Subspace.from_span([[1.0, 0, 0]]))
        assert f1.ray_moments([[1.0, 0.0]], p)[0] == pytest.approx(2.0 / p, rel=1e-13)
        # diagonal theta leaves the cube through an edge, at t = sqrt(2)
        diag = np.array([[1.0, 1.0]]) / math.sqrt(2)
        assert f1.ray_moments(diag, p)[0] == pytest.approx(2.0 * 2 ** (p / 2) / p, rel=1e-13)
    f2 = section_volume_fn(cube, Subspace.from_span(np.eye(3)[:2]))
    for p in (1, 2, 3):
        assert f2.ray_moments([[1.0]], p)[0] == pytest.approx(4.0 / p, rel=1e-13)
    # cross-polytope, theta parallel to facets: facet lines coincide in
    # pairs; the chord is 2 (1 - t), so the moment is 2 B(p, 2)
    f3 = section_volume_fn(make_cross_polytope(3), Subspace.from_span([[1.0, 0, 0]]))
    for p in (1, 2, 2.5):
        got = f3.ray_moments([[1.0, 0.0], [0.0, -1.0]], p)
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(2.0 / (p * (p + 1)), rel=1e-13)


# ---------------------------------------------------------------------------
# solid angles


def test_solid_angle_closed_forms():
    assert solid_angle_fraction(PolyhedralCone([[1.0, 0.0]])) == pytest.approx(0.5)
    ang = math.radians(70.0)
    C = PolyhedralCone([[1.0, 0.0], [math.cos(ang), math.sin(ang)]])
    assert solid_angle_fraction(C) == pytest.approx(ang / (2 * math.pi), rel=1e-12)
    assert solid_angle_fraction(orthant_cone(np.eye(3))) == pytest.approx(1.0 / 8.0)
    assert solid_angle_fraction(orthant_cone(np.eye(4))) == pytest.approx(1.0 / 16.0)


def test_solid_angle_simplicial_3d():
    # spherical triangle with vertices e1, e2, (e1+e2+e3)/sqrt(3):
    # solid angle from Van Oosterom-Strang
    v3 = np.ones(3) / math.sqrt(3)
    C = PolyhedralCone([[1.0, 0, 0], [0, 1.0, 0], v3])
    v1, v2 = np.eye(3)[0], np.eye(3)[1]
    num = abs(np.dot(v1, np.cross(v2, v3)))
    den = 1.0 + v1 @ v2 + v2 @ v3 + v1 @ v3
    omega = 2.0 * math.atan2(num, den)
    assert solid_angle_fraction(C) == pytest.approx(omega / (4 * math.pi), rel=1e-10)


def test_ball_cone_section_is_solid_angle_share():
    B = make_ball(4)
    F = Subspace.from_span([[1.0, 0, 0, 0]])
    C = orthant_cone([[0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    full = section_volume(B, Subspace.from_span(np.eye(4)))  # whole ball
    got = cone_section_volume_polyhedral(B, F, C)
    assert got == pytest.approx(volume(B) / 8.0, rel=1e-9)


# ---------------------------------------------------------------------------
# cone sections, both routes


def test_full_cone_section_is_volume():
    K = random_body(3, 6)
    C = orthant_cone(np.eye(3))
    total = 0.0
    for signs in np.ndindex(2, 2, 2):
        gens = np.diag([1.0 if s == 0 else -1.0 for s in signs])
        total += cone_section_volume_polyhedral(K, trivial_flat(3), orthant_cone(gens))
    assert total == pytest.approx(volume(K), rel=1e-9)


@given(seeds)
def test_cone_partition_additivity(seed):
    # halfspace split along e_n through a flat
    K = random_body(4, seed)
    F = Subspace.from_span(np.eye(4)[:3])
    up = PolyhedralCone([[0, 0, 0, 1.0]])
    down = PolyhedralCone([[0, 0, 0, -1.0]])
    a = cone_section_volume_polyhedral(K, F, up)
    b = cone_section_volume_polyhedral(K, F, down)
    assert a + b == pytest.approx(volume(K), rel=1e-9)


# ---------------------------------------------------------------------------
# wedge volumes from the cached boundary simplices


def test_wedge_gruenbaum_cone_equality():
    # the halfspace {x_n >= 0} through the centroid keeps (n/(n+1))^n of the cone
    for n in range(2, 7):
        K = make_centered_cone(n)
        up = np.eye(n)[-1]
        assert wedge_moment(K, [up]) / volume(K) == pytest.approx((n / (n + 1.0)) ** n, rel=1e-12)
        F = Subspace.hyperplane(up)
        got = cone_section_volume_polyhedral(K, F, PolyhedralCone([up]))
        assert got / volume(K) == pytest.approx((n / (n + 1.0)) ** n, rel=1e-12)


def test_wedge_halves_the_cube():
    # axis-aligned cuts run through 2(n-1) facets; the diagonal cut through all
    for n in range(2, 8):
        cube = make_cube(n)
        for u in list(np.eye(n)) + [np.ones(n)]:
            assert wedge_moment(cube, [u]) == pytest.approx(2.0 ** (n - 1), rel=1e-12)
    assert wedge_moment(make_cube(7), [np.ones(7)]) == pytest.approx(64.0, rel=1e-12)


def test_wedge_with_the_origin_off_center_or_outside():
    e = np.eye(3)
    off = translate(make_cube(3), [0.5, 0.0, 0.0])  # [-0.5, 1.5] x [-1, 1]^2
    assert wedge_moment(off, [e[0]]) == pytest.approx(6.0, rel=1e-12)
    assert wedge_moment(off, [-e[0]]) == pytest.approx(2.0, rel=1e-12)
    assert wedge_moment(off, [e[0], e[1]]) == pytest.approx(3.0, rel=1e-12)
    far = translate(make_cube(3), [3.0, 0.0, 0.0])  # 0 outside K
    assert wedge_moment(far, [e[0]]) == pytest.approx(8.0, rel=1e-12)
    assert wedge_moment(far, [e[1]]) == pytest.approx(4.0, rel=1e-12)
    assert wedge_moment(far, [e[0], -e[2]]) == pytest.approx(4.0, rel=1e-12)
    assert wedge_moment(far, [-e[0]]) == 0.0  # the wedge misses K


def test_wedge_takes_either_representation():
    K = random_body(4, 12)
    H = HPolytope(to_hrep(K).A, to_hrep(K).b)
    R = [[1.0, -0.5, 0.2, 0.0], [0.0, 1.0, 0.3, -0.7]]
    assert wedge_moment(H, R) == pytest.approx(wedge_moment(K, R), rel=1e-12)
    cube = make_cube(4)
    assert wedge_moment(cube, R) == pytest.approx(wedge_moment(to_vrep(cube), R), rel=1e-12)


def _hull_volume_of(A, b):
    """Volume of {A y <= b} by scipy's qhull alone (reference for the wedge route)."""
    from scipy.optimize import linprog

    d = A.shape[1]
    res = linprog(np.r_[np.zeros(d), -1.0], A_ub=np.hstack([A, np.linalg.norm(A, axis=1)[:, None]]),
                  b_ub=b, bounds=[(None, None)] * d + [(0, None)], method="highs")
    hs = HalfspaceIntersection(np.hstack([A, -b[:, None]]), res.x[:d])
    return ConvexHull(hs.intersections).volume


def test_cone_section_through_a_lower_dimensional_span():
    # F + span C is a proper subspace: one section, then the wedge in its coordinates
    K = random_body(5, 21)
    H = to_hrep(K)
    e = np.eye(5)
    for F, C in ((Subspace.from_span(e[:2], ambient_dim=5), PolyhedralCone([e[4]])),
                 (Subspace.from_span(e[:1], ambient_dim=5), orthant_cone([e[3], -e[4]]))):
        S = Subspace.from_span(np.vstack([F.basis, C.span.basis]), ambient_dim=5)
        rows = S.coords(C.constraints_in_span() @ C.span.basis)
        A = H.A @ S.basis.T
        plus = cone_section_volume_polyhedral(K, F, C)
        ref = _hull_volume_of(np.vstack([A, -rows]), np.r_[H.b, np.zeros(len(rows))])
        assert plus == pytest.approx(ref, rel=1e-9)
        minus = cone_section_volume_polyhedral(K, F, C.negated())
        if C.span_dim == 1:
            assert plus + minus == pytest.approx(ConvexHull(section(K, S).vertices).volume, rel=1e-12)


def test_section_whose_first_hull_overlaps_is_hulled_again():
    # in the centred, rotated coordinates that find this section's vertices,
    # qhull's triangulation of its non-simplicial facets overlaps itself
    K = random_body(6, 2608)
    S = Subspace.from_span(np.eye(6)[[0, 1, 2, 4, 5]], ambient_dim=6)
    sec = section(K, S)
    assert boundary(sec).tiles
    assert volume(sec) == pytest.approx(ConvexHull(sec.vertices).volume, rel=1e-12)


def test_corpus_battery_hulls_a_6d_body_a_few_times(monkeypatch):
    # one hull for the body, then one section (a halfspace intersection and
    # a hull) per wedge that is not full-dimensional
    made = []

    def counted(cls):
        def make(*args, **kwargs):
            made.append(cls.__name__)
            return cls(*args, **kwargs)
        return make

    for mod in (conesec.geometry, conesec.volume, conesec.sections, conesec.verify):
        for cls in (ConvexHull, HalfspaceIntersection):
            if getattr(mod, cls.__name__, None) is cls:
                monkeypatch.setattr(mod, cls.__name__, counted(cls))
    results = checks_for_body({"type": "random", "n": 6, "points": 18, "seed": 45,
                               "label": "random-6-45"})
    assert all(r.passed for r in results)
    assert 0 < len(made) <= 8, made


def test_radial_route_matches_polyhedral():
    for seed in (1, 2, 3):
        K = random_body(3, seed)
        F = Subspace.from_span([[1.0, 0, 0]])
        C = orthant_cone([[0, 1.0, 0], [0, 0, 1.0]])
        a = cone_section_volume_polyhedral(K, F, C)
        b = cone_section_volume_radial(K, F, C)
        assert b == pytest.approx(a, rel=1e-6)


def test_arc_rule_split_at_vertex_directions_converges_at_its_second_level(monkeypatch):
    # criterion 11's 3-D set-ups with 2-D cones: the integrand over the arc
    # is analytic between the projected vertex directions, so the 16- and
    # 32-node levels agree
    calls = []
    real = SectionVolumeFunction.ray_moments
    monkeypatch.setattr(SectionVolumeFunction, "ray_moments", lambda *a: calls.append(1) or real(*a))
    e = np.eye(3)
    for seed in (5030, 5031):
        K = random_body(3, seed)
        for C in (orthant_cone(e[1:]), PolyhedralCone([e[1] + 0.4 * e[2], e[2]]), orthant_cone(-e[1:])):
            calls.clear()
            got = cone_section_volume_radial(K, Subspace.from_span(e[:1]), C)
            assert len(calls) == 2
            assert got == pytest.approx(cone_section_volume_polyhedral(K, Subspace.from_span(e[:1]), C),
                                        rel=1e-6, abs=0.0)


def test_sphere_rule_warns_when_it_misses_its_tolerance(monkeypatch):
    # on the cube, 2 and 3 nodes on each piece of the arc differ by more
    # than sphere_rel_tol and less than sphere_fail_tol
    F, C = Subspace.from_span([[1.0, 0, 0]]), orthant_cone([[0, 1.0, 0], [0, 0, 1.0]])
    spec = QuadratureSpec(sphere_nodes=(2, 3), sphere_fail_tol=0.1)
    monkeypatch.setattr(sections, "QUADRATURE", spec)
    with pytest.warns(QuadratureWarning) as record:
        got = cone_section_volume_radial(make_cube(3), F, C)
    warning = record[0].message
    assert warning.value == got
    assert spec.sphere_rel_tol * got < warning.gap <= spec.sphere_fail_tol * got
    assert got == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1.0, 1e4])
def test_radial_route_matches_polyhedral_at_every_scale(scale):
    # a 5-D body with a 3-D flat and a 2-D cone: K's cones sliced once per
    # direction (k = 2, m = 3). abs=0, as approx's default absolute
    # tolerance of 1e-12 would swamp these volumes (about 3e-32 at scale 1e-6)
    e = np.eye(5)
    K = affine_map(random_centered_polytope(5, 16, 12), scale * e)
    F, C = Subspace.from_span(e[:3]), orthant_cone(e[3:])
    assert cone_section_volume_radial(K, F, C) == pytest.approx(
        cone_section_volume_polyhedral(K, F, C), rel=1e-9, abs=0.0)


def test_radial_route_on_ball():
    B = make_ball(3)
    F = Subspace.from_span([[0, 0, 1.0]])
    C = orthant_cone([[1.0, 0, 0], [0, 1.0, 0]])
    got = cone_section_volume_radial(B, F, C)
    assert got == pytest.approx(volume(B) / 4.0, rel=1e-6)


def test_cone_must_be_orthogonal_to_flat():
    from conesec.geometry import GeometryError

    K = make_cube(3)
    F = Subspace.from_span([[1.0, 0, 0]])
    C = PolyhedralCone([[1.0, 1.0, 0.0]])
    with pytest.raises(GeometryError):
        cone_section_volume_polyhedral(K, F, C)

"""Flat sections, section-volume functions and cone-section volumes."""

import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.stats import multivariate_normal

import conesec
from conesec import rng as _rng
from conesec import sections, verify
from conesec import volume as volume_module
from conesec.ball_bodies import I_p, ball_indicator_oracle, estimate_max
from conesec.geometry import (
    Ball,
    GeometryError,
    HPolytope,
    PolyhedralCone,
    Subspace,
    VPolytope,
    _halfspace_polytope,
    affine_map,
    body_from_spec,
    boundary,
    known_simplicial,
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
from conesec.intersection_bodies import ci_radial
from conesec.sections import (
    QuadratureSpec,
    QuadratureWarning,
    SectionVolumeFunction,
    _composite_gl,
    _cut_volume,
    cone_section_volume_polyhedral,
    cone_section_volume_radial,
    ray_moment,
    section,
    section_volume,
    section_volume_fn,
    solid_angle_fraction,
)
from conesec.verify import _opposite_cone_volumes, checks_for_body
from conesec.volume import MAX_DEGREE, body_volume, moment_p, moments, volume, wedge_moment
from conftest import halfspace_section

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
    # affine flats of K near the boundary are sliced from the translated
    # body's cones, at codimension 1 and 2, with no LP
    x0 = 0.9999 * radial(K, e[3]) * e[3]
    S2 = Subspace.from_span(e[:2], ambient_dim=4)
    assert section_volume(K, S, x0) > 0
    assert section_volume(K, S2, 0.1 * x0) > 0 and section_volume(K, S2, x0) > 0
    assert len(lps) == 4
    # the H-built body takes its vertices from 0, clearly interior, and is
    # sliced like K, so it solves no LP at all
    H = HPolytope(to_hrep(K).A, K.b)
    assert [section_volume(H, S2, s * x0) for s in (0.1, 1.0)] == pytest.approx(
        [section_volume(K, S2, s * x0) for s in (0.1, 1.0)], rel=1e-12, abs=0.0)
    assert len(lps) == 4
    # the halfspace route: through a clearly interior point it solves no LP,
    # through a point near the boundary one
    assert body_volume(halfspace_section(translate(H, -0.1 * x0), S2)) > 0
    assert len(lps) == 4
    assert body_volume(halfspace_section(translate(H, -x0), S2)) > 0
    assert len(lps) == 5


def test_section_volume_is_the_sum_of_the_section_cone_weights(monkeypatch):
    # sliced, halfspace-route and H-built sections, central and affine: the
    # cone weights over dim(S)! give the volume of the section's moments,
    # and section_volume takes no moments
    K, e = random_body(4, 17), np.eye(4)
    H = HPolytope(to_hrep(K).A, K.b)
    x0 = 0.3 * radial(K, e[3]) * e[3]
    hyperplane = Subspace.from_span(e[:3], ambient_dim=4)
    cases = [(body, S, point) for body, S in ((K, hyperplane), (K, Subspace.from_span(e[:2], ambient_dim=4)),
                                              (H, hyperplane))
             for point in (None, x0)]
    assert section(translate(K, -x0), hyperplane)._cone_cache is not None  # sliced
    refs = [moments(section(body if point is None else translate(body, -point), S)).volume
            for body, S, point in cases]
    monkeypatch.setattr(sections, "moments", lambda body: pytest.fail("moments taken"))
    assert [section_volume(*case) for case in cases] == pytest.approx(refs, rel=1e-12, abs=0.0)


def test_ball_section_radius_shrinks():
    B = make_ball(3, r=2.0)
    S = Subspace.hyperplane(np.array([0.0, 0.0, 1.0]))
    assert section_volume(B, S) == pytest.approx(math.pi * 4.0)
    off = section_volume(B, S, x0=np.array([0.0, 0.0, 1.0]))
    assert off == pytest.approx(math.pi * 3.0)


def test_section_outside_body_is_empty():
    S = Subspace.hyperplane(np.array([0.0, 1.0]))
    sec = section(translate(make_cube(2), [0.0, -5.0]), S)
    assert sec is None
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
    assert f.concavity_index is None
    assert f([0.2, 0.3]) == 1.0
    assert f([1.2, 0.0]) == 0.0


@pytest.mark.parametrize("k", [3, 2, 1])
def test_zero_ray_directions_are_rejected(k):
    # m = 1, 2, 3: the chord, wedge-moment and (at p = 1.5) knot-interval routes
    f = section_volume_fn(random_centered_polytope(4, 14, 9), Subspace.from_span(np.eye(4)[: 4 - k]))
    assert f.m == 4 - k
    for p in (1.0, 1.5, 2.0):
        with pytest.raises(GeometryError, match="nonzero"):
            f.ray_moments([np.ones(k), np.zeros(k)], p)
        with pytest.raises(GeometryError, match="nonzero"):
            ray_moment(f, np.zeros(k), p)


@pytest.mark.parametrize("route", ["m0", "m1", "m2", "ball", "oracle"])
def test_non_finite_ray_directions_are_rejected(route):
    # the indicator (m = 0), the chord (m = 1), the wedge and knot routes of a
    # polytope at m = 2, a ball's closed form and the adaptive rule of a
    # ConcaveFunctionOracle each raise before any ray is taken, with no warning
    from conesec.ball_bodies import ConcaveFunctionOracle

    K = random_centered_polytope(4, 14, 9)
    f = {"m0": lambda: section_volume_fn(K, trivial_flat(4)),
         "m1": lambda: section_volume_fn(K, Subspace.from_span(np.eye(4)[:1])),
         "m2": lambda: section_volume_fn(K, Subspace.from_span(np.eye(4)[:2])),
         "ball": lambda: section_volume_fn(make_ball(4, center=[0.0, 0.1, 0.0, -0.2]),
                                           Subspace.from_span(np.eye(4)[:1])),
         "oracle": lambda: ConcaveFunctionOracle(2, lambda x: max(0.0, 1.0 - x @ x), 1.0, 1.0)}[route]()
    good = np.ones(f.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, -math.inf):
            row = good.copy()
            row[-1] = bad
            for p in (1.0, 1.5, 2.0):
                with pytest.raises(GeometryError, match="finite"):
                    f.ray_moments([good, row], p)
                with pytest.raises(GeometryError, match="finite"):
                    ray_moment(f, row, p)


@pytest.mark.parametrize("route", ["m0", "m1", "m2", "ball", "oracle"])
def test_ray_directions_of_the_wrong_width_are_rejected(route):
    # rows of k - 1 or k + 1 entries, or one flat row of k + 1, raise before
    # any ray is taken on every route, not numpy's shape error or a value
    from conesec.ball_bodies import ConcaveFunctionOracle

    K = random_centered_polytope(4, 14, 9)
    f = {"m0": lambda: section_volume_fn(K, trivial_flat(4)),
         "m1": lambda: section_volume_fn(K, Subspace.from_span(np.eye(4)[:1])),
         "m2": lambda: section_volume_fn(K, Subspace.from_span(np.eye(4)[:2])),
         "ball": lambda: section_volume_fn(make_ball(4, center=[0.0, 0.1, 0.0, -0.2]),
                                           Subspace.from_span(np.eye(4)[:1])),
         "oracle": lambda: ConcaveFunctionOracle(2, lambda x: max(0.0, 1.0 - x @ x), 1.0, 1.0)}[route]()
    k = f.dim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.ones((2, k - 1)), np.ones((2, k + 1)), np.ones(k + 1)):
            for p in (1.0, 1.5, 2.0):
                with pytest.raises(GeometryError, match=f"must have {k} entries"):
                    f.ray_moments(bad, p)


def test_a_kept_chord_profile_answers_only_rows_of_k_entries():
    # after a one-block call on two rows of k = 3 entries, the same bytes as
    # six rows of one entry are no directions of this profile
    f = section_volume_fn(random_centered_polytope(4, 14, 9), Subspace.from_span(np.eye(4)[:1]))
    thetas = _unit_rows(3, 2, seed=4)
    f.ray_moments(thetas, 1)
    with pytest.raises(GeometryError, match="must have 3 entries"):
        f.ray_moments(thetas.reshape(6, 1), 2)
    assert f.ray_moments(thetas, 2).tolist() == SectionVolumeFunction(f.body, f.F).ray_moments(thetas, 2).tolist()


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_non_finite_p_is_rejected(p):
    # a section function and a ConcaveFunctionOracle each, before any ray is taken
    from conesec.ball_bodies import ConcaveFunctionOracle

    f = section_volume_fn(make_cube(3), Subspace.from_span(np.eye(3)[:1]))
    g = ConcaveFunctionOracle(2, lambda x: max(0.0, 1.0 - x @ x), 1.0, 1.0)
    for profile in (f, g):
        with pytest.raises(GeometryError, match="positive and finite"):
            profile.ray_moments([[1.0, 0.0]], p)


def test_barycenter_zero_reads_the_centroid_across_the_flat():
    # f's barycentre is the centroid of K projected onto F^perp: a shift
    # along F^perp moves it, a shift along F does not
    K = random_centered_polytope(4, 14, 9)
    F = Subspace.from_span(np.eye(4)[:2])
    assert section_volume_fn(K, F).barycenter_zero
    assert not section_volume_fn(translate(K, [0.0, 0.0, 0.05, 0.0]), F).barycenter_zero
    assert section_volume_fn(translate(K, [0.05, -0.03, 0.0, 0.0]), F).barycenter_zero


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1, 2, 3])
def test_centred_ball_ray_moments_are_exact(m):
    # f(t theta) = omega_m (r^2 - t^2 |theta|^2)^(m/2) for the ball rB in R^(m+2)
    f = section_volume_fn(make_ball(m + 2, r=1.5), Subspace.from_span(np.eye(m + 2)[:m]))
    theta = np.array([1.02, -0.34])  # |theta| = 1.075...
    T = 1.5 / np.linalg.norm(theta)
    for p in (0.5, 2.0, 3.5):
        ref = quad(lambda t: t ** (p - 1) * f(t * theta), 0.0, T,
                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert f.ray_moments([theta, -2.0 * theta], p) == pytest.approx(
            [ref, ref * 2.0 ** -p], rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2, 3])
def test_centred_ball_indicator_ray_moments_are_exact(k):
    # at m = 0, f is the indicator of rB: int_0^(r/|theta|) t^(p-1) dt = (r/|theta|)^p / p
    f = section_volume_fn(make_ball(k, r=1.5), trivial_flat(k))
    theta = np.linspace(0.4, 1.1, k)
    R = 1.5 / np.linalg.norm(theta)
    assert [f(t * theta) for t in R * np.array([0.5, 0.999, 1.001, 2.0])] == [1, 1, 0, 0]
    for p in (0.5, 2.0, 3.5):
        assert f.ray_moments([theta, -2.0 * theta], p) == pytest.approx(
            [R ** p / p, (R / 2) ** p / p], rel=1e-13)


def test_adaptive_ray_rule_warns_when_it_misses_its_tolerance():
    # the disc chord 2 sqrt(1 - t^2) has a square-root edge at t = 1: the
    # panel doubling runs out before two levels agree to 1e-8 (`ray_moment`
    # itself takes the closed form for a centred ball)
    f = section_volume_fn(make_ball(2), Subspace.from_span([[1.0, 0.0]]))
    theta = np.array([1.0])

    def chord(spec):
        return _composite_gl(lambda ts: np.array([f(t * theta) for t in ts]), 0.0, 1.0, spec)

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


def test_refine_raises_beyond_its_failure_bound_and_warns_below_it():
    # synthetic levels that never agree to rel_tol = 1e-6: the first two come
    # in one call, the third alone, and the last gap decides the outcome
    calls = []

    def levels_of(values):
        def value_at(levels):
            calls.append(levels)
            return [values[n] for n in levels]
        return value_at

    with pytest.raises(sections.QuadratureNonConvergence) as info:
        sections._refine(levels_of({16: 1.0, 32: 1.5, 64: 1.25}), (16, 32, 64), 1e-6, 1e-3)
    assert (info.value.value, info.value.error_estimate) == (1.25, 0.25)
    assert calls == [(16, 32), (64,)]
    with pytest.warns(QuadratureWarning) as record:
        got = sections._refine(levels_of({16: 1.0, 32: 1.5, 64: 1.5 + 2**-12}), (16, 32, 64), 1e-6, 1e-3)
    assert got == 1.5 + 2**-12
    assert (record[0].message.value, record[0].message.gap) == (got, 2**-12)
    assert len(record) == 1


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 2.5])
def test_off_centre_ball_ray_moments_take_the_closed_form(p):
    # off centre too, `ray_moments` takes Euler's integral for 2F1 at every
    # real p, to 1e-12 of adaptive Gauss-Kronrod
    f = section_volume_fn(make_ball(4, center=[0, 0, 0.1, -0.05]), Subspace.from_span(np.eye(4)[:2]))
    thetas = np.array([[1.0, 0.0], [-0.3, 0.8], [0.6, -1.2]])
    refs = [quad(lambda t: t ** (p - 1) * f(t * theta), 0.0, f.ray_extent(theta),
                 epsabs=0.0, epsrel=1e-13, limit=200)[0] for theta in thetas]
    got = f.ray_moments(thetas, p)
    assert got == pytest.approx(refs, rel=1e-12)
    assert [ray_moment(f, theta, p) for theta in thetas] == got.tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_polytope_indicator_ray_moments_are_exact(p):
    # at m = 0, f is the indicator of K: int_0^T t^(p-1) dt = radial(K, theta)^p / p
    K = make_cube(3)
    f = section_volume_fn(K, trivial_flat(3))
    thetas = np.array([[1.0, 0.2, -0.4], [-0.3, 0.9, 0.1], [0.0, 0.0, -2.0]])
    assert f.ray_moments(thetas, p) == pytest.approx(
        [radial(K, theta) ** p / p for theta in thetas], rel=1e-14)


def test_indicator_ray_moments_take_no_projection(monkeypatch):
    # at m = 0, f is the indicator of K and its ray moments read K's own
    # radial function: no projection of K onto R^n is hulled
    K, F, e = random_centered_polytope(3, 12, 1), trivial_flat(3), np.eye(3)
    cones = (orthant_cone(e[:2]), orthant_cone(-e[1:]), PolyhedralCone(e[2:]))
    refs = [cone_section_volume_polyhedral(K, F, C) for C in cones]

    def no_projection(*args):
        raise AssertionError("K projected")

    monkeypatch.setattr(sections, "project", no_projection)
    for C, ref in zip(cones, refs):
        assert cone_section_volume_radial(K, F, C) == pytest.approx(ref, rel=1e-6)


def test_a_tiny_direction_reaches_the_cube_face():
    # the facet test <a, u> > 0 has no absolute floor, so a direction of
    # length 1e-15 is not taken for an unbounded one
    assert radial(make_cube(3), [1e-15, 0.0, 0.0]) == pytest.approx(1e15, rel=1e-14, abs=0)


@pytest.mark.parametrize("s", [1e-16, 1e-15, 1e-14, 1e-10, 1e4, 1e8])
def test_radial_and_ray_moments_are_homogeneous_in_the_direction(s):
    # radial is of degree -1 in u, and the ray moments of every route of
    # degree -p in theta: m = 0 (radial), m = 1 (chords, whose extent T has
    # the same facet test) and m >= 2 (wedge moments); at s = 1e-14 the chord
    # route returned nan, where T came out infinite
    K, K4 = random_body(3, 5030), random_centered_polytope(4, 14, 5040)
    e3, e4 = np.eye(3), np.eye(4)
    u = np.array([0.6, 0.8, 0.0])
    assert radial(K, s * u) * s == pytest.approx(radial(K, u), rel=1e-14, abs=0)
    for body, F, theta in [(K, trivial_flat(3), u), (K, Subspace.from_span(e3[:1]), u[:2]),
                           (K4, Subspace.from_span(e4[:2]), u[:2]),
                           (K4, Subspace.from_span(e4[:3]), np.array([-1.0]))]:
        f = section_volume_fn(body, F)
        for p in (1, 2, 3):
            got = f.ray_moments(s * theta, p)[0] * s**p
            assert got == pytest.approx(f.ray_moments(theta, p)[0], rel=1e-14, abs=0), (f.m, p)


@pytest.mark.parametrize("s", [1e-12, 1e-10, 1e-6, 1.0, 1e4])
def test_ray_moments_hold_at_every_scale_of_the_body(s):
    # the ball indicator's I_p is s p^(-1/p), and the chord moments (m = 1)
    # of K scaled by s are s^(p+1) times K's: the chord data judge 0
    # interior relative to max |b|, as `radial` does
    e, theta = np.eye(3), np.array([[0.6, 0.8]])
    assert I_p(ball_indicator_oracle(3, s), e[0], 2) == pytest.approx(s / math.sqrt(2), rel=1e-15, abs=0)
    K, F = random_body(3, 5), Subspace.from_span(e[:1])
    for p in (1, 2, 2.5):
        scaled = section_volume_fn(affine_map(K, s * e), F).ray_moments(theta, p)[0]
        assert scaled == pytest.approx(section_volume_fn(K, F).ray_moments(theta, p)[0] * s ** (p + 1),
                                       rel=1e-14, abs=0), p


def test_ray_moments_reject_nonpositive_p():
    f = section_volume_fn(make_ball(4, center=[0, 0, 0.1, -0.05]), Subspace.from_span(np.eye(4)[:2]))
    for p in (0.0, -1.0):
        with pytest.raises(GeometryError):
            f.ray_moments([[1.0, 0.0]], p)


# ---------------------------------------------------------------------------
# exact ray moments of polytope profiles


def _slab(K, F, theta_amb):
    """K cap (F + R theta) in the coordinates (F basis, unit theta), by a
    halfspace intersection: the ray moments under test slice K's cones."""
    e = theta_amb / np.linalg.norm(theta_amb)
    return halfspace_section(K, Subspace(K.dim, np.vstack([F.basis, e])))


def _fubini_ray_moment(K, F, theta_amb, p):
    """int_0^T t^(p-1) f(t theta) dt as the moment of K cap (F + R_+ theta).

    Integer p takes `moment_p`. Real p, on a 2-D slab (m = 1), takes
    Green's theorem, int t^(p-1) ds dt = -(1/p) oint t^p ds counterclockwise
    in the slab's (s, t) coordinates, by adaptive quadrature on each edge.
    """
    H = to_hrep(_slab(K, F, theta_amb))
    d = H.dim
    e_last = np.eye(d)[-1]
    half = HPolytope(np.vstack([H.A, -e_last]), np.append(H.b, 0.0))
    if float(p).is_integer():
        return moment_p(half, e_last, int(p) - 1) / np.linalg.norm(theta_amb) ** p
    assert d == 2
    V = half.vertices
    V = V[np.argsort(np.arctan2(*(V - V.mean(axis=0)).T[::-1]))]
    total = 0.0
    for (s0, t0), (s1, t1) in zip(V, np.roll(V, -1, axis=0)):
        edge = quad(lambda u: max(t0 + u * (t1 - t0), 0.0) ** p, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
        total -= (s1 - s0) * edge / p
    return total / np.linalg.norm(theta_amb) ** p


def _unit_rows(k, count, seed):
    X = np.random.default_rng(seed).standard_normal((count, k))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


@pytest.mark.filterwarnings("error")
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


def test_ray_moments_of_the_8_cube_take_its_section_per_direction(monkeypatch):
    # m = 6, k = 2: the cube is not simplicial, so each direction e takes
    # the section K cap (F + R e) by one halfspace intersection and cuts it
    # alone, not K's 80 640 boundary simplices sliced (1.2-1.8 s a
    # direction); the values are the slice route's. A simplicial body
    # keeps the slice
    K = make_cube(8)
    f = SectionVolumeFunction(K, Subspace.from_span(np.eye(8)[:6]))
    thetas = _unit_rows(2, 3, seed=8)
    ref = [wedge_moment(K, [f.Fperp.embed(u)], 1, f.Fperp.embed(Subspace.hyperplane(u).basis)) for u in thetas]
    slices = []
    slice_ = conesec.volume._slice
    monkeypatch.setattr(conesec.volume, "_slice", lambda *a: slices.append(1) or slice_(*a))
    assert f.ray_moments(1.5 * thetas, 2) == pytest.approx(np.array(ref) / 1.5**2, rel=1e-12, abs=0.0)
    assert slices == []
    V = random_body(5, 3)
    assert known_simplicial(V)
    SectionVolumeFunction(V, Subspace.from_span(np.eye(5)[:3])).ray_moments(thetas, 2)
    assert slices


def _chord_directions(f, K, count, seed):
    """Seeded unit directions of F^perp, then (k >= 2) one through the projection
    of K's farthest vertex and one parallel to the facet of largest projected normal."""
    thetas = list(_unit_rows(f.k, count, seed))
    if f.k >= 2:
        V = f.Fperp.coords(to_vrep(K).vertices)
        thetas.append(V[np.argmax(np.linalg.norm(V, axis=1))])
        U = f.Fperp.coords(to_hrep(K).A)
        u = U[np.argmax(np.linalg.norm(U, axis=1))]
        thetas.append(thetas[0] - (thetas[0] @ u) / (u @ u) * u)
    return np.array([theta / np.linalg.norm(theta) for theta in thetas])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chord_moments_from_ridges_match_fubini(n):
    # m = 1 on random bodies (at n = 6 also one of 888 facets), an H-built
    # cube and a cross-polytope, along a coordinate axis (the cube's facets
    # but two are then parallel to F) and a seeded line; p real, and the
    # directions include one through a projected vertex and one parallel to
    # a facet. Scaling K by s scales each moment by s^(1 + p); at s = 1e8 a
    # vertex-facet incidence judged to an absolute 1e-9 loses ridges.
    line = np.random.default_rng(n).standard_normal(n)
    bodies = [random_body(n, 60 + n), make_cube(n), make_cross_polytope(n)]
    if n == 6:
        bodies.append(random_centered_polytope(6, 30, 4))
    for K in bodies:
        for u in (np.eye(n)[0], line):
            F = Subspace.from_span(u[None, :], ambient_dim=n)
            f = section_volume_fn(K, F)
            thetas = _chord_directions(f, K, 2, seed=n)
            for p in (1, 1.5, 2, 3.5):
                got = f.ray_moments(thetas, p)
                refs = [_fubini_ray_moment(K, F, f.Fperp.embed(theta), p) for theta in thetas]
                assert got == pytest.approx(refs, rel=1e-10)
                for scale in (1e-6, 1e4, 1e8):
                    scaled = section_volume_fn(affine_map(K, scale * np.eye(n)), F)
                    assert scaled.ray_moments(thetas, p) == pytest.approx(
                        scale ** (1 + p) * got, rel=1e-10)


def test_chord_moments_of_the_8_cube_are_closed_forms():
    # f = 2 on [-1, 1]^7 along e1, so I_p(theta) = (2 / p)^(1/p) / max |theta_i|
    f = section_volume_fn(make_cube(8), Subspace.from_span(np.eye(8)[:1]))
    thetas = np.vstack([_unit_rows(7, 20, seed=8), np.eye(7)[:2], np.ones((1, 7))])
    top = np.abs(f.Fperp.embed(thetas)).max(axis=1)
    for p in (1, 1.5, 2, 3.5):
        assert f.ray_moments(thetas, p) ** (1 / p) == pytest.approx((2 / p) ** (1 / p) / top, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.5, 3.5])
def test_chord_ray_moments_at_real_p(p):
    # at m = 1 the closed form holds for real p: compare with adaptive
    # Gauss-Kronrod on each panel between the slab polygon's vertex heights
    K = random_body(4, 17)
    F = Subspace.from_span(np.eye(4)[:1])
    f = section_volume_fn(K, F)
    for theta in _unit_rows(f.k, 3, seed=5):
        T = f.ray_extent(theta)
        heights = _slab(K, F, f.Fperp.embed(theta)).vertices[:, -1]
        edges = np.unique(np.clip(np.append(heights, [0.0, T]), 0.0, T))
        ref = sum(quad(lambda t: t ** (p - 1) * f(t * theta),
                       a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                  for a, b in zip(edges[:-1], edges[1:]))
        assert f.ray_moments(theta[None, :], p)[0] == pytest.approx(ref, rel=1e-11)


@pytest.fixture
def no_adaptive_ray_rule(monkeypatch):
    """Both bindings of the adaptive ray rule patched to raise: no section
    profile of a polytope or a ball may reach it."""
    from conesec import ball_bodies

    def refuse(*args):
        raise AssertionError("adaptive ray rule reached")

    monkeypatch.setattr(sections, "_composite_gl", refuse)
    monkeypatch.setattr(ball_bodies, "_composite_gl", refuse)


def _quad_ray_moment(f, theta, p):
    """int_0^T t^(p-1) f(t theta) dt by adaptive Gauss-Kronrod on each piece
    between the heights along theta of the vertices of K cap (F + R theta),
    the slab taken by a halfspace intersection (`_slab`). Heights within
    1e-12 T of 0 are no breakpoints: a piece [0, 1e-16] would take the mass
    of the singular end t^(p-1) at p < 1, which quad misses on the next."""
    heights = _slab(f.body, f.F, f.Fperp.embed(theta)).vertices[:, -1] / np.linalg.norm(theta)
    edges = np.unique(np.append(heights[heights > 1e-12 * heights.max()], 0.0))
    return sum(quad(lambda t: t ** (p - 1) * f(t * theta), a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
def test_real_p_at_m2_matches_quad():
    # f(t theta) is a polynomial of degree 2 between the slab's vertex
    # heights, fitted and integrated one knot interval at a time
    f = section_volume_fn(random_body(3, 2), Subspace.from_span(np.eye(3)[:2]))
    thetas = np.array([[1.0], [-0.7]])
    got = f.ray_moments(thetas, 2.5)
    assert got == pytest.approx([_quad_ray_moment(f, theta, 2.5) for theta in thetas], rel=1e-12)


_KNOT_BODIES = {
    "random-4-14-2": lambda: random_centered_polytope(4, 14, 2),
    "random-5-16-3": lambda: random_centered_polytope(5, 16, 3),
    "cube-4": lambda: make_cube(4),
    "cross-5": lambda: make_cross_polytope(5),
}


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, k", [("random-4-14-2", 1), ("random-4-14-2", 2), ("random-5-16-3", 1),
                                     ("random-5-16-3", 2), ("cube-4", 2), ("cross-5", 3)])
def test_knot_route_matches_quad_at_real_p(body, k):
    # the 4-cube ties knots and has facets parallel to F along e3; the
    # 5-cross-polytope's sections at k = 3 are halfspace intersections at
    # codimension 2
    K = _KNOT_BODIES[body]()
    f = section_volume_fn(K, Subspace.from_span(np.eye(K.dim)[:K.dim - k]))
    thetas = np.vstack([_unit_rows(k, 1, seed=k), 1.3 * np.eye(k)[-1:]])
    for p in (0.5, 2.5, 3.7):
        got = f.ray_moments(thetas, p)
        assert got == pytest.approx([_quad_ray_moment(f, theta, p) for theta in thetas], rel=1e-12)


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2])
def test_knot_route_at_integer_p_is_the_wedge_cut(k):
    # the knot route is exact for any p > 0: at integer p it gives the wedge
    # cut's moments to 1e-13
    K = random_centered_polytope(5, 16, 3)
    f = section_volume_fn(K, Subspace.from_span(np.eye(5)[:5 - k]))
    for u in _unit_rows(k, 2, seed=7):
        e = f.Fperp.embed(u)
        L = K if k == 1 else section(K, Subspace(5, np.vstack([f.F.basis, e])))
        heights = L.vertices @ e if k == 1 else L.vertices[:, -1]
        for p in (1, 2, 3):
            knots = sections._knot_moments(lambda s: f(s * u), heights, p, f.m)
            assert knots == pytest.approx(f.ray_moments(u[None, :], p)[0], rel=1e-13)


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
def test_knot_route_is_0_where_the_ray_leaves_the_support_at_0():
    # 0 on a facet of [0, 1] x [-1, 1]^2, F = span(e2, e3): f = 4 on [0, 1]
    # and 0 below, at real p as at integer p
    K = VPolytope(np.array(list(itertools.product([0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]))))
    f = section_volume_fn(K, Subspace.from_span(np.eye(3)[1:]))
    assert f.ray_moments([[-1.0], [1.0]], 2.5) == pytest.approx([0.0, 4.0 / 2.5], rel=1e-13)
    assert f.ray_moments([[-1.0], [1.0]], 2.0).tolist() == pytest.approx([0.0, 2.0], rel=1e-13)


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, k", [("random-4-14-2", 1), ("random-4-14-2", 2), ("random-5-16-3", 2)])
def test_knot_route_at_large_real_p_matches_its_fits_integrated_by_quad(body, k, monkeypatch):
    # the tail pieces [a, r a], r = 2^min(1, 1/(p - 1)), keep the 12-node
    # rule's error at rounding for every p; with r = 2 at every p it grows
    # as 2^(p - 1), 5e-2 at p = 400.5. The reference takes the very fits of the
    # route (a spy on `_fit`), each integrated by quad over 300 equal
    # parts of its knot interval; quad may warn of rounding at 1e-13
    K = _KNOT_BODIES[body]()
    f = section_volume_fn(K, Subspace.from_span(np.eye(K.dim)[:K.dim - k]))
    u = _unit_rows(k, 1, seed=k)[0]
    e = f.Fperp.embed(u)
    heights = K.vertices @ e if k == 1 else section(K, Subspace(K.dim, np.vstack([f.F.basis, e]))).vertices[:, -1]
    g, fit, fits = functools.cache(lambda s: f(s * u)), sections._fit, []
    monkeypatch.setattr(sections, "_fit", lambda *args: fits.append(fit(*args)) or fits[-1])
    for p in (60.5, 200.5, 400.5):
        fits.clear()
        got = sections._knot_moments(g, heights, p, f.m)
        parts = [(P, np.linspace(*P.domain, 301)) for P, _ in fits]
        ref = sum(quad(lambda t: t ** (p - 1) * P(t), a, b, epsabs=0.0, epsrel=1e-13)[0]
                  for P, x in parts for a, b in zip(x[:-1], x[1:]))
        assert got == pytest.approx(ref, rel=2e-12, abs=0.0), p


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
def test_wedge_cut_and_knot_route_agree_at_p_200():
    # at integer p the m = 3 ray moment is the wedge moment of degree 199,
    # divided by 200 * 201 * 202 * 203 (199! alone overflows a float). Both
    # routes are checked against moment_p of the half body on the ray's
    # side, a sum of nonnegative terms: the wedge cut to 1e-13, and the knot
    # route, graded by p, to 3e-12, its fits' rounding of f near the ray's
    # end (2.0e-12 along e4)
    K = random_centered_polytope(4, 14, 2)
    f = section_volume_fn(K, Subspace.from_span(np.eye(4)[:3]))
    H = to_hrep(K)
    for u in (np.array([1.0]), np.array([-1.0])):
        e = f.Fperp.embed(u)
        half = _halfspace_polytope(np.vstack([H.A, -e]), np.append(H.b, 0.0))
        ref = moment_p(half, e, 199)
        knots = sections._knot_moments(lambda s: f(s * u), K.vertices @ e, 200.0, f.m)
        assert f.ray_moments(u[None, :], 200)[0] == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert knots == pytest.approx(ref, rel=3e-12, abs=0.0)


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
def test_every_route_takes_p_up_to_max_degree_and_the_exact_forms_of_cost_p_raise_above():
    # rays of unit extent: the indicator (m = 0), the chords (m = 1), a
    # centred ball and the m = 3 wedge cut, on K scaled to extent 1 along
    # its ray, give finite positive moments at p = MAX_DEGREE; above it
    # the m >= 2 polytope route and moment_p raise, the others do not
    K = random_centered_polytope(4, 14, 2)
    e = np.eye(4)
    indicator, chords = (section_volume_fn(K, Subspace.from_span(e[:j], ambient_dim=4)) for j in (0, 1))
    rays = [(f, _unit_rows(f.k, 4, seed=3)) for f in (indicator, chords)]
    rays = [(f, X * np.array([f.ray_extent(x) for x in X])[:, None]) for f, X in rays]
    rays.append((section_volume_fn(make_ball(4), Subspace.from_span(e[:2])), _unit_rows(2, 4, seed=3)))
    wedge = section_volume_fn(affine_map(K, e / radial(K, e[3])), Subspace.from_span(e[:3]))
    for p in (MAX_DEGREE, MAX_DEGREE + 1):
        for f, X in rays:
            got = f.ray_moments(X, p)
            assert np.all(np.isfinite(got) & (got > 0)), (f.m, p, got)
    assert 0 < wedge.ray_moments([[1.0]], MAX_DEGREE)[0] < math.inf
    assert moment_p(make_cube(3), e[0, :3], MAX_DEGREE) == pytest.approx(8 / (MAX_DEGREE + 1), rel=1e-13)
    for p in (MAX_DEGREE + 0.5, MAX_DEGREE + 1):
        with pytest.raises(GeometryError, match=f"p={p}"):
            wedge.ray_moments([[1.0]], p)
        with pytest.raises(GeometryError, match=f"p={p}"):
            moment_p(make_cube(3), e[0, :3], p)


_CHORD_BODIES = [(3, 12, 8), (4, 14, 9), (4, 14, 2)]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", _CHORD_BODIES, ids=["random-3-12-8", "random-4-14-9", "random-4-14-2"])
def test_real_p_chord_moments_at_large_p_match_quad_panel_by_panel(body):
    # the power steps anchored at each panel's end, -t2^e expm1(-e log1p(h / t1)),
    # cannot overflow; anchored at its start, t1^e expm1(e log1p(h / t1)) is
    # NaN on 7 to 154 of these 200 rays of unit extent at p = 200.5 to
    # 1000.5. Each moment is checked against quad on the panels between its
    # kept breakpoints
    K = random_centered_polytope(*body)
    f = section_volume_fn(K, Subspace.from_span(np.eye(K.dim)[:1]))
    thetas = _rng.sample_sphere(K.dim - 1, 200, 1)
    thetas *= np.array([f.ray_extent(x) for x in thetas])[:, None]
    for p in (200.5, 400.5, 1000.5):
        got = f.ray_moments(thetas, p)
        ts, _, left, right = f._profile[1]
        ref = [sum(quad(lambda t: t ** (p - 1) * (lo + (hi - lo) * (t - a) / (b - a)), a, b,
                        epsabs=0.0, epsrel=1e-13)[0] for a, b, lo, hi in zip(*row) if b > a)
               for row in zip(ts[:, :-1], ts[:, 1:], left, right)]
        assert np.isfinite(got).all(), p
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0), p


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e-6, 1e4])
def test_knot_route_scales_as_s_to_the_m_plus_p(s):
    # f of sK at t theta is s^m f(t theta / s): the moments scale by s^(m+p)
    K = random_centered_polytope(4, 14, 2)
    F = Subspace.from_span(np.eye(4)[:2])
    thetas = _unit_rows(2, 3, seed=4)
    for p in (0.5, 2.5):
        ref = section_volume_fn(K, F).ray_moments(thetas, p)
        got = section_volume_fn(affine_map(K, s * np.eye(4)), F).ray_moments(thetas, p)
        assert got == pytest.approx(s ** (2 + p) * ref, rel=1e-13)


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ball_ray_moments_match_quad_off_centre(m):
    # Euler's integral for 2F1, for a centre at 0, 0.5, 0.99 and 0.999 of r
    # off F, against adaptive Gauss-Kronrod on [0, T]
    n, r = m + 2, 1.3
    direction = np.array([0.6, -0.8])
    thetas = np.array([[1.0, 0.2], [-0.3, 0.8], [0.6, -1.2]])
    for offset in (0.0, 0.5, 0.99, 0.999):
        f = section_volume_fn(make_ball(n, r, center=np.r_[np.zeros(m), offset * r * direction]),
                              Subspace.from_span(np.eye(n)[:m]))
        for p in (0.5, 1.0, 2.5, 4.0):
            refs = [quad(lambda t: t ** (p - 1) * f(t * theta), 0.0, f.ray_extent(theta),
                         epsabs=0.0, epsrel=1e-13, limit=200)[0] for theta in thetas]
            assert f.ray_moments(thetas, p) == pytest.approx(refs, rel=1e-12)


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
def test_ball_ray_moments_need_0_inside_the_support():
    # c' outside radius r: 0 is not interior to the support of f
    f = section_volume_fn(make_ball(3, center=[0.0, 1.2, 0.0]), Subspace.from_span(np.eye(3)[:1]))
    with pytest.raises(GeometryError, match="origin is not interior"):
        f.ray_moments([[1.0, 0.0]], 2.5)


@pytest.mark.usefixtures("no_adaptive_ray_rule")
@pytest.mark.filterwarnings("error")
def test_section_profiles_never_reach_the_adaptive_ray_rule(monkeypatch):
    # every route of a polytope's or a ball's profile returns with the
    # adaptive rule patched to raise; a ConcaveFunctionOracle still calls it
    from conesec import ball_bodies

    cases = [(random_centered_polytope(4, 14, 2), 2), (random_centered_polytope(4, 14, 2), 1),
             (make_cube(4), 2), (make_cross_polytope(5), 3), (random_body(4, 17), 3),
             (make_ball(4, center=[0.0, 0.0, 0.3, -0.2]), 2), (make_ball(3), 1), (make_cube(3), 3)]
    for K, k in cases:
        f = section_volume_fn(K, Subspace.from_span(np.eye(K.dim)[:K.dim - k]))
        for p in (0.5, 2.0, 2.5):
            assert (f.ray_moments(_unit_rows(k, 2, seed=3), p) > 0).all()
    calls = []
    monkeypatch.setattr(ball_bodies, "_composite_gl", lambda *args: calls.append(args) or 1.0)
    g = ball_bodies.ConcaveFunctionOracle(2, lambda x: max(0.0, 1.0 - x @ x), 1.0, 1.0)
    assert g.ray_moments([[1.0, 0.0]], 2.5).tolist() == [1.0]
    assert len(calls) >= 1


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
    if m == 1:
        # the many-ridge block path, which no benchmark workload reaches: the
        # 8-D body's 5430 same-side ridges leave 3 directions per block
        K, F = random_centered_polytope(8, 22, 1), Subspace.from_span(np.eye(8)[:1])
        f = section_volume_fn(K, F)
        assert len(f._chords().rise) == 5430 and f._chords().block == 3
        thetas = _unit_rows(f.k, 10, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = f.ray_moments(thetas, 1)  # 4 blocks
            single = [ray_moment(f, theta, 1) for theta in thetas]
        assert batched == pytest.approx(single, rel=1e-13)
        # a call of 4 blocks keeps no profile, a call of one block keeps its own
        for rows in (thetas, thetas[:3]):
            f.ray_moments(rows, 1)
            assert f.ray_moments(rows, 2).tolist() == SectionVolumeFunction(K, F).ray_moments(rows, 2).tolist()


def test_chord_moments_at_several_degrees_equal_fresh_ones():
    # the chord profile of a one-block call is kept for calls at other p;
    # every result equals the one of a function that has seen no direction
    K, F = random_body(4, 9), Subspace.from_span(np.eye(4)[:1])
    f = section_volume_fn(K, F)
    block = f._chords().block
    for count in (block, 3 * block + 5):
        thetas = _unit_rows(f.k, count, seed=count)
        for p in (2.5, 1, 2, 3, 2.5, 1):  # each integer p also after another degree
            fresh = SectionVolumeFunction(K, F).ray_moments(thetas, p)
            assert f.ray_moments(thetas, p).tolist() == fresh.tolist()
    # directions changed in place are new directions
    thetas = _unit_rows(f.k, 8, seed=3)
    f.ray_moments(thetas, 2)
    thetas[:4] *= -1.5
    assert f.ray_moments(thetas, 2).tolist() == SectionVolumeFunction(K, F).ray_moments(thetas, 2).tolist()


def test_queries_on_one_body_and_line_share_one_section_function(monkeypatch):
    # criterion 11's three m = 1 cones on one (K, F) build F^perp and the
    # chord data once; every value, also after a one-block call at another p
    # that reuses the kept profile, has the bits of a fresh body's
    seed, e = 5030, np.eye(3)
    F = Subspace.from_span(e[:1])
    cones = [orthant_cone(e[1:]), PolyhedralCone([e[1] + 0.4 * e[2], e[2]]), orthant_cone(-e[1:])]
    thetas = _unit_rows(2, 40, seed=1)
    fresh = [cone_section_volume_radial(random_body(3, seed), F, C) for C in cones]
    fresh_moments = section_volume_fn(random_body(3, seed), F).ray_moments(thetas, 3).tolist()
    K = random_body(3, seed)
    complements, chords = [], []
    real_complement, real_of = Subspace.complement, sections._Chords.of
    monkeypatch.setattr(Subspace, "complement", lambda S: complements.append(S) or real_complement(S))
    monkeypatch.setattr(sections._Chords, "of", lambda K, F: chords.append(F) or real_of(K, F))
    f = section_volume_fn(K, F)
    for _ in range(2):
        for C, value in zip(cones, fresh):
            assert cone_section_volume_radial(K, F, C) == value
            f.ray_moments(thetas, 2)
            assert f.ray_moments(thetas, 3).tolist() == fresh_moments
    assert f._profile is not None and f._profile[0] == thetas.tobytes()
    assert len(complements) == 1 and len(chords) == 1 and section_volume_fn(K, F) is f
    # the images of K are other bodies, with functions of their own
    for image in (translate(K, [0.1, 0.0, 0.0]), affine_map(K, 2.0 * np.eye(3))):
        assert image._section_fn_cache == {} and section_volume_fn(image, F) is not f


def test_degrees_on_one_block_take_one_chord_profile(monkeypatch):
    # radii at p = 1, 2, 3 on one block of directions find the kinks and
    # extents once; with K's boundary cached, the m = 1 moments project
    # nothing, take no radial function and call no qhull
    K = random_body(3, 8)
    boundary(K)
    profiles = []
    real_profile = sections._Chords.profile
    monkeypatch.setattr(sections._Chords, "profile",
                        lambda self, *a: profiles.append(1) or real_profile(self, *a))
    for name in ("project", "radial_many"):
        monkeypatch.setattr(sections, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    monkeypatch.setattr(conesec.geometry, "_qhull", lambda *a, **k: pytest.fail("qhull called"))
    f = section_volume_fn(K, Subspace.from_span(np.eye(3)[:1]))
    thetas = _unit_rows(f.k, 32, seed=1)
    for p in (1, 2, 3):
        f.ray_moments(thetas, p)
    assert len(profiles) == 1


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
    # 3-D and 4-D cross-polytopes at F = span(e1): the chord is 2 (1 - t |theta|_1)
    # for every theta, so the moment is 2 |theta|_1^-p / (p (p + 1)). Vertex
    # rays, rows parallel to facets and generic rows share one call, so its
    # crossings at +-inf, 0 / 0 and tied kinks meet in one batch
    for n, parallel in ((3, [[1.0, 1.0], [1.0, -1.0], [-2.0, 2.0]]),
                        (4, [[1.0, -1.0, 0.0], [1.0, 1.0, -2.0], [0.0, 2.0, 2.0], [-1.0, 0.0, 1.0]])):
        e = np.eye(n - 1)
        thetas = np.vstack([e, -e, 3.0 * e, parallel, _unit_rows(n - 1, 20, seed=n)])
        f = section_volume_fn(make_cross_polytope(n), Subspace.from_span(np.eye(n)[:1]))
        l1 = np.abs(thetas).sum(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1, 2, 2.5):
                assert f.ray_moments(thetas, p) == pytest.approx(2.0 * l1 ** -p / (p * (p + 1)), rel=1e-13)


# ---------------------------------------------------------------------------
# solid angles


def test_solid_angle_closed_forms():
    assert solid_angle_fraction(PolyhedralCone([[1.0, 0.0]])) == pytest.approx(0.5)
    ang = math.radians(70.0)
    C = PolyhedralCone([[1.0, 0.0], [math.cos(ang), math.sin(ang)]])
    assert solid_angle_fraction(C) == pytest.approx(ang / (2 * math.pi), rel=1e-12)
    assert solid_angle_fraction(orthant_cone(np.eye(3))) == pytest.approx(1.0 / 8.0)
    assert solid_angle_fraction(orthant_cone(np.eye(4))) == pytest.approx(1.0 / 16.0)


def test_solid_angles_of_up_to_three_correlated_rows_take_one_closed_form(monkeypatch):
    # Sheppard's closed form is evaluated once, with no refinement levels;
    # four correlated rows still refine Plackett's quadrature
    calls = []
    real = sections._orthant_probability
    monkeypatch.setattr(sections, "_orthant_probability", lambda S, n: calls.append(n) or real(S, n))
    v3 = np.ones(3) / math.sqrt(3)
    share = solid_angle_fraction(PolyhedralCone([[1.0, 0, 0], [0, 1.0, 0], v3]))
    assert len(calls) == 1 and 0 < share < 1
    calls.clear()
    solid_angle_fraction(PolyhedralCone(np.eye(4) + 0.3))
    assert len(calls) > 1


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


def test_solid_angle_of_a_4d_product_of_wedges_is_deterministic():
    # two 45-degree wedges in orthogonal planes: a Gaussian vector lies in
    # each with probability 1/8, independently
    s = 1.0 / math.sqrt(2.0)
    C = PolyhedralCone([[1.0, 0, 0, 0], [s, s, 0, 0], [0, 0, 1.0, 0], [0, 0, s, s]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solid_angle_fraction(C) == pytest.approx(1.0 / 64.0, rel=1e-12)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_solid_angle_of_skew_4d_cones_matches_genz(seed):
    # Genz's quasi-Monte Carlo orthant probability, at a fixed seed: a
    # cross-check to its error bound, not a certificate. C = {y : R y >= 0},
    # so a Gaussian y lies in C when -R y <= 0
    C = PolyhedralCone(np.eye(4) + 0.3 * np.random.default_rng(seed).random((4, 4)))
    R = C.constraints_in_span()
    ref = multivariate_normal(np.zeros(4), R @ R.T, abseps=1e-6).cdf(
        np.zeros(4), rng=np.random.default_rng(0))
    assert solid_angle_fraction(C) == pytest.approx(ref, abs=1e-5)


def _skew_cone(p, seed):
    return PolyhedralCone(np.eye(p) + 0.3 * np.random.default_rng(seed).random((p, p)))


def _remark2_cone(n, eps):
    # the vertex cone of remark 2 (`verify.experiment_remark2_sharpness`): the
    # regular simplex's first vertex direction, spread by eps toward the
    # vertices of a regular (n-1)-simplex in its orthogonal complement
    apex = to_vrep(make_regular_simplex(n)).vertices[0]
    apex = apex / np.linalg.norm(apex)
    spread = to_vrep(make_regular_simplex(n - 1)).vertices
    spread = spread / np.linalg.norm(spread, axis=1, keepdims=True)
    return PolyhedralCone(apex + eps * (spread @ Subspace.hyperplane(apex).basis))


def _radial_solid_angle(C):
    p = C.span_dim
    return cone_section_volume_radial(make_ball(p), trivial_flat(p), C) / volume(make_ball(p))


def test_the_radial_simplex_rule_raises_beyond_its_levels():
    # a skew 6-D cone: the simplex rule's second level would take 32^5 nodes,
    # so the radial route refuses it; its solid angle is the orthant rule's
    C = _skew_cone(6, 6)
    with pytest.raises(GeometryError, match="fewer than two levels"):
        cone_section_volume_radial(make_ball(6), trivial_flat(6), C)


@pytest.mark.parametrize("p", range(2, 8))
def test_the_sign_patterns_of_a_skew_cone_share_the_sphere(p):
    # the 2^p wedges {D R y >= 0}, D = diag(+-1), partition the sphere. In
    # the reduction each pair's terms cancel over the signs of its two rows,
    # so the sum is 1 at every node count, and one stacked level checks it
    R = _skew_cone(p, 6).constraints_in_span()
    D = np.array(list(itertools.product((1.0, -1.0), repeat=p)))
    stack = D[:, :, None] * (R @ R.T) * D[:, None, :]
    fractions = sections._orthant_probability(stack, sections.QUADRATURE.sphere_nodes[0])
    assert fractions.shape == (2**p,) and (fractions > 0).all()
    assert abs(fractions.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("p", [6, 7])
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_skew_solid_angles_beyond_the_simplex_rule_meet_their_tolerance(p, seed):
    # no warning, and within Genz's quasi-Monte Carlo value at a fixed seed
    # (a cross-check to ten times its error bound, as in 4-D above)
    C = _skew_cone(p, seed)
    R = C.constraints_in_span()
    ref = multivariate_normal(np.zeros(p), R @ R.T, abseps=1e-7, releps=0).cdf(
        np.zeros(p), rng=np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solid_angle_fraction(C) == pytest.approx(ref, rel=0.0, abs=1e-6)


@pytest.mark.parametrize("p", [4, 5])
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_skew_solid_angles_match_the_radial_route(p, seed):
    C = _skew_cone(p, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solid_angle_fraction(C) == pytest.approx(_radial_solid_angle(C), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("eps", [0.8, 0.2, 0.05])
def test_remark2_vertex_cones_match_the_radial_route(n, eps):
    # narrow cones, whose correlation matrix nears singular: the graded nodes
    # keep the path integral smooth toward t = 1
    C = _remark2_cone(n, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solid_angle_fraction(C) == pytest.approx(_radial_solid_angle(C), rel=1e-8, abs=0.0)


def test_solid_angles_of_eight_rows_name_the_limit():
    with pytest.raises(GeometryError, match="at most 7 correlated cone rows, not 8"):
        solid_angle_fraction(_skew_cone(8, 6))
    with pytest.raises(GeometryError, match="at most 7 correlated cone rows, not 8"):
        cone_section_volume_polyhedral(make_ball(8), trivial_flat(8), _skew_cone(8, 6))


def test_orthants_beyond_the_row_limit_take_exactly_their_share():
    # rows uncorrelated with every other keep exactly 1/2 each, so the 7-row
    # limit binds only the correlated rows: the axis orthant and a rotated one
    rotated = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))[0]
    B = make_ball(8)
    for U in (np.eye(8), rotated):
        assert solid_angle_fraction(orthant_cone(U)) == 2.0**-8
        assert cone_section_volume_polyhedral(B, trivial_flat(8), orthant_cone(U)) == 2.0**-8 * body_volume(B)


def test_an_uncorrelated_row_halves_the_share_of_the_rest():
    # a skew 7-D cone and an eighth axis orthogonal to it: 8 rows, 7 correlated
    G = np.eye(8)
    G[:7, :7] = _skew_cone(7, 5).generators
    assert solid_angle_fraction(PolyhedralCone(G)) == pytest.approx(solid_angle_fraction(_skew_cone(7, 5)) / 2,
                                                                    rel=1e-12, abs=0.0)


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


def _hyperplane_cones(n, seed, codim=1):
    """(F, C) pairs whose F + span C has codimension ``codim`` (a hyperplane
    by default): a ray and a 2-D cone, in coordinate directions and in a
    seeded orthonormal frame."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    m = n - codim
    for U in (np.eye(n), Q):
        yield Subspace.from_span(U[:m - 1], ambient_dim=n), PolyhedralCone(U[n - 1:])
        yield (Subspace.from_span(U[:m - 2], ambient_dim=n),
               PolyhedralCone(np.vstack([U[n - 2], U[n - 2] + 2.0 * U[n - 1]])))


def _halfspace_section_and_rows(K, F, C):
    """(L, R): the section L of K by S = F + span C, taken by a halfspace
    intersection, and C's rows R in S's coordinates."""
    S = Subspace.from_span(np.vstack([F.basis, C.span.basis]), ambient_dim=K.dim)
    return halfspace_section(K, S), S.coords(C.constraints_in_span() @ C.span.basis)


def _no_qhull(*args, **kwargs):
    raise AssertionError("qhull called")


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_hyperplane_cone_volumes_of_simplicial_bodies_take_no_qhull_call(n, monkeypatch):
    # cones of 1 and 2 rows whose F + span C has codimension 1 (n <= 6), 2
    # (n >= 4) and 3 (n >= 5), against a halfspace intersection and its
    # cut; simplicial bodies slice their cached cones down to the flat
    # instead, at every codimension, with no section body and no qhull call
    e = np.eye(n)
    bodies = [random_body(n, n) if n <= 6 else random_centered_polytope(n, n + 4, n),
              VPolytope(np.vstack([e, -np.ones(n)])), make_cross_polytope(n), make_centered_cone(n), make_cube(n)]
    for K in bodies:
        boundary(K)
    assert [known_simplicial(K) for K in bodies] == [True, True, True, True, False]
    codims = [c for c in (1, 2, 3) if n - c >= 2 and (c > 1 or n <= 6)]
    cases = [(K, F, C, _cut_volume(L, None, R), _cut_volume(L, None, -R))
             for K in bodies for codim in codims for F, C in _hyperplane_cones(n, n, codim)
             for L, R in [_halfspace_section_and_rows(K, F, C)]]
    assert len(cases) == 20 * len(codims)
    for K, F, C, plus, minus in cases:
        with monkeypatch.context() as patch:
            if known_simplicial(K):
                patch.setattr(conesec.geometry, "_qhull", _no_qhull)
                patch.setattr(sections, "section", lambda *a: pytest.fail("section body taken"))
            assert cone_section_volume_polyhedral(K, F, C) == pytest.approx(plus, rel=1e-12)
            assert _opposite_cone_volumes(K, F, C) == pytest.approx([plus, minus], rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_opposite_cone_volumes_slice_the_cones_once(n, monkeypatch):
    # both signs of a part-1 pair cut the same slices: the pair takes the
    # `_slice` calls of one sign alone, one per block of K's cones, also for
    # the 6-D body of 888 facets, and no section body
    K = random_centered_polytope(6, 30, 4) if n == 6 else random_body(n, n)
    boundary(K)
    blocks = -(-len(volume_module._cone_simplices(K)[1]) // volume_module._WEDGE_BLOCK)
    slices = []
    real_slice = volume_module._slice
    monkeypatch.setattr(volume_module, "_slice", lambda *a, **kw: slices.append(1) or real_slice(*a, **kw))
    monkeypatch.setattr(sections, "section", lambda *a, **kw: pytest.fail("section body taken"))
    for F, C in _hyperplane_cones(n, n):
        slices.clear()
        plus = cone_section_volume_polyhedral(K, F, C)
        assert len(slices) == blocks
        minus = cone_section_volume_polyhedral(K, F, C.negated())
        slices.clear()
        assert _opposite_cone_volumes(K, F, C) == pytest.approx([plus, minus], rel=1e-12)
        assert len(slices) == blocks


def test_cut_volume_takes_one_wedge_or_a_stack():
    # one wedge gives a float, a stack one value per wedge; up to two rows
    # the stack is one wedge-kernel call, beyond that each wedge is one
    # halfspace intersection, checked here against the fan of its moments
    K, e = random_body(4, 3), np.eye(4)
    for rows in (1, 2, 3):
        C = orthant_cone(e[4 - rows:]) if rows > 1 else PolyhedralCone(e[3:])
        S, R = sections._cone_flat(Subspace.from_span(e[:4 - rows]), C)
        assert S is None
        single = [_cut_volume(K, S, R), _cut_volume(K, S, -R)]
        assert all(isinstance(v, float) for v in single)
        stacked = _cut_volume(K, S, np.stack([R, -R]))
        assert stacked.shape == (2,) and stacked.tolist() == single
        fans = [moments(_halfspace_polytope(np.vstack([K.A, -W]), np.concatenate([K.b, np.zeros(rows)]))).volume
                for W in (R, -R)]
        assert stacked == pytest.approx(fans, rel=1e-12, abs=0)
    # a flat that misses the body: its section body is None, and the slice
    # of a simplicial body's cones keeps no face
    S, R = sections._cone_flat(Subspace.from_span(e[1:3]), PolyhedralCone(e[3:]))
    for K in (translate(make_cube(4), 5 * e[0]), translate(make_cross_polytope(4), 5 * e[0])):
        assert _cut_volume(K, S, R) == 0.0 and _cut_volume(K, S, np.stack([R, -R])).tolist() == [0.0, 0.0]
    # two rows on a grid of bodies: the stack [R, -R] gives the bits of its
    # wedges cut alone, whichever sign R's first row has, in the whole space
    # and sliced down to a hyperplane
    for n in range(3, 7):
        e = np.eye(n)
        for seed in range(1, 16):
            K = random_centered_polytope(n, 2 * n + 6, seed)
            for flat in (e[:n - 2], e[:n - 3]):
                S, R = sections._cone_flat(Subspace.from_span(flat, ambient_dim=n), orthant_cone(e[n - 2:]))
                assert _cut_volume(K, S, np.stack([R, -R])).tolist() == [_cut_volume(K, S, R),
                                                                          _cut_volume(K, S, -R)], (n, seed)


def test_a_cone_keeps_its_flat_per_flat_basis():
    # the pair a cone keeps for F is, bit for bit, the pair of a cone built
    # anew with an F built anew; another F gets its own entry
    e = np.eye(5)
    C = orthant_cone(e[3:])
    for rows in (2, 1, 2):
        S, R = sections._cone_flat(Subspace.from_span(e[:rows]), C)
        fresh_S, fresh_R = sections._cone_flat(Subspace.from_span(e[:rows]), orthant_cone(e[3:]))
        assert S.basis.tobytes() == fresh_S.basis.tobytes() and R.tobytes() == fresh_R.tobytes()
        assert sections._cone_flat(Subspace.from_span(e[:rows]), C)[1] is R
    assert len(C._flats) == 2
    # a cone outside F^perp raises on every call, and nothing is kept for it
    for _ in range(2):
        with pytest.raises(GeometryError, match="orthogonal complement"):
            sections._cone_flat(Subspace.from_span(e[2:4]), C)
    assert len(C._flats) == 2


# (points, seed, k, p) of `conesec check part1 --body random --n 6`
@pytest.mark.parametrize("points, seed, k, p", [
    (18, 3, 3, 3), (30, 4, 3, 3), (18, 3, 4, 4)])
def test_wide_cone_cuts_of_6d_sections(points, seed, k, p):
    # the halfspace cut of 3-4 rows, whose boundary is pulled from the
    # wedge system's rows, against the wedge kernel. The wedge kernel is
    # slower than the halfspace cut on other bodies and far slower on 7-D
    # and 8-D ones (CHANGES.md), so the two-row rule stays
    e = np.eye(6)
    K = random_centered_polytope(6, points, seed)
    F, C = Subspace.from_span(e[:6 - k]), PolyhedralCone(e[6 - p:])
    S, R = sections._cone_flat(F, C)
    assert S is None
    plus, minus = _opposite_cone_volumes(K, F, C)
    assert [plus, minus] == pytest.approx(wedge_moment(K, np.stack([R, -R])), rel=1e-10, abs=0)


def test_thin_affine_section_near_the_support_edge():
    # near the edge of the support, f(t theta) is one quartic (T - t)^4 piece:
    # f at 0.999 T is 16 times f at 0.9995 T (3.99e-13). A halfspace
    # intersection of this 4-D sliver raises QH6297 on the pinned body (the
    # seeded sample of random_centered_polytope(6, 18, 4), translated by a
    # centroid written to the bit); the slice of K's cones takes no qhull call
    c = [float.fromhex(x) for x in ("0x1.822af32929feap-3", "-0x1.14b8c002378e6p-8", "0x1.d74b3599c3ef1p-6",
                                     "0x1.5f13bc733edc2p-5", "-0x1.8d2de827b24a2p-7", "-0x1.ba59e1fcacc94p-7")]
    K = translate(VPolytope(_rng.sample_ball(6, 18, 4)), -np.array(c))
    f = SectionVolumeFunction(K, Subspace.from_span(np.eye(6)[:4]))
    theta = np.array([-0.9690224474374797, -0.2469726631882099])
    T = f.ray_extent(theta)
    assert T == pytest.approx(0.4578770333561873, rel=1e-12)
    assert f(0.995 * T * theta) == pytest.approx(10**4 * f(0.9995 * T * theta), rel=1e-8)
    assert f(0.999 * T * theta) == pytest.approx(16 * f(0.9995 * T * theta), rel=1e-8)


@pytest.mark.parametrize("n, points", [(3, 12), (4, 14), (5, 16), (6, 18), (7, 20), (8, 12)])
def test_central_sections_of_simplicial_bodies_take_no_qhull_call(n, points, monkeypatch):
    # a seeded hyperplane section through 0 is sliced from K's cached cones.
    # The halfspace intersection, with its boundary pulled, has the same
    # vertices and volume (a hull of its points did not tile the 7-D one)
    K = random_centered_polytope(n, points, n)
    u = np.random.default_rng(n).standard_normal(n)
    S = Subspace.hyperplane(u)
    boundary(K)

    def no_qhull(*args, **kwargs):
        raise AssertionError("qhull called")

    with monkeypatch.context() as patch:
        patch.setattr(conesec.geometry, "_qhull", no_qhull)
        L = section(K, S)
        got = volume(L)
        assert ci_radial(K, u).certified
    ref = halfspace_section(K, S)
    assert len(L.vertices) == len(ref.vertices)
    assert got == pytest.approx(volume(ref), rel=1e-12)


@pytest.mark.parametrize("points, seed, draw", [(18, 10, 3), (30, 4, 11), (30, 4, 12), (30, 4, 16)])
def test_central_sections_keep_their_vertices_at_every_scale(points, seed, draw):
    # the section by the hyperplane of the draw-th normal u has one vertex per
    # edge of K that crosses it (K is simplicial, so the edges of its
    # boundary simplices are its edges) at every scale, and its volume
    # scales by s^5. A halfspace intersection and hull lost or gained
    # vertices here at 1e-6 or 1e-4, or raised
    K = random_centered_polytope(6, points, seed)
    u = np.random.default_rng(seed).standard_normal((draw, 6))[-1]
    S = Subspace.hyperplane(u / np.linalg.norm(u))
    c = to_vrep(K).vertices @ S.complement().basis[0]
    crossing = {(i, j) for row in boundary(K).simplices for i in row for j in row if c[i] > 0 > c[j]}
    L = section(K, S)
    assert len(L.vertices) == len(crossing) + np.count_nonzero(c == 0)
    for s in (1e-6, 1e-4, 1e4):
        scaled = section(affine_map(K, s * np.eye(6)), S)
        assert len(scaled.vertices) == len(L.vertices)
        assert volume(scaled) / s**5 == pytest.approx(volume(L), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, points, seed", [(4, 14, 2), (5, 16, 3), (6, 18, 4)])
@pytest.mark.parametrize("s", [1e-6, 1.0, 1e4])
def test_k1_profiles_integrate_to_the_volume_with_no_qhull_call(n, points, seed, s, monkeypatch):
    # f is a polynomial of degree n - 1 between consecutive vertex heights,
    # so n Gauss-Legendre nodes per interval integrate f and t f exactly:
    # int f = |K| and int t f = |K| <centroid, e> = 0. Once K's boundary is
    # built, every f(t) is a slice of the translated body's cones, and the
    # exact maximum takes f at the heights, with no qhull call and no LP
    K = affine_map(random_centered_polytope(n, points, seed), s * np.eye(n))
    boundary(K)
    f = SectionVolumeFunction(K, Subspace.from_span(np.eye(n)[:n - 1], ambient_dim=n))
    heights = np.unique(to_vrep(K).vertices[:, -1])
    x, w = np.polynomial.legendre.leggauss(n)

    def refuse(*args, **kwargs):
        raise AssertionError("qhull or the Chebyshev LP called")

    with monkeypatch.context() as patch:
        patch.setattr(conesec.geometry, "_qhull", refuse)
        patch.setattr(conesec.geometry, "chebyshev_center", refuse)
        mass = first = 0.0
        for lo, hi in zip(heights[:-1], heights[1:]):
            ts = (lo + hi) / 2 + (hi - lo) / 2 * x
            values = np.array([f(t) for t in ts]) * w * (hi - lo) / 2
            mass += values.sum()
            first += values @ ts
        assert estimate_max(f) > 0
    assert mass == pytest.approx(volume(K), rel=1e-12, abs=0.0)
    assert abs(first) <= 1e-12 * volume(K) * (heights[-1] - heights[0])


@pytest.mark.parametrize("n, points, seed", [(4, 14, 1), (5, 16, 2), (6, 18, 5), (7, 11, 1), (8, 10, 1)])
def test_brunn_function_is_sliced_from_the_cones_at_every_codimension(n, points, seed, monkeypatch):
    # for a simplicial body known by its vertices and sections of dimension
    # m >= 2, every f(x) is one wedge moment of the translated body's cones
    # sliced by F^perp, with no qhull call: at 0, at 0.3 T and 0.999 T along
    # seeded directions, and exactly 0 at 1.2 T. The values equal qhull's
    # halfspace intersection and scale by s^m with K. The bodies are ones
    # where that reference does not raise at 0.999 T: on most random 7-D
    # and 8-D bodies of 2n + 6 points it does
    K = random_centered_polytope(n, points, seed)
    boundary(K)

    def no_qhull(*args, **kwargs):
        raise AssertionError("qhull called")

    for k in (1, 2, 3):
        F = Subspace.from_span(np.eye(n)[:n - k])
        f = SectionVolumeFunction(K, F)
        thetas = np.random.default_rng(seed).standard_normal((2 if n == 8 else 3, k))
        extents = [f.ray_extent(theta) * theta for theta in thetas]
        xs = [np.zeros(k)] + [s * x for x in extents for s in (0.3, 0.999)]
        scaled = {s: SectionVolumeFunction(affine_map(K, s * np.eye(n)), F) for s in (1e-6, 1e4)}
        with monkeypatch.context() as patch:
            patch.setattr(conesec.geometry, "_qhull", no_qhull)
            values = [f(x) for x in xs]
            assert [f(1.2 * x) for x in extents] == [0.0] * len(extents)
            for s, g in scaled.items():
                assert [g(s * x) for x in xs] == pytest.approx(s ** (n - k) * np.array(values), rel=1e-12,
                                                               abs=1e-12 * s ** (n - k) * values[0]), (k, s)
        refs = [body_volume(halfspace_section(translate(K, -F.complement().embed(x)), F)) for x in xs]
        assert values == pytest.approx(refs, rel=1e-12, abs=1e-12 * values[0]), k


def test_brunn_function_decides_its_route_before_it_translates(monkeypatch):
    # simpliciality does not change under translation, so `section_volume`
    # reads it on K: 20 f values of a warmed body compute no vertex-facet
    # incidence (each translate K - x computed its own before)
    K = random_centered_polytope(6, 18, 4)
    f = SectionVolumeFunction(K, Subspace.from_span(np.eye(6)[:4]))
    thetas = np.random.default_rng(4).standard_normal((10, 2))
    xs = [s * f.ray_extent(theta) * theta for theta in thetas for s in (0.3, 0.9)]
    f(np.zeros(2))
    incidences = []
    real = conesec.geometry._incidence
    monkeypatch.setattr(conesec.geometry, "_incidence", lambda *a: incidences.append(1) or real(*a))
    values = [f(x) for x in xs]
    assert incidences == [] and min(values) > 0
    monkeypatch.undo()
    assert values == pytest.approx([body_volume(section(translate(K, -f.Fperp.embed(x)), f.F)) for x in xs],
                                   rel=1e-12)


def test_supporting_lines_of_the_square_read_its_edges():
    # a flat that supports K holds a face of K, which the slice counts from
    # the side K lies on: the top and bottom edges of the square, built from
    # its vertices and from its halfspaces (the top one read 0 before)
    square = VPolytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    line = Subspace.from_span([[1.0, 0.0]])
    for body in (square, make_cube(2)):
        for x0 in ([0.0, 1.0], [0.0, -1.0]):
            ref = body_volume(halfspace_section(translate(body, np.negative(x0)), line))
            assert ref == 2.0 and section_volume(body, line, x0) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rotated", [False, True], ids=["axes", "rotated"])
@pytest.mark.parametrize("apex", ["down", "up"])
@pytest.mark.parametrize("k", [1, 2])
def test_a_flat_in_the_base_of_a_cone_reads_its_section_of_the_base(k, apex, rotated):
    # the 4-D cone, apex down (its base on top) or up, plain or in a seeded
    # rotation, where no vertex value along the flat's normals is exactly 0:
    # the flat of codimension k through the base's centre lies in the base's
    # hyperplane, and the section is that of the base (the apex-down axis
    # cases read 0 before, the rotated ones 0.13-0.26 for 1/3 and 25/48)
    R = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0] if rotated else np.eye(4)
    K = affine_map(make_centered_cone(4), R @ np.diag([1.0, 1.0, 1.0, -1.0 if apex == "down" else 1.0]))
    F = Subspace.from_span(R[:, :4 - k].T)
    x0 = R @ [0.0, 0.0, 0.0, -0.2 if apex == "up" else 0.2]  # the base's centre
    ref = body_volume(halfspace_section(translate(K, -x0), F))
    assert ref == pytest.approx(1 / 3 if k == 1 else 25 / 48, rel=1e-12)
    assert section_volume(K, F, x0) == pytest.approx(ref, rel=1e-12, abs=0.0)
    if k == 1:  # the central hyperplane section body of K - x0, sliced
        assert volume(section(translate(K, -x0), F)) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_flats_in_facets_of_a_random_body_read_their_section_of_the_facet(k):
    # flats of codimension k through the vertex average of a boundary
    # simplex, in its facet's hyperplane, off the axes: each reads the
    # halfspace route's section of the facet
    K = random_body(5, 2)
    bd, gen = boundary(K), np.random.default_rng(k)
    for s in (0, 6, 12, 18, 24):
        x0, a = K.vertices[bd.simplices[s]].mean(axis=0), K.A[bd.facet[s]]
        w = gen.standard_normal(5)
        F = Subspace.from_span([a, w - (w @ a) * a][:k]).complement()
        ref = body_volume(halfspace_section(translate(K, -x0), F))
        assert ref > 0 and section_volume(K, F, x0) == pytest.approx(ref, rel=1e-12, abs=0.0), s


@pytest.mark.parametrize("k", [1, 2])
def test_brunn_function_of_an_h_built_body_does_not_depend_on_what_was_computed_first(k):
    # the 7-D body known by its halfspaces: before its vertices were read,
    # f near the support's edge took a halfspace intersection, which raised
    # QH6271 at 0.999 T (and took 0.4-0.6 s per value inside); after, it was
    # sliced. Built complete, it is sliced either way, with the same bits,
    # and equals f of the vertex-built body
    K = random_centered_polytope(7, 20, 1)
    F = Subspace.from_span(np.eye(7)[:7 - k])
    thetas = [[1.0], [-1.0]] if k == 1 else np.random.default_rng(0).standard_normal((3, 2))
    fK = SectionVolumeFunction(K, F)
    points = [s * fK.ray_extent(theta) * np.asarray(theta) for theta in thetas for s in (0.5, 0.999)]

    def values(warm):
        H = HPolytope(to_hrep(K).A, K.b)
        if warm:
            H.vertices, boundary(H)
        f = SectionVolumeFunction(H, F)
        return [f(x) for x in points]

    cold = values(False)
    assert cold == values(True)
    ref = [fK(x) for x in points]
    assert cold == pytest.approx(ref, rel=1e-12, abs=1e-12 * max(ref))


def test_sections_just_outside_a_facet_parallel_to_the_flat_are_empty():
    # 5e-10 outside a facet parallel to the flat the section is empty; at
    # the facet it is the facet's section. The cone is sliced from its
    # translated cones; the H-built cube and the line through it take the
    # halfspace route
    cone, F = make_centered_cone(3), Subspace.from_span(np.eye(3)[:2])
    f = section_volume_fn(cone, F)
    V = to_vrep(cone).vertices
    base = V[V[:, 2] < 0, :2]
    assert f(-0.25) == pytest.approx(volume(VPolytope(base)), rel=1e-15)
    assert f(-0.25 - 5e-10) == 0.0
    cube = make_cube(3)
    g = section_volume_fn(cube, F)
    assert g(1.0) == g(-1.0) == 4.0
    assert g(1.0 + 5e-10) == g(-1.0 - 5e-10) == 0.0
    line = section_volume_fn(cube, Subspace.from_span(np.eye(3)[:1]))
    assert line([1.0, 0.0]) == 2.0
    assert line([1.0 + 5e-10, 0.0]) == line([0.0, -1.0 - 5e-10]) == 0.0


@pytest.mark.parametrize("seed", [4, 5])
def test_affine_sections_of_6d_bodies_raise_at_no_height(seed):
    # on the halfspace route 2 and 3 of these 200 heights raised the tiling
    # guard; sliced from the translated body's cones, f^(1/5) is concave
    K = random_centered_polytope(6, 18, seed)
    f = section_volume_fn(K, Subspace.from_span(np.eye(6)[:5]))
    h = to_vrep(K).vertices[:, 5]
    ts = np.linspace(h.min(), h.max(), 200)
    root = np.array([f(t) for t in ts]) ** (1 / 5)
    assert np.all(root[1:-1] >= (root[:-2] + root[2:]) / 2 - 1e-12 * root.max())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bodies_known_by_halfspaces_are_sectioned_without_their_vertices(n):
    # an H-built body holds the vertices of its one halfspace intersection
    # and pulls its boundary from its rows: its sections, sliced or cut,
    # equal the vertex-built body's, and no hull of its vertices is taken
    V = VPolytope(np.vstack([np.eye(n), -np.ones(n)]))
    H = HPolytope(to_hrep(V).A, to_hrep(V).b)
    S = Subspace.hyperplane(np.arange(1.0, n + 1.0))
    hulls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conesec.geometry, "ConvexHull", lambda *a, **k: hulls.append(1) or ConvexHull(*a, **k))
        got = [cone_section_volume_polyhedral(H, F, C) for F, C in _hyperplane_cones(n, n)]
        assert section_volume(H, S) == pytest.approx(section_volume(V, S), rel=1e-12)
        assert hulls == []
    assert got == pytest.approx([cone_section_volume_polyhedral(V, F, C) for F, C in _hyperplane_cones(n, n)],
                                rel=1e-12)
    assert known_simplicial(H) and known_simplicial(V)


def test_a_hyperplane_section_of_the_8_cube_pulls_no_boundary_of_the_cube(monkeypatch):
    # the cube's simpliciality is read from its incidence, so the section
    # takes the halfspace route without the cube's 80 640 boundary
    # simplices: only the 7-D section body pulls its boundary
    K = make_cube(8)
    pulled = []
    pull = conesec.geometry._pulled
    monkeypatch.setattr(conesec.geometry, "_pulled", lambda V, A, b: pulled.append(V.shape[1]) or pull(V, A, b))
    assert section_volume(K, Subspace.hyperplane(np.arange(1.0, 9.0))) == 170.9423156921925
    assert pulled == [7] and K._boundary_cache is None


@pytest.mark.parametrize("spec", verify.load_corpus(None), ids=lambda spec: spec["label"])
def test_simpliciality_is_read_from_the_incidence(spec):
    # a manifest body and its central section by one hyperplane are
    # simplicial exactly when each of their boundary simplices is a facet
    K = body_from_spec(spec)
    if isinstance(K, Ball):
        return
    for body in (K, section(K, Subspace.hyperplane(np.arange(1.0, K.dim + 1.0)))):
        facet = boundary(body).facet
        assert known_simplicial(body) == (len(np.unique(facet)) == len(facet))


def test_section_with_non_simplicial_facets_is_pulled():
    # in the centred, rotated coordinates of a hull of this section's
    # vertices, qhull's triangulation of its non-simplicial facets overlaps
    # itself. `section` slices this hyperplane from K's cones, so the
    # halfspace intersection is taken explicitly: its facets are pulled
    # from the system's rows, with no hull
    K = random_body(6, 2608)
    S = Subspace.from_span(np.eye(6)[[0, 1, 2, 4, 5]], ambient_dim=6)
    sec = halfspace_section(K, S)
    facet = boundary(sec).facet
    assert not known_simplicial(sec) and len(np.unique(facet)) < len(facet)
    assert volume(sec) == pytest.approx(ConvexHull(sec.vertices).volume, rel=1e-12)
    assert volume(section(K, S)) == pytest.approx(volume(sec), rel=1e-12)


def test_h_built_affine_sections_hold_at_small_scale():
    # the halfspace route scales its system to max |b| = 1 before the LP and
    # qhull: at scale 1e-6 one vertex height of this body raised QH6023
    # (feasible point not clearly inside). f of the H-built body now equals
    # f of the vertex-built one, sliced from its cones, at every height
    K = affine_map(random_centered_polytope(4, 14, 12), 1e-6 * np.eye(4))
    H = HPolytope(to_hrep(K).A, to_hrep(K).b)
    F = Subspace.from_span(np.eye(4)[:3])
    fH, fV = SectionVolumeFunction(H, F), SectionVolumeFunction(K, F)
    heights = to_vrep(K).vertices @ F.complement().basis[0]
    assert [fH(np.array([t])) for t in heights] == pytest.approx(
        [fV(np.array([t])) for t in heights], rel=1e-12, abs=0)


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
    # 32-interval levels agree. The two levels share one call, and the
    # 32-level's 33 nodes on a piece hold the 16-level's 17, so a query that
    # stops there makes one call of 33 directions per arc piece
    calls, pieces = [], []
    real = SectionVolumeFunction.ray_moments
    monkeypatch.setattr(SectionVolumeFunction, "ray_moments",
                        lambda self, thetas, p: calls.append(len(thetas)) or real(self, thetas, p))
    real_kinks = sections._arc_kinks

    def kinks(*args):
        out = real_kinks(*args)
        pieces.append(len(out) + 1)
        return out

    monkeypatch.setattr(sections, "_arc_kinks", kinks)
    e = np.eye(3)
    for seed in (5030, 5031):
        K = random_body(3, seed)
        for C in (orthant_cone(e[1:]), PolyhedralCone([e[1] + 0.4 * e[2], e[2]]), orthant_cone(-e[1:])):
            calls.clear()
            pieces.clear()
            got = cone_section_volume_radial(K, Subspace.from_span(e[:1]), C)
            assert pieces[0] > 1 and calls == [(32 + 1) * pieces[0]]
            assert got == pytest.approx(cone_section_volume_polyhedral(K, Subspace.from_span(e[:1]), C),
                                        rel=1e-6, abs=0.0)


def test_arc_kinks_drop_sliver_pieces(monkeypatch):
    # two vertices of the regular simplex project to directions 1.1e-16
    # apart, at the arc's middle: the two kinks are one, so the arc takes 2
    # pieces, not 3 with a sliver between them, and converges at its first
    # call of 33 nodes per piece
    calls, pieces = [], []
    real = SectionVolumeFunction.ray_moments
    monkeypatch.setattr(SectionVolumeFunction, "ray_moments",
                        lambda self, thetas, p: calls.append(len(thetas)) or real(self, thetas, p))
    real_kinks = sections._arc_kinks

    def kinks(*args):
        out = real_kinks(*args)
        pieces.append(len(out) + 1)
        return out

    monkeypatch.setattr(sections, "_arc_kinks", kinks)
    e = np.eye(3)
    K, F, C = make_regular_simplex(3), Subspace.from_span(e[:1]), orthant_cone(-e[1:])
    got = cone_section_volume_radial(K, F, C)
    assert pieces == [2] and calls == [33 * 2]
    assert got == pytest.approx(cone_section_volume_polyhedral(K, F, C), rel=1e-12, abs=0.0)


def test_sphere_rule_takes_one_call_per_level_after_its_first_two(monkeypatch):
    # levels 2 and 3 (3 and 4 nodes per arc piece) disagree on the cube, and
    # so do 3 and 32, so the rule goes on to its third level and then to its
    # fourth. Level 3 takes no node of level 2, level 32 takes level 2's 3
    # (3 does not divide 32) and level 64 takes level 32's 33
    F, C = Subspace.from_span([[1.0, 0, 0]]), orthant_cone([[0, 1.0, 0], [0, 0, 1.0]])
    monkeypatch.setattr(sections, "QUADRATURE", QuadratureSpec(sphere_nodes=(2, 3, 32, 64)))
    calls = []
    real = SectionVolumeFunction.ray_moments
    monkeypatch.setattr(SectionVolumeFunction, "ray_moments",
                        lambda self, thetas, p: calls.append(len(thetas)) or real(self, thetas, p))
    got = cone_section_volume_radial(make_cube(3), F, C)
    pieces = calls[0] // (3 + 4)
    assert calls == [7 * pieces, 30 * pieces, 32 * pieces]
    assert got == pytest.approx(2.0, rel=1e-6)


def test_nested_cc_levels_match_their_single_level_calls():
    # the nodes of both levels go to fn in one call, the 17 of level 16
    # among the 33 of level 32; each level's value is the one it has alone
    calls = []

    def fn(phis):
        calls.append(len(phis))
        return np.exp(np.sin(3 * phis)) * np.abs(np.cos(phis))

    edges = np.array([0.1, 0.7, 1.3, 2.0])
    both = sections._nested_cc(fn, edges)((16, 32))
    alone = [sections._nested_cc(fn, edges)((n,))[0] for n in (16, 32)]
    assert calls == [3 * 33, 3 * 17, 3 * 33]
    assert both == pytest.approx(alone, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 32, 64, 128])
def test_clenshaw_curtis_weights_integrate_polynomials_of_their_degree(n):
    # the (n + 1)-point rule on [-1, 1] integrates x^j exactly for j <= n;
    # each error is relative to the integral of |x|^j, 2 / (j + 1), as the
    # odd moments are 0
    x, w = sections._cc_cache(n)
    assert w.sum() == pytest.approx(2.0, rel=1e-14, abs=0.0)
    for j in range(n + 1):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(w @ x**j - exact) <= 1e-14 * 2.0 / (j + 1), j


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4])
def test_integer_power_steps_match_exact_rationals(q, scale):
    # t2^e - t1^e at e = q and q + 1 as -t2^e expm1(-e log1p(h / t1)), the
    # route of real p and of integer p past the panel weights: no
    # cancellation on steps of 1e-12 relative, nor from t1 = 0
    base = scale * np.sort(np.random.default_rng(q).uniform(0.05, 3.0, 40))
    t = np.concatenate([[0.0], base, base * (1 + 1e-12), base * (1 + 1e-9)])
    t = np.sort(t)[None, :]
    for e, got in zip((q, q + 1), sections._power_steps(t, q)):
        exact = [Fraction(b) ** e - Fraction(a) ** e for a, b in zip(t[0, :-1], t[0, 1:])]
        err = [abs(Fraction(g) - x) / x for g, x in zip(got[0], exact)]
        assert max(err) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 1024])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4])
def test_integer_p_panel_moments_match_exact_rationals(p, scale):
    # the closed form h (left a + right b) sums only non-negative terms: no
    # cancellation on steps of 1e-12 relative, from t1 = 0, or on steep
    # panels, whose two ends differ by up to 12 orders of magnitude. At
    # p = 1024, the largest degree it takes, the breakpoints lie in
    # [0.9, 1.05] times scale^(1/p), so every t^p is a normal float; fewer
    # of them keep the exact sums of 1024th powers quick
    low, high, count = (0.9, 1.05, 12) if p == 1024 else (0.05, 3.0, 40)
    scale = scale ** (1 / p) if p == 1024 else scale
    base = scale * np.sort(np.random.default_rng(p).uniform(low, high, count))
    t = np.sort(np.concatenate([[0.0], base, base * (1 + 1e-12), base * (1 + 1e-9)]))
    rng = np.random.default_rng([p, 7])
    steep = rng.uniform(0.0, 1.0, (2, len(t) - 1)) * 10.0 ** rng.integers(-12, 1, (2, len(t) - 1))
    ends = np.vstack([rng.uniform(0.1, 2.0, (2, len(t) - 1)), steep, steep[::-1]]).reshape(3, 2, -1)
    ts = np.repeat(t[None, :], 3, axis=0)
    got = sections._piecewise_linear_moments((ts, ts[:, 1:] - ts[:, :-1], ends[:, 0], ends[:, 1]), p)
    for row, (left, right) in enumerate(ends):
        exact = Fraction(0)
        for t1, t2, lo, hi in zip(map(Fraction, t[:-1]), map(Fraction, t[1:]), map(Fraction, left), map(Fraction, right)):
            if t2 > t1:  # int t^(p-1) (lo + slope (t - t1)) dt over [t1, t2]
                slope, whole = (hi - lo) / (t2 - t1), (t2**p - t1**p) / p
                exact += lo * whole + slope * ((t2 ** (p + 1) - t1 ** (p + 1)) / (p + 1) - t1 * whole)
        assert abs(Fraction(got[row]) - exact) <= 4 * np.finfo(float).eps * exact


def test_sphere_rule_warns_when_it_misses_its_tolerance(monkeypatch):
    # on the cube, levels 2 and 4 (3 and 5 nodes on each piece of the arc)
    # differ by more than sphere_rel_tol and less than sphere_fail_tol
    F, C = Subspace.from_span([[1.0, 0, 0]]), orthant_cone([[0, 1.0, 0], [0, 0, 1.0]])
    spec = QuadratureSpec(sphere_nodes=(2, 4), sphere_fail_tol=0.1)
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

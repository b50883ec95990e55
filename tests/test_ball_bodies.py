"""Moment bodies of concave profiles: radial maps, moments, constants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import beta

from conesec import ball_bodies
from conesec.ball_bodies import (
    ConcaveFunctionOracle,
    I_p,
    ball_body,
    ball_indicator_oracle,
    berwald_inclusion_constants,
    estimate_max,
    fradelizi_constant,
    function_moment,
    geometric_distance_factor,
    geometric_distance_lb,
    max_route,
    moment_identity_check,
    negative_ray_factor,
    oracle_from_section_fn,
    sphere_quadrature,
)
from conesec.geometry import (
    GeometryError,
    Subspace,
    VPolytope,
    affine_map,
    make_ball,
    make_centered_cone,
    make_cross_polytope,
    make_cube,
    make_regular_simplex,
    radial,
    random_centered_polytope,
    to_vrep,
    translate,
)
from conesec.sections import SectionVolumeFunction, section_volume_fn
from conesec.volume import moment_p, unit_ball_volume, volume


def linear_profile_oracle(m: float) -> ConcaveFunctionOracle:
    """f(t) = (1 - |t|)^m on [-1, 1]: the extremal 1/m-concave profile."""
    return ConcaveFunctionOracle(
        dim=1,
        evaluate=lambda x: max(0.0, 1.0 - abs(float(x[0]))) ** m,
        concavity_index=m,
        support_radius=1.0,
    )


def quadratic_cap_oracle() -> ConcaveFunctionOracle:
    """f(x) = 1 - |x|^2 on the unit disc, an oracle with no section function."""
    return ConcaveFunctionOracle(
        dim=2,
        evaluate=lambda x: max(0.0, 1.0 - float(x @ x)),
        concavity_index=1.0,
        support_radius=1.0,
    )


# ---------------------------------------------------------------------------
# radial integrals I_p


def test_indicator_radial_closed_form():
    # I_p(1_{rB}, theta) = r / p^(1/p) for unit theta
    for k in (1, 2, 3):
        f = ball_indicator_oracle(k, r=2.0)
        theta = np.ones(k) / math.sqrt(k)
        for p in (1.0, 2.0, 3.5):
            assert I_p(f, theta, p) == pytest.approx(2.0 / p ** (1 / p), rel=1e-9)


def test_I_p_homogeneity():
    f = ball_indicator_oracle(2)
    theta = np.array([0.6, 0.8])
    for lam in (0.5, 2.0, 7.0):
        assert I_p(f, lam * theta, 2.0) == pytest.approx(
            I_p(f, theta, 2.0) / lam, rel=1e-9)


def test_I_p_rejects_bad_arguments():
    # through I_p and through the moment body's radius, on a section profile
    # and on an oracle without one
    for f in (ball_indicator_oracle(2), quadratic_cap_oracle()):
        for p in (0.0, -1.0):
            with pytest.raises(GeometryError):
                I_p(f, [1.0, 0.0], p)
            with pytest.raises(GeometryError):
                ball_body(f, p).radial([1.0, 0.0])
        with pytest.raises(GeometryError):
            I_p(f, [0.0, 0.0], 1.0)
        with pytest.raises(GeometryError):
            ball_body(f, 1.0).radial([0.0, 0.0])


def test_oracle_without_section_fn_takes_the_adaptive_rule():
    # f = 1 - |x|^2: I_p(f, theta)^p = 1/p - 1/(p+2) for unit theta
    f = quadratic_cap_oracle()
    dirs = np.random.default_rng(3).standard_normal((4, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for p in (1.0, 2.0, 3.0):
        L = ball_body(f, p)
        radii = L.radial_many(dirs)
        assert radii == pytest.approx([I_p(f, th, p) for th in dirs], rel=1e-13)
        assert radii == pytest.approx((1 / p - 1 / (p + 2)) ** (1 / p), rel=1e-12)


def test_linear_profile_matches_beta_function():
    # int_0^1 t^(p-1) (1-t)^m dt = B(p, m+1)
    for m in (1.0, 2.0, 3.0):
        f = linear_profile_oracle(m)
        for p in (1.0, 2.0, 3.0):
            assert I_p(f, [1.0], p) == pytest.approx(
                beta(p, m + 1) ** (1 / p), rel=1e-8)


def test_section_fn_oracle_reproduces_values():
    K = make_regular_simplex(3)
    F = Subspace.from_span(np.eye(3)[:2])
    svf = section_volume_fn(K, F)
    f = oracle_from_section_fn(svf)
    assert f.dim == 1
    assert f([0.0]) == pytest.approx(svf([0.0]))
    assert f.concavity_index == 2


def test_oracles_of_a_shared_section_fn_leave_it_untouched():
    # `section_volume_fn` gives one function per (K, F); each oracle built on
    # it is that function, with nothing written on it
    K, F = random_centered_polytope(3, 12, 5030), Subspace.from_span(np.eye(3)[:1])
    svf = section_volume_fn(K, F)
    before = dict(vars(svf))
    first, second = oracle_from_section_fn(section_volume_fn(K, F)), oracle_from_section_fn(svf)
    assert first is svf and second is svf
    assert vars(svf).keys() == before.keys()
    assert all(vars(svf)[name] is value for name, value in before.items())


def test_section_fn_is_its_own_oracle():
    K = random_centered_polytope(4, 14, 9)
    svf = section_volume_fn(K, Subspace.from_span(np.eye(4)[:2]))
    f = oracle_from_section_fn(svf)
    assert f is svf
    assert f.dim == 2 and f.barycenter_zero
    assert f.support_radius == pytest.approx(np.linalg.norm(to_vrep(K).vertices, axis=1).max())
    # f(0) = 0: 0 is not interior to the support
    with pytest.raises(GeometryError):
        oracle_from_section_fn(section_volume_fn(translate(K, [0.0, 0.0, 5.0, 0.0]), svf.F))


# ---------------------------------------------------------------------------
# star bodies


def test_ball_body_of_indicator_is_ball():
    f = ball_indicator_oracle(3)
    L = ball_body(f, 3.0)
    r = 3.0 ** (-1.0 / 3.0)
    for theta in (np.eye(3)[0], np.ones(3) / math.sqrt(3)):
        assert L.radial(theta) == pytest.approx(r, rel=1e-9)
    P = L.polytope_approx(512, seed=1)
    assert volume(P) <= unit_ball_volume(3) * r**3 + 1e-9
    assert volume(P) >= 0.97 * unit_ball_volume(3) * r**3


def test_geometric_distance_lb_identity():
    L = ball_body(ball_indicator_oracle(2), 2.0)
    assert geometric_distance_lb(L, L, num_dirs=64) == pytest.approx(1.0)


def test_geometric_distance_lb_dilation_invariant():
    # the distance quotients out dilations, so homothetic discs are at 1
    f = ball_indicator_oracle(2)
    A = ball_body(f, 1.0)
    B = ball_body(f, 2.0)
    assert geometric_distance_lb(A, B, num_dirs=32) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# sphere quadrature and moments


def test_sphere_quadrature_surface_measure():
    areas = {1: 2.0, 2: 2 * math.pi, 3: 4 * math.pi}
    for k, area in areas.items():
        dirs, wts = sphere_quadrature(k, 32)
        assert wts.sum() == pytest.approx(area, rel=1e-12)
        # int theta_1^2 = area / k
        assert float(wts @ dirs[:, 0] ** 2) == pytest.approx(area / k, rel=1e-9)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_function_moment_of_indicator():
    # int_{B^k} <x, e1>^2 dx = |B^k| / (k + 2)
    for k in (2, 3):
        f = ball_indicator_oracle(k)
        u = np.eye(k)[0]
        got = function_moment(f, u, 2, level=64)
        assert got == pytest.approx(unit_ball_volume(k) / (k + 2), rel=1e-9)
        assert function_moment(f, u, 0, level=64) == pytest.approx(
            unit_ball_volume(k), rel=1e-9)


def test_indicator_is_the_exact_m0_profile_of_the_ball():
    # 1_{rB} is the m = 0 section profile of rB: its ray moments are closed
    # forms, (r / |theta|)^p / p, and its ray values vanish outside rB
    for k in (1, 2, 3):
        f = ball_indicator_oracle(k, r=2.0)
        assert isinstance(f, SectionVolumeFunction)
        assert f.has_exact_ray_moments(k + 2)
        theta = np.eye(k)[0]
        assert [f(t * theta) for t in (1.0, 1.999, 2.001)] == [1.0, 1.0, 0.0]
        assert f.ray_extent(0.5 * theta) == pytest.approx(4.0, rel=1e-15)
    # at k = 1 the two directions +-1 make the sphere quadrature exact too
    f = ball_indicator_oracle(1, r=2.0)
    assert function_moment(f, [1.0], 2) == pytest.approx(16.0 / 3.0, rel=1e-14)


def test_moment_identity_k1():
    K = make_regular_simplex(3)
    F = Subspace.from_span(np.eye(3)[:2])
    f = oracle_from_section_fn(section_volume_fn(K, F))
    for p in (0, 1, 2):
        lhs, rhs = moment_identity_check(f, [1.0], p)
        scale = max(abs(lhs), abs(rhs), 1e-12)
        if abs(rhs) < 1e-8:  # odd moment of a near-even profile
            assert abs(lhs - rhs) < 1e-6
        else:
            assert abs(lhs - rhs) / scale < 1e-4


def test_section_profile_moments_are_exact():
    # int <x,u>^p f(x) dx = int_K <P x, u>^p dx for the section profile f;
    # at k = 1 the sphere quadrature (theta = +-1) is exact too
    K = make_regular_simplex(4)
    F = Subspace.from_span(np.eye(4)[:3])
    f = oracle_from_section_fn(section_volume_fn(K, F))
    for p in (0, 1, 2):
        got = function_moment(f, [1.0], p)
        assert got == pytest.approx(moment_p(K, np.eye(4)[3], p), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_section_profile_radii_batched_equal_single(k):
    K = random_centered_polytope(4, 14, 9)
    f = oracle_from_section_fn(section_volume_fn(K, Subspace.from_span(np.eye(4)[: 4 - k])))
    dirs = np.random.default_rng(k).standard_normal((6, k))
    for p in (1.0, 2.0, 3.0):
        L = ball_body(f, p)
        assert L.radial_many(dirs) == pytest.approx([I_p(f, th, p) for th in dirs], rel=1e-13)


def test_moment_identity_k2_indicator():
    f = ball_indicator_oracle(2)
    lhs, rhs = moment_identity_check(f, [1.0, 0.0], 2, approx_dirs=4096)
    assert abs(lhs - rhs) / abs(rhs) < 1e-4


def test_moment_identity_rejects_large_p():
    with pytest.raises(GeometryError):
        moment_identity_check(ball_indicator_oracle(1), [1.0], 3)


# ---------------------------------------------------------------------------
# inclusion constants


def test_berwald_constants_degenerate_to_one():
    for p, m in ((1.0, 1.0), (2.0, 3.0)):
        lo, hi = berwald_inclusion_constants(p, p, m)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)


def test_berwald_lower_attained_by_linear_profile():
    # for f(t) = (1-t)^m the radius ratio hits the lower factor exactly
    for m in (1.0, 2.0):
        f = linear_profile_oracle(m)
        for p, q in ((1.0, 2.0), (1.0, 3.0), (2.0, 3.0)):
            lo, hi = berwald_inclusion_constants(p, q, m)
            rp = I_p(f, [1.0], p)
            rq = I_p(f, [1.0], q)
            assert rp == pytest.approx(lo * rq, rel=1e-8)  # f(0) = 1
            assert rp <= hi * rq * (1 + 1e-8)  # max f = 1


def test_berwald_rejects_bad_order():
    with pytest.raises(GeometryError):
        berwald_inclusion_constants(2.0, 1.0, 1.0)


def test_fradelizi_constant_values():
    assert fradelizi_constant(1, 1.0) == pytest.approx(1.5)
    assert fradelizi_constant(2, 2.0) == pytest.approx((1 + 2 / 3) ** 2)


def test_negative_ray_factor_relation():
    for k in (1, 2, 3):
        for m in (1.0, 2.0):
            for p in (1.0, 2.0):
                assert negative_ray_factor(k, m, p) == pytest.approx(
                    k * geometric_distance_factor(k, m, p), rel=1e-12)
                assert negative_ray_factor(k, m, p) > 0


def test_estimate_max_simple_profiles():
    assert estimate_max(ball_indicator_oracle(2)) == pytest.approx(1.0)
    bump = ConcaveFunctionOracle(
        dim=1,
        evaluate=lambda x: max(0.0, 1.0 - (float(x[0]) - 0.3) ** 2),
        concavity_index=None,
        support_radius=2.0,
    )
    assert estimate_max(bump) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# exact profile maxima


def coordinate_profile(K, k):
    """f(x) = |K cap (F + x)| with F the span of the first n - k coordinate directions."""
    n = K.dim
    return oracle_from_section_fn(section_volume_fn(K, Subspace.from_span(np.eye(n)[: n - k],
                                                                          ambient_dim=n)))


def seeded_profile(K, k, seed):
    """The profile of K along a seeded non-coordinate flat F of dimension n - k."""
    n = K.dim
    basis = np.random.default_rng(seed).normal(size=(n - k, n))
    return oracle_from_section_fn(section_volume_fn(K, Subspace.from_span(basis, ambient_dim=n)))


def longest_chord(f):
    """The longest chord of K along F = R u: the radial function of the
    difference body K - K at u, from a hull of the vertex differences."""
    V = to_vrep(f.body).vertices
    return radial(VPolytope((V[:, None] - V[None]).reshape(-1, V.shape[1])), f.F.basis[0])


def brent_max(f):
    """max f at k = 1: f at the vertex heights and a bounded Brent search of
    exact sections on each interval between consecutive heights."""
    h = np.unique(to_vrep(f.body).vertices @ f.Fperp.basis[0])
    best = max(f(t) for t in h)
    for lo, hi in zip(h[:-1], h[1:]):
        res = minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14 * (h[-1] - h[0])})
        best = max(best, -res.fun)
    return best


def scaled(K, s):
    return affine_map(K, s * np.eye(K.dim))


CHORD_CASES = {
    "random-3": lambda: coordinate_profile(random_centered_polytope(3, 12, 8), 2),
    "random-4": lambda: coordinate_profile(random_centered_polytope(4, 14, 9), 3),
    "random-5": lambda: coordinate_profile(random_centered_polytope(5, 16, 3), 4),
    "cube-4-hrep": lambda: coordinate_profile(make_cube(4), 3),
    "cross-4": lambda: coordinate_profile(make_cross_polytope(4), 3),
    "random-4-seeded-flat": lambda: seeded_profile(random_centered_polytope(4, 14, 2), 3, 7),
    "random-4-scale-1e-6": lambda: coordinate_profile(
        scaled(random_centered_polytope(4, 14, 9), 1e-6), 3),
    "random-4-scale-1e4": lambda: coordinate_profile(
        scaled(random_centered_polytope(4, 14, 9), 1e4), 3),
}


@pytest.mark.parametrize("case", sorted(CHORD_CASES))
def test_chord_profile_max_is_the_longest_chord(case):
    f = CHORD_CASES[case]()
    assert f.m == 1 and max_route(f) == "lp"
    value = estimate_max(f)
    assert value == pytest.approx(longest_chord(f), rel=1e-12, abs=0)


HEIGHT_CASES = {
    "random-3": lambda: coordinate_profile(random_centered_polytope(3, 12, 11), 1),
    "random-4": lambda: coordinate_profile(random_centered_polytope(4, 14, 12), 1),
    "cube-4-hrep": lambda: coordinate_profile(make_cube(4), 1),
    "cross-3": lambda: coordinate_profile(make_cross_polytope(3), 1),
    # the maximum is the base, a facet parallel to F at the lowest height
    "cone-3": lambda: coordinate_profile(make_centered_cone(3), 1),
    "random-4-seeded-flat": lambda: seeded_profile(random_centered_polytope(4, 14, 2), 1, 7),
    "random-4-scale-1e4": lambda: coordinate_profile(
        scaled(random_centered_polytope(4, 14, 12), 1e4), 1),
}


@pytest.mark.parametrize("case", sorted(HEIGHT_CASES))
def test_k1_profile_max_matches_brent(case):
    f = HEIGHT_CASES[case]()
    assert f.m >= 2 and max_route(f) == "vertex-heights"
    assert estimate_max(f) == pytest.approx(brent_max(f), rel=1e-12, abs=0)


@pytest.mark.parametrize("k, s", [(3, 1e-6), (3, 1e4), (1, 1e4), (1, 1e-6)])
def test_profile_max_scales_as_s_to_the_m(k, s):
    K = random_centered_polytope(4, 14, 12)
    assert estimate_max(coordinate_profile(scaled(K, s), k)) == pytest.approx(
        s ** (4 - k) * estimate_max(coordinate_profile(K, k)), rel=1e-12, abs=0)


def test_ball_and_indicator_maxima_are_closed_forms():
    for n, k in ((3, 1), (4, 2), (5, 3)):
        center = np.linspace(-0.3, 0.2, n)
        ball = make_ball(n, 1.7, center)
        f = coordinate_profile(ball, k)
        assert max_route(f) == "closed-form"
        value = estimate_max(f)
        assert value == pytest.approx(unit_ball_volume(n - k) * 1.7 ** (n - k), rel=1e-15)
        # the section through the centre attains it
        assert f(f.Fperp.coords(center)) == pytest.approx(value, rel=1e-12)
    for f in (ball_indicator_oracle(3, 2.0),
              oracle_from_section_fn(section_volume_fn(make_cube(3), Subspace(3, np.zeros((0, 3)))))):
        assert max_route(f) == "closed-form" and estimate_max(f) == 1.0


def test_search_is_left_for_k_and_m_at_least_2_and_plain_oracles():
    assert max_route(coordinate_profile(random_centered_polytope(4, 14, 14), 2)) == "search"
    assert max_route(quadratic_cap_oracle()) == "search"


def test_m_at_most_1_and_k1_profile_maxima_take_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Nelder-Mead search called")

    # the benchmark's two chord profiles and the acceptance criteria's k = 1
    # and m = 1 profiles, on hulls of 2n + 6 ball points
    acceptance = [coordinate_profile(random_centered_polytope(n, 2 * n + 6, seed), k)
                  for k, n, seed in ((2, 3, 8), (3, 4, 9), (1, 3, 11), (1, 4, 12), (2, 3, 13))]
    searched = [ball_bodies._search_max(f) for f in acceptance]
    monkeypatch.setattr(ball_bodies, "minimize", refuse)
    others = [coordinate_profile(random_centered_polytope(n, 2 * n + 6, 20 + n), k)
              for n in (2, 3, 4, 5) for k in range(1, n + 1) if k == 1 or n - k <= 1]
    for f in others + [coordinate_profile(make_ball(3, 1.0), 2), ball_indicator_oracle(2)]:
        assert estimate_max(f) > 0
    # the exact value is not below the search, up to the rounding of one
    # section's volume, and matches the reference
    for f, search in zip(acceptance, searched):
        value = estimate_max(f)
        assert value >= search * (1 - 1e-15)
        reference = longest_chord(f) if f.m == 1 else brent_max(f)
        assert value == pytest.approx(reference, rel=1e-12, abs=0)

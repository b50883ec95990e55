"""Moment bodies of concave profiles: radial maps, moments, constants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    moment_identity_check,
    negative_ray_factor,
    oracle_from_section_fn,
    sphere_quadrature,
)
from conesec.geometry import (
    GeometryError,
    Subspace,
    make_ball,
    make_regular_simplex,
    random_centered_polytope,
    to_vrep,
    translate,
)
from conesec.sections import section_volume_fn
from conesec.special import beta
from conesec.volume import moment_p, unit_ball_volume, volume


def linear_profile_oracle(m: float) -> ConcaveFunctionOracle:
    """f(t) = (1 - |t|)^m on [-1, 1]: the extremal 1/m-concave profile."""
    return ConcaveFunctionOracle(
        dim=1,
        evaluate=lambda x: max(0.0, 1.0 - abs(float(x[0]))) ** m,
        concavity_index=m,
        support_radius=1.0,
        label=f"(1-|t|)^{m}",
    )


def quadratic_cap_oracle() -> ConcaveFunctionOracle:
    """f(x) = 1 - |x|^2 on the unit disc, an oracle with no section function."""
    return ConcaveFunctionOracle(
        dim=2,
        evaluate=lambda x: max(0.0, 1.0 - float(x @ x)),
        concavity_index=1.0,
        support_radius=1.0,
        label="1-|x|^2",
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


def test_section_fn_is_its_own_oracle():
    K = random_centered_polytope(4, 14, 9)
    svf = section_volume_fn(K, Subspace.from_span(np.eye(4)[:2]))
    f = oracle_from_section_fn(svf, label="profile")
    assert f is svf
    assert f.label == "profile" and f.dim == 2 and f.barycenter_zero
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
        assert f.label == f"indicator(B_2^{k})"
        assert f.has_exact_ray_moments(k + 2)
        theta = np.eye(k)[0]
        assert f.ray_values(theta, np.array([1.0, 1.999, 2.001])).tolist() == [1.0, 1.0, 0.0]
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
        label="shifted bump",
    )
    assert estimate_max(bump) == pytest.approx(1.0, abs=1e-6)

"""Inequality checks, closed-form experiments, and the corpus runner."""

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conesec import geometry, rng, sections, verify
from conesec import volume as volume_module
from conesec.ball_bodies import ConcaveFunctionOracle, oracle_from_section_fn
from conesec.geometry import (
    GeometryError,
    PolyhedralCone,
    Subspace,
    VPolytope,
    affine_map,
    body_from_spec,
    boundary,
    make_ball,
    make_centered_cone,
    make_cube,
    make_regular_simplex,
    orthant_cone,
    polar,
    random_centered_polytope,
    to_vrep,
    translate,
)
from conesec.sections import _cone_flat, _slicing_normals, section, section_volume, section_volume_fn
from conesec.verify import (
    CheckResult,
    _opposite_cone_volumes,
    check_corollary1,
    check_corollary2,
    check_corollary3,
    check_fradelizi,
    check_gruenbaum,
    check_lemma5,
    check_lemma6,
    check_lemma7,
    check_main_theorem_part1,
    check_main_theorem_part2,
    check_prop8,
    checks_for_body,
    cone_volume,
    experiment_alpha_n,
    experiment_remark1,
    experiment_remark2_sharpness,
    experiment_remark3_cube,
    gruenbaum_constant,
    halfspace_volume,
    load_corpus,
    part1_constant,
    report_prop9,
    run_corpus,
    trivial_flat,
)
from conesec.volume import (
    _VALUE_BLOCK_ELEMENTS,
    _WEDGE_BLOCK,
    _cone_simplices,
    body_volume,
    isotropic_position,
    volume,
    wedge_moment,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# constants


def test_gruenbaum_constant_values():
    assert gruenbaum_constant(1) == pytest.approx(0.5)
    assert gruenbaum_constant(2) == pytest.approx(4.0 / 9.0)
    vals = [gruenbaum_constant(n) for n in range(1, 20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing to 1/e
    assert vals[-1] > 1.0 / math.e


def test_part1_constant_spot_value():
    # n=2, k=1, p=1: 1 * (3/2) * 2 * 3^(-1/2) = sqrt(3)
    assert part1_constant(2, 1, 1) == pytest.approx(math.sqrt(3), rel=1e-12)


def test_part1_constant_domain():
    with pytest.raises(GeometryError):
        part1_constant(3, 2, 3)  # p > k
    with pytest.raises(GeometryError):
        part1_constant(2, 3, 1)  # k > n


def test_check_result_defaults_to_the_bound_verdict():
    # passed iff lhs <= rhs (1 + slack), at, above and below that edge
    rhs, slack = 3.0, 1e-6
    edge = rhs * (1.0 + slack)
    for lhs, passed in ((edge, True), (np.nextafter(edge, math.inf), False),
                        (np.nextafter(edge, 0.0), True), (0.5 * rhs, True), (2.0 * rhs, False),
                        (math.inf, False), (math.nan, False)):
        assert CheckResult("bound", "body", {}, lhs, rhs, slack).passed is passed, lhs
    # a verdict given is kept, also by `replace`; passed=None recomputes it
    res = CheckResult("bound", "body", {}, 5.0, 1.0, 0.0)
    assert res.passed is False
    assert CheckResult("equality", "body", {}, 5.0, 1.0, 0.0, passed=True).passed is True
    assert replace(res, lhs=1.0).passed is False
    assert replace(res, lhs=1.0, passed=None).passed is True


# ---------------------------------------------------------------------------
# halfspace checks


def test_halfspace_volume_cube_and_ball():
    assert halfspace_volume(make_cube(3), [1.0, 0, 0]) == pytest.approx(4.0)
    assert halfspace_volume(make_ball(2), [0.0, 1.0]) == pytest.approx(math.pi / 2)


def spherical_excess(a, b, c):
    """The solid angle of the cone over unit vectors a, b, c (Van Oosterom and Strackee, 1983)."""
    return 2.0 * math.atan2(abs(a @ np.cross(b, c)), 1.0 + a @ b + b @ c + c @ a)


def test_a_centred_ball_is_cut_by_the_one_cut_routine():
    # stacks of one to four rows on balls centred at 0 keep a half, angle / 2 pi,
    # the spherical excess over 4 pi and (1/8)^2 of the ball (pi^2 / 128 for
    # the unit 4-ball), through cone_volume, halfspace_volume and part 1
    r, e3, e4 = 1.5, np.eye(3), np.eye(4)
    B2, B3, B4 = make_ball(2, r), make_ball(3, r), make_ball(4)
    U = rng.sphere_grid(3, 4, seed=2)
    assert halfspace_volume(B3, U).tolist() == [body_volume(B3) / 2] * len(U)
    assert halfspace_volume(B3, U[0]) == pytest.approx(2.0 * math.pi * r ** 3 / 3, rel=1e-15)
    angle = 1.1
    wedge = [[1.0, 0.0], [math.cos(angle), math.sin(angle)]]
    assert cone_volume(B2, trivial_flat(2), PolyhedralCone(wedge)) == pytest.approx(
        angle / 2 * r * r, rel=1e-14)
    # the same wedge about the axis e1 of the 3-ball: F = span(e1), two rows in R^3
    C = PolyhedralCone(np.hstack([np.zeros((2, 1)), wedge]))
    assert cone_volume(B3, Subspace.from_span(e3[:1]), C) == pytest.approx(
        angle / (2 * math.pi) * body_volume(B3), rel=1e-14)
    a, b, c = (unit(v) for v in ([1.0, 0.2, 0.1], [0.1, 1.0, -0.3], [0.2, 0.3, 1.0]))
    omega = spherical_excess(a, b, c)
    assert cone_volume(B3, trivial_flat(3), PolyhedralCone([a, b, c])) == pytest.approx(
        omega / (4 * math.pi) * body_volume(B3), rel=1e-12)
    s = math.sqrt(0.5)
    two_wedges = PolyhedralCone([[1, 0, 0, 0], [s, s, 0, 0], [0, 0, 1, 0], [0, 0, s, s]])
    assert cone_volume(B4, trivial_flat(4), two_wedges) == pytest.approx(math.pi ** 2 / 128, rel=1e-9)
    # part 1 on the 4-ball with the 3-row cone over a, b, c in span(e2, e3, e4)
    F, C = Subspace.from_span(e4[:1]), PolyhedralCone(np.hstack([np.zeros((3, 1)), [a, b, c]]))
    both = _opposite_cone_volumes(B4, F, C)
    assert both == pytest.approx([omega / (4 * math.pi) * body_volume(B4)] * 2, rel=1e-12)
    res = check_main_theorem_part1(B4, F, C)
    assert res.passed and res.lhs == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e4])
def test_a_ball_is_centred_to_1e12_of_its_radius(s):
    # one rule, |c| <= 1e-12 r, for the cut, the polar and the closed-form ray
    # moments: a centre 1e-13 r off 0 passes it, one 1e-10 r off raises in
    # every cut and has adaptive ray moments
    e = np.eye(3)
    near, off = (make_ball(3, s, center=t * s * e[0]) for t in (1e-13, 1e-10))
    assert near.centred and not off.centred
    assert cone_volume(near, trivial_flat(3), orthant_cone(e)) == body_volume(near) / 8
    assert polar(near).radius == 1.0 / s
    assert section_volume_fn(near, Subspace.from_span(e[:1])).has_exact_ray_moments(2)
    assert not section_volume_fn(off, Subspace.from_span(e[:1])).has_exact_ray_moments(2)
    for cut in (lambda: cone_volume(off, trivial_flat(3), orthant_cone(e)),
                lambda: halfspace_volume(off, e[0]),
                lambda: check_main_theorem_part1(off, Subspace.from_span(e[:1]), PolyhedralCone(e[2:])),
                lambda: polar(off)):
        with pytest.raises(GeometryError, match="center"):
            cut()


def test_halfspace_volumes_add_up_on_the_corpus():
    # both sides of every centroid-halfspace direction of the battery fill K
    for spec in load_corpus():
        if spec["type"] == "ball":
            continue
        K = body_from_spec(spec)
        total = volume(K)
        for u in rng.sphere_grid(K.dim, 3, seed=17):
            both = halfspace_volume(K, u) + halfspace_volume(K, -u)
            assert both == pytest.approx(total, rel=1e-12), (spec["label"], u)


def test_stacked_wedges_match_one_call_per_wedge_on_the_corpus():
    # the battery's Grünbaum grids and its part-1 pairs of one and two rows,
    # each cut in one `wedge_moment` call (sliced down to F + span C when
    # that is a hyperplane), against one call per wedge
    for spec in load_corpus():
        if spec["type"] == "ball":
            continue
        K = body_from_spec(spec)
        n, e = K.dim, np.eye(K.dim)
        U = rng.sphere_grid(n, 3, seed=17)
        single = [halfspace_volume(K, u) for u in U]
        assert halfspace_volume(K, U) == pytest.approx(single, rel=1e-13, abs=0), spec["label"]
        configs = [(n - 1, PolyhedralCone(e[-1:]))]
        if n >= 3:
            configs += [(n - 2, PolyhedralCone(e[-1:])), (n - 2, orthant_cone(e[n - 2:]))]
        for flat_dim, C in configs:
            S, R = _cone_flat(Subspace.from_span(e[:flat_dim], ambient_dim=n), C)
            normals = () if S is None else _slicing_normals(K, S)
            pair = [wedge_moment(K, R, 0, normals), wedge_moment(K, -R, 0, normals)]
            assert all(isinstance(v, float) for v in pair)
            stacked = wedge_moment(K, np.stack([R, -R]), 0, normals)
            assert stacked.shape == (2,)
            assert stacked == pytest.approx(pair, rel=1e-13, abs=0), (spec["label"], len(R))


def test_opposite_two_row_wedges_take_one_split_per_cone_block(monkeypatch):
    # R and -R share the split by their first rows: one `_split` per block
    # of K's 888 cones, where a call per wedge took two
    K, e = random_centered_polytope(6, 30, 4), np.eye(6)
    F, C = Subspace.from_span(e[:4]), orthant_cone(e[4:])
    plus, minus = cone_volume(K, F, C), cone_volume(K, F, C.negated())
    splits = []
    real_split = volume_module._split
    monkeypatch.setattr(volume_module, "_split", lambda *a: splits.append(1) or real_split(*a))
    assert _opposite_cone_volumes(K, F, C) == pytest.approx([plus, minus], rel=1e-13, abs=0)
    blocks = -(-len(_cone_simplices(K)[0]) // _WEDGE_BLOCK)
    assert len(splits) == blocks == 2


def _cube6_two_row_pair():
    """The 6-cube, warmed up, and its part-1 configuration of two rows: F = span(e1..e4), C the orthant of e5, e6."""
    K, e = make_cube(6), np.eye(6)
    F, C = Subspace.from_span(e[:4]), orthant_cone(e[4:])
    assert _opposite_cone_volumes(K, F, C) == pytest.approx([16.0, 16.0], rel=1e-13)
    return K, F, C


def test_a_two_row_cut_carries_one_value_per_vertex(monkeypatch):
    # the split by the first row of the +-R pair carries, per vertex, only
    # the value along the second row, not the 6 coordinates
    K, F, C = _cube6_two_row_pair()
    payloads = []
    real_split = volume_module._split
    monkeypatch.setattr(volume_module, "_split",
                        lambda pts, w, c: payloads.append(pts.shape) or real_split(pts, w, c))
    assert _opposite_cone_volumes(K, F, C) == pytest.approx([16.0, 16.0], rel=1e-13)
    assert payloads and all(shape[-1] == 1 for shape in payloads), payloads


def test_two_row_cut_of_the_6_cube_stays_small():
    # the +-R pair on the 6-cube's 1440 cones: 3.9 MB of temporaries when its
    # splits carried coordinates
    import tracemalloc

    K, F, C = _cube6_two_row_pair()
    tracemalloc.start()
    try:
        _opposite_cone_volumes(K, F, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6, peak


def test_a_dense_halfspace_grid_is_weighed_in_bounded_blocks(monkeypatch):
    # 1012 directions on the 1440 cones of cube-6 (its 12 facets pulled into
    # 5! simplices each): no `_positive_fraction`
    # call gets more vertex values than the block bound, and each direction
    # gets what it gets alone
    K = make_cube(6)
    cones = len(_cone_simplices(to_vrep(K))[0])
    U = rng.sphere_grid(6, 1000, seed=3)
    rows = []
    real_fraction = volume_module._positive_fraction
    monkeypatch.setattr(volume_module, "_positive_fraction",
                        lambda c, q=0: rows.append(len(c)) or real_fraction(c, q))
    stacked = halfspace_volume(K, U)
    assert cones == 1440 and len(rows) > 1 and sum(rows) == len(U) * cones
    assert max(rows) * 6 <= _VALUE_BLOCK_ELEMENTS
    assert stacked[::50] == pytest.approx([halfspace_volume(K, u) for u in U[::50]], rel=1e-13, abs=0)


def test_two_orthant_sign_patterns_fill_a_6d_body():
    spec = next(s for s in load_corpus() if s.get("label") == "random-6-46")
    K = body_from_spec(spec)
    e = np.eye(6)
    F = Subspace.from_span(e[:4], ambient_dim=6)
    parts = [cone_volume(K, F, orthant_cone([s5 * e[4], s6 * e[5]]))
             for s5 in (1.0, -1.0) for s6 in (1.0, -1.0)]
    assert min(parts) > 0
    assert sum(parts) == pytest.approx(volume(K), rel=1e-12)


def test_gruenbaum_cone_equality():
    # cones over their base achieve the bound in the apex direction
    for n in (2, 3, 4):
        K = make_centered_cone(n)
        u = np.zeros(n)
        u[-1] = 1.0
        [res] = check_gruenbaum(K, u)
        assert res.passed
        assert res.lhs == pytest.approx(res.rhs, rel=1e-9)


def test_gruenbaum_random_bodies():
    for seed in (0, 1, 2):
        K = random_centered_polytope(4, 14, seed)
        [res] = check_gruenbaum(K, unit(np.arange(1.0, 5.0)))
        assert res.passed
        assert res.lhs <= res.rhs * (1 + res.slack)


def test_gruenbaum_requires_centered_body():
    K = translate(make_cube(2), [0.5, 0.0])
    with pytest.raises(GeometryError):
        check_gruenbaum(K, [1.0, 0.0])


# ---------------------------------------------------------------------------
# the two-sided cone-section theorem and its corollaries


def test_part1_symmetric_body_ratio_one():
    cube = make_cube(3)
    F = Subspace.from_span(np.eye(3)[:2])
    from conesec.geometry import PolyhedralCone

    res = check_main_theorem_part1(cube, F, PolyhedralCone(np.eye(3)[2:]))
    assert res.passed
    assert res.lhs == pytest.approx(1.0, rel=1e-9)
    assert res.rhs > 1.0


def test_part1_simplex_passes():
    from conesec.geometry import PolyhedralCone, orthant_cone

    K = make_regular_simplex(4)
    F = Subspace.from_span(np.eye(4)[:2])
    for C in (PolyhedralCone(np.eye(4)[3:]), orthant_cone(np.eye(4)[2:])):
        res = check_main_theorem_part1(K, F, C)
        assert res.passed


def _rotated_crossing_hull(K, nu, seed):
    """(L, S, Q): the section of Q K by S = (Q nu)^perp, Q the rotation of the
    seed, as the hull of the crossings of Q K's vertex pairs with S, the
    section's vertex candidates, with no halfspace intersection."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((K.dim, K.dim)))[0]
    V, nu = to_vrep(affine_map(K, Q)).vertices, Q @ nu
    c = V @ nu
    a, b, ca, cb = V[c > 0], V[c < 0], c[c > 0], c[c < 0]
    crossings = ((ca[:, None, None] * b - cb[:, None] * a[:, None])
                 / (ca[:, None] - cb)[..., None]).reshape(-1, K.dim)
    S = Subspace.hyperplane(nu)
    return VPolytope(S.coords(np.vstack([crossings, V[c == 0]]))), S, Q


def test_part1_of_an_8d_body_takes_no_section_hull():
    # F + span C = e7^perp. A halfspace intersection takes 15-27 s for this
    # section, and its hull does not tile under the rotations tried, so the
    # check takes both volumes from K's sliced cones. The reference hulls
    # the crossings under a seeded rotation in which qhull tiles that hull.
    K, e = random_centered_polytope(8, 22, 1), np.eye(8)
    F, C = Subspace.from_span(e[:6]), PolyhedralCone(e[7:])
    res = check_main_theorem_part1(K, F, C)
    assert res.passed
    plus, minus = cone_volume(K, F, C), cone_volume(K, F, C.negated())
    assert res.lhs == pytest.approx(minus / plus, rel=1e-12)
    L, S, Q = _rotated_crossing_hull(K, e[6], 0)
    R = S.coords(Q @ e[7])[None, :]
    assert plus == pytest.approx(wedge_moment(L, R), rel=1e-10)
    assert minus == pytest.approx(wedge_moment(L, -R), rel=1e-10)


def test_part2_reads_the_section_volume_from_its_cones(monkeypatch):
    # |K cap (F + span C)| of the 8-D body is read from its cones sliced
    # down to the 7-D flat, with no section body; `moments` is taken only of
    # the 8-D body itself (isotropic position), and the sliced section's
    # fan gives the same volume afterwards
    K, e = random_centered_polytope(8, 22, 1), np.eye(8)
    F, C = Subspace.from_span(e[:5]), PolyhedralCone(e[6:])
    real = volume_module.moments

    def moments_of_8d_bodies(body):
        if body.dim != 8:
            pytest.fail(f"moments of a {body.dim}-D section")
        return real(body)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("conesec") and getattr(mod, "moments", None) is real:
            monkeypatch.setattr(mod, "moments", moments_of_8d_bodies)
    monkeypatch.setattr(sections, "section", lambda *a: pytest.fail("section body taken"))
    res = check_main_theorem_part2(K, F, C)
    monkeypatch.undo()
    assert res.passed
    K_iso, S = isotropic_position(K)[0], _cone_flat(F, C)[0]
    L = section(K_iso, S)
    assert L.dim == 7
    assert body_volume(L) == pytest.approx(real(L).volume, rel=1e-12, abs=0)
    assert section_volume(K_iso, S) == pytest.approx(body_volume(L), rel=1e-12, abs=0)
    fraction = cone_volume(K_iso, F, C) / section_volume(K_iso, S)
    assert res.lhs == pytest.approx(max(fraction / 0.25, 0.25 / fraction), rel=1e-12, abs=0)


def test_8d_central_section_takes_no_qhull_call(monkeypatch):
    # the section by e7^perp is sliced from K's cached cones; a halfspace
    # intersection took 18.7 s for it
    K = random_centered_polytope(8, 22, 1)
    boundary(K)

    def no_qhull(*args, **kwargs):
        raise AssertionError("qhull called")

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_qhull", no_qhull)
        sec = section(K, Subspace.hyperplane(np.eye(8)[6]))
        got = volume(sec)
    ref, _, _ = _rotated_crossing_hull(K, np.eye(8)[6], 0)
    assert len(sec.vertices) == len(ref.vertices)
    assert got == pytest.approx(volume(ref), rel=1e-10)


def test_part2_symmetric_body_is_exact():
    from conesec.geometry import PolyhedralCone

    cube = make_cube(2)
    F = Subspace.from_span(np.eye(2)[:1])
    res = check_main_theorem_part2(cube, F, PolyhedralCone(np.eye(2)[1:]))
    assert res.passed
    assert res.lhs == pytest.approx(1.0, rel=1e-9)
    assert res.rhs == pytest.approx(2.0)


def test_corollary1_simplex():
    K = make_regular_simplex(3)
    F = Subspace.from_span(np.eye(3)[:1])
    res = check_corollary1(K, F, np.eye(3)[2])
    assert res.passed
    assert "implied constant" in res.notes


def test_corollary1_is_the_ratio_of_the_ray_sections():
    # lhs = |K cap (F + R+ theta)| / |K cap (F - R+ theta)|, whichever way
    # the ray is passed to part 1
    K = random_centered_polytope(4, 14, 3)
    F = Subspace.from_span(np.eye(4)[:2])
    theta = unit([0.0, 0.0, 1.0, -0.4])
    res = check_corollary1(K, F, theta)
    plus = cone_volume(K, F, PolyhedralCone(theta[None, :]))
    minus = cone_volume(K, F, PolyhedralCone(-theta[None, :]))
    assert res.lhs == pytest.approx(plus / minus, rel=1e-12)
    assert res.name == "opposite-ray-ratio-bound"
    assert res.parameters == {"n": 4, "k": 2}


def test_corollary2_random_body():
    K = random_centered_polytope(3, 12, 4)
    res = check_corollary2(K, [1.0, 0, 0], [0.3, 1.0, 0.2])
    assert res.passed
    assert res.rhs == pytest.approx(part1_constant(3, 2, 1))


def test_corollary2_takes_a_second_direction_of_any_length():
    # v != +-u is judged relative to |v|: an absolute 1e-9 rejected 1e-10 e2
    K = random_centered_polytope(3, 12, 4)
    e = np.eye(3)
    lhs = [check_corollary2(K, e[0], s * e[1]).lhs for s in (1e-10, 1.0, 1e6)]
    assert lhs[0] == lhs[1] == lhs[2] == pytest.approx(1.0371291408789830, rel=1e-14)
    with pytest.raises(GeometryError, match="v != \\+-u"):
        check_corollary2(K, e[0], 1e-10 * e[0] + 1e-21 * e[1])


@pytest.mark.parametrize("n, seed", [(3, 4), (4, 3), (5, 2)])
def test_corollary2_is_part1_on_the_ray_both_ways(n, seed):
    # lhs max(l, 1/l) of part 1's ratio l on the ray theta, with the bound's verdict
    K = random_centered_polytope(n, 2 * n + 6, seed)
    u, v = np.eye(n)[0], np.linspace(0.3, 1.0, n)
    theta = unit(v - (v @ u) * u)
    F = Subspace.from_span(np.vstack([u, theta])).complement()
    l = check_main_theorem_part1(K, F, PolyhedralCone(theta[None, :])).lhs
    res = check_corollary2(K, u, v)
    assert res.lhs == max(l, 1.0 / l) and res.parameters == {"n": n, "ratio": 1.0 / l}
    assert res.rhs == part1_constant(n, 2, 1)
    assert res.passed is (res.lhs <= res.rhs * (1.0 + res.slack)) is True


def test_part2_and_corollary3_take_no_section_body(monkeypatch):
    # the cone volume and the volume of the whole flat F + span C, a
    # hyperplane, are both read from the simplicial body's cones sliced
    # down to it: no section body, no qhull call (one section before, and
    # two sections of the same flat before that)
    def no_section(K, S):
        pytest.fail("section body taken")

    def no_qhull(*args, **kwargs):
        pytest.fail("qhull called")

    K, e = random_centered_polytope(5, 16, 2), np.eye(5)
    K_iso = isotropic_position(K)[0]
    boundary(K_iso)
    F, C = Subspace.from_span(e[:2]), orthant_cone(e[3:])
    monkeypatch.setattr(sections, "section", no_section)
    monkeypatch.setattr(geometry, "_qhull", no_qhull)
    part2 = check_main_theorem_part2(K, F, C)
    res = check_corollary3(K_iso, Subspace.from_span(e[:4]), e[2:4])
    monkeypatch.undo()
    fraction = cone_volume(K_iso, F, C) / body_volume(section(K_iso, Subspace.from_span(np.vstack([e[:2], e[3:]]))))
    assert part2.lhs == pytest.approx(max(4 * fraction, 1 / (4 * fraction)), rel=1e-12, abs=0)
    assert res.rhs == pytest.approx(cone_volume(K_iso, Subspace.from_span(e[:2]), orthant_cone(e[2:4])),
                                    rel=1e-12, abs=0)
    assert res.lhs == pytest.approx(body_volume(section(K_iso, Subspace.from_span(e[:4]))) / 100,
                                    rel=1e-12, abs=0)


def test_part2_on_the_6_cube_takes_one_section_body(monkeypatch):
    # the cube is not simplicial, so its flat F + span C, a hyperplane, is
    # cut from a section body: one body gives both the cut and the flat's
    # volume (the cut and the flat's volume each took their own before)
    K, e = make_cube(6), np.eye(6)
    F, C = Subspace.from_span(e[:4]), PolyhedralCone([e[4] + 0.5 * e[5]])
    flats, real = [], sections.section

    def spy(body, S):
        flats.append(S)
        return real(body, S)

    monkeypatch.setattr(sections, "section", spy)
    monkeypatch.setattr(verify, "section", spy)
    res = check_main_theorem_part2(K, F, C)
    monkeypatch.undo()
    assert len(flats) == 1
    K_iso, S = isotropic_position(K)[0], _cone_flat(F, C)[0]
    fraction = cone_volume(K_iso, F, C) / section_volume(K_iso, S)
    assert fraction == pytest.approx(0.5, rel=1e-12, abs=0)  # the cube is symmetric
    assert res.passed and res.lhs == pytest.approx(1.0, rel=1e-12, abs=0)

def _whole_space_cuts_of(monkeypatch, n):
    """A list that records each whole-space `wedge_moment` call on an n-D body."""
    calls, real = [], volume_module.wedge_moment

    def spy(K, R, q=0, normals=()):
        if K.dim == n and not len(normals):
            calls.append(K)
        return real(K, R, q, normals)

    monkeypatch.setattr(volume_module, "wedge_moment", spy)
    monkeypatch.setattr(sections, "wedge_moment", spy)
    return calls


@pytest.mark.parametrize("label", ["random-2-1", "random-3-11", "random-5-31", "cube-6", "cross-6"])
def test_each_corpus_polytope_takes_one_whole_space_wedge_pass(monkeypatch, label):
    # the Grünbaum grid, part 1's orthant pair and part 2's pulled-back row
    # are cut from K's cones in one pass, and part 1's +-e_n is read from
    # the grid; the battery made four such passes, one of them on a second
    # body, K in isotropic position
    spec = next(s for s in load_corpus() if s.get("label") == label)
    n = spec["n"]
    reference = [r.to_record() for r in checks_for_body(spec)]
    calls = _whole_space_cuts_of(monkeypatch, n)
    results = checks_for_body(spec)
    monkeypatch.undo()
    assert len(calls) == 1, (label, len(calls))
    assert [r.to_record() for r in results] == reference and all(r.passed for r in results)


def test_the_battery_and_part2_build_no_affine_image(monkeypatch):
    # part 2 pulls its flat and cone back through the isotropic map instead
    # of building K in isotropic position
    def no_image(*args):
        pytest.fail("affine image built")

    e = np.eye(6)
    cases = [(random_centered_polytope(6, 18, 3), Subspace.from_span(e[:3]), orthant_cone(e[4:])),
             (translate(random_centered_polytope(4, 14, 5), np.ones(4)), Subspace.from_span(np.eye(4)[:2]),
              orthant_cone(np.eye(4)[2:]))]
    for K, _, _ in cases:
        boundary(K)
    monkeypatch.setattr(geometry, "affine_map", no_image)
    monkeypatch.setattr(volume_module, "affine_map", no_image)
    for spec in load_corpus()[::7]:
        assert all(r.passed for r in checks_for_body(spec))
    for K, F, C in cases:
        assert check_main_theorem_part2(K, F, C).passed


def _part2_cases():
    """(K, F, C) on which part 2's pull-back is checked against the isotropic body."""
    cases = []
    for spec in load_corpus():
        if spec["n"] <= 4:
            K = body_from_spec(spec)
            cases += [(K, F, C) for F, C in verify._battery(K.dim)[2]]
    e = np.eye(6)
    cube = make_cube(6)
    cases += [(random_centered_polytope(6, 18, 3), Subspace.from_span(e[:3]), orthant_cone(e[4:])),
              (cube, Subspace.from_span(e[:4]), PolyhedralCone([e[4] + 0.5 * e[5]])),
              (cube, Subspace.from_span(e[:3]), orthant_cone(e[4:]))]
    e = np.eye(4)
    cases += [(translate(random_centered_polytope(4, 14, 6), np.ones(4)), Subspace.from_span(e[:2]),
               orthant_cone(e[2:])),
              (translate(random_centered_polytope(4, 14, 6), np.ones(4)), Subspace.from_span(e[:1]),
               PolyhedralCone([e[3] - 0.3 * e[2]])),
              (make_ball(4, r=1.5, center=[0.5, -0.2, 0.1, 0.3]), Subspace.from_span(e[:2]),
               orthant_cone(e[2:])),
              (make_ball(3, r=0.8, center=[0.1, 0.2, -0.3]), Subspace.from_span(np.eye(3)[:2]),
               PolyhedralCone(np.eye(3)[2:]))]
    return cases


def test_part2_pulled_back_equals_the_isotropic_body():
    # the ratio |K_iso cap (F + C)| / |K_iso cap (F + span C)| read from K's
    # own cones (K - c off its centroid) equals the one read from K_iso
    for K, F, C in _part2_cases():
        K_iso, S = isotropic_position(K)[0], _cone_flat(F, C)[0]
        plus, full = cone_volume(K_iso, F, C), body_volume(K_iso) if S is None else section_volume(K_iso, S)
        ratio, ball = plus / full, sections.solid_angle_fraction(C)
        res = check_main_theorem_part2(K, F, C)
        assert res.lhs == pytest.approx(max(ratio / ball, ball / ratio), rel=1e-12, abs=0), (K.dim, F.dim)
        assert res.passed


def test_corollary3_refuses_a_body_not_in_isotropic_position():
    # the sheared simplex passed with orthant fraction 0.640, against 0.615
    # for its isotropic image
    K = affine_map(make_regular_simplex(3), [[1.0, 0.9, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    E, e1 = Subspace.from_span(np.eye(3)[:2]), np.eye(3)[0]
    with pytest.raises(GeometryError, match="isotropic position"):
        check_corollary3(K, E, [e1])
    with pytest.raises(GeometryError, match="isotropic position"):
        check_corollary3(translate(isotropic_position(K)[0], [0.1, 0.0, 0.0]), E, [e1])
    res = check_corollary3(isotropic_position(K)[0], E, [e1])
    assert res.passed and "fraction 6.15" in res.notes


def test_corollary3_isotropic_simplex():
    K, _ = isotropic_position(make_regular_simplex(3))
    E = Subspace.from_span(np.eye(3))
    res = check_corollary3(K, E, [np.eye(3)[0]])
    assert res.passed
    assert res.lhs <= res.rhs * (1 + res.slack)


# ---------------------------------------------------------------------------
# closed-form experiments


def test_remark1_exact_values():
    for n, l in ((3, 1), (3, 2), (5, 2), (6, 3)):
        res = experiment_remark1(n, l)
        assert res.passed
        assert res.lhs == pytest.approx((l / (n + 1.0)) ** l, rel=1e-9)


def test_remark1_domain():
    with pytest.raises(GeometryError):
        experiment_remark1(3, 3)


def test_remark3_small_powers_of_two():
    for n in (2, 4):
        res = experiment_remark3_cube(n)
        assert res.passed
        assert res.lhs == pytest.approx(n ** (n / 2.0) / math.factorial(n), rel=1e-9)
    with pytest.raises(GeometryError):
        experiment_remark3_cube(3)


def test_remark2_table_shape_and_trend():
    table = experiment_remark2_sharpness(2)
    assert table["target"] == pytest.approx(4.0)
    assert len(table["rows"]) == 5
    assert table["nondecreasing_within_1pct"]
    ratios = [r["ratio"] for r in table["rows"]]
    assert all(r <= table["target"] * 1.01 for r in ratios)
    assert ratios[-1] > ratios[0]


def test_alpha_experiment_structure():
    out = experiment_alpha_n(2, trials=3, seed=9)
    assert len(out["values"]) == 3
    assert out["min_value"] == pytest.approx(min(out["values"]))
    assert all(0.0 < v <= 2.0 for v in out["values"])
    again = experiment_alpha_n(2, trials=3, seed=9)
    assert again["values"] == out["values"]


# ---------------------------------------------------------------------------
# profile and star-body wrappers


def triangle_profile():
    K = make_regular_simplex(3)
    F = Subspace.from_span(np.eye(3)[:2])
    return oracle_from_section_fn(section_volume_fn(K, F))


def test_fradelizi_wrapper():
    res = check_fradelizi(triangle_profile())
    assert res.passed


def test_fradelizi_records_its_maximum_route():
    # exact routes for m <= 1, k = 1 and balls; the search for plain oracles
    profiles = {
        "vertex-heights": triangle_profile(),
        "lp": oracle_from_section_fn(section_volume_fn(
            make_regular_simplex(3), Subspace.from_span(np.eye(3)[:1]))),
        "closed-form": oracle_from_section_fn(section_volume_fn(
            make_ball(3), Subspace.from_span(np.eye(3)[:2]))),
        "search": ConcaveFunctionOracle(2, lambda x: max(0.0, 1.0 - float(x @ x)), 1, 1.0,
                                        barycenter_zero=True),
    }
    for route, f in profiles.items():
        res = check_fradelizi(f)
        assert res.passed and res.parameters == {"k": f.dim, "m": f.concavity_index,
                                                 "max_route": route}


@pytest.mark.parametrize("seed", [4, 5])
def test_fradelizi_on_6d_profiles_whose_affine_sections_do_not_tile(seed):
    # the grid search met a 5-D affine section whose hull does not tile;
    # the vertex heights and their Chebyshev nodes miss every such flat here
    K = random_centered_polytope(6, 18, seed)
    f = oracle_from_section_fn(section_volume_fn(K, Subspace.from_span(np.eye(6)[:5])))
    res = check_fradelizi(f)
    assert res.passed and res.parameters["max_route"] == "vertex-heights"
    # the maximum lies between the neighbours of the best vertex height
    def negative_f(t):
        return -f(t)

    h = np.unique(to_vrep(K).vertices @ f.Fperp.basis[0])
    j = int(np.argmax([f(t) for t in h]))
    brent = minimize_scalar(negative_f, bounds=(h[max(j - 1, 0)], h[min(j + 1, len(h) - 1)]),
                            method="bounded", options={"xatol": 1e-14})
    assert res.lhs >= -brent.fun * (1 - 1e-12)
    assert res.lhs == pytest.approx(-brent.fun, rel=1e-12, abs=0)


def test_fradelizi_refuses_a_profile_whose_barycentre_is_off_zero():
    # the cone shifted along F^perp still holds 0, but its profile's
    # barycentre is -0.55: the inequality does not apply, so no verdict
    F = Subspace.from_span(np.eye(3)[:2])
    cone = make_centered_cone(3)
    assert check_fradelizi(oracle_from_section_fn(section_volume_fn(cone, F))).passed
    shifted = oracle_from_section_fn(section_volume_fn(translate(cone, [0.0, 0.0, -0.55]), F))
    with pytest.raises(GeometryError, match="barycenter"):
        check_fradelizi(shifted)


def test_lemma5_sharp_on_simplex():
    for k in (2, 3):
        res = check_lemma5(make_regular_simplex(k))
        assert res.passed
        assert res.lhs == pytest.approx(float(k), rel=1e-9)  # equality case
    assert check_lemma5(make_ball(3)).lhs == pytest.approx(1.0)


def test_lemma6_wrapper():
    res = check_lemma6(triangle_profile(), p=2.0, num_dirs=8)
    assert res.passed


def test_lemma7_wrapper():
    for K in (make_cube(3), make_regular_simplex(3),
              random_centered_polytope(3, 12, 2)):
        res = check_lemma7(K, unit([1.0, -0.5, 0.25]))
        assert res.passed


def test_prop8_wrapper():
    res = check_prop8(make_ball(3))
    assert res.passed
    assert res.parameters["r"] == pytest.approx(1.0)
    assert check_prop8(random_centered_polytope(4, 14, 6)).passed


@pytest.mark.parametrize("body", [
    translate(make_cube(3), [3.0, 0.0, 0.0]),  # 0 outside the body
    make_ball(3, 1.0, center=[0.9, 0.0, 0.0]),  # 0 at distance 0.1 from the sphere
])
def test_prop8_refuses_bodies_off_centre(body):
    with pytest.raises(GeometryError, match="centroid"):
        check_prop8(body)


def test_prop9_is_report_only():
    res = report_prop9(triangle_profile(), num_dirs=16)
    assert res.passed
    assert "report-only" in res.notes


def test_check_result_serializes():
    [res] = check_gruenbaum(make_cube(2), [1.0, 0.0])
    rec = res.to_record()
    json.dumps(rec)  # must be JSON-clean
    assert rec["name"] == "centroid-halfspace-lower-bound"


# ---------------------------------------------------------------------------
# corpus


def test_load_corpus_default():
    bodies = load_corpus()
    assert len(bodies) == 75
    labels = [b["label"] for b in bodies]
    assert len(set(labels)) == len(labels)
    assert {b["type"] for b in bodies} == {
        "simplex", "cube", "cross", "ball", "cone", "random"}


def test_load_corpus_env_override(tmp_path, monkeypatch):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"version": 1, "bodies": [
        {"type": "cube", "n": 2, "label": "tiny"}]}))
    monkeypatch.setenv("CONESEC_CORPUS", str(p))
    bodies = load_corpus()
    assert bodies == [{"type": "cube", "n": 2, "label": "tiny"}]


def test_checks_for_body_battery():
    results = checks_for_body({"type": "cube", "n": 2, "label": "cube-2"})
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "centroid-halfspace-lower-bound" in names
    assert "cone-ratio-upper-bound" in names
    assert "isotropic-cone-fraction-sandwich" in names


def test_corpus_records_of_one_check_keep_the_battery_order():
    # lemma 7's measured second moments and support heights tie up to
    # rounding on a symmetric body, so they must not order its records: the
    # records of one check on one body keep the battery's order, and each
    # lemma-7 record carries its direction
    spec = next(s for s in load_corpus() if s.get("label") == "simplex-5")
    records = [r for r in run_corpus([spec]) if r.name == "second-moment-support-sandwich"]
    assert [r.parameters["u"] for r in records] == rng.sphere_grid(5, 2, seed=31).round(12).tolist()


def test_the_battery_builds_its_grids_once_per_dimension(monkeypatch):
    # two 5-D bodies share one per-dimension record: its two grids are drawn
    # once, not once per body
    grids = []
    real = rng.sphere_grid
    monkeypatch.setattr(rng, "sphere_grid", lambda *a, **kw: grids.append(a) or real(*a, **kw))
    verify._battery.cache_clear()
    try:
        for spec in [s for s in load_corpus() if s.get("n") == 5][:2]:
            assert all(r.passed for r in checks_for_body(spec))
    finally:
        verify._battery.cache_clear()
    assert len(grids) == 2, grids


def test_the_shared_battery_inputs_are_read_only():
    # a caller writing into a shared grid, flat or cone row would change
    # every later body's checks, so each of them refuses the write
    grid, dirs, configs = verify._battery(4)
    arrays = [grid, dirs]
    for F, C in configs:
        S, R = _cone_flat(F, C)
        arrays += [F.basis, R, C.generators, C.span.basis] + ([] if S is None else [S.basis])
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    # a subspace keeps its own copy of the basis it is given
    b = np.eye(3)[:2]
    E = Subspace(3, b)
    b[0, 0] = 2.0
    assert E.basis[0, 0] == 1.0


def test_corpus_records_do_not_depend_on_the_body_order():
    # the per-dimension record and the flats its cones keep are built by
    # whichever body of a dimension runs first; the records are the same
    # either way
    specs = load_corpus()[::3]
    assert {s["n"] for s in specs} == {2, 3, 4, 5, 6}
    runs = []
    for order in (specs, specs[::-1]):
        verify._battery.cache_clear()
        runs.append([r.to_record() for r in run_corpus(order)])
    verify._battery.cache_clear()
    assert runs[0] == runs[1]


def test_run_corpus_subset_deterministic_and_parallel():
    specs = [{"type": "cube", "n": 2, "label": "cube-2"},
             {"type": "simplex", "n": 3, "label": "simplex-3"}]
    a = run_corpus(specs)
    b = run_corpus(specs)
    assert [r.to_record() for r in a] == [r.to_record() for r in b]
    assert all(r.passed for r in a)

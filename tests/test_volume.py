"""Exact moments, Monte Carlo cross-checks and isotropic normalization."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.spatial import ConvexHull, QhullError

from conesec import geometry, rng, volume as volume_module
from conesec.geometry import (
    Ball,
    GeometryError,
    HPolytope,
    Subspace,
    VPolytope,
    Boundary,
    _closed,
    _halfspace_polytope,
    affine_map,
    body_from_spec,
    boundary,
    make_ball,
    make_cross_polytope,
    make_cube,
    make_regular_simplex,
    random_centered_polytope,
    to_hrep,
    to_vrep,
    translate,
)
from conesec.volume import (
    _WEDGE_BLOCK,
    _cone_simplices,
    _positive_fraction,
    _slice,
    _split,
    _suffix_h,
    body_volume,
    bounding_box,
    centered_second_moment,
    centroid,
    isotropic_position,
    moment_p,
    moments,
    monte_carlo_volume,
    triangulate,
    unit_ball_volume,
    volume,
    wedge_moment,
)
from conesec.verify import load_corpus
from conftest import halfspace_section

dims = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)


def random_body(n, seed):
    return random_centered_polytope(n, 2 * n + 6, seed)


# ---------------------------------------------------------------------------
# closed-form volumes


def test_cube_and_cross_polytope_volumes():
    for n in range(2, 7):
        assert volume(make_cube(n)) == pytest.approx(2.0**n, rel=1e-12)
        assert volume(make_cross_polytope(n)) == pytest.approx(
            2.0**n / math.factorial(n), rel=1e-12)


def test_ball_volumes():
    assert volume(make_ball(2)) == pytest.approx(math.pi)
    assert volume(make_ball(3)) == pytest.approx(4 * math.pi / 3)
    assert volume(make_ball(4, r=2.0)) == pytest.approx(
        unit_ball_volume(4) * 16.0)


def test_standard_simplex_volume():
    # conv{0, e_1, ..., e_n} has volume 1/n!
    for n in (2, 3, 4, 5):
        verts = np.vstack([np.zeros(n), np.eye(n)])
        assert volume(VPolytope(verts)) == pytest.approx(
            1.0 / math.factorial(n), rel=1e-12)


@pytest.mark.parametrize("s", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("n, points, seed", [(6, 30, 4), (4, 14, 3)])
def test_volume_off_the_origin_does_not_cancel(n, points, seed, s):
    # with 0 outside K the cones from 0 cancel: their weight sum lost 1.3e-8
    # of the 6-D volume at s = 1e4. The reference is the translated body moved
    # back, which contains 0: its vertices are the translate's own, exactly
    # for s >= 1e2 (a difference of two floats within a factor 2 of each other
    # is exact), so the rounding of the translation itself, about 2e-12 of
    # volume(K) at s = 1e4, is not counted as an error
    K = random_centered_polytope(n, points, seed)
    shift = s * np.linspace(1.0, 2.0, n)
    T = translate(K, shift)
    assert _cone_simplices(to_vrep(T))[1].min() < 0
    back = VPolytope(to_vrep(T).vertices - shift)
    assert body_volume(T) == pytest.approx(body_volume(back), rel=1e-12, abs=0)
    assert body_volume(T) == pytest.approx(volume(K), rel=1e-14 * max(s, 100.0), abs=0)


@pytest.mark.parametrize("p", [1, 2])
def test_moment_p_off_the_origin_does_not_cancel(p):
    # with 0 outside K, moment_p reads the vertex-average fan: the cones from
    # 0 were off by 1.1e-8 (p = 1) and 9.6e-9 (p = 2) relative. The reference
    # expands <y + shift, u>^p binomially over the translate moved back,
    # whose vertices are the translate's own (as above) and which contains 0
    K = random_centered_polytope(6, 30, 4)
    shift = 1e4 * np.linspace(1.0, 2.0, 6)
    u = np.ones(6) / math.sqrt(6)
    T = translate(K, shift)
    back = VPolytope(to_vrep(T).vertices - shift)
    c = float(shift @ u)
    ref = sum(math.comb(p, j) * c ** (p - j) * moment_p(back, u, j) for j in range(p + 1))
    assert moment_p(T, u, p) == pytest.approx(ref, rel=1e-12, abs=0)


def test_moments_and_body_volume_read_one_fan():
    # one fan per body: the volume of `moments` is `body_volume`'s to the bit
    for spec in load_corpus():
        K = body_from_spec(spec)
        if not isinstance(K, Ball):
            assert moments(K).volume == body_volume(K), spec.get("label")


def test_moments_of_a_body_that_contains_0_read_its_cached_cones(monkeypatch):
    # its moments take no triangulation and no determinant beyond the cones
    # every volume read and wedge cut of the body takes
    def raises(*args, **kwargs):
        raise AssertionError("a second fan")

    K = random_body(4, 7)
    ref = ConvexHull(to_vrep(K).vertices).volume
    _cone_simplices(to_vrep(K))
    monkeypatch.setattr(volume_module, "triangulate", raises)
    monkeypatch.setattr(np.linalg, "det", raises)
    m = moments(K)
    assert m.volume == pytest.approx(ref, rel=1e-12)
    assert np.allclose(m.centroid, 0.0, atol=1e-12)


def test_overlapping_boundary_triangulation_raises():
    # a square whose boundary lists one edge twice, or leaves one out: the
    # fans from its vertex mean and from a vertex then differ, and the
    # closure guard raises; the closed boundary passes it
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [3, 0]])
    facet = np.array([0, 1, 2, 3, 3])
    normals = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    for rows in (np.arange(5), np.arange(3)):
        with pytest.raises(GeometryError, match="do not close up"):
            _closed(square, normals, Boundary(edges[rows], facet[rows]))
    closed = Boundary(edges[:4], facet[:4])
    assert _closed(square, normals, closed) is closed
    fans = [np.abs(np.linalg.det(square[edges[:4]] - c)).sum() / 2 for c in (square.mean(axis=0), square[0])]
    assert fans == [4.0, 4.0]


def test_boundary_is_kept_through_affine_maps():
    K = random_body(4, 5)
    M = np.array([[2.0, 0.3, 0, 0], [0, 1.0, 0, 0], [0, 0, 0.5, 0.1], [0.2, 0, 0, 1.5]])
    image = affine_map(translate(K, [0.1, -0.2, 0.0, 0.3]), M, [1.0, 0.0, 0.5, 0.0])
    fresh = VPolytope(image.vertices)
    assert _closed(image.vertices, image.A, boundary(image)) is boundary(image) is boundary(K)
    assert moments(image).volume == pytest.approx(moments(fresh).volume, rel=1e-12)
    assert moments(image).volume == pytest.approx(volume(K) * abs(np.linalg.det(M)), rel=1e-12)
    H = boundary(image)
    verts = image.vertices[H.simplices]  # every simplex lies on its facet's mapped row
    assert np.allclose(np.einsum("sid,sd->si", verts, image.A[H.facet]), image.b[H.facet, None], atol=1e-12)


@pytest.mark.parametrize("lo,hi", [(-0.7, 1.9), (0.5, 2.0)])
def test_segment_moments_and_wedges_are_their_closed_forms(lo, hi):
    # the two-point boundary of a body in R^1, built by VPolytope and by HPolytope
    for K in (VPolytope([[hi], [0.5 * (lo + hi)], [lo]]), to_vrep(HPolytope([[1.0], [-1.0]], [hi, -lo]))):
        m = moments(K)
        assert m.volume == pytest.approx(hi - lo, rel=1e-14)
        assert m.centroid[0] == pytest.approx(0.5 * (lo + hi), rel=1e-14)
        assert m.covariance[0, 0] == pytest.approx((hi**3 - lo**3) / 3, rel=1e-14)
        right, left = max(hi, 0.0) - max(lo, 0.0), min(hi, 0.0) - min(lo, 0.0)
        assert wedge_moment(K, [[1.0]]) == pytest.approx(right, rel=1e-14, abs=1e-15)
        assert wedge_moment(K, [[-1.0]]) == pytest.approx(left, rel=1e-14, abs=1e-15)
        assert wedge_moment(K, [[1.0]], q=2) == pytest.approx(
            (max(hi, 0.0)**3 - max(lo, 0.0)**3) / 3, rel=1e-14, abs=1e-15)


def test_triangulation_covers_volume():
    K = random_body(4, 3)
    simplices = triangulate(K)
    d = 4
    total = sum(
        abs(np.linalg.det(s[1:] - s[0])) / math.factorial(d) for s in simplices)
    assert total == pytest.approx(volume(K), rel=1e-12)


# ---------------------------------------------------------------------------
# wedge volumes


def _qhull_without_fallbacks(build, data, *args, options=""):
    return build(data, *args, qhull_options=options or None)


def halfspace_wedge_moment(K, R, q=0):
    """The integral of <R[-1], x>^q over K cap {R x >= 0} by one halfspace intersection
    and its moment (`moment_p`), or None where qhull cannot give it.

    qhull gets no fallback options here: when K has nearly parallel facets
    it can reject this system, and its Q12 retry can then return a polytope
    with vertices missing or far outside the system.
    """
    R = np.atleast_2d(R)
    H = to_hrep(K)
    A = np.vstack([H.A, -R])
    b = np.concatenate([H.b, np.zeros(len(R))])
    with mock.patch.object(geometry, "_qhull", _qhull_without_fallbacks):
        try:
            body = _halfspace_polytope(A, b)
            return 0.0 if body is None else moment_p(body, R[-1], q)
        except (GeometryError, QhullError):
            return None


def moment_scale(K, r, q):
    """|K| max_x |<r, x>|^q over K, the size of every q-th moment of K along r."""
    return volume(K) * np.abs(to_vrep(K).vertices @ r).max() ** q


def h(c, q):
    """The complete homogeneous polynomial h_q of each row of c, as a sum of monomials."""
    return sum(np.prod(c[:, list(alpha)], axis=1)
               for alpha in itertools.combinations_with_replacement(range(c.shape[1]), q))


moment_degrees = (0, 1, 2, 3)


@given(st.integers(min_value=2, max_value=6), seeds, st.integers(min_value=1, max_value=2),
       st.floats(min_value=0.0, max_value=1.5))
def test_wedge_matches_the_halfspace_intersection(n, seed, rows, shift):
    # the origin inside K, near its boundary or outside it; both routes err
    # by a few ulps of K's moment scale, which bounds the error of a wedge
    # that barely meets K
    K = translate(random_body(n, seed), shift * np.eye(n)[0])
    R = np.random.default_rng(seed).standard_normal((rows, n))
    for q in moment_degrees:
        ref = halfspace_wedge_moment(K, R, q)
        assume(ref is not None)
        assert wedge_moment(K, R, q) == pytest.approx(ref, rel=1e-12, abs=1e-14 * moment_scale(K, R[-1], q))


def test_wedge_with_rows_through_vertices():
    # integer vertices and rows: many vertex values are exactly 0
    for n, q in itertools.product(range(3, 7), moment_degrees):
        e = np.eye(n)
        for K in (make_cube(n), make_cross_polytope(n), translate(make_cube(n), e[0])):
            for R in ([e[0] - e[1]], [e[0]], [e[0], e[1] - e[2]], [e[0] + e[1], -e[1]]):
                assert wedge_moment(K, R, q) == pytest.approx(halfspace_wedge_moment(K, R, q), rel=1e-12)


def test_wedge_with_tied_values():
    # the ones-row takes only n + 1 values on the cube's 2^n vertices; the
    # cube is symmetric, so at even q the wedge holds half the moment
    for n, q in itertools.product(range(3, 7), moment_degrees):
        cube, e, ones = make_cube(n), np.eye(n), np.ones(n)
        if q % 2 == 0:
            assert wedge_moment(cube, [ones], q) == pytest.approx(moment_p(cube, ones, q) / 2, rel=1e-12)
        for R in ([ones], [e[0], ones], [ones, e[0] - e[1]]):
            assert wedge_moment(cube, R, q) == pytest.approx(halfspace_wedge_moment(cube, R, q), rel=1e-12)


@given(st.integers(min_value=2, max_value=6), seeds, st.floats(min_value=0.0, max_value=1.5))
def test_wedge_and_its_complement_add_up_to_the_body(n, seed, shift):
    # on {<-r, x> >= 0} the integrand <-r, x>^q is (-1)^q <r, x>^q
    K = translate(random_body(n, seed), shift * np.ones(n) / np.sqrt(n))
    r = np.random.default_rng(seed).standard_normal(n)
    for q in moment_degrees:
        assert wedge_moment(K, [r], q) + (-1) ** q * wedge_moment(K, [-r], q) == pytest.approx(
            moment_p(K, r, q), rel=1e-12, abs=1e-14 * moment_scale(K, r, q))


@given(st.integers(min_value=2, max_value=6), seeds)
def test_last_row_recursion_matches_the_split(n, seed):
    pts, w = _cone_simplices(translate(random_body(n, seed), np.full(n, 0.2)))
    gen = np.random.default_rng(seed)
    for r, q in itertools.product((gen.standard_normal(n), np.ones(n), np.eye(n)[0]), moment_degrees):
        # the negative side of the split by r is the positive side of -r
        for (kept_pts, kept_w), side in zip(_split(pts, w, pts @ r), (r, -r)):
            kept = kept_w @ h(kept_pts @ side, q)
            scale = np.abs(w).sum() * np.abs(pts @ r).max() ** q
            assert w @ _positive_fraction(pts @ side, q) == pytest.approx(
                kept, rel=1e-13, abs=1e-15 * scale)


def section_wedge_moment(K, R, q, nu):
    """`wedge_moment` of the section K cap nu^perp in its own coordinates, or None
    where qhull cannot give that section or its boundary. The section is a
    halfspace intersection, as `section` itself slices K's cones here."""
    S = Subspace.hyperplane(nu)
    try:
        return wedge_moment(halfspace_section(K, S), S.coords(np.atleast_2d(R)), q)
    except (GeometryError, QhullError):
        return None


@given(st.integers(min_value=3, max_value=6), seeds, st.integers(min_value=1, max_value=2))
def test_sliced_wedge_matches_the_section(n, seed, rows):
    K = random_body(n, seed)
    gen = np.random.default_rng(seed)
    nu = gen.standard_normal(n)
    nu /= np.linalg.norm(nu)
    R = gen.standard_normal((rows, n))
    for q in moment_degrees:
        ref = section_wedge_moment(K, R, q, nu)
        assume(ref is not None)
        assert wedge_moment(K, R, q, [nu]) == pytest.approx(ref, rel=1e-12)


@given(st.integers(min_value=4, max_value=5), seeds)
def test_three_row_sliced_wedge_matches_the_section(n, seed):
    # three rows: two splits of the sliced faces, each carrying the values
    # of the rows after it
    K = random_body(n, seed)
    gen = np.random.default_rng(seed)
    nu = gen.standard_normal(n)
    nu /= np.linalg.norm(nu)
    R = gen.standard_normal((3, n))
    for q in moment_degrees:
        ref = section_wedge_moment(K, R, q, nu)
        assume(ref is not None)
        assert wedge_moment(K, R, q, [nu]) == pytest.approx(ref, rel=1e-12)


def test_an_empty_stack_gives_no_values():
    K, e = random_body(4, 4), np.eye(4)
    for R, normals in itertools.product((np.zeros((0, 1, 4)), np.zeros((0, 2, 4))), ((), [e[0]], e[:2])):
        assert wedge_moment(K, R, 1, normals).shape == (0,)


def test_a_shared_pass_gives_each_wedge_its_bits_cut_alone():
    # the corpus battery's whole-space wedges in one call: the Grünbaum
    # grid's halfspaces, part 1's orthant pair [R, -R] (n >= 3) and part 2's
    # pulled-back row; the grid takes all the cones at once, the pair the
    # blocks of 512 (three on the 6-cube's 1440 cones), and each wedge gets
    # the bits it gets alone
    blocked = 0
    for spec in load_corpus():
        K = body_from_spec(spec)
        if isinstance(K, Ball):
            continue
        n, e = K.dim, np.eye(K.dim)
        T = isotropic_position(K)[1].matrix
        wedges = [*rng.sphere_grid(n, 3, seed=17)[:, None, :]]
        wedges += [e[n - 2:], -e[n - 2:]] if n >= 3 else []
        wedges.append(e[-1:] @ T)
        blocked += n >= 3 and len(_cone_simplices(K)[0]) > _WEDGE_BLOCK
        for q in (0, 1):
            shared = wedge_moment(K, wedges, q)
            assert shared.shape == (len(wedges),)
            assert np.array_equal(shared, [wedge_moment(K, W, q) for W in wedges]), spec["label"]
    assert blocked >= 1  # the 6-cube at least
    # a list of vectors stays one wedge
    K = body_from_spec({"type": "cube", "n": 3})
    assert isinstance(wedge_moment(K, [np.eye(3)[0]]), float)
    assert wedge_moment(K, [np.eye(3)[0], np.eye(3)[1]]) == pytest.approx(2.0, rel=1e-14)


def test_sliced_wedge_counts_faces_in_the_hyperplane_once():
    # coordinate hyperplanes hold whole faces of these bodies' cones, and
    # many vertex values are exactly 0
    for n, q in itertools.product(range(3, 7), moment_degrees):
        e = np.eye(n)
        simplex = VPolytope(np.vstack([e, -np.ones(n)]))
        for K in (make_cube(n), make_cross_polytope(n), simplex):
            for R in ([e[1]], [e[1] - e[2]], [e[1], e[2] - e[0]]):
                assert wedge_moment(K, R, q, [e[0]]) == pytest.approx(
                    section_wedge_moment(K, R, q, e[0]), rel=1e-12)


def test_slice_builds_only_the_faces_it_keeps(monkeypatch):
    # a boundary simplex with P positive and N negative values along nu meets
    # nu^perp in one face per monotone lattice path, C(P + N - 2, P - 1) of
    # them; one with one positive value and the rest zero is its own face; no
    # other simplex gives a face, and no piece is split off on the way
    monkeypatch.setattr(volume_module, "_split", None)
    for n in range(3, 7):
        e = np.eye(n)
        nu = np.random.default_rng(n).standard_normal(n)
        simplex = VPolytope(np.vstack([e, -np.ones(n)]))
        for K in (make_cube(n), make_cross_polytope(n), simplex, random_body(n, n)):
            pts, w = _cone_simplices(K)
            for u in (e[0], nu / np.linalg.norm(nu)):
                c = pts @ u
                counts = zip(np.count_nonzero(c > 0, axis=1), np.count_nonzero(c < 0, axis=1))
                expected = sum(math.comb(P + N - 2, P - 1) if N else P == 1
                               for P, N in counts if P)
                faces, weights, ends = _slice(pts, w, pts @ u, 0.0, ends=True)  # exact signs, as counted above
                assert faces.shape == (expected, n - 1, n)
                assert weights.shape == (expected,)
                assert np.abs(faces @ u).max(initial=0.0) <= 1e-14 * np.abs(pts).max()
                # each face vertex crosses an edge, from a value >= 0 to one
                # <= 0, of the face's own simplex
                values = (pts @ u).ravel()[ends]
                assert ends.shape == (expected, n - 1, 2)
                assert (ends // n == ends[:, :1, :1] // n).all()
                assert (values[..., 0] >= 0).all() and (values[..., 1] <= 0).all()


def test_positive_fraction_closed_forms():
    # the cone over a simplex with vertex values c keeps the part of the
    # simplex where sum_i lambda_i c_i >= 0; one value p against d - 1 equal
    # values q < 0 keeps lambda_1 >= -q / (p - q), a fraction (p / (p - q))^(d - 1)
    for d in range(2, 8):
        c = np.array([[3.0] + [-1.0] * (d - 1), [1.0] * (d - 1) + [-3.0], [2.0] + [0.0] * (d - 1),
                      [0.0] * d, [-1.0] + [0.0] * (d - 1)])
        assert _positive_fraction(c) == pytest.approx(
            [0.75 ** (d - 1), 1.0 - 0.75 ** (d - 1), 1.0, 1.0, 0.0], rel=1e-14)
    assert _positive_fraction(np.array([[1.0, 0.0, -1.0]])) == pytest.approx([0.5], rel=1e-15)


def padded_positive_fraction(c, q):
    """`_positive_fraction` by its recursion over all d x d states, p and n
    padded with zeros to length d, a gap of 0 only where both are padding."""
    frac = np.zeros(len(c))
    inside = np.all(c >= 0, axis=1)
    frac[inside] = _suffix_h(c[inside].T, q)[0]
    mixed = np.any(c > 0, axis=1) & np.any(c < 0, axis=1)
    p = np.sort(np.maximum(c[mixed], 0.0), axis=1)[:, ::-1].T.copy()
    n = np.sort(np.minimum(c[mixed], 0.0), axis=1).T.copy()
    d = c.shape[1]
    phi = _suffix_h(p, q)
    phi[d] = 0.0
    for t in reversed(range(d)):
        for s in reversed(range(d)):
            gap = p[s] - n[t]
            phi[s] = (p[s] * phi[s] - n[t] * phi[s + 1]) / np.where(gap > 0, gap, 1.0)
    frac[mixed] = phi[0]
    return frac


def test_positive_fraction_per_sign_pattern_matches_the_padded_recursion():
    # rows with exact zeros and ties, and integer rows with many of both
    gen = np.random.default_rng(37)
    for d in range(2, 9):
        c = gen.standard_normal((400, d))
        c[gen.random((400, d)) < 0.2] = 0.0
        tie = gen.random(400) < 0.3
        c[tie, -1] = c[tie, 0]
        c = np.vstack([c, gen.integers(-2, 3, (200, d)).astype(float)])
        assert np.array_equal(_positive_fraction(c), padded_positive_fraction(c, 0))
        for q in (1, 2, 3):
            assert _positive_fraction(c, q) == pytest.approx(padded_positive_fraction(c, q), rel=1e-15, abs=0)


def test_wedge_reads_the_cone_simplices_once(monkeypatch):
    K, e = random_body(4, 7), np.eye(4)
    whole = [moment_p(K, e[0], q) for q in moment_degrees]
    first = [wedge_moment(K, [e[0]], q) for q in moment_degrees]
    monkeypatch.setattr(np.linalg, "det", None)  # a second determinant would raise
    for q, w, f in zip(moment_degrees, whole, first):
        assert (-1) ** q * wedge_moment(K, [-e[0]], q) == pytest.approx(w - f, rel=1e-12)


# ---------------------------------------------------------------------------
# moments


def test_cube_second_moment_is_identity_third():
    m = moments(make_cube(3))
    assert np.allclose(m.covariance, (8.0 / 3.0) * np.eye(3), atol=1e-12)
    assert np.allclose(m.centroid, 0.0, atol=1e-12)


def test_ball_second_moment():
    # int_{B^3} x x^T = |B| r^2/(d+2) I
    m = moments(make_ball(3, r=2.0))
    expect = m.volume * 4.0 / 5.0
    assert np.allclose(m.covariance, expect * np.eye(3), rtol=1e-12)


def test_moment_p_on_cube():
    cube = make_cube(2)
    u = np.array([1.0, 0.0])
    # int_{[-1,1]^2} x1^p
    assert moment_p(cube, u, 0) == pytest.approx(4.0)
    assert moment_p(cube, u, 1) == pytest.approx(0.0, abs=1e-12)
    assert moment_p(cube, u, 2) == pytest.approx(4.0 / 3.0)
    assert moment_p(cube, u, 3) == pytest.approx(0.0, abs=1e-12)
    assert moment_p(cube, u, 4) == pytest.approx(4.0 / 5.0)
    # the closed form holds at every integer degree
    assert moment_p(cube, u, 5) == pytest.approx(0.0, abs=1e-12)
    assert moment_p(cube, u, 6) == pytest.approx(4.0 / 7.0)
    with pytest.raises(GeometryError):
        moment_p(cube, u, -1)


def test_moment_p_reads_the_cached_cones(monkeypatch):
    # one fan per body: moment_p sums over the boundary cones every wedge cut
    # reads, with no triangulation from the vertex average, and agrees with
    # that triangulation's closed form
    def fan_moment(K, u, q):
        S = triangulate(K)
        vols = np.abs(np.linalg.det(S[:, 1:] - S[:, :1])) / math.factorial(K.dim)
        return float(vols @ h(S @ u, q)) * math.factorial(K.dim) * math.factorial(q) / math.factorial(K.dim + q)

    bodies = [make_cube(4), random_body(4, 7), translate(make_regular_simplex(3), [0.4, -0.2, 0.3])]
    us = [np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.3, -1.2, 0.5, 0.7]), np.array([0.3, -1.2, 0.5])]
    fans = [[(fan_moment(K, u, q), 1e-14 * moment_scale(K, u, q)) for q in range(5)] for K, u in zip(bodies, us)]
    monkeypatch.setattr(volume_module, "triangulate", None)  # a fan would raise
    for K, u, fan in zip(bodies, us, fans):
        for q, (ref, scale) in enumerate(fan):
            assert moment_p(K, u, q) == pytest.approx(ref, rel=1e-13, abs=scale), q


def test_moment_p_matches_quadrature_on_simplex():
    # compare against dense Monte Carlo-free midpoint grid on the triangle
    T = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    u = np.array([0.3, 1.1])
    N = 800
    xs = (np.arange(N) + 0.5) / N
    X, Y = np.meshgrid(xs, xs)
    mask = X + Y < 1.0
    cell = 1.0 / (N * N)
    for p in (1, 2, 3, 4):
        approx = ((0.3 * X[mask] + 1.1 * Y[mask]) ** p).sum() * cell
        assert moment_p(T, u, p) == pytest.approx(approx, rel=5e-3)


@given(dims, seeds)
def test_moments_translation_rule(n, seed):
    K = random_body(n, seed)
    t = np.linspace(-0.5, 0.5, n)
    m0, m1 = moments(K), moments(translate(K, t))
    assert m1.volume == pytest.approx(m0.volume, rel=1e-12)
    assert np.allclose(m1.centroid, m0.centroid + t, atol=1e-9)


@given(dims, seeds)
def test_centered_second_moment_translation_invariant(n, seed):
    K = random_body(n, seed)
    t = np.linspace(1.0, 2.0, n)
    assert np.allclose(centered_second_moment(K),
                       centered_second_moment(translate(K, t)), atol=1e-8)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_matches_exact_within_3_sigma():
    for seed, K in ((1, make_cube(3)), (2, make_ball(3)), (3, random_body(4, 11))):
        est, err = monte_carlo_volume(K, 40_000, seed)
        assert abs(est - volume(K)) <= 3.0 * err


def test_monte_carlo_is_deterministic():
    K = random_body(3, 4)
    assert monte_carlo_volume(K, 5000, 42) == monte_carlo_volume(K, 5000, 42)


def test_monte_carlo_sample_floor():
    with pytest.raises(GeometryError):
        monte_carlo_volume(make_cube(2), 10, 0)


# ---------------------------------------------------------------------------
# isotropic position


@given(dims, seeds)
def test_isotropic_position_properties(n, seed):
    K, T = isotropic_position(random_body(n, seed))
    m = moments(K)
    assert np.allclose(m.centroid, 0.0, atol=1e-9)
    M = m.covariance
    assert np.allclose(M, M[0, 0] * np.eye(n), atol=1e-8 * max(1.0, M[0, 0]))
    assert abs(np.linalg.det(T.matrix)) == pytest.approx(1.0, rel=1e-9)
    assert m.volume == pytest.approx(volume(random_body(n, seed)), rel=1e-9)


def test_isotropic_transform_reproduces_body():
    K0 = random_body(3, 8)
    K, T = isotropic_position(K0)
    mapped = translate(affine_map(K0, T.matrix), T.shift)
    assert volume(mapped) == pytest.approx(volume(K), rel=1e-10)
    assert np.allclose(centroid(mapped), 0.0, atol=1e-9)


def test_isotropic_rejects_degenerate():
    flat = VPolytope([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(GeometryError):
        isotropic_position(flat)


def test_bounding_box_reads_the_support_function_to_the_bit():
    for center, r in (([0.3, -1.2, 2.5], 0.7), ([1e3, -4.0], 2.5)):
        lo, hi = bounding_box(make_ball(len(center), r=r, center=center))
        assert np.array_equal(lo, np.array(center) - r) and np.array_equal(hi, np.array(center) + r)
    for K in (make_cube(4), random_centered_polytope(6, 18, 3),
              translate(make_cross_polytope(5), [1.0, -2.0, 0.5, 3.0, -0.25])):
        V = to_vrep(K).vertices
        lo, hi = bounding_box(K)
        assert np.array_equal(lo, V.min(axis=0)) and np.array_equal(hi, V.max(axis=0))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_one_dimensional_sphere_sample_is_signs(seed):
    # g / |g| of one Gaussian coordinate is exactly +-1
    points = rng.sample_sphere(1, 64, seed)
    assert points.shape == (64, 1)
    assert set(points.ravel().tolist()) == {-1.0, 1.0}

"""Representations, conversions, duality and cone plumbing."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

import conesec
from conesec.geometry import (
    Ball,
    GeometryError,
    HPolytope,
    PolyhedralCone,
    Subspace,
    VPolytope,
    affine_map,
    body_from_spec,
    boundary,
    cone_from_spec,
    contains,
    contains_many,
    facet_ridges,
    known_simplicial,
    make_ball,
    make_centered_cone,
    make_cross_polytope,
    make_cube,
    make_regular_simplex,
    minkowski_norm,
    minkowski_norm_many,
    orthant_cone,
    polar,
    polar_with_center,
    project,
    radial,
    radial_many,
    random_centered_polytope,
    support,
    to_hrep,
    to_vrep,
    translate,
)
from conesec.ball_bodies import ball_indicator_oracle
from conesec.geometry import (
    _clearly_interior_origin,
    _closed,
    _first_of_close,
    _halfspace_polytope,
    _qhull,
    robust_hull,
)
from conesec.sections import section, section_volume
from conesec.verify import halfspace_volume
from conesec.volume import moments, volume

dims = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)


def random_body(n, seed):
    return random_centered_polytope(n, 2 * n + 6, seed)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# representations and conversions


def test_cube_roundtrip():
    cube = make_cube(3)
    V = to_vrep(cube)
    assert len(V.vertices) == 8
    H = to_hrep(V)
    assert len(H.b) == 6
    assert np.allclose(np.abs(V.vertices), 1.0)


def test_cross_polytope_vertices():
    cross = make_cross_polytope(4)
    assert len(to_vrep(cross).vertices) == 8
    assert len(to_hrep(cross).b) == 16


def test_simplex_is_centered_and_regular():
    for n in range(2, 7):
        S = make_regular_simplex(n)
        verts = to_vrep(S).vertices
        assert len(verts) == n + 1
        assert np.allclose(verts.sum(axis=0), 0.0, atol=1e-12)
        norms = np.linalg.norm(verts, axis=1)
        assert np.allclose(norms, norms[0])
        # all pairwise distances equal
        d = np.linalg.norm(verts[0] - verts[1])
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                assert np.isclose(np.linalg.norm(verts[i] - verts[j]), d)


def test_centered_cone_centroid_at_origin():
    for n in (2, 3, 4):
        K = make_centered_cone(n)
        assert np.linalg.norm(moments(K).centroid) < 1e-12


@given(dims, seeds)
def test_vrep_hrep_roundtrip_preserves_volume(n, seed):
    K = random_body(n, seed)
    assert volume(to_hrep(K)) == pytest.approx(volume(K), rel=1e-9)


def _dedup_points_loop(points, tol=1e-9):
    # each row against every kept row at once, so that clouds of thousands of
    # rows take a fraction of a second
    kept = np.zeros(len(points), dtype=bool)
    for i, p in enumerate(points):
        kept[i] = np.all(np.linalg.norm(p - points[:i][kept[:i]], axis=1) >= tol)
    return points[kept]


def _dedup_halfspaces_loop(A, b, tol=1e-9):
    kept = np.zeros(len(b), dtype=bool)
    for i in range(len(b)):
        Ak, bk = A[:i][kept[:i]], b[:i][kept[:i]]
        kept[i] = not np.any((np.linalg.norm(A[i] - Ak, axis=1) < tol) & (np.abs(b[i] - bk) < tol))
    return A[kept], b[kept]


@pytest.mark.parametrize("seed,rows,dim", [(0, 60, 4), (1, 60, 4), (2, 150, 6), (0, 400, 3),
                                           (1, 400, 4), (2, 600, 6), (3, 4940, 5)])
def test_vectorised_dedup_matches_the_pairwise_loop(seed, rows, dim):
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(rows, dim))
    # exact and near copies, and chains a~b~c with a and c more than tol apart
    # (the greedy pass keeps a and c)
    step = np.zeros(dim)
    step[0] = 0.6e-9
    pts = np.vstack([base, base[:20], base[20:40] + 1e-12, base[:10] + step, base[:10] + 2 * step])
    pts = pts[gen.permutation(len(pts))]
    got = pts[_first_of_close(pts)]
    assert np.array_equal(got, _dedup_points_loop(pts))
    A = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    b = np.round(gen.random(len(pts)), 1)
    keep = _first_of_close(A, b)
    ra, rb = _dedup_halfspaces_loop(A, b)
    assert np.array_equal(A[keep], ra) and np.array_equal(b[keep], rb)


def test_dedup_of_repeated_facet_equations_matches_the_pairwise_loop():
    # qhull gives each of the 1916 simplices of its triangulation of the
    # 6-cube its facet's equation, so the rows are 12 facets repeated; the
    # facets of the boundary built from the same vertices are those rows
    V = to_vrep(make_cube(6)).vertices
    hull = robust_hull(V)
    A, b = hull.equations[:, :-1], -hull.equations[:, -1]
    assert len(b) == 1916
    keep = _first_of_close(A, b)
    ra, rb = _dedup_halfspaces_loop(A, b)
    assert len(rb) == 12
    assert np.array_equal(A[keep], ra) and np.array_equal(b[keep], rb)
    cube = VPolytope(V)
    assert len(np.unique(boundary(cube).facet)) == 12 and len(boundary(cube).simplices) == 1440
    assert sorted(map(tuple, np.round(cube.A, 12))) == sorted(map(tuple, np.round(ra, 12)))


def test_subspace_basis_must_be_orthonormal_to_1e12():
    Subspace(2, [[1.0 + 1e-13, 0.0]])
    with pytest.raises(GeometryError, match="orthonormal"):
        Subspace(2, [[1.0 + 1e-6, 0.0]])


def test_minkowski_norm_many_matches_pointwise():
    K = random_body(4, 8)
    X = np.random.default_rng(3).normal(size=(25, 4))
    X[0] = 0.0
    expect = [minkowski_norm(K, x) for x in X]
    assert np.allclose(minkowski_norm_many(K, X), expect, rtol=1e-15, atol=0)
    assert minkowski_norm_many(K, X)[0] == 0.0


def test_minkowski_norm_of_an_off_centre_ball_is_the_reciprocal_radial():
    B = make_ball(3, 1.5, [0.4, -0.3, 0.2])
    X = np.random.default_rng(5).normal(size=(20, 3))
    X[7] = 0.0
    got = minkowski_norm_many(B, X)
    moved = np.arange(20) != 7
    assert np.allclose(got[moved], 1.0 / radial_many(B, X[moved]), rtol=1e-15, atol=0)
    assert got[7] == 0.0
    assert [minkowski_norm(B, x) for x in X] == got.tolist()


@pytest.mark.parametrize("u", [[1.0, 0.0, 0.0], [0.3, -1.2, 0.5]])
def test_hyperplane_does_not_depend_on_the_scale_of_its_normal(u):
    u = np.asarray(u)
    planes = [Subspace.hyperplane(s * u) for s in (1e-13, 1.0, 1e6)]
    assert all(S.dim == 2 for S in planes)
    for S in planes:  # one subspace: the same orthogonal projector
        assert np.allclose(S.basis.T @ S.basis, planes[1].basis.T @ planes[1].basis, atol=1e-15)
    with pytest.raises(GeometryError, match="zero hyperplane normal"):
        Subspace.hyperplane(np.zeros(3))


@pytest.mark.parametrize("s", [1e-15, 1.0])
def test_halfspaces_and_cone_generators_of_any_scale_build(s):
    # only an exactly zero normal or generator raises, as in `Subspace.hyperplane`
    square = HPolytope(s * np.vstack([np.eye(2), -np.eye(2)]), s * np.ones(4))
    assert volume(square) == pytest.approx(4.0, rel=1e-12)
    assert np.array_equal(PolyhedralCone(s * np.eye(2)).generators, np.eye(2))
    with pytest.raises(GeometryError, match="zero halfspace normal"):
        HPolytope(s * np.array([[1.0, 0.0], [0.0, 0.0]]), s * np.ones(2))
    with pytest.raises(GeometryError, match="zero cone generator"):
        PolyhedralCone(s * np.array([[1.0, 0.0], [0.0, 0.0]]))


def _spy_builder(monkeypatch):
    """Record the inputs of every `_extreme_points` call."""
    seen = []
    build = conesec.geometry._extreme_points

    def spy(points):
        seen.append(points.copy())
        return build(points)

    monkeypatch.setattr(conesec.geometry, "_extreme_points", spy)
    return seen


@pytest.mark.parametrize("make", [make_regular_simplex, make_cross_polytope, make_centered_cone])
def test_constructor_bodies_and_their_images_take_the_one_boundary_builder(monkeypatch, make):
    # a constructor builds through VPolytope: one hull of its vertices, kept
    # in their order, brings the rows and boundary VPolytope gives those
    # vertices, bit for bit. Its affine image maps those rows and shares
    # that boundary, with no hull
    M = np.array([[2.0, 0.3, 0, 0], [0, 1.0, 0, 0], [0, 0, 0.5, 0.1], [0.2, 0, 0, 1.5]])
    shift = np.array([0.1, 0.0, -0.2, 0.3])
    seen = _spy_builder(monkeypatch)
    K = make(4)
    assert len(seen) == 1 and np.array_equal(seen[0], K.vertices)  # built from the vertices, kept in their order
    image = affine_map(K, M, shift)
    assert len(seen) == 1
    ref = VPolytope(K.vertices)
    A = ref.A @ np.linalg.inv(M)
    norms = np.linalg.norm(A, axis=1)
    for body, rows in ((K, (ref.A, ref.b)), (image, (A / norms[:, None], (ref.b + A @ shift) / norms))):
        bd = _closed(body.vertices, body.A, boundary(body))
        assert known_simplicial(body) and len(np.unique(bd.facet)) == len(bd.facet)
        assert all(np.array_equal(getattr(bd, f), getattr(boundary(ref), f)) for f in ("simplices", "facet"))
        assert np.array_equal(body.A, rows[0]) and np.array_equal(body.b, rows[1])
    assert boundary(image) is boundary(K)
    assert np.array_equal(image.vertices, K.vertices @ M.T + shift)
    assert volume(image) == pytest.approx(volume(K) * abs(np.linalg.det(M)), rel=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_cube_facets_are_pulled_and_cross_polytopes_keep_qhulls_simplices(n):
    # the 2n facets of the cube, H-built or built from its 2^n vertices, are
    # pulled into (n-1)! simplices each, 2 n! in all (qhull's `Qt` gave
    # 113 458 at n = 8); the simplicial cross-polytope keeps
    # qhull's simplices and rows bit for bit. Every boundary closes up, and
    # simpliciality is read from the incidence: the square's edges are
    # simplices, a cube's facets from n = 3 on are not
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * n, indexing="ij")).reshape(n, -1).T
    for cube in (make_cube(n), VPolytope(corners)):
        bd = boundary(cube)
        assert len(bd.simplices) == 2 * math.factorial(n) and len(np.unique(bd.facet)) == len(cube.A) == 2 * n
        assert volume(cube) == pytest.approx(2.0**n, rel=1e-14, abs=0)
        assert _closed(cube.vertices, cube.A, bd) is bd
        assert known_simplicial(cube) == (n == 2)
    cross = make_cross_polytope(n)
    V = cross.vertices
    basis = conesec.geometry.orthonormal_basis(V - V.mean(axis=0))
    hull = robust_hull((V - V.mean(axis=0)) @ basis.T)
    bd = boundary(cross)
    assert known_simplicial(cross) and np.array_equal(bd.facet, np.arange(len(bd.facet)))
    assert np.array_equal(bd.simplices, hull.simplices)
    assert np.array_equal(cross.A[bd.facet], hull.equations[:, :-1] @ basis)
    assert _closed(V, cross.A, bd) is bd
    assert volume(cross) == pytest.approx(2.0**n / math.factorial(n), rel=1e-14, abs=0)


def test_a_halfspace_system_takes_one_qhull_call_and_no_hull(monkeypatch):
    # the intersection points are the vertices, and the boundary is pulled
    # from their incidence on the system's rows
    made = []

    def spy(build, *args, **kwargs):
        made.append(build.__name__)
        return _qhull(build, *args, **kwargs)

    src = to_hrep(random_body(5, 6))
    monkeypatch.setattr(conesec.geometry, "_qhull", spy)
    P = _halfspace_polytope(np.vstack([src.A, -np.eye(5)[:3]]), np.concatenate([src.b, np.zeros(3)]))
    assert volume(P) > 0 and facet_ridges(P).pairs.size and P.A.shape[1] == 5
    assert made == ["HalfspaceIntersection"]


def test_degenerate_input_rejected():
    segment = VPolytope([[0.0, 0.0], [1.0, 1.0]])  # a segment in the plane
    with pytest.raises(GeometryError, match="degenerate"):
        to_hrep(segment)
    with pytest.raises(GeometryError, match="degenerate"):  # an image carries the boundary it has not
        translate(segment, [1.0, 0.0])


def _count_qhull(monkeypatch, failing=()):
    """Record (class name, qhull_options) of every qhull call geometry makes.

    Calls with options in ``failing`` raise QhullError.
    """
    made = []

    def counted(cls):
        def make(*args, **kwargs):
            made.append((cls.__name__, kwargs.get("qhull_options")))
            if kwargs.get("qhull_options") in failing:
                raise QhullError("merge failure")
            return cls(*args, **kwargs)
        return make

    for cls in (ConvexHull, HalfspaceIntersection):
        monkeypatch.setattr(conesec.geometry, cls.__name__, counted(cls))
    return made


def test_halfspace_polytope_enumerates_its_vertices_once(monkeypatch):
    src = to_hrep(random_body(4, 14))
    made = _count_qhull(monkeypatch)
    H = HPolytope(src.A, src.b)  # its vertices, from construction
    assert made == [("HalfspaceIntersection", None)]
    u = unit([1.0, -0.5, 0.3, 0.2])
    M = np.array([[2.0, 0.3, 0, 0], [0, 1.0, 0, 0], [0, 0, 0.5, 0.1], [0.2, 0, 0, 1.5]])
    assert to_vrep(H) is H and to_hrep(H) is H
    assert known_simplicial(H) and _closed(H.vertices, H.A, boundary(H)) is boundary(H)
    assert support(H, u) == pytest.approx(float(np.max(to_vrep(src).vertices @ u)), rel=1e-12)
    image = affine_map(translate(H, [0.1, -0.2, 0.0, 0.3]), M, [1.0, 0.0, 0.5, 0.0])
    assert moments(image).volume == pytest.approx(
        moments(H).volume * abs(np.linalg.det(M)), rel=1e-12)
    assert halfspace_volume(image, u) + halfspace_volume(image, -u) == pytest.approx(
        volume(image), rel=1e-12)
    assert np.all(contains_many(image, to_vrep(image).vertices))
    # the vertices come from one halfspace intersection at construction, and
    # the boundary is pulled from their incidence: its points are never hulled
    assert made == [("HalfspaceIntersection", None)]


def test_vertices_of_an_h_built_body_start_from_a_clearly_interior_origin(monkeypatch):
    # the n-cubes, 0 at distance 1 from every facet, take no LP; a body whose
    # 0 lies within 1e-3 of the largest facet distance from a facet takes
    # one, at construction. Each gives the vertices the Chebyshev centre's LP
    # route gives: HiGHS puts the cube's centre at exactly 0, so qhull's input
    # is the same
    lps = []
    real = conesec.geometry.chebyshev_center
    monkeypatch.setattr(conesec.geometry, "chebyshev_center", lambda A, b: lps.append(1) or real(A, b))
    for n in range(2, 9):
        K = make_cube(n)
        assert len(lps) == n - 2
        assert np.array_equal(K.vertices, _halfspace_polytope(K.A, K.b).vertices)
        assert len(lps) == n - 1  # the reference's LP only
    e = np.vstack([np.eye(3), -np.eye(3)])
    lps.clear()
    near = HPolytope(e, [2.0, 1.0, 1.0, 1.999e-3, 1.0, 1.0])  # 0 at 0.9995e-3 of 2 from x1 >= -1.999e-3
    assert len(lps) == 1
    V = near.vertices
    assert np.array_equal(V, _halfspace_polytope(near.A, near.b).vertices)
    assert V[:, 0].min() == pytest.approx(-1.999e-3, rel=1e-12) and volume(near) == pytest.approx(
        4 * 2.001999, rel=1e-12)


def test_clearly_interior_origin_needs_a_positive_largest_distance():
    assert np.array_equal(_clearly_interior_origin(np.array([1.0, 1e-3, 2e-3]), 3), np.zeros(3))
    for b in ([1.0, 0.999e-3], [0.0, 0.0], [1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]):
        assert _clearly_interior_origin(np.array(b), 2) is None


@pytest.mark.parametrize("levels", [1, 2])
def test_qhull_falls_back_to_q12_then_joggle(monkeypatch, levels):
    # the first `levels` options of the hull's ladder raise QhullError; when
    # both fail, the ladder raises instead of joggling the input. The cube
    # is built from its vertices, so its one qhull call is a hull
    ladder = ["Qt", "Qt Q12"]
    made = _count_qhull(monkeypatch, set(ladder[:levels]))
    corners = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
    if levels == 2:
        with pytest.raises(GeometryError, match="merge failure"):
            VPolytope(corners)
        assert made == [("ConvexHull", "Qt"), ("ConvexHull", "Qt Q12")]
        return
    assert volume(VPolytope(corners)) == pytest.approx(8.0, rel=1e-12)
    assert made == [("ConvexHull", o) for o in ladder]


def test_a_halfspace_intersection_takes_one_qhull_attempt(monkeypatch):
    # a rejected system is not retried with Q12, whose output can be short;
    # an H-built body takes its one intersection at construction
    src = to_hrep(make_cube(3))
    made = _count_qhull(monkeypatch, {None})
    with pytest.raises(GeometryError, match="merge failure"):
        HPolytope(src.A, src.b)
    assert made == [("HalfspaceIntersection", None)]


def test_qhull_ladder_reports_its_last_failure(monkeypatch):
    made = _count_qhull(monkeypatch, {"Qt Qx", "Qt Qx Q12"})
    with pytest.raises(GeometryError, match="merge failure"):
        VPolytope(np.random.default_rng(2).normal(size=(12, 5)))
    assert made == [("ConvexHull", "Qt Qx"), ("ConvexHull", "Qt Qx Q12")]


def test_halfspace_intersection_outside_its_system_raises(monkeypatch):
    # the guard on qhull's vertices: the square's system, with one vertex
    # of its intersection moved 0.5 outside it
    real = HalfspaceIntersection

    def misplaced(*args, **kwargs):
        moved = real(*args, **kwargs).intersections.copy()
        moved[0] *= 1.5
        return SimpleNamespace(intersections=moved)

    src = to_hrep(make_cube(2))
    monkeypatch.setattr(conesec.geometry, "HalfspaceIntersection", misplaced)
    with pytest.raises(GeometryError, match="outside its system"):
        _halfspace_polytope(src.A, src.b)
    with pytest.raises(GeometryError, match="outside its system"):
        HPolytope(src.A, src.b)  # at construction


@pytest.mark.parametrize("shift, unit_rows, scaled", [
    (0.33344736970120425, False, False), (0.33344736970120425, False, True), (0.333984375, True, False)],
    ids=["outside", "scaled", "short"])
def test_a_wedge_system_that_qhull_rejects_raises(shift, unit_rows, scaled):
    # qhull rejects each of these wedge systems (QH6271 wide merge). A Q12
    # retry returned vertices 0.431 outside the first; on the second, the
    # first scaled to max |b| = 1, and on the third it returned vertices
    # inside the system but lost 4.7% of the wedge's volume (0.0301188 for
    # 0.0316009 after rescaling, and 0.03015 for 0.03163). With no retry
    # each raises
    K = translate(random_centered_polytope(5, 16, 218), shift * np.eye(5)[0])
    R = np.random.default_rng(218).standard_normal((2, 5))
    if unit_rows:
        R = R / np.linalg.norm(R, axis=1)[:, None]
    H = to_hrep(K)
    A, b = np.vstack([H.A, -R]), np.concatenate([H.b, np.zeros(2)])
    with pytest.raises(GeometryError, match="qhull failed"):
        _halfspace_polytope(A, b / np.abs(b).max() if scaled else b)


def test_an_unbounded_system_raises_without_a_warning():
    # 0 is clearly interior to {x <= 1, y <= 1, -x <= 1}, so qhull starts
    # from it; the intersection's points at infinity reach the vertex guard,
    # with numpy's division warnings off
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="unbounded"):
            HPolytope([[1, 0], [0, 1], [-1, 0]], [1, 1, 1]).vertices


def test_one_dimensional_halfspace_systems():
    # bounded: x <= 1, -x <= 0.5 and a repeat scaled by 2
    H = HPolytope([[1.0], [-1.0], [2.0]], [1.0, 0.5, 4.0])
    assert sorted(to_vrep(H).vertices[:, 0]) == [-0.5, 1.0]
    assert volume(H) == pytest.approx(1.5)
    # empty (x <= -1 and x >= 1) and a single point (x <= 0 and x >= 0)
    for b in ([-1.0, -1.0], [0.0, 0.0]):
        with pytest.raises(GeometryError):
            volume(HPolytope([[1.0], [-1.0]], b))
    with pytest.raises(GeometryError, match="unbounded"):
        to_vrep(HPolytope([[1.0], [2.0]], [1.0, 1.0]))
    # sections by lines of the triangle conv(0, e1, e2)
    T = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    vertical = Subspace.from_span([[0.0, 1.0]])
    assert section_volume(T, vertical, x0=[0.25, 0.0]) == pytest.approx(0.75)
    assert section(translate(T, [-2.0, 0.0]), vertical) is None  # misses T
    assert section(translate(T, [-1.0, 0.0]), vertical) is None  # touches a vertex
    # the edges x = 0 of T and y = +-1 of the square are parallel to the line:
    # zero-normal rows, which only test whether the line lies on their side
    assert section_volume(T, vertical, x0=[0.0, 0.0]) == pytest.approx(1.0)
    assert section(translate(T, [0.1, 0.0]), vertical) is None
    horizontal = Subspace.from_span([[1.0, 0.0]])
    assert section_volume(make_cube(2), horizontal, x0=[0.0, 1.0]) == pytest.approx(2.0)
    assert section(translate(make_cube(2), [0.0, -1.5]), horizontal) is None


# ---------------------------------------------------------------------------
# support / radial / gauge


def test_cube_support_values():
    cube = make_cube(3)
    assert support(cube, [1, 0, 0]) == pytest.approx(1.0)
    assert support(cube, unit([1, 1, 1])) == pytest.approx(math.sqrt(3))


def test_ball_radial_and_support():
    B = make_ball(4, r=2.5)
    u = unit([1, -2, 0.5, 1])
    assert support(B, u) == pytest.approx(2.5)
    assert radial(B, u) == pytest.approx(2.5)


@given(dims, seeds, st.floats(min_value=0.1, max_value=10.0))
def test_support_positive_homogeneity(n, seed, lam):
    K = random_body(n, seed)
    u = unit(np.arange(1, n + 1))
    assert support(K, lam * u) == pytest.approx(lam * support(K, u), rel=1e-9)


@given(dims, seeds)
def test_radial_times_gauge_is_one(n, seed):
    K = random_body(n, seed)
    u = unit(np.ones(n))
    assert radial(K, u) * minkowski_norm(K, u) == pytest.approx(1.0, rel=1e-9)


@given(dims, seeds)
def test_radial_point_lies_on_boundary(n, seed):
    K = random_body(n, seed)
    u = unit(np.arange(1, n + 1).astype(float))
    x = radial(K, u) * u
    assert contains(K, x, tol=1e-7)
    assert not contains(K, 1.0001 * x, tol=-1e-9)


@pytest.mark.parametrize("s", [1e-10, 1e-6, 1.0, 1e4])
def test_membership_is_judged_at_the_body_scale(s):
    # tol is a share of max |b| or of the radius: with an absolute 1e-9, a
    # point 5 radii out of the 1e-10 cube and ball was inside
    e = np.eye(3)[0]
    cube = affine_map(make_cube(3), s * np.eye(3))
    f = ball_indicator_oracle(3, s)
    for K in (cube, make_ball(3, s)):
        assert contains(K, s * e) and contains(K, (1 + 1e-10) * s * e)
        assert not contains(K, 5 * s * e) and not contains(K, (1 + 1e-8) * s * e)
        assert contains_many(K, np.array([0.5 * s * e, 5 * s * e])).tolist() == [True, False]
    assert f(np.zeros(3)) == f(0.5 * s * e) == 1.0
    assert f(5 * s * e) == 0.0


@pytest.mark.parametrize("s", [1e-12, 1e-10, 1e-6, 1.0, 1e4])
def test_origin_interior_is_judged_at_the_body_scale(s):
    # facet offsets against GEOM_TOL max |b|, a ball's centre against its
    # radius; with GEOM_TOL absolute, every s below 1e-9 raised "origin is
    # not interior"
    e = np.eye(3)
    cube, ball = affine_map(make_cube(3), s * e), make_ball(3, s)
    assert radial(cube, e[0]) == pytest.approx(s, rel=1e-15, abs=0)
    assert minkowski_norm(cube, e[0]) == pytest.approx(1.0 / s, rel=1e-15, abs=0)
    assert radial(ball, e[1]) == pytest.approx(s, rel=1e-15, abs=0)
    assert minkowski_norm(ball, e[2]) == pytest.approx(1.0 / s, rel=1e-15, abs=0)
    # 0 on the boundary still raises at every scale
    for K in (translate(cube, s * e[0]), make_ball(3, s, center=s * e[0])):
        with pytest.raises(GeometryError, match="origin is not interior"):
            radial(K, e[1])


# ---------------------------------------------------------------------------
# polarity


def test_cube_polar_is_cross_polytope():
    P = polar(make_cube(3))
    assert volume(P) == pytest.approx(volume(make_cross_polytope(3)), rel=1e-9)


def test_polar_does_not_depend_on_whether_the_rows_were_read():
    # a polytope's polar is the hull of its facet normals over their
    # offsets, whatever K had computed before: reading K.A first gave
    # another route and other bits (50.45727918804116 for ...119)
    fresh, read = random_centered_polytope(4, 14, 3), random_centered_polytope(4, 14, 3)
    read.A
    P, Q = polar(fresh), polar(read)
    assert np.array_equal(P.vertices, Q.vertices) and volume(P) == volume(Q)


def test_an_affine_image_does_not_depend_on_whether_the_boundary_was_built():
    # the simplex brings its rows and boundary from construction, and its
    # image maps the rows and shares the boundary: an image taken before
    # `boundary(K)` was called is the image taken after, bit for bit. The
    # H-built cube pulls its boundary for its image, which shares it
    M = np.array([[2.0, 0.3, 0, 0], [0, 1.0, 0, 0], [0, 0, 0.5, 0.1], [0.2, 0, 0, 1.5]])
    shift = np.array([0.1, 0.0, -0.2, 0.3])
    before = affine_map(make_regular_simplex(4), M, shift)
    K = make_regular_simplex(4)
    boundary(K)
    after = affine_map(K, M, shift)
    for field in ("simplices", "facet"):
        assert np.array_equal(getattr(boundary(before), field), getattr(boundary(after), field))
    assert np.array_equal(before.A, after.A) and np.array_equal(before.b, after.b)
    assert volume(before) == volume(after)
    cube = make_cube(4)
    image = affine_map(cube, M, shift)
    assert boundary(image) is boundary(cube) and np.array_equal(image.vertices, cube.vertices @ M.T + shift)


def test_an_image_of_the_8_cube_maps_its_16_rows_and_shares_its_boundary():
    # the image holds the cube's 16 rows, mapped once each, and shares the
    # cube's boundary object: its 80 640 simplices are neither copied nor relabelled
    K = make_cube(8)
    shift = np.linspace(-0.3, 0.4, 8)
    image = translate(K, shift)
    assert image.A.shape == (16, 8) and image.b.shape == (16,)
    assert np.array_equal(image.A, K.A) and np.array_equal(image.b, K.b + K.A @ shift)
    assert boundary(image) is boundary(K) and len(boundary(K).simplices) == 80640
    assert [volume(image), volume(K)] == pytest.approx([256.0, 256.0], rel=1e-13)


def test_ball_polar_radius():
    P = polar(make_ball(3, r=2.0))
    assert isinstance(P, Ball)
    assert P.radius == pytest.approx(0.5)


@given(dims, seeds)
def test_polar_involution(n, seed):
    K = random_body(n, seed)
    KK = polar(polar(K))
    u = unit(np.ones(n))
    for sign in (1.0, -1.0):
        assert support(KK, sign * u) == pytest.approx(support(K, sign * u), rel=1e-8)


@given(dims, seeds)
def test_polar_support_is_gauge_reciprocal(n, seed):
    K = random_body(n, seed)
    u = unit(np.arange(1, n + 1).astype(float))
    assert support(polar(K), u) == pytest.approx(minkowski_norm(K, u), rel=1e-9)


def test_polar_with_center_matches_kernel_identity():
    # |L^{*z}| = int_{L^*} (1 - <z,y>)^{-(d+1)} dy on a 2-d instance
    L = VPolytope([[1.2, 0.1], [-0.8, 1.0], [-0.5, -1.1], [0.9, -0.7]])
    Lstar = polar(L)
    z = np.array([0.15, -0.1])
    lhs = volume(polar_with_center(Lstar, z))
    from conesec.volume import triangulate

    simplices = triangulate(L)
    total = 0.0
    from conesec.sections import _std_simplex_quadrature

    pts, wts = _std_simplex_quadrature(2, 40)
    for verts in simplices:
        M = verts[1:] - verts[0]
        jac = abs(np.linalg.det(M))
        ys = pts @ M + verts[0]
        total += jac * float(wts @ (1.0 - ys @ z) ** -3.0)
    assert lhs == pytest.approx(total, rel=1e-6)


# ---------------------------------------------------------------------------
# subspaces, projections, affine maps


def test_subspace_coords_embed_roundtrip():
    S = Subspace.from_span([[1, 1, 0], [0, 0, 2]])
    x = np.array([3.0, 3.0, -1.0])
    assert np.allclose(S.embed(S.coords(x)), x)
    assert S.contains_vector(x)
    assert not S.contains_vector([1.0, 0.0, 0.0])


def test_complement_dimensions():
    S = Subspace.from_span([[1, 0, 0, 0], [0, 1, 0, 0]])
    C = S.complement()
    assert C.dim == 2
    assert np.allclose(S.basis @ C.basis.T, 0.0)


def test_projection_of_cube_is_square():
    S = Subspace.from_span([[1, 0, 0], [0, 1, 0]])
    P = project(make_cube(3), S)
    assert volume(P) == pytest.approx(4.0)


@given(dims, seeds)
def test_affine_volume_covariance(n, seed):
    K = random_body(n, seed)
    M = np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n) / (n * n)
    assert volume(affine_map(K, M)) == pytest.approx(
        abs(np.linalg.det(M)) * volume(K), rel=1e-8)


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_affine_map_accepts_small_and_large_scalings(scale):
    # singularity is judged relative to the matrix's scale, not by |det|
    for K in (make_cube(3), make_regular_simplex(4)):
        n = K.dim
        M = scale * (np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n) / (n * n))
        assert volume(affine_map(K, M)) == pytest.approx(
            abs(np.linalg.det(M)) * volume(K), rel=1e-9)


def test_affine_map_rejects_singular_matrix():
    M = np.diag([1e-5, 1e-5, 0.0])
    with pytest.raises(GeometryError):
        affine_map(make_cube(3), M)
    with pytest.raises(GeometryError):
        affine_map(make_cube(3), np.outer([1.0, 2.0, 3.0], [1.0, 0.5, 0.25]))


def test_affine_map_of_a_ball_requires_a_similarity_to_rounding():
    # (M M^T)[0, 0] = 1 and the diagonal 1 + 8e-6 passed np.allclose's rtol
    with pytest.raises(GeometryError):
        affine_map(make_ball(2), np.diag([1.0, 1.0 + 4e-6]))
    with pytest.raises(GeometryError):
        affine_map(make_ball(3), 1e-6 * np.diag([1.0, 1.0, 1.1]))
    for n, scale in ((2, 1e-6), (3, 1.0), (3, 1e4), (4, 3.0)):
        Q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
        B = affine_map(make_ball(n, r=2.0), scale * Q, shift=np.ones(n))
        assert isinstance(B, Ball)
        assert B.radius == pytest.approx(2.0 * scale, rel=1e-14)
        assert np.allclose(B.center, np.ones(n), rtol=0.0, atol=1e-15)
    B = affine_map(make_ball(3, r=2.0, center=[0.5, -1.0, 0.25]), -3.0 * np.eye(3))
    assert B.radius == pytest.approx(6.0, rel=1e-15)
    assert np.array_equal(B.center, [-1.5, 3.0, -0.75])


def test_translate_moves_centroid():
    K = random_body(3, 5)
    shift = np.array([0.5, -1.0, 2.0])
    assert np.allclose(moments(translate(K, shift)).centroid,
                       moments(K).centroid + shift, atol=1e-10)


# ---------------------------------------------------------------------------
# cones


def test_orthant_cone_requires_orthogonality():
    with pytest.raises(GeometryError):
        orthant_cone([[1, 0], [1, 1]])


def test_simplicial_cone_constraints():
    C = PolyhedralCone([[1.0, 0.2], [0.2, 1.0]])
    R = C.constraints_in_span()
    # generators satisfy their own constraints
    g = C.span.coords(C.generators)
    assert np.all(g @ R.T >= -1e-12)
    # and a vector outside fails one
    outside = C.span.coords(np.array([-1.0, 0.0]))
    assert np.min(outside @ R.T) < 0


# generator sets that span fewer dimensions than they count: the quarter
# wedge of R^2 with a third generator inside it, and a line
NON_SIMPLICIAL = [
    [[0.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
    [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
]


@pytest.mark.parametrize("generators", NON_SIMPLICIAL)
def test_non_simplicial_cone_is_rejected(generators):
    with pytest.raises(GeometryError, match="simplicial"):
        PolyhedralCone(generators)


def test_cone_negation():
    C = PolyhedralCone([[0.0, 1.0]])
    assert np.allclose(C.negated().generators, [[0.0, -1.0]])


def test_contains_many_matches_contains():
    K = random_body(3, 9)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 3))
    mask = contains_many(K, pts)
    for p, m in zip(pts, mask):
        assert m == contains(K, p)


# ---------------------------------------------------------------------------
# JSON loaders


def test_body_from_spec_builtins():
    assert volume(body_from_spec({"type": "cube", "n": 2})) == pytest.approx(4.0)
    assert isinstance(body_from_spec({"type": "ball", "n": 3}), Ball)
    K = body_from_spec({"type": "random", "n": 3, "points": 10, "seed": 7})
    assert K.dim == 3


def test_body_from_spec_rejects_malformed_input():
    bad = [
        {"type": "vpolytope", "vertices": [[0.0, 0.0], [1.0, float("nan")], [0.0, 1.0]]},
        {"type": "vpolytope", "vertices": np.vstack([np.zeros(9), np.eye(9)]).tolist()},
        {"type": "hpolytope", "halfspaces": [{"a": [1.0, 0.0], "b": float("inf")},
                                             {"a": [-1.0, 0.0], "b": 1.0},
                                             {"a": [0.0, 1.0], "b": 1.0},
                                             {"a": [0.0, -1.0], "b": 1.0}]},
        {"type": "ball", "n": 2, "center": [0.0, float("nan")]},
    ]
    for spec in bad:
        with pytest.raises(GeometryError):
            body_from_spec(spec)
    # the largest supported dimension still loads
    K = body_from_spec({"type": "vpolytope", "vertices": np.vstack([np.zeros(8), np.eye(8)]).tolist()})
    assert K.dim == 8


def test_cone_from_spec_roundtrip():
    F, C = cone_from_spec({"generators": [[0, 0, 1.0]],
                           "flat_basis": [[1.0, 0, 0]]})
    assert F.dim == 1
    assert C.span_dim == 1
    with pytest.raises(GeometryError):
        cone_from_spec({"generators": [[1.0, 0, 0]],
                        "flat_basis": [[1.0, 0, 0]]})

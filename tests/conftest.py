import hypothesis

from conesec.geometry import _clearly_interior_origin, _halfspace_polytope, to_hrep

hypothesis.settings.register_profile(
    "conesec", deadline=None, max_examples=25,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("conesec")


def halfspace_section(K, S):
    """K cap S, S through 0, by qhull's halfspace intersection, its boundary pulled from its rows.

    It is the route `sections.section` takes off the central hyperplanes of
    simplicial bodies, with the same starting point, so tests keep it as a
    reference independent of K's sliced cones.
    """
    H = to_hrep(K)
    return _halfspace_polytope(H.A @ S.basis.T, H.b, _clearly_interior_origin(H.b, S.dim))

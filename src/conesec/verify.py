"""Checkable predicates for cone-section volume inequalities.

Every check returns a CheckResult pairing the two sides of an inequality
with an explicit slack; experiments with no fully explicit constant return
tables instead of hard pass/fail verdicts.  Constants appearing in the
bounds are closed forms in Python floats, their Beta and binomial factors
taken from `scipy.special`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import hadamard
from scipy.special import binom

from . import rng as _rng
from .ball_bodies import (
    ConcaveFunctionOracle,
    StarBodyOracle,
    ball_body,
    estimate_max,
    fradelizi_constant,
    geometric_distance_lb,
    max_route,
    negative_ray_factor,
)
from .geometry import (
    Ball,
    ConvexBody,
    GeometryError,
    PolyhedralCone,
    Subspace,
    _field,
    make_cube,
    make_regular_simplex,
    minkowski_norm_many,
    orthant_cone,
    random_centered_polytope,
    support,
    to_hrep,
    to_vrep,
    translate,
    trivial_flat,
)
from .sections import (
    SectionVolumeFunction,
    _cone_flat,
    _cut_volume,
    _slices_cones,
    cone_section_volume_polyhedral,
    section,
    section_volume,
    solid_angle_fraction,
)
from .volume import _centred, _isotropic_matrix, body_volume, isotropic_position, moments

__all__ = [
    "CheckResult", "gruenbaum_constant", "part1_constant",
    "check_gruenbaum", "check_main_theorem_part1", "check_main_theorem_part2",
    "check_corollary1", "check_corollary2", "check_corollary3",
    "experiment_remark1", "experiment_remark3_cube",
    "experiment_remark2_sharpness", "experiment_alpha_n",
    "check_fradelizi", "check_lemma5", "check_lemma6", "check_lemma7",
    "check_prop8", "report_prop9",
    "trivial_flat", "halfspace_volume", "cone_volume",
]


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality: passed iff lhs <= rhs * (1 + slack).

    That verdict is the default, computed at construction when ``passed``
    is not given (None), so a bound check states only its two sides and its
    slack; ``replace(result, ..., passed=None)`` recomputes it for new sides.
    Two-sided checks say so in ``notes`` and encode the worst side in
    (lhs, rhs). Only the equality experiments pass their own two-sided
    verdict, |lhs - rhs| <= slack * rhs.
    """

    name: str
    body_spec: str
    parameters: dict
    lhs: float
    rhs: float
    slack: float
    passed: bool | None = None
    notes: str = ""

    def __post_init__(self):
        if self.passed is None:
            object.__setattr__(self, "passed", bool(self.lhs <= self.rhs * (1.0 + self.slack)))

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "body": self.body_spec,
            "parameters": {k: (v if isinstance(v, (int, float, str)) else str(v))
                           for k, v in self.parameters.items()},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "notes": self.notes,
        }


def gruenbaum_constant(n: int) -> float:
    return (1.0 + 1.0 / n) ** (-n)


def part1_constant(n: int, k: int, p: int) -> float:
    """k^p (1 + k/(n+1-k))^(n-k) C(n+p-k, p) C(n+1, k+1)^(-p/(k+1))."""
    if not (1 <= p <= k <= n):
        raise GeometryError("need 1 <= p <= k <= n")
    return float(k ** p * (1.0 + k / (n + 1.0 - k)) ** (n - k) * binom(n + p - k, p)
                 * binom(n + 1, k + 1) ** (-p / (k + 1.0)))


# ---------------------------------------------------------------------------
# small geometric helpers


def halfspace_volume(K: ConvexBody, U):
    """|K cap {x : <x, u> >= 0}| for one direction u (a float) or each row u of
    a grid U (an array): every u is a one-row wedge, and the grid is one
    stack cut by `sections._cut_volume` in the whole space, which takes
    polytopes and balls centred at 0 (a ball off 0 raises `GeometryError`)."""
    return _cut_volume(K, None, np.asarray(U, dtype=float)[..., None, :])


def cone_volume(K: ConvexBody, F: Subspace, C: PolyhedralCone) -> float:
    """|K cap (F + C)|, allowing the trivial flat F = {0}."""
    return cone_section_volume_polyhedral(K, F, C)


def _opposite_cone_volumes(K: ConvexBody, F: Subspace, C: PolyhedralCone):
    """|K cap (F + C)| and |K cap (F - C)|, by the route of `cone_volume` for
    both: K cap (F + span C) is cut by the stack [R, -R] of C's rows and
    their negatives in one `sections._cut_volume` call, which picks the cut
    for both (up to two rows the wedges of a polytope share the split by
    their first rows)."""
    S, R = _cone_flat(F, C)
    return tuple(_cut_volume(K, S, np.stack([R, -R])).tolist())


def _cone_and_flat_volumes(K: ConvexBody, S, R):
    """|K cap S cap {R y >= 0}|, by the cut of `cone_volume`, and |K cap S|:
    `sections.section_volume` of the flat, or |K| when S is None, the whole
    space. (S, R) is a cone's flat and rows (`sections._cone_flat`), or
    their pull-back by part 2 (`_pulled_back`). On a simplicial polytope
    with up to two rows both read K's cached cones, with no section body.
    Where `_slices_cones` does not hold, one section body L = K cap S serves
    both: its whole-space cut and |L|, the branches the two would each take
    on a section body of their own."""
    if S is None or _slices_cones(K, S):
        return _cut_volume(K, S, R), body_volume(K) if S is None else section_volume(K, S)
    L = section(K, S)
    return (0.0, 0.0) if L is None else (_cut_volume(L, None, S.coords(R)), body_volume(L))


def _pulled_back(K: ConvexBody, F: Subspace, C: PolyhedralCone):
    """(K0, S', R'): part 2's cone section of K in isotropic position, pulled
    back to K. With T and c K's whitening matrix and centroid
    (`volume._isotropic_matrix`), K0 = K - c, built only when K is not
    centred, and F + C = {y in S : R y >= 0} (`sections._cone_flat`),
    T(K - c) cap (F + C) = T(K0 cap S' cap {R T x >= 0}) with S' = T^-1 S,
    and T(K - c) cap S = T(K0 cap S'). Both lie in one flat, so their ratio
    is that of the pulled-back pieces, and no isotropic body is built. R' is
    R T projected onto S', which leaves its values on S' as they are; S' is
    None when S is the whole space, whose cut is K0's halfspaces of the
    rows R T, det T = 1."""
    T, c, _ = _isotropic_matrix(K)
    K0 = K if _centred(K, c) else translate(K, -c)
    S, R = _cone_flat(F, C)
    P = None if S is None else Subspace.from_span(np.linalg.solve(T, S.basis.T).T)
    return K0, P, R @ T if P is None else R @ T @ P.basis.T @ P.basis


def _centroid_guard(K: ConvexBody):
    m = moments(K)
    if not _centred(K, m.centroid):
        raise GeometryError("check requires the centroid at the origin")
    return m


# ---------------------------------------------------------------------------
# halfspaces through the centroid


def check_gruenbaum(K: ConvexBody, U, body_spec: str = "body") -> list[CheckResult]:
    """Every halfspace through the centroid keeps at least (1+1/n)^-n of |K|.

    One result per row u of the direction grid U (one direction counts as a
    grid of one row); their halfspace volumes come from one
    `halfspace_volume` call.
    """
    m = _centroid_guard(K)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return _gruenbaum_results(K.dim, m.volume, U, halfspace_volume(K, U), body_spec)


def _gruenbaum_results(n: int, vol: float, U, halfspace_volumes, body_spec: str) -> list[CheckResult]:
    """The Grünbaum verdicts of the rows u of U, from |K| and each |K cap {<x, u> >= 0}|."""
    return [CheckResult(
        name="centroid-halfspace-lower-bound",
        body_spec=body_spec,
        parameters={"n": n, "u": u.round(12).tolist()},
        lhs=gruenbaum_constant(n) * vol, rhs=float(rhs), slack=1e-9,
        notes="lower bound: halfspace volume on the right",
    ) for u, rhs in zip(U, halfspace_volumes)]


# ---------------------------------------------------------------------------
# the two-sided cone-section theorem


def check_main_theorem_part1(K: ConvexBody, F: Subspace, C: PolyhedralCone,
                             body_spec: str = "body") -> CheckResult:
    """|K cap (F - C)| / |K cap (F + C)| against the explicit constant."""
    _centroid_guard(K)
    return _part1_result(K.dim, F, C, *_opposite_cone_volumes(K, F, C), body_spec)


def _part1_result(n: int, F: Subspace, C: PolyhedralCone, plus: float, minus: float,
                  body_spec: str) -> CheckResult:
    """Part 1's verdict from |K cap (F + C)| and |K cap (F - C)|."""
    k, p = n - F.dim, C.span_dim
    const = part1_constant(n, k, p)
    if plus <= 0:
        raise GeometryError("degenerate cone section: |K cap (F+C)| = 0")
    return CheckResult(
        name="cone-ratio-upper-bound",
        body_spec=body_spec,
        parameters={"n": n, "k": k, "p": p},
        lhs=minus / plus, rhs=const, slack=1e-6,
        notes=f"|K cap (F-C)| = {minus:.6e}, |K cap (F+C)| = {plus:.6e}",
    )


def check_main_theorem_part2(K: ConvexBody, F: Subspace, C: PolyhedralCone,
                             body_spec: str = "body") -> CheckResult:
    """Isotropic K: cone-section fraction within n^p of the ball's fraction.

    The fraction |K_iso cap (F + C)| / |K_iso cap (F + span C)| of K in
    isotropic position is read from K's own cones: the flat and the cone's
    rows are pulled back through the isotropic map (`_pulled_back`), which
    keeps the ratio, and `_cone_and_flat_volumes` cuts K (K - c when K is
    not centred) by them, so no isotropic body is built. With F + span C the
    whole space the cut is one halfspace of K and the flat's volume is |K|.

    Only the n^p branch of the constant is explicit, so only it is asserted;
    the alternative branch, a^(kp) times part 1's constant over k^p, is
    reported with its unspecified factor a symbolic.
    """
    return _part2_result(K.dim, F, C, *_cone_and_flat_volumes(*_pulled_back(K, F, C)), body_spec)


def _part2_result(n: int, F: Subspace, C: PolyhedralCone, plus: float, full: float,
                  body_spec: str) -> CheckResult:
    """Part 2's verdict from the isotropic body's |K cap (F + C)| and |K cap (F + span C)|."""
    k, p = n - F.dim, C.span_dim
    if full <= 0 or plus <= 0:
        raise GeometryError("degenerate cone section")
    k_ratio = plus / full
    ball_ratio = solid_angle_fraction(C)
    alt = part1_constant(n, k, p) / k ** p
    return CheckResult(
        name="isotropic-cone-fraction-sandwich",
        body_spec=body_spec,
        parameters={"n": n, "k": k, "p": p},
        lhs=max(k_ratio / ball_ratio, ball_ratio / k_ratio), rhs=float(n) ** p, slack=1e-6,
        notes=(f"two-sided; K-fraction {k_ratio:.6e}, ball fraction {ball_ratio:.6e}; "
               f"alternative branch a^{{{k * p}}} * {alt:.6e} with a unspecified"),
    )


# ---------------------------------------------------------------------------
# corollaries (explicit parent bound asserted, implied constant reported)


def check_corollary1(K: ConvexBody, F: Subspace, theta,
                     body_spec: str = "body") -> CheckResult:
    """Opposite-ray section ratio |K cap (F + R+ theta)| / |K cap (F - R+ theta)|.

    Corollary 1 is part 1 at p = 1 on the ray -theta, so this is
    `check_main_theorem_part1` on that ray under its own name, with the
    implied constant c against the k^2 envelope reported in the notes.
    """
    res = check_main_theorem_part1(K, F, PolyhedralCone(-np.asarray(theta, dtype=float)[None, :]),
                                   body_spec)
    n, k = res.parameters["n"], res.parameters["k"]
    envelope = k * k * (1.0 + k / (n - k + 1.0)) ** max(n - k - 1, 0)
    return replace(res, name="opposite-ray-ratio-bound", parameters={"n": n, "k": k},
                   notes=f"implied constant c >= {res.lhs / envelope:.6e} against k^2 envelope")


def check_corollary2(K: ConvexBody, u, v, body_spec: str = "body") -> CheckResult:
    """Hyperplane section split by a second direction: ratio bounded both ways.

    theta is the unit part of v orthogonal to u, and F the orthogonal
    complement of span(u, theta), so F + R theta is the hyperplane u^perp
    and +-theta split its section. Corollary 2 is part 1 at p = 1 on the ray
    theta (k = 2), whose ratio l = |K cap (F - theta)| / |K cap (F + theta)|
    it bounds both ways: this is `check_main_theorem_part1` on that ray with
    lhs max(l, 1/l), its verdict recomputed by `CheckResult`, and
    ``parameters["ratio"]`` the split ratio 1/l. v may have any length: it
    is rejected as parallel to u when its part orthogonal to u is within
    1e-9 of |v|.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    theta = v - (v @ u) * u
    nt = np.linalg.norm(theta)
    if not nt > 1e-9 * np.linalg.norm(v):
        raise GeometryError("directions must satisfy v != +-u")
    theta /= nt
    F = Subspace.from_span(np.vstack([u, theta])).complement()
    res = check_main_theorem_part1(K, F, PolyhedralCone(theta[None, :]), body_spec)
    if res.lhs <= 0:
        raise GeometryError("degenerate hyperplane section split")
    lhs = max(res.lhs, 1.0 / res.lhs)
    return replace(res, name="hyperplane-split-two-sided-bound",
                   parameters={"n": K.dim, "ratio": 1.0 / res.lhs}, lhs=lhs, passed=None,
                   notes=f"two-sided; implied constant c >= {lhs:.6e}")


def check_corollary3(K: ConvexBody, E: Subspace, us,
                     body_spec: str = "body") -> CheckResult:
    """Isotropic K: orthant-restricted section keeps a (2n)^-p fraction.

    Only the (2n)^-p branch is explicit; the e^{-ckp} branch's implied c is
    reported.  K must already be in isotropic position: `GeometryError`
    unless the eigenvalues of its second moments about 0 over its volume
    agree to 1e-9 of the largest (a body off its centroid fails too).

    C is the orthant of ``us`` and F = E cap us^perp, so F + span C is E.
    Both volumes come from `_cone_and_flat_volumes`: |K cap (F + C)| is the
    cut of `cone_volume` and |K cap E| is `sections.section_volume` of E.
    """
    m = moments(K)
    w = np.linalg.eigvalsh(m.covariance / m.volume)
    if w[-1] - w[0] > 1e-9 * w[-1]:
        raise GeometryError("corollary 3 requires K in isotropic position (equal second-moment eigenvalues)")
    n = K.dim
    us = np.atleast_2d(np.asarray(us, dtype=float))
    p = len(us)
    k = n - E.dim + p
    for u in us:
        if not E.contains_vector(u, tol=1e-9):
            raise GeometryError("orthant directions must lie in the section subspace")
    C = orthant_cone(us)
    F = Subspace.from_span(np.vstack([E.complement().basis, us])).complement()
    plus, full = _cone_and_flat_volumes(K, *_cone_flat(F, C))
    if full <= 0:
        raise GeometryError("empty section subspace")
    frac = plus / full
    implied_c = -math.log(frac) / (k * p) if frac < 1 else 0.0
    return CheckResult(
        name="isotropic-orthant-fraction-lower-bound",
        body_spec=body_spec,
        parameters={"n": n, "k": k, "p": p},
        lhs=(2.0 * n) ** (-p) * full, rhs=plus, slack=1e-6,
        notes=(f"lower bound: orthant volume on the right; fraction {frac:.6e}; "
               f"exponential branch needs c >= {implied_c:.6e}"),
    )


# ---------------------------------------------------------------------------
# closed-form experiments on the regular simplex and the cube


def experiment_remark1(n: int, l: int) -> CheckResult:
    """Simplex sliced by the span of l vertices: exact halfspace fraction.

    The fraction of the l-dimensional section on the positive side of the
    opposite-face vertex equals (l/(n+1))^l exactly.
    """
    if not 1 <= l <= n - 1:
        raise GeometryError("need 1 <= l <= n-1")
    simplex = make_regular_simplex(n)
    verts = to_vrep(simplex).vertices
    E = Subspace.from_span(verts[:l], ambient_dim=n)
    sec = section(simplex, E)
    f_next = -verts[:l].sum(axis=0) / (n + 1.0 - l)
    total = body_volume(sec)
    positive = halfspace_volume(sec, E.coords(f_next))
    lhs = positive / total
    rhs = (l / (n + 1.0)) ** l
    slack = 1e-6
    return CheckResult(
        name="simplex-span-section-fraction",
        body_spec=f"regular-simplex-{n}",
        parameters={"n": n, "l": l},
        lhs=lhs, rhs=rhs, slack=slack,
        passed=bool(abs(lhs - rhs) <= slack * rhs),
        notes="equality check (two-sided relative)",
    )


def experiment_remark3_cube(n: int) -> CheckResult:
    """Cube meets the cone over n pairwise-orthogonal vertices: n^(n/2)/n!.

    The orthogonal vertex set comes from a Sylvester-Hadamard matrix, so n
    must be a power of two.
    """
    if n & (n - 1) or n < 2:
        raise GeometryError("orthogonal vertex sets exist for n a power of two")
    Hmat = hadamard(n).astype(float)  # rows are pairwise-orthogonal cube vertices
    C = PolyhedralCone(Hmat)
    cube = make_cube(n)
    lhs = cone_volume(cube, trivial_flat(n), C)
    rhs = n ** (n / 2.0) / math.factorial(n)
    slack = 1e-6
    return CheckResult(
        name="cube-orthogonal-vertex-cone-volume",
        body_spec=f"cube-{n}",
        parameters={"n": n},
        lhs=lhs, rhs=rhs, slack=slack,
        passed=bool(abs(lhs - rhs) <= slack * rhs),
        notes="equality check (two-sided relative)",
    )


def experiment_remark2_sharpness(n: int, eps_sequence=None) -> dict:
    """Vertex-cone ratio |K cap C| / |K cap (-C)| as the cone shrinks.

    On the centered regular simplex the ratio approaches n^n as the cone
    around a vertex direction narrows; the table reports the trend, with no
    hard assertion beyond monotonicity checked by the caller. Both signs of
    each cone come from one `_opposite_cone_volumes` call, as in part 1.
    """
    if eps_sequence is None:
        eps_sequence = [0.8, 0.4, 0.2, 0.1, 0.05]
    simplex = make_regular_simplex(n)
    verts = to_vrep(simplex).vertices
    apex = verts[0] / np.linalg.norm(verts[0])
    # spread directions: vertices of a centered regular (n-1)-simplex in apex^perp
    perp = Subspace.hyperplane(apex)
    spread = to_vrep(make_regular_simplex(n - 1)).vertices if n > 1 else np.zeros((1, 0))
    spread = spread / np.linalg.norm(spread, axis=1, keepdims=True)
    rows = []
    F0 = trivial_flat(n)
    for eps in eps_sequence:
        gens = apex[None, :] + eps * (spread @ perp.basis)
        plus, minus = _opposite_cone_volumes(simplex, F0, PolyhedralCone(gens))
        if plus < 1e-12 or minus < 1e-300:
            raise GeometryError("cone too small to resolve")
        rows.append({"eps": float(eps), "ratio": plus / minus})
    return {
        "n": n,
        "target": float(n) ** n,
        "rows": rows,
        "nondecreasing_within_1pct": all(
            rows[i + 1]["ratio"] >= rows[i]["ratio"] * 0.99
            for i in range(len(rows) - 1)),
    }


def experiment_alpha_n(n: int, trials: int, seed: int) -> dict:
    """Smallest scaled orthant fraction over random isotropic polytopes.

    For each trial body (put in isotropic position) and a random orthonormal
    basis, records 2 * (|K cap orthant| / |K|)^(1/n); the minimum observed is
    a numerical stand-in for the best constant in the orthant lower bound.
    """
    gen = _rng.generator(seed)
    values = []
    F0 = trivial_flat(n)
    for t in range(trials):
        K = random_centered_polytope(n, 2 * n + 6, seed=seed + 7919 * t)
        K_iso, _ = isotropic_position(K)
        Q = np.linalg.qr(gen.normal(size=(n, n)))[0]
        C = orthant_cone(Q)
        frac = cone_volume(K_iso, F0, C) / body_volume(K_iso)
        values.append(2.0 * frac ** (1.0 / n))
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "values": values,
        "min_value": float(min(values)),
        "reference_sqrt": 1.0 / math.sqrt(n),
        "reference_linear": 1.0 / n,
    }


# ---------------------------------------------------------------------------
# one-dimensional profile and star-body lemmas, bound to CheckResult


def check_fradelizi(f: ConcaveFunctionOracle | SectionVolumeFunction,
                    body_spec: str = "oracle") -> CheckResult:
    """max f <= (1 + k/(m+1))^m f(0) for barycenter-zero concave profiles.

    The left side is `estimate_max(f)`, and ``parameters["max_route"]``
    names its route (`max_route`): exact for section-volume functions at
    m <= 1, at k = 1, and of balls ("closed-form", "lp",
    "vertex-heights"); an uncertified search ("search") for polytope
    profiles with k >= 2 and m >= 2 and for other oracles, whose left side
    may fall short of max f.

    Raises `GeometryError` on a profile without a finite concavity index or
    whose barycentre is not 0: a section-volume function's is its body's
    centroid projected onto F^perp (`SectionVolumeFunction.barycenter_zero`).
    """
    if f.concavity_index is None:
        raise GeometryError("check requires a finite concavity index")
    if not f.barycenter_zero:
        raise GeometryError("check requires a barycenter-zero oracle")
    return CheckResult(
        name="profile-max-vs-center",
        body_spec=body_spec,
        parameters={"k": f.dim, "m": f.concavity_index, "max_route": max_route(f)},
        lhs=estimate_max(f), rhs=fradelizi_constant(f.dim, f.concavity_index) * f(np.zeros(f.dim)),
        slack=1e-6,
    )


def check_lemma5(L: ConvexBody, body_spec: str = "body") -> CheckResult:
    """-L inside k L for centered convex bodies, checked exactly at vertices."""
    _centroid_guard(L)
    k = L.dim
    if isinstance(L, Ball):
        lhs = 1.0
    else:
        lhs = float(minkowski_norm_many(L, -to_vrep(L).vertices).max())
    return CheckResult(
        name="reflection-inclusion-factor",
        body_spec=body_spec,
        parameters={"k": k},
        lhs=lhs, rhs=float(k), slack=1e-9,
    )


def check_lemma6(f: ConcaveFunctionOracle | SectionVolumeFunction, p: float,
                 num_dirs: int = 64, seed: int = 5, body_spec: str = "oracle") -> CheckResult:
    """Backward radius of the moment body against the explicit factor."""
    if f.concavity_index is None:
        raise GeometryError("check requires a finite concavity index")
    L = ball_body(f, p)
    factor = negative_ray_factor(f.dim, f.concavity_index, p)
    dirs = _rng.sphere_grid(f.dim, num_dirs, seed)
    r_plus, r_minus = L.radial_many(dirs), L.radial_many(-dirs)
    seen = r_plus > 0
    return CheckResult(
        name="moment-body-backward-radius-bound",
        body_spec=body_spec,
        parameters={"k": f.dim, "m": f.concavity_index, "p": p},
        lhs=float(np.max(r_minus[seen] / r_plus[seen], initial=0.0)), rhs=factor, slack=1e-6,
    )


def check_lemma7(L: ConvexBody, u, body_spec: str = "body") -> CheckResult:
    """Support-height sandwich for the directional second moment (exact).

    ``parameters["u"]`` records the unit direction, as `check_gruenbaum`
    records its own.
    """
    k = L.dim
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    m = moments(L)
    second = float(u @ m.covariance @ u) / m.volume
    h = support(L, u)
    lower = h * h / (k * (k + 2.0))
    upper = (k / (k + 2.0)) * h * h
    lhs = max(lower / second, second / upper) if second > 0 else math.inf
    return CheckResult(
        name="second-moment-support-sandwich",
        body_spec=body_spec,
        parameters={"k": k, "u": u.round(12).tolist(), "second_moment": second, "support": h},
        lhs=lhs, rhs=1.0, slack=1e-9,
        notes="two-sided; lhs is the worst violation factor of either side",
    )


def check_prop8(L: ConvexBody, body_spec: str = "body") -> CheckResult:
    """Ball sandwich from second moments: beta B <= L <= r k beta B (exact).

    The radii of the balls about 0 inside and around L are read from its
    vertices and facets (the radius for a ball), so L must have its
    centroid at 0 (`GeometryError` otherwise), as the proposition assumes.
    """
    k = L.dim
    m = _centroid_guard(L)
    w = np.linalg.eigvalsh(m.covariance / m.volume)
    gamma_min, gamma_max = float(w[0]), float(w[-1])
    r = math.sqrt(gamma_max / gamma_min)
    beta_L = math.sqrt(gamma_min * (k + 2.0) / k)
    if isinstance(L, Ball):
        inner = outer = L.radius
    else:
        V = to_vrep(L)
        outer = float(np.max(np.linalg.norm(V.vertices, axis=1)))
        H = to_hrep(L)
        inner = float(np.min(H.b / np.linalg.norm(H.A, axis=1)))
    return CheckResult(
        name="second-moment-ball-sandwich",
        body_spec=body_spec,
        parameters={"k": k, "beta": beta_L, "r": r},
        lhs=max(beta_L / inner, outer / (r * k * beta_L)), rhs=1.0, slack=1e-7,
        notes="two-sided; lhs is the worst violation factor of either side",
    )


def report_prop9(f: ConcaveFunctionOracle | SectionVolumeFunction, num_dirs: int = 256,
                 seed: int = 11, body_spec: str = "oracle") -> CheckResult:
    """Distance of the (k+1)-moment body from the ball: report-only.

    The bound r a^k contains an unspecified absolute constant a, so no
    pass/fail; the implied a from a sampled distance lower bound is recorded.
    r is read from the moments of `StarBodyOracle.polytope_approx` at its
    default size. The seed applies to that polytope only at k >= 3: at k = 2
    its radii sit at evenly spaced angles (equal angles give the clean
    N^-2 deficit law), and at k = 1 at +-1. The distance bound's sample
    reads the seed at every k.
    """
    k = f.dim
    L = ball_body(f, k + 1.0)
    ball = StarBodyOracle(k, lambda thetas: np.ones(len(thetas)))
    dist_lb = geometric_distance_lb(L, ball, num_dirs=num_dirs, seed=seed)
    m = moments(L.polytope_approx(seed=seed))
    w = np.linalg.eigvalsh(m.covariance / m.volume)
    r = math.sqrt(float(w[-1]) / float(w[0]))
    implied_a = (dist_lb / r) ** (1.0 / k) if dist_lb > r else 0.0
    return CheckResult(
        name="moment-body-ball-distance-report",
        body_spec=body_spec,
        parameters={"k": k, "distance_lb": dist_lb, "r": r},
        lhs=dist_lb, rhs=dist_lb, slack=0.0,
        notes=f"report-only: implied a >= {implied_a:.6e}",
    )


# ---------------------------------------------------------------------------
# corpus runner


def load_corpus(path: str | None = None) -> list[dict]:
    """Body specs from a JSON manifest: the file at path, or the packaged default."""
    import json
    from importlib import resources
    from pathlib import Path

    text = (resources.files("conesec").joinpath("data/corpus.json") if path is None else Path(path)).read_text()
    return _field(json.loads(text), "bodies", "corpus manifest")


@functools.cache
def _battery(n: int):
    """The battery's inputs that depend on the dimension n alone, built once
    per process (n <= `geometry.MAX_DIM`, so at most that many entries): the
    Grünbaum direction grid, the lemma-7 directions and the part-1 (F, C)
    configurations, the first of which part 2 takes too. The grids are
    read-only, as are the flats' bases and the rows each cone keeps
    (`sections._cone_flat`), so no body can change what the next one reads.
    """
    grids = _rng.sphere_grid(n, 3, seed=17), _rng.sphere_grid(n, 2, seed=31)
    for grid in grids:
        grid.setflags(write=False)
    basis = np.eye(n)
    configs = [(Subspace.from_span(basis[: n - 1], ambient_dim=n), PolyhedralCone(basis[-1:]))]
    if n >= 3:
        F2 = Subspace.from_span(basis[: n - 2], ambient_dim=n)
        configs += [(F2, PolyhedralCone(basis[-1:])), (F2, orthant_cone(basis[n - 2:]))]
    return (*grids, tuple(configs))


def checks_for_body(spec: dict) -> list[CheckResult]:
    """The standard check battery for one corpus body.

    Its direction grids, flats and cones come from `_battery(n)`, shared by
    every body of dimension n; each cone keeps its flat, so only the first
    body of a dimension builds them. The records do not depend on which
    bodies ran before.

    Every cut of K in the whole space is one `sections._cut_volume` call, one
    pass of a polytope's cones (`volume.wedge_moment`): the Grünbaum grid's
    halfspaces, part 1's orthant pair [R, -R] (n >= 3) and part 2's
    pulled-back row (n <= 4, `_pulled_back`; the first configuration's
    flat is the whole space and K is centred, so it is one halfspace of K
    and the flat's volume is |K|). Part 1's first configuration, the rays
    +-e_n, reads the grid's rows +-e_n (`rng.sphere_grid` starts with
    +-e_1, ..., +-e_n). The checks keep their judges (`_gruenbaum_results`,
    `_part1_result`, `_part2_result`), so the records are those of the
    public checks.
    """
    from .geometry import body_from_spec

    K = body_from_spec(spec)
    label = spec.get("label", spec["type"])
    n = K.dim
    grid, lemma7_dirs, configs = _battery(n)
    m = _centroid_guard(K)
    wedges = [*grid[:, None, :]]
    if n >= 3:
        R = _cone_flat(*configs[2])[1]
        wedges += [R, -R]
    if n <= 4:
        wedges.append(_pulled_back(K, *configs[0])[2])
    cut = _cut_volume(K, None, wedges).tolist()
    results = _gruenbaum_results(n, m.volume, grid, cut[:len(grid)], label)
    results += [check_lemma5(K, label), check_prop8(K, label)]
    results += [check_lemma7(K, u, label) for u in lemma7_dirs]
    results.append(_part1_result(n, *configs[0], cut[n - 1], cut[2 * n - 1], label))
    if n >= 3:
        results.append(_part1_result(n, *configs[1], *_opposite_cone_volumes(K, *configs[1]), label))
        results.append(_part1_result(n, *configs[2], *cut[len(grid):len(grid) + 2], label))
    if n <= 4:
        results.append(_part2_result(n, *configs[0], cut[-1], body_volume(K), label))
    return results


def run_corpus(specs: list[dict] | None = None) -> list[CheckResult]:
    """Run the standard battery over the corpus, in this process, sorted by
    check name and body.

    The sort is stable, so the records of one check on one body keep the
    battery's order; no measured value orders them, so a change in the last
    bits of a value cannot reorder the records.
    """
    if specs is None:
        specs = load_corpus()
    results = [r for s in specs for r in checks_for_body(s)]
    results.sort(key=lambda r: (r.name, r.body_spec))
    return results

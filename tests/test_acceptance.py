"""Acceptance gate: one test per criterion, one pass/fail line each.

Every criterion is asserted at its stated tolerance; report-only quantities
(unspecified absolute constants) are tabulated, with only their structural
properties asserted.
"""

import math

import numpy as np
import pytest
from scipy.special import beta, binom

from conesec import rng as _rng
from conesec.ball_bodies import (
    I_p,
    ball_indicator_oracle,
    berwald_inclusion_constants,
    moment_identity_check,
    oracle_from_section_fn,
)
from conesec.geometry import (
    PolyhedralCone,
    Subspace,
    make_centered_cone,
    make_cube,
    make_regular_simplex,
    orthant_cone,
    random_centered_polytope,
)
from conesec.intersection_bodies import ci_inclusion_report
from conesec.sections import (
    cone_section_volume_polyhedral,
    cone_section_volume_radial,
    section_volume_fn,
)
from conesec.verify import (
    check_fradelizi,
    check_gruenbaum,
    check_lemma5,
    check_lemma7,
    check_main_theorem_part1,
    check_main_theorem_part2,
    check_prop8,
    experiment_alpha_n,
    experiment_remark1,
    experiment_remark2_sharpness,
    experiment_remark3_cube,
    gruenbaum_constant,
    halfspace_volume,
    load_corpus,
    part1_constant,
)
from conesec.volume import (
    isotropic_position,
    moments,
    monte_carlo_volume,
    volume,
)


def random_body(n, seed):
    return random_centered_polytope(n, 2 * n + 6, seed)


def report(num, passed, detail):
    line = f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def part1_grid_cases(n):
    """(F, C) configurations for every k = 1..n, p = 1..min(k, 2)."""
    basis = np.eye(n)
    for k in range(1, n + 1):
        F = (Subspace(n, np.zeros((0, n))) if k == n
             else Subspace.from_span(basis[: n - k], ambient_dim=n))
        # p = 1: the ray cone
        yield k, 1, F, PolyhedralCone(basis[-1:])
        if k >= 2:
            # p = 2: orthant and (non-right-angled) simplicial cones
            yield k, 2, F, orthant_cone(basis[n - 2:])
            g2 = basis[-2] + 0.5 * basis[-1]
            yield k, 2, F, PolyhedralCone(np.vstack([g2, basis[-1]]))


def test_criterion_01_simplex_span_section_fractions():
    worst = 0.0
    count = 0
    for n in (3, 4, 5, 6):
        for l in range(1, n):
            res = experiment_remark1(n, l)
            worst = max(worst, abs(res.lhs - res.rhs) / res.rhs)
            count += 1
    report(1, worst <= 1e-6,
           f"{count} (n,l) pairs, worst relative deviation {worst:.2e}")


def test_criterion_02_cube_orthogonal_vertex_cones():
    worst = 0.0
    for n in (2, 4, 8):
        res = experiment_remark3_cube(n)
        worst = max(worst, abs(res.lhs - res.rhs) / res.rhs)
    report(2, worst <= 1e-6,
           f"n in {{2,4,8}}, worst relative deviation {worst:.2e}")


def test_criterion_03_centroid_halfspace_bound():
    # equality on cones
    worst_eq = 0.0
    for n in (2, 3, 4):
        K = make_centered_cone(n)
        u = np.zeros(n)
        u[-1] = 1.0
        frac = halfspace_volume(K, u) / moments(K).volume
        worst_eq = max(worst_eq, abs(frac - gruenbaum_constant(n).value))
    # inequality on 200 seeded random bodies, 20 directions each
    violations = 0
    total = 0
    for i in range(200):
        n = 2 + i % 4  # dimensions 2..5, 50 bodies each
        K = random_body(n, 1000 + i)
        bound = gruenbaum_constant(n).value * moments(K).volume
        for u in _rng.sample_sphere(n, 20, seed=i):
            total += 1
            if halfspace_volume(K, u) < bound * (1 - 1e-9):
                violations += 1
    report(3, worst_eq <= 1e-9 and violations == 0,
           f"cone equality gap {worst_eq:.2e}; "
           f"{violations}/{total} violations on random bodies")


def test_criterion_04_beta_identity():
    worst = max(
        abs(p * beta(p, q + 1) * binom(p + q, p) - 1.0)
        for p in range(1, 11) for q in range(1, 11))
    report(4, worst <= 1e-12, f"p,q <= 10, worst deviation {worst:.2e}")


def test_criterion_05_cone_ratio_bound_grid():
    violations = 0
    total = 0
    worst_margin = 0.0
    per_dim = {3: 13, 4: 13, 5: 12, 6: 12}  # 50 bodies
    for n, count in per_dim.items():
        for i in range(count):
            K = random_body(n, 2000 + 100 * n + i)
            for k, p, F, C in part1_grid_cases(n):
                res = check_main_theorem_part1(K, F, C, f"random-{n}-{i}")
                total += 1
                worst_margin = max(worst_margin, res.lhs / res.rhs)
                if not res.passed:
                    violations += 1
    report(5, violations == 0,
           f"{total} cases over 50 bodies, n in 3..6, k <= n, p <= min(k,2); "
           f"{violations} violations, worst lhs/rhs {worst_margin:.4f}")


def test_criterion_06_isotropic_cone_fraction_sandwich():
    violations = 0
    total = 0
    bodies = []
    for n in (2, 3, 4, 5):
        bodies.append((f"simplex-{n}", make_regular_simplex(n)))
        bodies.append((f"cube-{n}", make_cube(n)))
        bodies.append((f"random-{n}", random_body(n, 31 + n)))
    for label, K in bodies:
        n = K.dim
        basis = np.eye(n)
        configs = [(Subspace.from_span(basis[: n - 1], ambient_dim=n),
                    PolyhedralCone(basis[-1:]))]
        if n >= 3:
            F2 = Subspace.from_span(basis[: n - 2], ambient_dim=n)
            configs.append((F2, orthant_cone(basis[n - 2:])))
        for F, C in configs:
            res = check_main_theorem_part2(K, F, C, label)
            total += 1
            if not res.passed:
                violations += 1
    report(6, violations == 0,
           f"{total} isotropic sandwich cases over {len(bodies)} bodies, "
           f"{violations} violations")


def test_criterion_07_moment_identity():
    cases = []
    # section-volume profiles of random centered polytopes, k = 1..3
    for k, n, seed in ((1, 3, 7), (2, 3, 8), (3, 4, 9)):
        K = random_body(n, seed)
        F = Subspace.from_span(np.eye(n)[: n - k], ambient_dim=n)
        cases.append((f"section-k{k}", oracle_from_section_fn(section_volume_fn(K, F))))
    for k in (1, 2, 3):
        cases.append((f"indicator-k{k}", ball_indicator_oracle(k)))
    worst = 0.0
    checked = 0
    for label, f in cases:
        u = np.ones(f.dim) / math.sqrt(f.dim)
        mass = None
        for p in (0, 1, 2):
            lhs, rhs = moment_identity_check(f, u, p)
            checked += 1
            if p == 0:
                mass = rhs
            # odd moments of near-even profiles sit at ~0; compare those on
            # the profile's natural scale (mass x support-radius^p) instead
            natural = mass * f.support_radius**p
            if max(abs(lhs), abs(rhs)) < 1e-4 * natural:
                worst = max(worst, abs(lhs - rhs) / natural)
            else:
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(7, worst <= 1e-4,
           f"{checked} (profile, p) pairs, worst relative gap {worst:.2e}")


def test_criterion_08_star_body_property_suites():
    failures = 0
    total = 0
    for spec in load_corpus():
        from conesec.geometry import body_from_spec

        K = body_from_spec(spec)
        label = spec["label"]
        results = [check_lemma5(K, label), check_prop8(K, label)]
        for u in _rng.sphere_grid(K.dim, 2, seed=31):
            results.append(check_lemma7(K, u, label))
        total += len(results)
        failures += sum(not r.passed for r in results)
    report(8, failures == 0,
           f"{total} reflection/sandwich checks over the 75-body corpus, "
           f"{failures} failures")


def test_criterion_09_profile_inclusion_chain():
    failures = 0
    total = 0
    worst = 0.0
    oracles = []
    for k, n, seed in ((1, 3, 11), (1, 4, 12), (2, 3, 13), (2, 4, 14)):
        K = random_body(n, seed)
        F = Subspace.from_span(np.eye(n)[: n - k], ambient_dim=n)
        oracles.append(oracle_from_section_fn(section_volume_fn(K, F)))
    for f in oracles:
        # center-vs-max bound for barycenter-zero concave profiles
        res = check_fradelizi(f)
        total += 1
        failures += not res.passed
        # two-sided inclusion-constant chain on sampled directions; the
        # Fradelizi check's left side is estimate_max(f) at the same seed
        f0 = f(np.zeros(f.dim))
        fmax = res.lhs
        m = f.concavity_index
        dirs = _rng.sphere_grid(f.dim, 8, seed=3)
        for p, q in ((1.0, 2.0), (2.0, 3.0), (1.0, 3.0)):
            lo, hi = berwald_inclusion_constants(p, q, m)
            for th in dirs:
                rp = I_p(f, th, p)
                rq = I_p(f, th, q)
                lower = lo * f0 ** (1 / p - 1 / q) * rq
                upper = hi * fmax ** (1 / p - 1 / q) * rq
                total += 1
                ok = (lower <= rp * (1 + 1e-6)) and (rp <= upper * (1 + 1e-6))
                if not ok:
                    failures += 1
                worst = max(worst, lower / rp, rp / upper)
    report(9, failures == 0,
           f"{total} chain/center-max checks over {len(oracles)} profiles, "
           f"{failures} failures, worst factor {worst:.6f}")


def test_criterion_10_convexified_section_inclusion():
    failures = []
    for n in (3, 4):
        for label, K in ((f"simplex-{n}", make_regular_simplex(n)),
                         (f"cube-{n}", make_cube(n)),
                         (f"random-{n}", random_body(n, 41 + n))):
            rep = ci_inclusion_report(K, num_dirs=50, seed=7)
            s = rep["summary"]
            if len(rep["records"]) < 50:
                failures.append(f"{label}: fewer than 50 directions")
            if s["num_uncertified"]:
                failures.append(f"{label}: {s['num_uncertified']} uncertified")
            if not s["upper_inclusion_holds"]:
                failures.append(f"{label}: inclusion violated")
            if label.startswith("cube"):
                if abs(s["min_ratio"] - 1.0) > 1e-6 or abs(s["max_ratio"] - 1.0) > 1e-6:
                    failures.append(f"{label}: symmetric equality violated")
                zmax = max(np.linalg.norm(r["minimizer_z"]) for r in rep["records"])
                if zmax > 1e-6:
                    failures.append(f"{label}: symmetric minimizer off zero ({zmax:.1e})")
    report(10, not failures,
           "6 bodies x 50+ seeded directions, all certified, inclusion and "
           "symmetric equality hold" if not failures else "; ".join(failures))


def test_criterion_11_cross_route_consistency():
    # 20-case radial-vs-polyhedral subsample of the part-1 grid
    worst = 0.0
    cases = 0
    for n in (3, 4):
        for i in (0, 1):
            K = random_body(n, 5000 + 10 * n + i)
            basis = np.eye(n)
            configs = [
                (Subspace.from_span(basis[: n - 1], ambient_dim=n),
                 PolyhedralCone(basis[-1:])),
                (Subspace.from_span(basis[: n - 1], ambient_dim=n),
                 PolyhedralCone(-basis[-1:])),
                (Subspace.from_span(basis[: n - 2], ambient_dim=n),
                 orthant_cone(basis[n - 2:])),
                (Subspace.from_span(basis[: n - 2], ambient_dim=n),
                 PolyhedralCone(np.vstack([basis[-2] + 0.4 * basis[-1],
                                           basis[-1]]))),
                (Subspace.from_span(basis[: n - 2], ambient_dim=n),
                 orthant_cone(-basis[n - 2:])),
            ]
            for F, C in configs:
                a = cone_section_volume_polyhedral(K, F, C)
                b = cone_section_volume_radial(K, F, C)
                worst = max(worst, abs(a - b) / a)
                cases += 1
    # Monte Carlo volumes within 3 sigma on 100 seeded trials
    mc_bad = 0
    for t in range(100):
        n = 2 + t % 3
        K = random_body(n, 7000 + t)
        est, err = monte_carlo_volume(K, 20_000, seed=t)
        if abs(est - volume(K)) > 3.0 * err:
            mc_bad += 1
    report(11, worst <= 1e-3 and mc_bad == 0,
           f"{cases} route pairs, worst relative gap {worst:.2e}; "
           f"{mc_bad}/100 Monte Carlo trials outside 3 sigma")


def test_criterion_12_report_only_tabulations():
    problems = []
    for n in (2, 3):
        table = experiment_remark2_sharpness(n)
        if not table["nondecreasing_within_1pct"]:
            problems.append(f"sharpness table n={n} not monotone within 1%")
        if not all(r["ratio"] <= table["target"] * 1.01 for r in table["rows"]):
            problems.append(f"sharpness table n={n} exceeds its limit value")
    alpha = experiment_alpha_n(3, trials=5, seed=2)
    if not (len(alpha["values"]) == 5 and 0 < alpha["min_value"] <= 2.0):
        problems.append("orthant-fraction table malformed")
    report(12, not problems,
           "shrinking-cone tables monotone toward n^n; orthant-fraction table "
           "produced" if not problems else "; ".join(problems))

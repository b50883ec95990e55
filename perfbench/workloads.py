"""The benchmark's workloads: seeded inputs, op lists and correctness gates.

An op is one top-level call into conesec's public API. Each builder takes
the workload seed and a scale; `scale=1.0` sizes the op list to about 15-18 s
on a 2-core Xeon sandbox at the commit that defined the benchmark. The same
(seed, scale) always gives the same inputs.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from conesec import ball_bodies, sections, verify
from conesec import rng as _rng
from conesec.ball_bodies import (
    ball_body,
    ball_indicator_oracle,
    berwald_inclusion_constants,
    estimate_max,
    oracle_from_section_fn,
)
from conesec.geometry import PolyhedralCone, Subspace, orthant_cone, random_centered_polytope
from conesec.sections import cone_section_volume_polyhedral, section_volume_fn
from conesec.verify import load_corpus


@dataclass
class Op:
    """One public call; `group` labels its op class, `meta` feeds its gate."""

    group: str
    call: Callable[[], object]
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Callable[[], object]]
    # per-op verdicts from all outputs (None where the op raised)
    judge: Callable[[list[Op], list], list[bool]]
    # plain numbers of one output, compared between traced and untraced runs
    digest: Callable[[object], object]
    # extra figures for the details line, from all outputs
    report: Callable[[list], dict] = lambda outputs: {}


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    """`count` body or grid seeds drawn from the workload seed."""
    return [int(s) for s in np.random.default_rng([seed, stream]).integers(1, 2**31, count)]


def _random_body(n: int, seed: int):
    # the acceptance criteria's random bodies: hull of 2n+6 ball points
    return random_centered_polytope(n, 2 * n + 6, seed)


def _public(module, name: str, *args) -> Callable[[], object]:
    """A call of `module.name(*args)` that looks the function up when it runs.

    A traced run replaces the function in its module; an op bound to the
    original function object would bypass the wrapper.
    """
    return lambda: getattr(module, name)(*args)


def _shuffled(ops: list, seed: int) -> list:
    """The ops in a seeded order.

    Mixing the op classes over the whole run makes each class's latencies
    sample the machine throughout the run, not during one stretch of it.
    """
    return [ops[i] for i in np.random.default_rng([seed, 99]).permutation(len(ops))]


def _flat(n: int, dim: int) -> Subspace:
    return Subspace.from_span(np.eye(n)[:dim], ambient_dim=n)


def _off_grid(k: int) -> np.ndarray:
    """A fixed unit direction that no seeded sphere grid contains."""
    v = np.arange(1.0, k + 1.0)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# corpus: the `conesec corpus` battery, one op per manifest body

# checks_for_body's battery size by dimension; the full 75-body manifest
# (15 bodies per dimension) gives 1965 checks
_BATTERY = {2: 17, 3: 23, 4: 27, 5: 30, 6: 34}


# random bodies kept per dimension at scale 1.0; the registered run is scale
# 1.4, with four 4-D and three 6-D bodies. The median op then falls among
# 3-D, 4-D and 5-D bodies of like cost and the tail op inside the ten random
# 5-D bodies, not between two dissimilar bodies whose order would decide it.
_CORPUS_RANDOM = {2: 10, 3: 10, 4: 3, 5: 10, 6: 2}


def corpus(seed: int, scale: float) -> Workload:
    """The structured bodies and the first random bodies of each dimension.

    The manifest fixes its own body seeds, and `seed` is not used. The ops
    run in one fixed mixed order: `peak_rss_mb` depends on the order by up
    to 15%, so a seeded order would make it spread. The whole manifest takes
    about 48 s, more than one run measures. From scale 5 on, the op list is
    the whole manifest (1965 checks).
    """
    specs = []
    taken: Counter = Counter()
    for spec in load_corpus():
        if spec["type"] == "random":
            n = spec["n"]
            taken[n] += 1
            if taken[n] > min(10, max(1, round(_CORPUS_RANDOM[n] * scale))):
                continue
        specs.append(spec)
    ops = _shuffled([Op(f"d{s['n']}", _public(verify, "checks_for_body", s), {"n": s["n"]})
                     for s in specs], 0)

    def judge(ops, outputs):
        return [out is not None and len(out) == _BATTERY[op.meta["n"]]
                and all(r.passed for r in out) for op, out in zip(ops, outputs)]

    def digest(results):
        return [(r.name, r.body_spec, r.passed, r.lhs, r.rhs) for r in results]

    def report(outputs):
        return {"checks": sum(len(out) for out in outputs if out is not None)}

    return Workload("corpus", ops, [_public(verify, "checks_for_body", specs[0])], judge, digest,
                    report)


# ---------------------------------------------------------------------------
# radial: cone-section volumes by ray quadrature


def _criterion11_configs(n: int):
    """Criterion 11's five (F, C) set-ups."""
    e = np.eye(n)
    return [
        (_flat(n, n - 1), PolyhedralCone(e[-1:])),
        (_flat(n, n - 1), PolyhedralCone(-e[-1:])),
        (_flat(n, n - 2), orthant_cone(e[n - 2:])),
        (_flat(n, n - 2), PolyhedralCone(np.vstack([e[-2] + 0.4 * e[-1], e[-1]]))),
        (_flat(n, n - 2), orthant_cone(-e[n - 2:])),
    ]


def radial(seed: int, scale: float) -> Workload:
    """Criterion 11's set-ups on seeded 3-D bodies and two 4-D ray cones.

    The 4-D ray cones (m = 3) are criterion 11's, on its body of seed 5041,
    and do not change with the seed: one such query takes 0.7-4.5 s
    depending on the body's orientation, too few fit in a run to average
    that out. 4-D queries with 2-D cones take 7-43 s each and are left out.
    """
    cases = []
    for i, s in enumerate(_seeds(seed, 1, max(1, round(30 * scale)))):
        K = _random_body(3, s)
        # the two m = 2 set-ups on every other body only: the median op then
        # falls well inside the slower m = 1 queries, not at their border
        cases += [(K, F, C) for F, C in _criterion11_configs(3) if i % 2 == 0 or F.dim == 1]
    K, e4 = _random_body(4, 5041), np.eye(4)
    cases += [(K, _flat(4, 3), PolyhedralCone(e4[-1:])), (K, _flat(4, 3), PolyhedralCone(-e4[-1:]))]
    ops = _shuffled([Op(f"n{K.dim}.m{F.dim}", _public(sections, "cone_section_volume_radial", K, F, C),
                        {"ref": cone_section_volume_polyhedral(K, F, C)}) for K, F, C in cases], seed)
    warm_F, warm_C = _criterion11_configs(3)[2]
    warmup = [_public(sections, "cone_section_volume_radial",
                      _random_body(3, _seeds(seed, 3, 1)[0]), warm_F, warm_C)]

    def judge(ops, outputs):
        return [out is not None and abs(out - op.meta["ref"]) <= 1e-3 * op.meta["ref"]
                for op, out in zip(ops, outputs)]

    return Workload("radial", ops, warmup, judge, float)


# ---------------------------------------------------------------------------
# moment_body: radii of L_p(f) over dense direction grids, then the identity

_BLOCK = 32  # directions per moment_body op
_DEGREES = (1.0, 2.0, 3.0)


def _radii(f, thetas: np.ndarray) -> np.ndarray:
    """Radii of L_1(f), L_2(f), L_3(f) on a block of directions, one row per p."""
    return np.array([ball_body(f, p).radial_many(thetas) for p in _DEGREES])


def _berwald_chain(radii: np.ndarray, f0: float, fmax: float, m: float) -> bool:
    """Criterion 9's two-sided inclusion chain on every (p, q) radius pair."""
    for i, p in enumerate(_DEGREES):
        for j in range(i + 1, len(_DEGREES)):
            q = _DEGREES[j]
            lo, hi = berwald_inclusion_constants(p, q, m)
            rp, rq = radii[i], radii[j]
            if not (np.all(lo * f0 ** (1 / p - 1 / q) * rq <= rp * (1 + 1e-6))
                    and np.all(rp <= hi * fmax ** (1 / p - 1 / q) * rq * (1 + 1e-6))):
                return False
    return True


def moment_body(seed: int, scale: float) -> Workload:
    """Radii of L_p(f), p = 1, 2, 3, over seeded direction grids.

    The profiles are criterion 7's chord profiles (k = 2 of a 3-D body, k = 3
    of a 4-D body) and the ball indicators of R^2 and R^3. An op is the
    radii at the three degrees on one block of directions (three
    `radial_many` calls); no (profile, p, direction) repeats. The profiles
    stay fixed across seeds: a profile's ray cost depends on its body, and a
    run holds too few bodies to average that out. Chord radii are gated by
    criterion 9's Berwald chain, indicator radii by their closed form, and
    the closing moment identity by criterion 7's rule.
    """
    profiles = []
    for k, n, body_seed, num_dirs in ((2, 3, 8, 1600), (3, 4, 9, 5000)):
        f = oracle_from_section_fn(section_volume_fn(_random_body(n, body_seed), _flat(n, n - k)))
        ref = {"f0": f(np.zeros(k)), "fmax": estimate_max(f), "m": f.concavity_index}
        profiles.append((f"chord.k{k}", f, num_dirs, ref))
    for k in (2, 3):
        profiles.append((f"indicator.k{k}", ball_indicator_oracle(k), 80, {}))
    ops: list[Op] = []
    warmup = []
    for (group, f, num_dirs, ref), gs in zip(profiles, _seeds(seed, 11, 4)):
        warmup.append(functools.partial(_radii, f, _off_grid(f.dim)[None, :]))
        dirs = _rng.sphere_grid(f.dim, max(1, round(num_dirs * scale)), gs)
        ops += [Op(group, functools.partial(_radii, f, dirs[b:b + _BLOCK]), ref)
                for b in range(0, len(dirs), _BLOCK)]
    ops = _shuffled(ops, seed)
    f = ball_indicator_oracle(2)
    u = _rng.sample_sphere(2, 1, _seeds(seed, 12, 1)[0])[0]
    for p in (0, 1, 2):
        ops.append(Op("identity", _public(ball_bodies, "moment_identity_check", f, u, p),
                      {"p": p, "R": f.support_radius}))
    exact = np.array([p ** (-1.0 / p) for p in _DEGREES])[:, None]

    def judge(ops, outputs):
        ok = []
        mass = next((out[1] for op, out in zip(ops, outputs)
                     if op.group == "identity" and op.meta["p"] == 0 and out is not None), None)
        for op, out in zip(ops, outputs):
            if out is None:
                ok.append(False)
            elif op.group.startswith("chord"):
                ok.append(_berwald_chain(out, op.meta["f0"], op.meta["fmax"], op.meta["m"]))
            elif op.group.startswith("indicator"):
                ok.append(bool(np.all(np.abs(out - exact) <= 1e-9 * out)))
            elif mass is None:
                ok.append(False)
            else:
                lhs, rhs = out
                # odd moments of near-even profiles sit at ~0: compare those on
                # the profile's natural scale, as criterion 7 does
                natural = mass * op.meta["R"] ** op.meta["p"]
                ref = natural if max(abs(lhs), abs(rhs)) < 1e-4 * natural else abs(rhs)
                ok.append(abs(lhs - rhs) <= 1e-4 * ref)
        return ok

    def digest(out):
        return np.asarray(out).tolist()

    return Workload("moment_body", ops, warmup, judge, digest)


WORKLOADS = {"corpus": corpus, "radial": radial, "moment_body": moment_body}

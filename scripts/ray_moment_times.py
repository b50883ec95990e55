#!/usr/bin/env python3
"""Per-call times of the m = 1 ray moments (chord profiles) of several checkouts.

Usage:

    python3 scripts/ray_moment_times.py CHECKOUT [CHECKOUT ...] [--repeat 5] [--rounds 3]

For each checkout, a child process imports conesec from CHECKOUT/src, with
one BLAS thread, and times `SectionVolumeFunction.ray_moments` at F = span(e1)
on five profiles:

- `moment_body.k2`, `moment_body.k3`: the `moment_body` workload's chord
  profiles (`random_centered_polytope(3, 12, 8)` and `(4, 14, 9)`), on 32
  seeded directions, its block of directions per op;
- `radial.k2`: a 3-D body of the `radial` workload (seed 1's first body) on
  130 directions of the quarter arc, about one call of its arc rule;
- `ridges.n6`, `ridges.n8`: the many-ridge bodies
  `random_centered_polytope(6, 30, 4)` and `(8, 22, 1)` on 2000 seeded
  directions, which span several blocks of the chord kernel.

`first_ms` is a call at p = 1 on directions other than the last call's;
`memo_p2_ms` and `memo_p3_ms` a call at p = 2 and at p = 3 on the
directions of the call before it at p = 1, which a call of one block
answers from its kept profile. Each is the best
of `--repeat` runs in one child, after one untimed warm-up call, and then
the best over `--rounds` rounds; a round runs one child per checkout, in
the order given, so a drift in the machine's speed reaches every checkout
alike. The chord data of each (K, F) is built before the timing. Prints one
JSON object: per checkout, per profile, the direction count and the three
times in milliseconds.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path


def _profiles():
    """(name, f, directions A, directions B) per timed profile."""
    import numpy as np

    from conesec import rng
    from conesec.geometry import Subspace, random_centered_polytope
    from conesec.sections import section_volume_fn

    def fn(n, points, seed):
        return section_volume_fn(random_centered_polytope(n, points, seed), Subspace.from_span(np.eye(n)[:1]))

    radial_seed = int(np.random.default_rng([1, 1]).integers(1, 2**31, 1)[0])
    phis = np.linspace(0.0, np.pi / 2, 130)
    arc = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    out = []
    for name, f, count in (("moment_body.k2", fn(3, 12, 8), 32), ("moment_body.k3", fn(4, 14, 9), 32),
                           ("radial.k2", fn(3, 12, radial_seed), None), ("ridges.n6", fn(6, 30, 4), 2000),
                           ("ridges.n8", fn(8, 22, 1), 2000)):
        if count is None:
            out.append((name, f, arc, arc[::-1].copy()))
        else:
            out.append((name, f, rng.sample_sphere(f.k, count, 1), rng.sample_sphere(f.k, count, 2)))
    return out


def _best(call, repeat: int, before=lambda: None) -> float:
    times = []
    for _ in range(repeat):
        before()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def child(repeat: int) -> dict:
    """The times of the conesec on sys.path, as {profile: {...}}."""
    result = {}
    for name, f, A, B in _profiles():
        f.ray_moments(A, 1.0)  # warm-up; builds the chord data
        state = {"last": A}

        def first():
            state["last"] = B if state["last"] is A else A
            f.ray_moments(state["last"], 1.0)

        result[name] = {"directions": len(A), "first_ms": _best(first, repeat)}
        for p in (2, 3):
            result[name][f"memo_p{p}_ms"] = _best(lambda: f.ray_moments(A, float(p)), repeat,
                                                  before=lambda: f.ray_moments(A, 1.0))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", type=Path)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.repeat)))
        return 0
    if not args.checkouts:
        ap.error("name at least one checkout")
    report = {}
    for _ in range(args.rounds):
        for checkout in args.checkouts:
            env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"), OPENBLAS_NUM_THREADS="1")
            proc = subprocess.run([sys.executable, __file__, "--child", "--repeat", str(args.repeat)],
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"ray_moment_times: run in {checkout} failed:\n{proc.stderr}")
            best = report.setdefault(str(checkout), {})
            for name, times in json.loads(proc.stdout).items():
                kept = best.setdefault(name, times)
                for key in ("first_ms", "memo_p2_ms", "memo_p3_ms"):
                    kept[key] = min(kept[key], times[key])
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: bodies in, JSON/CSV verification reports out.

Exit codes: 0 success, 1 at least one asserted check failed (for ci-body:
the inclusion fails or a Newton solve is not certified), 2 bad
configuration.  Reports echo the full configuration and the seed so reruns
are byte-identical except for the wall-clock field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

# small BLAS products are slower on OpenBLAS's default threads than on one
# (`conesec ball-body --body random --n 6 --points 30 --seed 4 --k 5`: 0.18
# against 0.13 s in-process); set before numpy loads OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from . import rng as _rng
from .ball_bodies import ball_body, oracle_from_section_fn
from .geometry import (
    GeometryError,
    PolyhedralCone,
    Subspace,
    body_from_spec,
    cone_from_spec,
)
from .intersection_bodies import ci_inclusion_report, intersection_radial
from .sections import (
    cone_section_volume_polyhedral,
    cone_section_volume_radial,
    section_volume,
    section_volume_fn,
)
from .verify import (
    CheckResult,
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
    load_corpus,
    run_corpus,
)
from .volume import moments, monte_carlo_volume

_BUILTIN_BODIES = ("simplex", "cube", "cross", "ball", "cone", "random")


def _body_spec_from_args(args) -> dict:
    """Body spec from --body: a JSON file path or a builtin name plus --n."""
    name = args.body
    if os.path.exists(name):
        with open(name) as fh:
            return json.load(fh)
    if name in _BUILTIN_BODIES:
        if args.n is None:
            raise GeometryError(f"builtin body {name!r} needs --n")
        spec = {"type": name, "n": args.n, "label": f"{name}-{args.n}"}
        if name == "random":
            spec["points"] = 2 * args.n + 6 if args.points is None else args.points
            spec["seed"] = args.seed
        return spec
    raise GeometryError(f"unknown body {name!r} (not a file, not a builtin)")


def _at_least(least: int):
    """An argparse type: an integer of at least ``least``, so that a smaller
    value is a usage error (exit 2) that names its option, not a default."""
    def count(text: str) -> int:
        if int(text) < least:  # a ValueError reads "invalid count value"
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {text}")
        return int(text)
    return count


def _vector(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split(",")], dtype=float)


def _default_flat(n: int, k: int) -> Subspace:
    """F = span of the first n-k coordinate directions."""
    if not 1 <= k <= n:
        raise GeometryError("need 1 <= k <= n")
    return Subspace.from_span(np.eye(n)[: n - k], ambient_dim=n)


def _emit(report: dict, args, check_rows=None) -> None:
    # `experiment` writes check rows but has no --format: its reports are JSON
    if check_rows is not None and getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "body", "n", "k", "p", "lhs", "rhs", "ratio", "passed"])
        for r in check_rows:
            params = r.parameters
            writer.writerow([
                r.name, r.body_spec,
                params.get("n", ""), params.get("k", ""), params.get("p", ""),
                repr(r.lhs), repr(r.rhs),
                repr(r.lhs / r.rhs) if r.rhs else "",
                r.passed,
            ])
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_checks(args, t0: float, results: list[CheckResult], **payload) -> int:
    """Emit a report of check rows, with ``results`` and ``num_failed`` beside
    the extra payload; the exit code is 1 when a check failed, else 0."""
    num_failed = sum(not r.passed for r in results)
    _emit(_report(args, {**payload, "results": [r.to_record() for r in results],
                         "num_failed": num_failed}, t0), args, check_rows=results)
    return 0 if num_failed == 0 else 1


def _report(args, payload: dict, t0: float) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k != "func" and v is not None}
    return {
        "version": __version__,
        "command": args.command,
        "config": config,
        "wall_clock_s": round(time.time() - t0, 3),
        **payload,
    }


# ---------------------------------------------------------------------------
# subcommand implementations (each returns the exit code)


def _cmd_volume(args, t0) -> int:
    K = body_from_spec(_body_spec_from_args(args))
    m = moments(K)
    payload = {"volume": m.volume, "centroid": m.centroid.tolist()}
    if args.mc:
        est, stderr = monte_carlo_volume(K, args.mc, args.seed)
        payload["mc_estimate"] = est
        payload["mc_stderr"] = stderr
    _emit(_report(args, payload, t0), args)
    return 0


def _cmd_section(args, t0) -> int:
    K = body_from_spec(_body_spec_from_args(args))
    u = _vector(args.u)
    vol = section_volume(K, Subspace.hyperplane(u))
    _emit(_report(args, {"u": u.tolist(), "section_volume": vol}, t0), args)
    return 0


def _cmd_cone_volume(args, t0) -> int:
    K = body_from_spec(_body_spec_from_args(args))
    with open(args.cone) as fh:
        F, C = cone_from_spec(json.load(fh))
    if F.ambient_dim != K.dim:
        raise GeometryError(f"cone generators in R^{F.ambient_dim} do not fit the body in R^{K.dim}")
    payload = {}
    if args.route in ("polyhedral", "both"):
        payload["polyhedral"] = cone_section_volume_polyhedral(K, F, C)
    if args.route in ("radial", "both"):
        payload["radial"] = cone_section_volume_radial(K, F, C)
    _emit(_report(args, payload, t0), args)
    return 0


def _cmd_ball_body(args, t0) -> int:
    K = body_from_spec(_body_spec_from_args(args))
    n = K.dim
    F = _default_flat(n, args.k)
    f = oracle_from_section_fn(section_volume_fn(K, F))
    L = ball_body(f, args.p)
    dirs = _rng.sphere_grid(args.k, args.dirs, args.seed)
    rows = [{"theta": th.tolist(), "radius": float(r)} for th, r in zip(dirs, L.radial_many(dirs))]
    _emit(_report(args, {"k": args.k, "p": args.p, "radii": rows}, t0), args)
    return 0


def _cmd_intersection_body(args, t0) -> int:
    K = body_from_spec(_body_spec_from_args(args))
    dirs = _rng.sphere_grid(K.dim, args.dirs, args.seed)
    rows = [{"u": u.tolist(), "i_radius": intersection_radial(K, u)} for u in dirs]
    _emit(_report(args, {"radii": rows}, t0), args)
    return 0


def _cmd_ci_body(args, t0) -> int:
    K = body_from_spec(_body_spec_from_args(args))
    rep = ci_inclusion_report(K, args.dirs, args.seed)
    _emit(_report(args, rep, t0), args)
    s = rep["summary"]
    return 0 if s["upper_inclusion_holds"] and s["num_uncertified"] == 0 else 1


def _run_named_check(args) -> list[CheckResult]:
    K = body_from_spec(_body_spec_from_args(args))
    n = K.dim
    name = args.check
    label = args.body if args.n is None else f"{args.body}-{args.n}"
    if name == "gruenbaum":
        return check_gruenbaum(K, _rng.sphere_grid(n, args.dirs, args.seed), label)
    if name in ("part1", "part2"):
        k, p = args.k or 1, args.p or 1  # absent: 1
        F = _default_flat(n, k)
        C = PolyhedralCone(np.eye(n)[n - p:])
        fn = check_main_theorem_part1 if name == "part1" else check_main_theorem_part2
        return [fn(K, F, C, label)]
    if name == "fradelizi":
        f = oracle_from_section_fn(section_volume_fn(K, _default_flat(n, args.k or 1)))
        return [check_fradelizi(f, body_spec=label)]
    if name == "lemma5":
        return [check_lemma5(K, label)]
    if name == "lemma7":
        dirs = _rng.sphere_grid(n, args.dirs, args.seed)
        return [check_lemma7(K, u, label) for u in dirs]
    if name == "prop8":
        return [check_prop8(K, label)]
    raise GeometryError(f"unknown check {args.check!r}")


def _cmd_check(args, t0) -> int:
    return _emit_checks(args, t0, _run_named_check(args))


def _cmd_experiment(args, t0) -> int:
    name = args.experiment
    if name == "remark1":
        if args.l is None:
            raise GeometryError("experiment remark1 needs --l")
        return _emit_checks(args, t0, [experiment_remark1(args.n, args.l)])
    if name == "remark3":
        return _emit_checks(args, t0, [experiment_remark3_cube(args.n)])
    if name == "remark2":
        payload = experiment_remark2_sharpness(args.n)
    elif name == "alpha":
        payload = experiment_alpha_n(args.n, args.trials, args.seed)
    else:
        raise GeometryError(f"unknown experiment {args.experiment!r}")
    _emit(_report(args, payload, t0), args)
    return 0


def _cmd_corpus(args, t0) -> int:
    if args.limit is not None and args.limit < 1:
        raise GeometryError(f"--limit must be at least 1, not {args.limit}")
    results = run_corpus(load_corpus(args.corpus)[: args.limit])
    return _emit_checks(args, t0, results, num_checks=len(results))


# ---------------------------------------------------------------------------
# argument parsing


def _add_body_args(sp, need_dirs=False):
    sp.add_argument("--body", required=True,
                    help="builtin name (simplex/cube/cross/ball/cone/random) or JSON file")
    sp.add_argument("--n", type=int, help="dimension for builtin bodies")
    sp.add_argument("--points", type=_at_least(1), help="point count for random bodies (default 2n + 6)")
    sp.add_argument("--seed", type=int, default=0)
    if need_dirs:
        sp.add_argument("--dirs", type=_at_least(0), default=32)


def _add_output_args(sp, rows=False):
    """--out, and --format where the command has check rows for `_emit` to write as CSV."""
    sp.add_argument("--out", help="output file (default: stdout)")
    if rows:
        sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesec",
        description="volumes, sections and cone-section inequality checks for convex bodies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("volume", help="exact volume and centroid")
    _add_body_args(sp)
    sp.add_argument("--mc", type=int, help="Monte Carlo cross-check samples")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_volume)

    sp = sub.add_parser("section", help="central hyperplane section volume")
    _add_body_args(sp)
    sp.add_argument("--u", required=True, help="normal direction, comma-separated")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_section)

    sp = sub.add_parser("cone-volume", help="|K cap (F + C)| from a cone spec file")
    _add_body_args(sp)
    sp.add_argument("--cone", required=True, help="JSON cone spec file")
    sp.add_argument("--route", choices=("polyhedral", "radial", "both"),
                    default="polyhedral")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_cone_volume)

    sp = sub.add_parser("ball-body", help="radii of the moment body of a section profile")
    _add_body_args(sp, need_dirs=True)
    sp.add_argument("--k", type=_at_least(1), required=True, help="profile dimension")
    sp.add_argument("--p", type=float, default=1.0)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_ball_body)

    sp = sub.add_parser("intersection-body", help="central-section radii over directions")
    _add_body_args(sp, need_dirs=True)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_intersection_body)

    sp = sub.add_parser("ci-body", help="convexified section radii and inclusion report")
    _add_body_args(sp, need_dirs=True)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_ci_body)

    sp = sub.add_parser("check", help="run one named inequality check")
    sp.add_argument("check",
                    choices=("gruenbaum", "part1", "part2", "fradelizi", "lemma5", "lemma7",
                             "prop8"))
    _add_body_args(sp, need_dirs=True)
    sp.add_argument("--k", type=_at_least(1), help="codimension of the flat F (default 1)")
    sp.add_argument("--p", type=_at_least(1), help="cone dimension for part1 and part2 (default 1)")
    _add_output_args(sp, rows=True)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("experiment", help="run one closed-form or sampling experiment")
    sp.add_argument("experiment", choices=("remark1", "remark2", "remark3", "alpha"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("corpus", help="run the standard battery over the body corpus")
    sp.add_argument("--corpus", help="manifest path (default: env CONESEC_CORPUS or packaged)")
    sp.add_argument("--limit", type=int, help="only the first N corpus bodies")
    _add_output_args(sp, rows=True)
    sp.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        return args.func(args, t0)
    except (GeometryError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

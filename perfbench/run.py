#!/usr/bin/env python3
"""conesec benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): corpus, radial, moment_body. The library is
imported from the checkout's own `src/`; the run fails without printing a
result when that tree is missing.

`--trace 0` runs the op list once with tracing off and reports the end-to-end
metrics. `setup_s` is the median of three set-ups (import, inputs, reference
values, warm-up): this process's own and two more, each in a fresh process.
The timings are given at the reference speed: a fixed piece of work outside
conesec runs before every op and after every set-up, and each time is scaled
by how long that work took nearby (see `at_reference_speed`). The measured
times are in the details line under "measured".
`--trace 1` runs the op list untraced and then traced, checks that both runs
give identical outputs, reports the per-layer metrics of the traced run and
writes its spans to `.perfbench_out/`. The last line of standard output is
the result object; the line before it holds the run's details and machine
information.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one BLAS thread: the bundled OpenBLAS would otherwise start up to 64 threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# set-ups per run, each in a fresh process: the import dominates set-up and
# only a new process imports again
SETUP_REPS = 3
# --seconds at which a workload runs its op list at scale 1.0
REFERENCE_SECONDS = 25.0
# median time of reference() on the machine of the baseline. The host of that
# machine moved the speed of all code together by up to 30% for minutes at a
# time; scaling by the reference work removes most of that from the timings.
REFERENCE_S = 2.5e-3
# ops on each side of an op whose reference times set its local speed
REF_WINDOW = 10
# reference() runs after a set-up
REF_SETUP_SAMPLES = 21


def _import_library() -> None:
    """Import conesec from this checkout's sources, never from elsewhere."""
    if not (SRC / "conesec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no conesec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conesec

    if Path(conesec.__file__).resolve().parent != SRC / "conesec":
        sys.exit(f"perfbench: conesec imported from {conesec.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def reference() -> float:
    """Seconds taken by a fixed piece of work that does not use conesec.

    Interpreter work and a qhull call, like the workloads' own mix; its time
    tracks the speed the machine gives this process.
    """
    import numpy as np
    from scipy.spatial import ConvexHull

    points = np.random.default_rng(0).standard_normal((100, 4))
    t = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    ConvexHull(points)
    return time.perf_counter() - t


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """Op times scaled to a machine on which `reference()` takes REFERENCE_S.

    Op i is scaled by the median reference time over the ops from
    i - REF_WINDOW to i + REF_WINDOW, the machine's speed around it.
    """
    k = REF_WINDOW
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - k):i + k + 1])
            for i, t in enumerate(times)]


def execute(workload) -> dict:
    """Run every op once; op times in seconds, outputs None where an op raised.

    `refs[i]` is the time of `reference()`, run just before op i.
    """
    times, outputs, errors, refs = [], [], [], []
    start = time.perf_counter()
    for op in workload.ops:
        refs.append(reference())
        t = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises counts as failed
            out = None
            errors.append(f"{op.group}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t)
        outputs.append(out)
    return {"times": times, "outputs": outputs, "errors": errors, "refs": refs, "start": start}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(times)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def timings(times: list[float]) -> dict:
    """wall_s, op_ms_p50 and op_ms_tail of one pass's op times."""
    return {"wall_s": sum(times), "op_ms_p50": 1e3 * statistics.median(times),
            "op_ms_tail": 1e3 * tail(times)[0]}


E2E_UNITS = {"wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s",
             "peak_rss_mb": "MB", "pass_frac": "frac"}


def measure(work, trace: bool, setup: dict, spans_path: Path | None = None):
    """Run a built workload; returns (details, result object).

    `setup` holds the set-up time, measured and at the reference speed.
    """
    run = execute(work)
    verdicts = work.judge(work.ops, run["outputs"])
    failed = sum(not v for v in verdicts)
    attempted = len(work.ops)
    correct = failed == 0

    groups: dict[str, list] = {}
    for op, dt in zip(work.ops, run["times"]):
        g = groups.setdefault(op.group, [0, 0.0])
        g[0] += 1
        g[1] += dt
    details = {
        "ops": attempted,
        "op_ms_tail_percentile": round(tail(run["times"])[1], 3),
        "groups": {k: {"ops": n, "s": round(s, 6)} for k, (n, s) in groups.items()},
        "measured": {**timings(run["times"]), "setup_s": setup["measured"]},
        "reference_ms_median": 1e3 * statistics.median(run["refs"]),
        "errors": run["errors"][:10],
        **work.report(run["outputs"]),
    }

    if trace:
        import tracing

        rec = tracing.Recorder()
        rec.install()
        try:
            traced = execute(work)
        finally:
            rec.uninstall()
        same = (work.judge(work.ops, traced["outputs"]) == verdicts
                and all((a is None) == (b is None) and (a is None or work.digest(a) == work.digest(b))
                        for a, b in zip(run["outputs"], traced["outputs"])))
        correct = correct and same
        details["traced_matches_untraced"] = same
        details["spans"] = len(rec.spans)
        metrics = rec.layer_metrics()
        metrics["trace.wall_s"] = sum(traced["times"])
        metrics["trace.overhead_s"] = sum(traced["times"]) - sum(run["times"])
        if spans_path is not None:
            rec.dump(spans_path, traced["start"])
            details["spans_file"] = os.path.relpath(spans_path, ROOT)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            **timings(at_reference_speed(run["times"], run["refs"])),
            "setup_s": setup["scaled"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
        }
        units = E2E_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return details, result


def fresh_setup(args) -> list[float]:
    """[measured, scaled] set-up time of the same workload and seed in a fresh process."""
    proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--setup-only"],
                          capture_output=True, text=True, timeout=60, check=True)
    return [float(x) for x in proc.stdout.split()[-2:]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_library()
    import workloads

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]

    t = time.perf_counter()
    work = build(args.seed, args.seconds / REFERENCE_SECONDS)
    for fn in work.warmup:
        fn()
    own = import_s + time.perf_counter() - t
    ref = statistics.median(reference() for _ in range(REF_SETUP_SAMPLES))
    setups = [[own, own * REFERENCE_S / ref]]
    if args.setup_only:
        print(*setups[0])
        return 0
    setups += [fresh_setup(args) for _ in range(SETUP_REPS - 1)]
    setup = {"measured": statistics.median(s[0] for s in setups),
             "scaled": statistics.median(s[1] for s in setups)}

    spans_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    details, result = measure(work, bool(args.trace), setup, spans_path)
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "import_s": round(import_s, 6),
        "setup_samples_s": [[round(x, 6) for x in s] for s in setups],
        "machine": machine_info(),
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

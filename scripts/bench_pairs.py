#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, judged by the rule for claiming a gain.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload moment_body --seeds 11-20

For each seed, `perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` runs from each checkout, one after the other; the parent runs
first on the first seed, the change on the next, and so on. `run_seconds`
and the end-to-end metrics with their bounds come from this repository's
BENCHMARK.json. Each run prints one line. Then, per metric, the script
prints each side's median and quartiles, the pairs the change won (ties
count for neither), the change of the median relative to the parent's, and
a verdict:

- `gain`: the change won at least nine tenths of the pairs, and the medians
  differ by more than the parent's interquartile distance;
- `worse`: the change's median is worse than the parent's by more than the
  metric's bound;
- `unresolved`: the parent's interquartile distance exceeds the bound (as a
  share of its median), and not every run of the change is better than
  every run of the parent;
- `within bound` otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'11-20' or '1,3,5-7' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one untraced benchmark run from `checkout`."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: run in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is better
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, med_p, q3 = statistics.quantiles(parent, n=4)
    med_c = statistics.median(change)
    rel = (med_c - med_p) / med_p if med_p else 0.0
    if wins >= 0.9 * len(parent) and sign * (med_c - med_p) < -(q3 - q1):
        word = "gain"
    elif sign * rel > bound:
        word = "worse"
    elif med_p and (q3 - q1) / abs(med_p) > bound and not all(
            sign * (c - p) < 0 for c in change for p in parent):
        word = "unresolved"
    else:
        word = "within bound"
    return {"wins": wins, "rel": rel, "verdict": word,
            "parent": (q1, med_p, q3), "change": tuple(statistics.quantiles(change, n=4))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="11-20", help="e.g. 11-20 or 1,3,5-7 (at least two)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("need at least two seeds for quartiles")

    results = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run(getattr(args, side), args.workload, seed, spec["run_seconds"])
            results[side].append(res)
            values = " ".join(f"{name}={m['value']:.6g}" for name, m in res["metrics"].items())
            print(f"seed {seed} {side}: correct={res['correct']} failed={res['failed']} {values}",
                  flush=True)

    print(f"\n{args.workload}, {len(seeds)} pairs: median [q1, q3] per side")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        v = verdict(parent, change, metric["better"], metric["bound"])
        (p1, pm, p3), (c1, cm, c3) = v["parent"], v["change"]
        print(f"{name:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]"
              f"  {v['rel']:+.1%}  won {v['wins']}/{len(seeds)}  {v['verdict']}"
              f" (bound {metric['bound']:g}, {metric['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the full check battery over the body corpus and write a report.

Usage: python scripts/run_corpus.py [--corpus manifest.json] [--jobs N] [--limit N] [--out report.json]
"""

import argparse
import json
import sys
import time

from conesec.verify import load_corpus, run_corpus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", help="manifest path (default: packaged corpus)")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--limit", type=int, help="only the first N bodies")
    ap.add_argument("--out", default="corpus_report.json")
    args = ap.parse_args()

    specs = load_corpus(args.corpus)
    if args.limit:
        specs = specs[: args.limit]
    t0 = time.time()
    results = run_corpus(specs, jobs=args.jobs)
    dt = time.time() - t0

    failed = [r for r in results if not r.passed]
    with open(args.out, "w") as fh:
        json.dump({
            "num_bodies": len(specs),
            "num_checks": len(results),
            "num_failed": len(failed),
            "wall_clock_s": round(dt, 2),
            "results": [r.to_record() for r in results],
        }, fh, indent=2, sort_keys=True)

    print(f"{len(results)} checks over {len(specs)} bodies in {dt:.1f}s; "
          f"{len(failed)} failed -> {args.out}")
    for r in failed:
        print(f"  FAIL {r.name} {r.body_spec} {r.parameters}: "
              f"lhs={r.lhs:.6e} rhs={r.rhs:.6e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

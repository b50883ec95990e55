"""Smoke test of the benchmark harness on a tiny slice of each workload.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the gates are evaluated (a wrong output fails its op), that traced and
untraced runs give identical verdicts and outputs, that traced counts repeat
exactly, and that the runner refuses to run without the library sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

import conesec.geometry  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# the per-layer count of each workload's traced top-level call, and the op
# class that makes it (None: every op)
TOP_LAYER = {
    "corpus": ("verify.bodies", None),
    "radial": ("sections.cone_radial.calls", None),
    "moment_body": ("ball_bodies.function_moment.calls", "identity"),
}

# a set-up time for runs of a prebuilt workload
SETUP = {"measured": 1.0, "scaled": 1.0}

# op classes whose single ops take seconds
SLOW = {"d5", "d6", "n4.m3"}


def tiny(name: str):
    """The workload at its smallest scale, cut to a few ops of each fast op class."""
    work = workloads.WORKLOADS[name](7, 0.001)
    per_group = Counter()
    kept = []
    for op in work.ops:
        per_group[op.group] += 1
        # the identity ops are gated together
        if op.group == "identity" or (per_group[op.group] <= 3 and op.group not in SLOW):
            kept.append(op)
    work.ops = kept
    return work


def wrong(name: str, op, out) -> list:
    """Outputs that the op's gate must reject."""
    if name == "corpus":
        return [[dataclasses.replace(out[0], passed=False)] + out[1:]]
    if name == "radial":
        return [out * 1.01]
    if op.group == "identity":
        return [(out[0] + 1.0, out[1])]
    changed = out.copy()
    changed[0] *= 10.0 if op.group.startswith("chord") else 1.01
    return [changed]


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def built(request):
    return request.param, tiny(request.param)


def test_every_named_metric_is_emitted(built):
    name, work = built
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        details, result = run.measure(work, trace, SETUP)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(work.ops)
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        if trace:
            assert details["traced_matches_untraced"]
            # the ops' own calls are among the traced spans
            metric, group = TOP_LAYER[name]
            calls = sum(group is None or op.group == group for op in work.ops)
            assert result["metrics"][metric]["value"] == calls
    # the wrappers are gone once the traced run ends
    assert not hasattr(conesec.geometry.to_hrep, "__wrapped__")


def test_gates_are_evaluated(built):
    name, work = built
    outputs = run.execute(work)["outputs"]
    assert all(work.judge(work.ops, outputs))
    assert not any(work.judge(work.ops, [None] * len(outputs)))
    for i, op in enumerate(work.ops):
        for bad in wrong(name, op, outputs[i]):
            changed = list(outputs)
            changed[i] = bad
            assert not work.judge(work.ops, changed)[i], f"{name} op {i} ({op.group}) passed {bad!r}"


def test_traced_counts_repeat(built):
    _, work = built
    counts = [
        {k: v["value"] for k, v in run.measure(work, True, SETUP)[1]["metrics"].items()
         if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]


def test_timings_scale_with_the_reference_work():
    times = [0.1, 0.2, 0.3]
    assert run.at_reference_speed(times, [run.REFERENCE_S] * 3) == times
    # the same ops on a machine that runs the reference work half as fast
    slow = run.at_reference_speed([2 * t for t in times], [2 * run.REFERENCE_S] * 3)
    assert slow == pytest.approx(times)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "20", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

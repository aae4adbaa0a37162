"""Self-test of the benchmark: every workload at tiny size, both modes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a run's output digest repeats, that the gate flags tampered outputs,
and that the benchmark refuses to run without the package source.  Exits 0
when every check holds.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run as bench

bench.load_package()

import workloads as wl  # noqa: E402  (needs the package on sys.path)
from fadegap import FadingDistribution, full_analysis  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
LISTED = {w["name"] for w in SPEC["workloads"]}


def tiny(workload, min_passes):
    workload.min_passes = min_passes
    return workload


TINY = (
    tiny(wl.ShortRandom(ks=(2, 5), per_k=2), 2),
    tiny(wl.LongLadder(ks=(8, 16)), 3),
    tiny(wl.ExactFamily(ks=(4, 32), ds=(2.0, 60.0)), 2),
    tiny(wl.Verify(per_k=1), 1),
)


def check_metrics(workload, result, declared, optional=()):
    """Every declared metric with its unit; extra ones only from ``optional``
    and only on workloads BENCHMARK.json does not list."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert {name: got.get(name) for name in want} == want, f"{workload}: {got} != {want}"
    extra = set(got) - set(want)
    assert not extra or (workload not in LISTED and extra <= set(optional)), (workload, extra)
    for name, m in result["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]


def check_workloads():
    optional = [name for names in bench.OPTIONAL_LAYERS.values() for name in names]
    for w in TINY:
        plain, record = bench.run(w, seed=3, seconds=0, trace=False, setup_reps=1, cli_reps=1)
        check_metrics(w.name, plain, SPEC["end_to_end"])
        traced, _ = bench.run(w, seed=3, seconds=0, trace=True)
        check_metrics(w.name, traced, SPEC["per_layer"], optional)
        again, again_record = bench.run(w, seed=3, seconds=0, trace=False, setup_reps=1,
                                        cli_reps=1)
        assert again_record["digest"] == record["digest"], f"{w.name}: digest changed"
        assert plain["correct"] and traced["correct"], (w.name, record["first_error"])
        print(f"ok {w.name}: {plain['attempted']} operations, digest {record['digest'][:16]}")
    exact = bench.run(TINY[2], seed=3, seconds=0, trace=False, setup_reps=1, cli_reps=1)[1]
    assert exact["failures"] == {"consistency": 2}, exact["failures"]
    print("ok exact-family counts its failing point as failed.consistency")


def expect_gate_failure(check, *args):
    try:
        check(*args)
    except wl.GateFailure:
        return
    raise AssertionError(f"gate accepted tampered output {args[-1]!r}")


def check_gate():
    dist = FadingDistribution(gains=(4.0, 1.0, 0.25), probs=(0.2, 0.5, 0.3))
    analysis = full_analysis(dist)
    report = analysis.report
    wl.check_report(dist, report)
    for field, value in (
        ("c_exp", report.c_exp * (1 + 1e-6)),
        ("additive_gap", math.log(3) + 1e-6),
        ("multiplicative_gap", 0.5),
        ("entropy", math.nan),
    ):
        tampered = dataclasses.replace(report, **{field: value})
        expect_gate_failure(wl.check_report, dist, tampered)
        expect_gate_failure(wl.check_analysis, dataclasses.replace(analysis, report=tampered))
    verify = wl.Verify()
    summary = wl.cli.verify_run(trials=1, seed=0)
    verify.gate(0, summary)
    lines = [summary["lines"][0].replace("PASS", "FAIL", 1)] + summary["lines"][1:]
    expect_gate_failure(verify.gate, 0, dict(summary, lines=lines))
    print("ok the gate flags tampered reports and verify summaries")


def check_refuses_without_source():
    bare = os.path.join(bench.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "short-random", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok refuses to run without src/fadegap")


if __name__ == "__main__":
    check_gate()
    check_refuses_without_source()
    check_workloads()
    print("selftest passed")

"""Benchmark for the fadegap package.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload short-random --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: each operation starts when the last
one (and its correctness gate) has finished.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` every
operation also runs a second time with spans recorded around the package's
public calls, and the last line reports the per-layer metrics.  A record of
the run (tail percentile and sample count, output digest, reference-loop
timings, unscaled figures, failures, and in traced runs every span) goes to
``.perfbench_out/``.  Workloads, metrics and the layer table are described
in ``perfbench/README.md``.
"""

import argparse
import array
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Fresh processes per run for ``setup_s`` and ``cli_p50_ms`` (medians),
#: spread over the whole run.  A bare interpreter runs right after each
#: one, and the median ratio of the two is scaled to a host on which the
#: bare interpreter takes REF_BARE_S: process start-up swings with the host
#: as much as the operations do.
SETUP_REPS = 11
CLI_REPS = 25
BARE = [sys.executable, "-c", "pass"]
REF_BARE_S = 0.075

#: In-process ``cli.run capacity`` calls per traced run.
CLI_INPROC_REPS = 20

#: Reference loop: fixed pure-Python work timed after every CHUNK_S of
#: operations.  CPU speed on a shared host swings by a third within seconds,
#: so operation times are scaled to a host on which one slice takes
#: REF_SLICE_S.  The run record keeps the unscaled figures and every slice.
REF_ITERATIONS = 3000
REF_SLICE_S = 1e-3
CHUNK_S = 0.02

CLI_MAIN = "from fadegap.cli import main; main()"

#: Per-layer metrics reported only by workloads that reach the layer.
OPTIONAL_LAYERS = {
    "worst_case.family": ("worst_case.family_us",),
    "oracle.search": ("oracle.search_us", "oracle.evals", "oracle.eval_us"),
    "fading_paper.report": ("fading_paper.report_us",),
    "cli.verify": ("cli.verify_checks_us",),
}


def load_package():
    """Import ``fadegap`` from the checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fadegap", "__init__.py")):
        raise SystemExit(f"perfbench: no src/fadegap under {ROOT}; run from a fadegap checkout")
    sys.path.insert(0, SRC)
    import fadegap

    if os.path.dirname(os.path.dirname(os.path.realpath(fadegap.__file__))) != os.path.realpath(SRC):
        raise SystemExit(f"perfbench: imported fadegap from {fadegap.__file__}, not {SRC}")
    return fadegap


def ref_slice() -> float:
    """Seconds for one slice of the reference loop.  Float arithmetic, tuple
    and list churn and a C math call track the package's speed on a busy
    host more closely than a bare integer loop does."""
    start = time.perf_counter()
    acc = []
    for i in range(REF_ITERATIONS):
        pair = (i * 0.5, i + 1.0)
        acc.append(math.log1p(pair[0] / pair[1]))
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """Scale ``seconds`` measured between two reference slices."""
    return seconds * 2 * REF_SLICE_S / (before + after)


def setup_child(name: str, seed: int) -> None:
    """Fresh-process probe: seconds to import fadegap plus seconds of the
    workload's first operation (input generation excluded)."""
    start = time.perf_counter()
    load_package()
    imported = time.perf_counter() - start
    import workloads

    w = workloads.WORKLOADS[name]()
    item = w.make_pass(random.Random(seed), 0)[0]
    start = time.perf_counter()
    w.op(item.arg)
    print(repr(imported + time.perf_counter() - start))


def setup_child_seconds(name: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child", "--workload", name,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def capacity_c_exp(stdout: str):
    """``c_exp`` from the CLI's JSON output, or None when it is missing."""
    try:
        return json.loads(stdout)["c_exp"]
    except (ValueError, KeyError, TypeError):
        return None


def cli_child_seconds(path: str, expected: float, problems: list) -> float:
    """Wall time of a fresh ``fadegap capacity --input path`` process, which
    must exit 0 and print the library's ``c_exp``."""
    cmd = [sys.executable, "-c", CLI_MAIN, "capacity", "--input", path]
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, pythonpath))))
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or capacity_c_exp(proc.stdout) != expected:
        problems.append(f"cli capacity: exit {proc.returncode}, {proc.stderr.strip()[-200:]}")
    return wall


def with_bare(child_seconds: float) -> tuple:
    """``(child_seconds, seconds of a bare interpreter run right after it)``."""
    start = time.perf_counter()
    subprocess.run(BARE, capture_output=True, timeout=120, check=True)
    return child_seconds, time.perf_counter() - start


def bare_scaled(pairs, record: dict, name: str) -> float:
    """Median child/bare ratio in reference seconds; records the unscaled."""
    record[name] = {
        "unscaled_s": statistics.median(child for child, _ in pairs),
        "bare_s": statistics.median(bare for _, bare in pairs),
    }
    return statistics.median(child / bare for child, bare in pairs) * REF_BARE_S


def probe_schedule(**probes) -> list:
    """Interleave ``name=(callable, count)`` probes evenly into one list of
    ``(name, callable)``."""
    slots = [(i / count, name, fn) for name, (fn, count) in probes.items() for i in range(count)]
    return [(name, fn) for _, name, fn in sorted(slots, key=lambda slot: slot[:2])]


def cli_inproc(cli, path: str, expected: float, tracer, reps: int, problems: list) -> None:
    """Traced in-process ``cli.run capacity`` calls (root span ``cli.capacity``)."""
    run = tracer.wrap("cli.capacity", cli.run)
    for _ in range(reps):
        buf = io.StringIO()
        with tracer.patched(), contextlib.redirect_stdout(buf):
            code = run(["capacity", "--input", path])
        if code != 0 or capacity_c_exp(buf.getvalue()) != expected:
            problems.append(f"cli.run capacity: exit {code}")


def timed(op, arg):
    start = time.perf_counter()
    try:
        out = op(arg)
    except Exception as exc:  # counted by class; the run keeps going
        out = exc
    return out, time.perf_counter() - start


def as_text(out) -> str:
    return f"error:{type(out).__name__}" if isinstance(out, Exception) else repr(out)


class Measurement:
    """Closed-loop measurement of one workload for at least ``seconds`` and,
    untraced, at least ``workload.min_passes`` whole passes."""

    def __init__(self, workloads, workload, tracer=None):
        self.wl = workloads
        self.w = workload
        self.tracer = tracer
        self.samples = array.array("d")  # scaled seconds of each successful operation
        self.pass_medians = []  # median of each pass's successful operations
        self.busy = 0.0  # scaled seconds of every attempted operation
        self.raw_busy = 0.0
        self.attempted = 0
        self.failures = {}
        self.first_error = {}
        self.plain = 0.0  # untraced and traced seconds of the same operations
        self.traced = 0.0
        self.passes = 0
        self.slices = []
        self.digest = hashlib.sha256()
        self._memo = {}
        self._pending = []  # (seconds, succeeded) since the last reference slice
        self._since_slice = 0.0
        self._root = None if tracer is None else tracer.wrap(workload.span, workload.op)

    def run(self, seed: int, seconds: float, probes=()) -> dict:
        """Run passes; between passes run the ``(name, callable)`` probes,
        evenly spread over ``seconds``.  Returns each probe's results."""
        rng = random.Random(seed)
        min_passes = 1 if self.tracer is not None else self.w.min_passes
        results = {name: [] for name, _ in probes}
        pending = list(probes)
        gap = seconds / (len(pending) + 1)
        self.slices.append(ref_slice())
        start = time.perf_counter()
        while self.passes < min_passes or time.perf_counter() - start < seconds:
            while pending and time.perf_counter() - start >= gap * (len(probes) - len(pending) + 1):
                name, probe = pending.pop(0)
                results[name].append(probe())
            first = len(self.samples)
            for item in self.w.make_pass(rng, self.passes):
                self._one(item)
            self._flush()
            if len(self.samples) > first:
                self.pass_medians.append(rank(sorted(self.samples[first:]), 50.0)[0])
            self.passes += 1
        for name, probe in pending:
            results[name].append(probe())
        return results

    def _flush(self) -> None:
        if not self._pending:
            return
        self.slices.append(ref_slice())
        for dt, ok in self._pending:
            scaled = to_reference(dt, self.slices[-2], self.slices[-1])
            self.busy += scaled
            self.raw_busy += dt
            if ok:
                self.samples.append(scaled)
        self._pending.clear()
        self._since_slice = 0.0

    def _gate(self, item, out) -> str:
        if isinstance(out, Exception):
            raise out
        if item.key in self._memo:
            if repr(out) != self._memo[item.key]:
                raise self.wl.GateFailure(f"{item.key}: output differs from its first run")
            return self._memo[item.key]
        text = self.w.gate(item.arg, out)
        if self.w.fixed:
            self._memo[item.key] = text
        return text

    def _one(self, item) -> None:
        out, dt = timed(self.w.op, item.arg)
        self._since_slice += dt
        if self.tracer is not None:
            self.tracer.op_id += 1
            with self.tracer.patched():
                traced_out, traced_dt = timed(self._root, item.arg)
            self.plain += dt
            self.traced += traced_dt
            self._since_slice += traced_dt
        self.attempted += 1
        ok = True
        try:
            text = self._gate(item, out)
            if self.tracer is not None and as_text(traced_out) != as_text(out):
                raise self.wl.GateFailure(f"{item.key}: traced output differs")
        except Exception as exc:  # counted by class; the run keeps going
            cls = self.wl.failure_class(exc)
            self.failures[cls] = self.failures.get(cls, 0) + 1
            self.first_error.setdefault(cls, f"{item.key}: {exc!r}"[:300])
            text = as_text(exc)
            ok = False
        self._pending.append((dt, ok))
        if self.passes == 0:
            self.digest.update(f"{item.key!r} {text}\n".encode())
        if self._since_slice >= CHUNK_S:
            self._flush()


def rank(sorted_values, q: float):
    """Value at percentile q (upper nearest rank) and the count above it."""
    i = min(int(q / 100 * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[i], len(sorted_values) - i - 1


def end_to_end(m: Measurement, setup: float, cli_ms: float, record: dict) -> dict:
    lat = sorted(m.samples)
    tail, above = rank(lat, m.w.tail_q)
    record["tail"] = {"percentile": m.w.tail_q, "samples": len(lat), "above": above}
    record["unscaled_ops_per_s"] = len(lat) / m.raw_busy
    failed = sum(m.failures.values())
    return {
        "ops_per_s": (len(lat) / m.busy, "1/s"),
        "latency_p50_us": (statistics.median(m.pass_medians) * 1e6, "us"),
        "latency_tail_us": (tail * 1e6, "us"),
        "ok_ratio": ((m.attempted - failed) / m.attempted, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "cli_p50_ms": (cli_ms, "ms"),
    }


def per_layer(m: Measurement, cli_tracer, record: dict) -> dict:
    from tracing import layer_times

    total, own = layer_times(m.tracer.spans)
    reached = set(total)
    counts = m.tracer.counts
    n = m.attempted
    scale = m.busy / m.raw_busy

    def per_op(seconds):
        return seconds * scale / n * 1e6

    layers = {name: per_op(t) for name, t in sorted(own.items()) if name != "op"}
    record["self_us_per_op"] = layers
    record["largest_self_layer"] = max(layers, key=layers.get)
    chains = counts["muf.chains"] or 1
    evals = counts["oracle.evals"] or 1
    _, cli_own = layer_times(cli_tracer.spans)
    cli_calls = sum(1 for s in cli_tracer.spans if s[0] == "cli.capacity")
    metrics = {
        "muf.build_chain_us": (per_op(total["muf.build_chain"]), "us"),
        "muf.chain_len": (counts["muf.chain_len"] / chains, "count"),
        "muf.active_ratio": (counts["muf.active_ratio"] / chains, "ratio"),
        "allocation.closed_forms_us": (per_op(total["allocation.closed_forms"]), "us"),
        "allocation.closed_forms_share": (total["allocation.closed_forms"] / m.traced, "ratio"),
        "allocation.optimal_allocation_us": (per_op(total["allocation.optimal_allocation"]), "us"),
        "channel.prepare_us": (per_op(total["channel.prepare"]), "us"),
        "channel.capacity_us": (per_op(total["channel.capacity"]), "us"),
        "worst_case.family_us": (per_op(total["worst_case.family"]), "us"),
        "gaps.analyze_us": (per_op(total["gaps.analyze"]), "us"),
        "gaps.report_self_us": (per_op(own["gaps.analyze"]), "us"),
        "oracle.search_us": (per_op(total["oracle.search"]), "us"),
        "oracle.evals": (counts["oracle.evals"] / n, "count"),
        "oracle.eval_us": (per_op(total["oracle.search"]) * n / evals, "us"),
        "fading_paper.report_us": (per_op(total["fading_paper.report"]), "us"),
        "cli.verify_checks_us": (per_op(own["cli.verify"]), "us"),
        "cli.capacity_self_us": (cli_own["cli.capacity"] * scale / cli_calls * 1e6, "us"),
        "failed.validation": (m.failures.get("validation", 0) / n, "ratio"),
        "failed.consistency": (m.failures.get("consistency", 0) / n, "ratio"),
        "failed.raw": (m.failures.get("raw", 0) / n, "ratio"),
        "failed.gate": (m.failures.get("gate", 0) / n, "ratio"),
        "trace.overhead_ratio": (m.traced / m.plain, "ratio"),
        "host.calib_us": (statistics.median(m.slices) * 1e6, "us"),
    }
    for span, names in OPTIONAL_LAYERS.items():
        if span not in reached:
            for name in names:
                del metrics[name]
    return metrics


def run(workload, seed: int, seconds: float, trace: bool,
        setup_reps: int = SETUP_REPS, cli_reps: int = CLI_REPS):
    """Measure one workload instance; returns the result-line object and the
    run record (also written to ``.perfbench_out/``)."""
    import workloads as wl
    from fadegap import cli, gaps
    from tracing import Tracer

    # one CPU for the run and its child processes, so the reference slices
    # time the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    problems = []
    record = {"workload": workload.name, "seed": seed, "trace": int(trace), "problems": problems}
    os.makedirs(OUT_DIR, exist_ok=True)
    cli_path = os.path.join(OUT_DIR, f"cli-channel-{os.getpid()}.json")
    gains, probs = workload.cli_channel(workload.make_pass(random.Random(seed), 0)[0].arg)
    with open(cli_path, "w", encoding="utf-8") as handle:
        json.dump({"gains": [float(g) for g in gains], "probs": [float(p) for p in probs]}, handle)
    expected = gaps.analyze(cli.FadingDistribution(gains=gains, probs=probs)).c_exp

    try:
        if trace:
            m = Measurement(wl, workload, Tracer())
            m.run(seed, seconds)
            cli_tracer = Tracer()
            cli_inproc(cli, cli_path, expected, cli_tracer, CLI_INPROC_REPS, problems)
        else:
            m = Measurement(wl, workload)
            children = m.run(seed, seconds, probe_schedule(
                setup=(lambda: with_bare(setup_child_seconds(workload.name, seed)), setup_reps),
                cli=(lambda: with_bare(cli_child_seconds(cli_path, expected, problems)), cli_reps),
            ))
            setup = bare_scaled(children["setup"], record, "setup")
            cli_ms = bare_scaled(children["cli"], record, "cli") * 1e3
    finally:
        os.remove(cli_path)

    record.update(
        passes=m.passes,
        digest=m.digest.hexdigest(),
        ref_slices_us=[t * 1e6 for t in m.slices],
        failures=m.failures,
        first_error=m.first_error,
    )
    if trace:
        metrics = per_layer(m, cli_tracer, record)
    else:
        metrics = end_to_end(m, setup, cli_ms, record)
    result = {
        "correct": not problems and "gate" not in m.failures,
        "attempted": m.attempted,
        "failed": sum(m.failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    if trace:
        origin = m.tracer.spans[0][1] if m.tracer.spans else 0.0
        record["spans"] = [[n, s - origin, e - origin, p, o] for n, s, e, p, o in m.tracer.spans]
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fadegap benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    result, record = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                         bool(args.trace))
    tail = record.get("tail")
    if tail:
        print(f"latency_tail_us is p{tail['percentile']:g} of {tail['samples']} samples "
              f"({tail['above']} above it)")
    if "largest_self_layer" in record:
        print(f"largest self-time layer: {record['largest_self_layer']}")
    print(f"passes {record['passes']}, digest of the first pass: {record['digest']}")
    for cls, msg in sorted(record["first_error"].items()):
        print(f"failed.{cls}: {record['failures'][cls]}, first: {msg}")
    for msg in record["problems"]:
        print(f"problem: {msg}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

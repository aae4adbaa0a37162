"""Command-line front-end with stable JSON/CSV output.

Subcommands:
    capacity      full capacity report for a channel read from JSON
    family        generate a worst-case family instance (or its report)
    sweep         analyze a family across several d values, emit CSV
    verify        randomized certification of the closed forms and bounds
    fading-paper  one-bit brackets for the fading-paper channel

Input channels are JSON objects ``{"gains": [...], "probs": [...]}``.  All
randomness in the package lives in ``verify``'s seeded generator; the core
library is fully deterministic, so identical invocations produce identical
bytes on stdout.

Importing this module loads the analysis pipeline only, so ``capacity``
runs without the rest: ``family``, ``sweep``, ``verify`` and
``fading-paper`` import the modules they run when they run.
"""

import argparse
import dataclasses
import functools
import json
import math
import operator
import os
import random
import sys

from .allocation import closed_form_routes, layer_rates
from .channel import FadingDistribution
from .errors import InternalConsistencyError, ValidationError, check_instance, validated_index
from .gaps import LN2, full_analysis

__all__ = ["main", "run", "random_distribution", "verify_run"]

#: Largest max_states verify_run accepts, and a bound on the K a trial may
#: draw; CI runs verify at it and certifies the oracle on high-SNR ladders
#: up to K = 4096.
VERIFY_MAX_STATES = 4096

_CAPACITY_NAT_FIELDS = ("c_erg", "c_exp", "additive_gap", "entropy")
_FP_NAT_FIELDS = (
    "achievable_rate",
    "c_erg_lower",
    "c_erg_upper",
    "c_exp_fp",
    "gap_lower",
    "gap_upper",
    "gap_lower_raw",
)


def __getattr__(name):
    """Serve a name the package loads on first use, such as
    ``brute_force_expected_capacity`` or ``fading_paper_report``, through
    the package's loader (PEP 562), and keep it: ``verify_run`` and the
    ``fading-paper`` command call the one this module holds, a patched one
    included."""
    package = sys.modules[__package__]
    if name not in package._ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


def _json_safe(x):
    """x with every non-finite number, nested in dicts, lists and tuples,
    replaced by None and every other non-int number by its float."""
    if isinstance(x, dict):
        return {key: _json_safe(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if x is None or isinstance(x, (int, str)):
        return x
    xf = float(x)
    return xf if math.isfinite(xf) else None


def _load_distribution(path) -> FadingDistribution:
    try:
        if path is None:
            payload = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"input: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError("input: expected a JSON object with gains and probs")
    for field in ("gains", "probs"):
        if field not in payload:
            raise ValidationError(f"{field}: missing from input")
        if not isinstance(payload[field], list):
            raise ValidationError(f"{field}: must be a JSON array of numbers")
        for v in payload[field]:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValidationError(f"{field}: non-numeric entry {v!r}")
    return FadingDistribution(gains=tuple(payload["gains"]), probs=tuple(payload["probs"]))


def _fields(obj) -> dict:
    """A dataclass's init fields in field order, read as they are: unlike
    dataclasses.asdict, no deep copy and no mark of the stage that built it."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


def _report_payload(report, nat_fields, units: str) -> dict:
    """The report's fields in field order, nat_fields in the chosen units,
    followed by the units."""
    payload = _fields(report)
    if units == "bits":
        for field in nat_fields:
            payload[field] /= LN2
    payload["units"] = units
    return payload


def _capacity_payload(dist: FadingDistribution, units: str) -> dict:
    analysis = full_analysis(dist)
    payload = _report_payload(analysis.report, _CAPACITY_NAT_FIELDS, units)
    payload["channel"] = {"gains": analysis.channel.gains, "probs": analysis.channel.probs}
    if analysis.chain is not None:
        payload["chain"] = _fields(analysis.chain)
        rates = layer_rates(analysis.channel, analysis.allocation)
        if units == "bits":
            rates = tuple(r / LN2 for r in rates)
        payload["allocation"] = {
            "beta": analysis.allocation.beta,
            "lambda": analysis.allocation.lam,
            "per_state_rate": rates,
        }
    return payload


def _emit(payload: dict, fmt: str) -> None:
    """Print payload as indented JSON with non-finite values as null, or as
    a CSV header and row of its scalar fields with None as an empty field."""
    if fmt == "csv":
        scalars = {k: v for k, v in payload.items() if not isinstance(v, (list, tuple, dict))}
        print(",".join(scalars))
        print(",".join("" if v is None else str(v) for v in scalars.values()))
    else:
        print(json.dumps(_json_safe(payload), indent=2))


# ---------------------------------------------------------------------------
# verify: seeded randomized certification
# ---------------------------------------------------------------------------


def random_distribution(rng: random.Random, max_states: int = 5) -> FadingDistribution:
    """One random channel: K uniform in 2..max_states, gains log-uniform in
    [1e-3, 1e3], probabilities flat-Dirichlet (normalized unit exponentials)."""
    check_instance("random_distribution", "rng", rng, random.Random)
    max_states = validated_index("random_distribution", "max_states", max_states)
    if max_states < 2:
        raise ValidationError(f"max-states: must be at least 2, got {max_states}")
    k = rng.randint(2, max_states)
    gains = tuple(10 ** rng.uniform(-3.0, 3.0) for _ in range(k))
    raw = [rng.expovariate(1.0) for _ in range(k)]
    # a left fold, not sum(): since Python 3.12 sum() of floats is
    # compensated, which would change these probabilities' bits by version
    total = functools.reduce(operator.add, raw)
    probs = tuple(x / total for x in raw)
    return FadingDistribution(gains=gains, probs=probs)


def _trial(dist: FadingDistribution):
    """The certify.Trial of one channel, each stage called by the name this
    module holds; the fading-paper reports at inr 1 and 1e6 reuse its analysis."""
    from . import certify
    from .fading_paper import _report_of

    cli = sys.modules[__name__]
    analysis = full_analysis(dist)
    oracle = cli.brute_force_expected_capacity(analysis.channel, certify.ORACLE_TOL).value
    routes = closed_form_routes(analysis.channel, analysis.allocation)
    reports = (cli.fading_paper_report(dist, 0.0),)
    reports += tuple(_report_of(analysis, inr) for inr in (1.0, 1e6))
    return certify.Trial(dist.gains, analysis, oracle, routes, reports)


def verify_run(trials: int = 200, seed: int = 0, max_states: int = 5) -> dict:
    """Randomized certification sweep; returns a summary with per-check lines.

    Draws seeded random channels and records, on each, the margin of every
    check of :data:`fadegap.certify.CHECKS` over its :func:`_trial`.
    """
    from . import certify

    trials = validated_index("verify", "trials", trials)
    if trials < 1:
        raise ValidationError(f"trials: must be positive, got {trials}")
    max_states = validated_index("verify", "max_states", max_states)
    if max_states > VERIFY_MAX_STATES:
        raise ValidationError(
            f"max-states: must be at most {VERIFY_MAX_STATES}, got {max_states}"
        )
    seed = validated_index("verify", "seed", seed)
    rng = random.Random(seed)
    tallies = {}  # check name -> (passed, failed, worst margin)
    for _ in range(trials):
        trial = _trial(random_distribution(rng, max_states))
        for name, check in certify.CHECKS.items():
            ok, margin = check(trial)
            passed, failed, worst = tallies.get(name, (0, 0, 0.0))
            # a NaN margin stays the worst, where max() would drop it
            tallies[name] = (passed + ok, failed + (not ok), certify._worst((worst, margin)))

    lines = [
        f"{'FAIL' if failed else 'PASS'} {name}: {passed}/{passed + failed}"
        f" (worst deviation {worst:.3e})"
        for name, (passed, failed, worst) in tallies.items()
    ]
    failures = sum(failed for _, failed, _ in tallies.values())
    return {
        "trials": trials,
        "seed": seed,
        "max_states": max_states,
        "failures": failures,
        "lines": lines,
        "ok": failures == 0,
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadegap",
        description="Capacity gaps of finite-state slow-fading Gaussian channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="Capacity report for a channel JSON file")
    cap.add_argument("--input", default=None, help="channel JSON path (default: stdin)")
    cap.add_argument("--units", choices=["nats", "bits"], default="nats")
    cap.add_argument("--format", choices=["json", "csv"], default="json")

    fam = sub.add_parser("family", help="Generate a worst-case family instance")
    fam.add_argument("--kind", choices=["additive", "multiplicative"], required=True)
    fam.add_argument("--states", type=int, required=True)
    fam.add_argument("--d", type=float, required=True)
    fam.add_argument("--emit", choices=["dist", "report"], default="dist")
    fam.add_argument("--units", choices=["nats", "bits"], default="nats")

    swp = sub.add_parser("sweep", help="Analyze a family across several d values")
    swp.add_argument("--kind", choices=["additive", "multiplicative"], required=True)
    swp.add_argument("--states", type=int, required=True)
    swp.add_argument("--d-values", required=True, help="comma-separated d values")
    swp.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    ver = sub.add_parser("verify", help="Randomized certification of the closed forms")
    ver.add_argument("--trials", type=int, default=200)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--max-states", type=int, default=5)

    fp = sub.add_parser("fading-paper", help="One-bit fading-paper brackets")
    fp.add_argument("--input", default=None, help="channel JSON path (default: stdin)")
    fp.add_argument("--inr", type=float, default=0.0)
    fp.add_argument("--units", choices=["nats", "bits"], default="nats")
    fp.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def _cmd_capacity(args) -> int:
    dist = _load_distribution(args.input)
    _emit(_capacity_payload(dist, args.units), args.format)
    return 0


def _cmd_family(args) -> int:
    from .worst_case import additive_family, multiplicative_family

    build = additive_family if args.kind == "additive" else multiplicative_family
    dist = build(args.states, args.d)
    if args.emit == "dist":
        _emit({"gains": dist.gains, "probs": dist.probs}, "json")
    else:
        _emit(_capacity_payload(dist, args.units), "json")
    return 0


def _cmd_sweep(args) -> int:
    from .worst_case import sweep, sweep_to_csv

    try:
        d_values = [float(x) for x in args.d_values.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"d-values: {exc}") from exc
    csv_text = sweep_to_csv(sweep(args.kind, args.states, d_values))
    if args.out is None:
        sys.stdout.write(csv_text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    except OSError as exc:
        raise ValidationError(f"out: cannot write {args.out}: {exc}") from exc
    return 0


def _cmd_verify(args) -> int:
    summary = verify_run(trials=args.trials, seed=args.seed, max_states=args.max_states)
    for line in summary["lines"]:
        print(line)
    print(
        f"{'OK' if summary['ok'] else 'FAILED'}: {summary['trials']} trials, "
        f"seed {summary['seed']}, {summary['failures']} failures"
    )
    return 0 if summary["ok"] else 2


def _cmd_fading_paper(args) -> int:
    fading_paper_report = sys.modules[__name__].fading_paper_report
    report = fading_paper_report(_load_distribution(args.input), args.inr)
    _emit(_report_payload(report, _FP_NAT_FIELDS, args.units), args.format)
    return 0


_HANDLERS = {
    "capacity": _cmd_capacity,
    "family": _cmd_family,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "fading-paper": _cmd_fading_paper,
}


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; unknown or malformed flags are
        # validation failures here (--help keeps its clean exit).
        return 0 if not exc.code else 1
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so that
        # flush succeeds (the "Note on SIGPIPE" in the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def main() -> None:
    sys.exit(run())

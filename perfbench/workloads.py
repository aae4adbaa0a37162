"""The benchmark's workloads: seeded inputs, the timed operation and its gate.

Every workload drives ``fadegap`` only through its public functions.  Inputs
come in *passes*: one pass is a whole grid (or a whole stratified batch of
random inputs), so the mix of channel sizes is the same in every run however
many passes fit in the run.  Fixed-grid workloads repeat the same pass; the
random workloads draw a fresh stratified batch for each pass from the run's
seeded generator.

Calls into the package go through module attributes (``gaps.analyze``,
``worst_case.multiplicative_family``, ...) so that the traced run can wrap
them without touching the package.
"""

import math
import random
from dataclasses import dataclass

from fadegap import allocation, channel, cli, errors, gaps, worst_case

#: Absolute slack on the ``A <= ln K`` and ``M <= K`` bounds.
BOUND_ATOL = 1e-9

#: Relative agreement required between ``c_exp`` and the expected rate of
#: the returned power allocation (independent of the closed forms).
RATE_RTOL = 1e-9


class GateFailure(Exception):
    """An operation returned an output that fails the correctness gate."""


def failure_class(exc: BaseException) -> str:
    """Name under which a failed operation is counted (``failed.<name>``)."""
    if isinstance(exc, GateFailure):
        return "gate"
    if isinstance(exc, errors.ValidationError):
        return "validation"
    if isinstance(exc, errors.InternalConsistencyError):
        return "consistency"
    return "raw"


def check_analysis(analysis) -> None:
    """Gate one analysis: finite fields, the ln K / K bounds, and ``c_exp``
    equal to the expected rate of the allocation it came with."""
    r = analysis.report
    fields = [r.c_erg, r.c_exp, r.additive_gap, r.multiplicative_gap, r.entropy]
    fields += list(r.lemma2_terms) + list(r.lemma3_terms) + list(r.boundary_breakpoints)
    if r.epsilon_applied is not None:
        fields.append(r.epsilon_applied)
    if not all(math.isfinite(float(v)) for v in fields):
        raise GateFailure(f"report has a non-finite field: {r!r}")
    k_states = analysis.channel.num_states
    if not 0 <= r.additive_gap <= math.log(k_states) + BOUND_ATOL:
        raise GateFailure(f"additive gap {r.additive_gap} outside [0, ln {k_states}]")
    if not 1 <= r.multiplicative_gap <= k_states + BOUND_ATOL:
        raise GateFailure(f"multiplicative gap {r.multiplicative_gap} outside [1, {k_states}]")
    if analysis.allocation is not None:
        rate = allocation.expected_rate_of(analysis.channel, analysis.allocation.beta)
        if abs(rate - r.c_exp) > RATE_RTOL * abs(r.c_exp):
            raise GateFailure(f"c_exp {r.c_exp} but the allocation achieves {rate}")


def check_report(dist, report) -> str:
    """Gate an ``analyze`` result against a fresh, untimed ``full_analysis``
    of the same input; returns the report's byte-stable text."""
    analysis = gaps.full_analysis(dist)
    text = repr(report)
    if repr(analysis.report) != text:
        raise GateFailure("analyze and full_analysis disagree on the same input")
    check_analysis(analysis)
    return text


@dataclass(frozen=True)
class Item:
    """One input: ``key`` names it within the workload, ``arg`` is what the
    timed operation receives."""

    key: tuple
    arg: object


class AnalyzeChannels:
    """Workloads whose inputs are prebuilt distributions for ``analyze``."""

    span = "op"

    def op(self, dist):
        return gaps.analyze(dist)

    def gate(self, dist, report) -> str:
        return check_report(dist, report)

    def cli_channel(self, dist):
        return dist.gains, dist.probs


class ShortRandom(AnalyzeChannels):
    """``analyze`` on random channels shaped like ``cli.random_distribution``:
    gains log-uniform in [1e-3, 1e3], flat-Dirichlet probabilities, and
    ``per_k`` channels for each K in ``ks`` in every pass."""

    name = "short-random"
    fixed = False
    tail_q = 99.0
    min_passes = 25

    def __init__(self, ks=range(2, 9), per_k=8):
        self.ks = tuple(ks)
        self.per_k = per_k

    def make_pass(self, rng: random.Random, p: int) -> list:
        items = []
        for k in self.ks:
            for j in range(self.per_k):
                gains = tuple(10 ** rng.uniform(-3.0, 3.0) for _ in range(k))
                raw = [rng.expovariate(1.0) for _ in range(k)]
                total = sum(raw)
                probs = tuple(x / total for x in raw)
                items.append(Item((p, k, j), channel.FadingDistribution(gains=gains, probs=probs)))
        return items


class LongLadder(AnalyzeChannels):
    """``analyze(high_snr_instance(r, p, 1e12))`` with ``r_k = 1-(k-1)/K`` and
    uniform p, once for each K in ``ks`` per pass.  The grid does not depend
    on the seed."""

    name = "long-ladder"
    fixed = True
    tail_q = 87.5
    min_passes = 22
    snr = 1e12

    def __init__(self, ks=(128, 256, 512, 1024)):
        self.ks = tuple(ks)

    def make_pass(self, rng: random.Random, p: int) -> list:
        return [
            Item((k,), worst_case.high_snr_instance(
                [1 - (j - 1) / k for j in range(1, k + 1)], [1 / k] * k, self.snr))
            for k in self.ks
        ]


class ExactFamily:
    """``analyze(multiplicative_family(K, d))`` on exact Fractions over the
    whole K x d grid, generator inside the timed operation.  The grid does
    not depend on the seed; its failing points stay in it."""

    name = "exact-family"
    fixed = True
    span = "op"
    tail_q = 99.0
    min_passes = 100

    def __init__(self, ks=(4, 8, 16, 32), ds=(0.5, 2.0, 60.0, 1e4)):
        self.ks = tuple(ks)
        self.ds = tuple(ds)

    def make_pass(self, rng: random.Random, p: int) -> list:
        return [Item((k, d), (k, d)) for k in self.ks for d in self.ds]

    def op(self, point):
        return gaps.analyze(worst_case.multiplicative_family(*point))

    def gate(self, point, report) -> str:
        return check_report(worst_case.multiplicative_family(*point), report)

    def cli_channel(self, point):
        # JSON carries floats only, so the CLI sees the rounded channel
        dist = worst_case.multiplicative_family(*point)
        return tuple(map(float, dist.gains)), tuple(map(float, dist.probs))


class Verify:
    """One ``verify_run`` certification trial per operation at the CLI
    defaults (max_states 5), ``per_k`` trials for each K in 2..max_states in
    every pass.  Trial seeds come from the run's generator and are sorted
    into K strata by the channel ``random_distribution`` draws for them."""

    name = "verify"
    fixed = False
    span = "cli.verify"
    tail_q = 95.0
    min_passes = 15
    max_states = 5

    def __init__(self, per_k=4):
        self.per_k = per_k

    def _channel(self, trial_seed):
        return cli.random_distribution(random.Random(trial_seed), self.max_states)

    def make_pass(self, rng: random.Random, p: int) -> list:
        strata = {k: [] for k in range(2, self.max_states + 1)}
        while any(len(s) < self.per_k for s in strata.values()):
            trial_seed = rng.getrandbits(32)
            stratum = strata[len(self._channel(trial_seed).gains)]
            if len(stratum) < self.per_k:
                stratum.append(trial_seed)
        return [Item((p, k, j), s) for k, seeds in strata.items() for j, s in enumerate(seeds)]

    def op(self, trial_seed):
        return cli.verify_run(trials=1, seed=trial_seed, max_states=self.max_states)

    def gate(self, trial_seed, summary) -> str:
        bad = [line for line in summary["lines"] if not line.startswith("PASS ")]
        if not summary["ok"] or bad or summary["trials"] != 1:
            raise GateFailure(f"verify trial {trial_seed} failed: {bad or summary}")
        return repr(summary)

    def cli_channel(self, trial_seed):
        dist = self._channel(trial_seed)
        return dist.gains, dist.probs


WORKLOADS = {w.name: w for w in (ShortRandom, LongLadder, ExactFamily, Verify)}

"""Writing on fading paper: capacity brackets when the fade also multiplies
a transmitter-known Gaussian interference.

The interference-presubtraction rate ``R = E[(ln G)+]`` is achievable for
any interference power, and it pins the fading-paper ergodic capacity to
within one bit (ln 2 nats) of the interference-free ergodic capacity.  The
one-block expected capacity is unaffected by the known interference, so the
additive loss lands in the interval [A - ln 2, A] of the interference-free
gap A, reported here clamped at zero (relaxing the delay constraint cannot
hurt) together with the raw unclamped lower bound.
"""

import math
from dataclasses import dataclass

# prepare and ergodic_capacity are not called here; perfbench/tracing.py
# wraps fading_paper.prepare and fading_paper.ergodic_capacity
from .channel import FadingDistribution, ergodic_capacity, prepare  # noqa: F401
from .errors import ValidationError, check_real, validated_state_count
from .gaps import LN2, full_analysis

__all__ = ["FadingPaperReport", "fading_paper_report", "worst_case_fp_bracket"]


@dataclass(frozen=True)
class FadingPaperReport:
    """One-bit capacity bracket for a fading-paper channel.

    inr is carried through untouched: every computed quantity is provably
    independent of the transmit interference-to-noise ratio, and keeping the
    field documents that rather than silently dropping the parameter.
    """

    inr: float
    achievable_rate: float
    c_erg_lower: float
    c_erg_upper: float
    c_exp_fp: float
    gap_lower: float
    gap_upper: float
    gap_lower_raw: float


def fading_paper_report(dist: FadingDistribution, inr: float) -> FadingPaperReport:
    """Brackets for the fading-paper ergodic capacity and expected-rate loss.

    achievable_rate is ``sum(p_k * max(ln g_k, 0))`` on the original gains
    (a zero gain contributes zero); the ergodic bracket is
    [C_erg - ln 2, C_erg] floored at zero, and the loss bracket is
    [max(A - ln 2, 0), A] for the interference-free additive gap A.
    """
    if not check_real("inr", inr) >= 0:
        raise ValidationError(f"inr must be nonnegative, got {inr!r}")
    return _report_of(full_analysis(dist), inr)


def _report_of(analysis, inr: float) -> FadingPaperReport:
    """:func:`fading_paper_report` of the distribution the analysis came
    from, for a checked inr."""
    ch, report = analysis.channel, analysis.report

    # the original gains, as ergodic_capacity reads them; a zero gain is
    # never above 1
    gains = ch.gains if ch.epsilon_applied is None else ch.gains[:-1]
    rate = 0.0
    for g, p in zip(gains, ch.probs):
        gf = float(g)
        if gf > 1:
            # ln g can round above ln(1 + g) on a huge gain; capped at it,
            # each term is at most its ergodic one, added in the same order,
            # so the rate stays at most c_erg
            rate += float(p) * min(math.log(gf), math.log1p(gf))

    c_erg = report.c_erg
    c_erg_lower = max(c_erg - LN2, 0.0)
    gap_raw = report.additive_gap - LN2
    return FadingPaperReport(
        inr=float(inr),
        achievable_rate=rate,
        c_erg_lower=c_erg_lower,
        c_erg_upper=c_erg,
        c_exp_fp=report.c_exp,
        gap_lower=max(c_erg_lower - report.c_exp, 0.0),
        gap_upper=report.additive_gap,
        gap_lower_raw=gap_raw,
    )


def worst_case_fp_bracket(K: int) -> tuple:
    """Bracket [max(ln(K/2), 0), ln K] for the worst-case fading-paper
    additive loss over all K-state distributions and interference powers."""
    K = validated_state_count("worst-case bracket", K)
    check_real("worst-case bracket: K", K)
    return (max(math.log(K / 2), 0.0), math.log(K))

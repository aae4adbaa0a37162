"""The certification checks of ``verify`` and the tests, each with its tolerance.

A check is a pure function of objects already computed (an Analysis, the
oracle value, the two closed-form routes, the fading-paper reports).  It
neither asserts nor prints: it returns a :class:`Margin`.  ``verify`` and
the tests' certification matrix run the one ordered table of them, CHECKS.
"""

import math
import operator
from collections import namedtuple
from dataclasses import replace
from typing import NamedTuple

from .allocation import ROUTE_RTOL
from .channel import PreparedChannel
from .errors import ValidationError, check_built, check_instance, check_real, is_fraction
from .errors import validated_tuple
from .fading_paper import FadingPaperReport
from .gaps import LN2, Analysis
from .muf import MufChain, intersection

__all__ = [
    "Margin",
    "oracle_certification",
    "closed_form_route_agreement",
    "additive_gap_bound",
    "multiplicative_gap_bound",
    "per_state_additive_terms",
    "per_state_multiplicative_terms",
    "chain_ordering_properties",
    "fading_paper_brackets",
    "Trial",
    "CHECKS",
]

#: Search resolution (in beta space) the oracle runs at to certify.
ORACLE_TOL = 1e-7
#: Largest distance between the oracle value and the closed form.
ORACLE_ATOL = 1e-10
#: Slack on ``A <= ln K``, ``M <= K`` and the per-state lemma terms.
BOUND_ATOL = 1e-9
#: Relative slack of the chain ordering properties, floored for z near 0.
CHAIN_RTOL = 1e-12
CHAIN_ATOL = 1e-15
#: Slack of the per-state one-bit bracket of the fading-paper rate.
BRACKET_ATOL = 1e-12


class Margin(NamedTuple):
    """Outcome of one check; worst is the largest deviation it saw, in its
    own units, and negative when every compared term has slack."""

    ok: bool
    worst: float


def _excess(excess: float, atol: float) -> Margin:
    return Margin(excess <= atol, excess)


def _worst(excesses) -> float:
    """Largest excess, 0 for none, NaN when any is NaN (max() keeps a NaN
    only first)."""
    excesses = list(excesses)
    return math.nan if any(map(math.isnan, excesses)) else max(excesses, default=0.0)


def _gap(x, y) -> float:
    """``x - y`` as a float, 0 when x equals y (``inf - inf`` is NaN)."""
    return 0.0 if x == y else float(x - y)


def oracle_certification(c_exp: float, oracle: float) -> Margin:
    """The brute-force optimum lands within ORACLE_ATOL of the closed form;
    a NaN fails."""
    gap = abs(check_real("c_exp", c_exp) - check_real("oracle", oracle))
    return Margin(gap <= ORACLE_ATOL, gap)


def closed_form_route_agreement(per_state: float, rate: float) -> Margin:
    """The per-state closed form and the second route, the expected rate of
    the allocation's power vector (as :func:`fadegap.closed_form_routes`
    returns them), agree to ROUTE_RTOL relative; a NaN fails."""
    per_state = check_real("per_state", per_state)
    rate = check_real("rate", rate)
    rel = abs(per_state - rate) / max(abs(per_state), abs(rate), 1e-300)
    return Margin(rel <= ROUTE_RTOL, rel)


def additive_gap_bound(analysis) -> Margin:
    """``A <= ln K``."""
    check_instance("additive_gap_bound", "analysis", analysis, Analysis)
    k_states = analysis.channel.num_states
    return _excess(analysis.report.additive_gap - math.log(k_states), BOUND_ATOL)


def multiplicative_gap_bound(analysis) -> Margin:
    """``M <= K``."""
    check_instance("multiplicative_gap_bound", "analysis", analysis, Analysis)
    return _excess(analysis.report.multiplicative_gap - analysis.channel.num_states, BOUND_ATOL)


def per_state_additive_terms(analysis) -> Margin:
    """Each lemma-2 term is at most ``1/p_k``; a NaN term fails."""
    check_instance("per_state_additive_terms", "analysis", analysis, Analysis)
    terms = zip(analysis.report.lemma2_terms, analysis.channel.probs)
    return _excess(_worst(t - 1 / float(p) for t, p in terms), BOUND_ATOL)


def per_state_multiplicative_terms(analysis) -> Margin:
    """Each lemma-3 term is at most 1; a NaN term fails."""
    check_instance("per_state_multiplicative_terms", "analysis", analysis, Analysis)
    return _excess(_worst(t - 1 for t in analysis.report.lemma3_terms), BOUND_ATOL)


def chain_ordering_properties(ch, chain) -> Margin:
    """A certificate that the chain is the lower envelope of the lines
    ``(z + n_k) / F_k``, from at most 2K crossings.

    1. Shape: pi is a tuple of ints rising strictly from 1 to K, and
       breakpoints a tuple of one more real number (a float, an int or a
       Fraction); otherwise the margin is ``(False, inf)``.  The chain may
       come from anywhere: a copy or a hand-built one is judged, not
       refused.
    2. Each interior breakpoint z_i, between the chain states a = pi[i-1]
       and b = pi[i], lies at or below ``z_{a,l}`` for every l in a+1..b and
       at or above ``z_{l,b}`` for every l in a..b-1.  Both families hold
       z_i against ``z_{a,b}``, so the breakpoint is the crossing it stands
       for; in exact arithmetic the two are one inequality per skipped
       state, but on near-tied gains they round apart, so both are kept.
    3. Interior breakpoints are non-decreasing along the chain.

    Complete: 1-3 make the chain concave and below each of its own lines,
    and a skipped state l between a and b has a slope between theirs, so
    its line minus the chain is convex with its minimum at z_i.

    States whose inverse gain overflowed cross every state at +inf
    (:func:`~fadegap.muf.intersection`), so two equal crossings, infinite
    ones included, are no gap; a NaN or +inf gap fails.
    """
    check_built("chain_ordering_properties", "ch", ch, PreparedChannel)
    check_instance("chain_ordering_properties", "chain", chain, MufChain)
    pi, points = chain.pi, chain.breakpoints
    try:
        shaped = (
            isinstance(pi, tuple)
            and isinstance(points, tuple)
            and 0 < len(pi) == len(points) - 1
            and pi[0] == 1
            and pi[-1] == ch.num_states
            # the sum of ints is an int; another entry makes it another type
            and type(sum(pi)) is int
            and all(map(operator.lt, pi, pi[1:]))
            and all(isinstance(z, (float, int)) or is_fraction(z) for z in points)
        )
    except TypeError:  # entries that do not add or compare
        shaped = False
    if not shaped:
        return Margin(False, math.inf)
    gaps = []  # (excess, z it is measured against)
    for a, b, z in zip(pi, pi[1:], points[1:]):
        gaps += [(_gap(z, intersection(ch, a, l)), z) for l in range(a + 1, b + 1)]
        gaps += [(_gap(intersection(ch, l, b), z), z) for l in range(a, b)]
    inner = points[1 : len(pi)]
    gaps += [(_gap(a, b), b) for a, b in zip(inner, inner[1:])]
    ok = all(
        g <= max(CHAIN_ATOL, CHAIN_RTOL * abs(float(z))) and g < math.inf for g, z in gaps
    )
    return Margin(ok, _worst(g for g, _ in gaps))


def fading_paper_brackets(gains, reports) -> Margin:
    """The fading-paper reports of one channel at several INRs.

    They agree in every field but ``inr``, the achievable rate lies in the
    ergodic bracket, the loss bracket is at most one bit wide, and each
    state's rate ``max(ln g, 0)`` lies within one bit below ``ln(1 + g)``;
    worst is the largest per-state excess, NaN for a NaN or infinite gain.
    """
    gains = validated_tuple("gains", gains)
    # anything but a list or tuple is refused below as a report
    reports = tuple(reports) if isinstance(reports, (list, tuple)) else (reports,)
    if not (gains and reports):
        raise ValidationError("fading_paper_brackets needs at least one gain and one report")
    for r in reports:
        check_instance("fading_paper_brackets", "reports", r, FadingPaperReport)
    base = reports[0]
    ok = all(replace(r, inr=base.inr) == base for r in reports[1:])
    ok = ok and base.c_erg_lower <= base.achievable_rate <= base.c_erg_upper
    ok = ok and base.gap_upper - base.gap_lower <= LN2 + BRACKET_ATOL
    excess = []
    for k, g in enumerate(gains, start=1):
        g = check_real(f"gains: state {k}", g)
        if g < 0:
            raise ValidationError(f"gains: state {k} has negative gain {g}")
        point = max(math.log(g), 0.0) if g > 0 else 0.0
        excess += [math.log1p(g) - LN2 - point, point - math.log1p(g)]
    worst = _worst(excess)
    return Margin(ok and worst <= BRACKET_ATOL, worst)


#: What the checks read of one channel: its distribution's gains, Analysis,
#: oracle value at ORACLE_TOL, two closed-form routes and fading-paper reports.
Trial = namedtuple("Trial", "gains analysis oracle routes reports")


#: verify's checks, in the order it prints them, each over one Trial.
CHECKS = {
    "oracle-certification": lambda t: oracle_certification(t.analysis.report.c_exp, t.oracle),
    "closed-form-route-agreement": lambda t: closed_form_route_agreement(*t.routes),
    "additive-gap-bound": lambda t: additive_gap_bound(t.analysis),
    "multiplicative-gap-bound": lambda t: multiplicative_gap_bound(t.analysis),
    "per-state-additive-terms": lambda t: per_state_additive_terms(t.analysis),
    "per-state-multiplicative-terms": lambda t: per_state_multiplicative_terms(t.analysis),
    "chain-ordering-properties": (
        lambda t: chain_ordering_properties(t.analysis.channel, t.analysis.chain)
    ),
    "fading-paper-brackets": lambda t: fading_paper_brackets(t.gains, t.reports),
}

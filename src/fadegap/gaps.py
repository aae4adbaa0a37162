"""Full capacity analysis of a fading distribution.

Bundles the whole pipeline: canonicalize the channel, build the envelope
chain, allocate power, and evaluate both capacities together with the
additive gap ``A = C_erg - C_exp``, the multiplicative gap
``M = C_erg / C_exp``, the state entropy, and the per-state inequality
diagnostics whose sums bound A by ln K and M by K.
"""

import bisect
import math
from dataclasses import dataclass
from typing import Optional

from .allocation import PowerAllocation, expected_capacity, optimal_allocation
from .channel import FadingDistribution, PreparedChannel, entropy, ergodic_capacity, prepare
from .errors import InternalConsistencyError, ValidationError, _make
from .muf import MufChain, build_chain

__all__ = ["CapacityReport", "Analysis", "analyze", "full_analysis"]

#: Nats in one bit.
LN2 = math.log(2)

#: How negative a computed gap may be before it is considered a bug rather
#: than floating-point dust (the true gaps are provably nonnegative).
GAP_DUST_ATOL = 1e-9


@dataclass(frozen=True)
class CapacityReport:
    """Capacities, gaps, and per-state diagnostics of one distribution.

    lemma2_terms holds ``(n_k + 1) / (n_k * Lambda_k)``, each provably at
    most 1/p_k; lemma3_terms holds ``p_k ln((n_k + 1)/n_k) / C_exp``, each
    provably at most 1.  Both are evaluated on the epsilon-regularized
    channel when the input had a zero gain (epsilon_applied records this),
    and take their limits in ``g_k`` where ``n_k = 1/g_k`` overflows.
    boundary_breakpoints lists chain breakpoints that tie exactly with the
    budget edges 0 or 1, where the active-state frontier is a convention:
    at most two, ``breakpoints[s-1]`` on 0 and ``breakpoints[w]`` on 1.
    """

    c_erg: float
    c_exp: float
    additive_gap: float
    multiplicative_gap: float
    entropy: float
    lemma2_terms: tuple
    lemma3_terms: tuple
    active_states: tuple
    epsilon_applied: Optional[float] = None
    boundary_breakpoints: tuple = ()


@dataclass(frozen=True)
class Analysis:
    """Report plus the intermediate objects that produced it."""

    channel: PreparedChannel
    chain: Optional[MufChain]
    allocation: Optional[PowerAllocation]
    report: CapacityReport


def _degenerate_analysis(ch: PreparedChannel) -> Analysis:
    report = _make(
        CapacityReport,
        c_erg=0.0,
        c_exp=0.0,
        additive_gap=0.0,
        multiplicative_gap=1.0,
        entropy=0.0,
        lemma2_terms=(1.0,),
        lemma3_terms=(0.0,),
        active_states=(),
        epsilon_applied=None,
        boundary_breakpoints=(),
    )
    return _make(Analysis, channel=ch, chain=None, allocation=None, report=report)


def full_analysis(dist: FadingDistribution) -> Analysis:
    """Run the complete pipeline and keep every intermediate object."""
    ch = prepare(dist)
    if ch.degenerate:
        return _degenerate_analysis(ch)

    chain = build_chain(ch)
    alloc = optimal_allocation(ch, chain)
    c_erg = ergodic_capacity(ch)

    # A single state carries no uncertainty, so the delay constraint is free,
    # C_exp = C_erg, and the gaps below are exactly zero and one.
    c_exp = c_erg if ch.num_states == 1 else expected_capacity(ch, alloc)
    if c_exp == 0:
        # positive but below the smallest float; the gaps divide by it
        raise ValidationError("expected capacity underflows double precision")
    additive = c_erg - c_exp
    if additive < -GAP_DUST_ATOL:
        raise InternalConsistencyError(
            f"expected capacity {c_exp} exceeds ergodic capacity {c_erg}"
        )
    additive = max(additive, 0.0)
    multiplicative = max(c_erg / c_exp, 1.0)

    # inverse gains ascend, so the ones that overflowed (subnormal gains)
    # come last, if any; their terms are the limits in g.  A Fraction meets
    # a float in the lemma-3 product and log1p as its float()
    n, probs, lam = ch.inverse_gains, ch.probs, alloc.lam
    finite = bisect.bisect_left(n, math.inf)
    log1p = math.log1p
    lemma2 = [float((nk + 1) / (nk * lk)) for nk, lk in zip(n[:finite], lam)]
    lemma3 = [p * log1p(1 / nk) / c_exp for nk, p in zip(n[:finite], probs)]
    if finite < len(n):
        for g, p, lk in zip(ch.gains[finite:], probs[finite:], lam[finite:]):
            lemma2.append(float((1 + g) / lk))
            lemma3.append(p * log1p(g) / c_exp)

    # only breakpoints[s-1], the last <= 0, can lie on 0, and only
    # breakpoints[w], the first >= 1, on 1; both are rare
    lo, hi = chain.breakpoints[chain.s - 1], chain.breakpoints[chain.w]
    boundary = ()
    if lo == 0 or hi == 1:
        boundary = tuple(float(z) for z, edge in ((lo, 0), (hi, 1)) if z == edge)

    report = _make(
        CapacityReport,
        c_erg=c_erg,
        c_exp=c_exp,
        additive_gap=additive,
        multiplicative_gap=multiplicative,
        entropy=entropy(ch),
        lemma2_terms=tuple(lemma2),
        lemma3_terms=tuple(lemma3),
        active_states=chain.active_states,
        epsilon_applied=None if ch.epsilon_applied is None else float(ch.epsilon_applied),
        boundary_breakpoints=boundary,
    )
    return _make(Analysis, channel=ch, chain=chain, allocation=alloc, report=report)


def analyze(dist: FadingDistribution) -> CapacityReport:
    """Capacity report of a distribution (see :class:`CapacityReport`)."""
    return full_analysis(dist).report

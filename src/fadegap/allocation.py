"""Optimal layered power allocation and the expected capacity it achieves.

The one-block expected rate of a cumulative power split ``beta`` is

    sum_k F_k * ln((1 + beta_k g_k) / (1 + beta_{k-1} g_k)),   beta_0 = 0,

and the optimum follows the envelope chain: power levels sweep the chain's
breakpoints clipped to the unit budget.  The resulting capacity admits two
algebraically equivalent closed forms, a per-state one built on the decoded
rate factors ``Lambda_k`` and a grouped one over the active states only.
Both are always evaluated (in a 60-digit working context, since the grouped
form can cancel through ~40 orders of magnitude on extreme channels) and
must agree; disagreement means the chain logic is broken and raises.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .channel import PreparedChannel
from .errors import InternalConsistencyError, ValidationError
from .muf import MufChain

__all__ = [
    "PowerAllocation",
    "optimal_allocation",
    "expected_capacity",
    "closed_form_routes",
    "expected_rate_of",
]

#: Relative tolerance for the agreement of the two closed forms.
ROUTE_RTOL = 1e-12

#: Relative tolerance for the decoded-rate factors stored by
#: optimal_allocation against the ones _routes re-derives.  Looser than
#: ROUTE_RTOL because the stored factors come from float arithmetic on the
#: channel, while the re-derived ones are 60-digit values.
LAMBDA_RTOL = 1e-9

_ctx = mpmath.mp.clone()
_ctx.dps = 60


@dataclass(frozen=True)
class PowerAllocation:
    """Optimal cumulative power vector and per-state diagnostics.

    beta: cumulative power fractions, non-decreasing with beta[-1] == 1.
    lam: decoded-rate factors; state k reliably receives ln(lam[k-1]) nats.
        Exactly 1 for states below the weakest active state.
    per_state_rate: layer rates ln((1+beta_k g_k)/(1+beta_{k-1} g_k)); zero
        for every state with an empty power layer.
    """

    beta: tuple
    lam: tuple
    per_state_rate: tuple

    @property
    def active_states(self) -> tuple:
        """1-based indices of states with a non-empty power layer."""
        out = []
        prev = 0
        for k, b in enumerate(self.beta, start=1):
            if b > prev:
                out.append(k)
            prev = b
        return tuple(out)


def optimal_allocation(ch: PreparedChannel, chain: MufChain) -> PowerAllocation:
    """Expected-rate maximizing cumulative power vector for the channel.

    States before the strongest active state get zero power, the active
    states split the budget at the chain breakpoints, and everything from
    the weakest active state on rides at the full budget.
    """
    k_states = ch.num_states
    pi, bps, s, w = chain.pi, chain.breakpoints, chain.s, chain.w
    one = Fraction(1) if isinstance(ch.gains[0], Fraction) else 1.0
    zero = one - one

    beta = [zero] * k_states
    for i in range(s, w):  # segment i covers states pi[i-1] .. pi[i]-1
        level = bps[i]
        for k in range(pi[i - 1], pi[i]):
            beta[k - 1] = level
    for k in range(pi[w - 1], k_states + 1):
        beta[k - 1] = one

    n = ch.inverse_gains
    f = ch.cum_probs
    lam = [one] * k_states
    head = (n[pi[w - 1] - 1] + 1) / f[pi[w - 1] - 1]
    for k in range(1, pi[s - 1] + 1):
        lam[k - 1] = head * f[pi[s - 1] - 1] / n[pi[s - 1] - 1]
    for m in range(s + 1, w + 1):
        a, b = pi[m - 2], pi[m - 1]
        factor = head * (f[b - 1] - f[a - 1]) / (n[b - 1] - n[a - 1])
        for k in range(a + 1, b + 1):
            lam[k - 1] = factor

    rates = []
    prev = zero
    for k in range(k_states):
        rates.append(math.log1p(float((beta[k] - prev) / (n[k] + prev))))
        prev = beta[k]

    return PowerAllocation(beta=tuple(beta), lam=tuple(lam), per_state_rate=tuple(rates))


def _mpf(x):
    if isinstance(x, Fraction):
        return _ctx.mpf(x.numerator) / _ctx.mpf(x.denominator)
    return _ctx.mpf(x)


def _routes(ch: PreparedChannel, alloc: PowerAllocation):
    """Both closed forms of the expected capacity as 60-digit values."""
    active = alloc.active_states
    if not active:
        raise ValidationError("allocation has no active state; not an optimal allocation")
    n = [_mpf(x) for x in ch.inverse_gains]
    f = [_mpf(x) for x in ch.cum_probs]
    p = [_mpf(x) for x in ch.probs]

    first, last = active[0], active[-1]
    head = (n[last - 1] + 1) / f[last - 1]

    factors = [_ctx.mpf(1)] * ch.num_states
    value = head * f[first - 1] / n[first - 1]
    for k in range(1, first + 1):
        factors[k - 1] = value
    for a, b in zip(active, active[1:]):
        value = head * (f[b - 1] - f[a - 1]) / (n[b - 1] - n[a - 1])
        for k in range(a + 1, b + 1):
            factors[k - 1] = value

    # the factors recovered from the power vector must match the ones the
    # chain construction stored; a mismatch means the active-state frontier
    # and the breakpoint structure disagree
    for k, (stored, derived) in enumerate(zip(alloc.lam, factors), start=1):
        if abs(_mpf(stored) / derived - 1) > LAMBDA_RTOL:
            raise InternalConsistencyError(
                f"decoded-rate factor of state {k} is {stored}, power vector implies {derived}"
            )

    per_state = sum((p[k] * _ctx.log(factors[k]) for k in range(ch.num_states)), _ctx.mpf(0))

    grouped = f[first - 1] * _ctx.log(f[first - 1] / n[first - 1])
    for a, b in zip(active, active[1:]):
        df = f[b - 1] - f[a - 1]
        grouped += df * _ctx.log(df / (n[b - 1] - n[a - 1]))
    grouped += f[last - 1] * _ctx.log((n[last - 1] + 1) / f[last - 1])

    return per_state, grouped


def closed_form_routes(ch: PreparedChannel, alloc: PowerAllocation) -> tuple:
    """The per-state and grouped closed forms as floats, for cross-checking."""
    per_state, grouped = _routes(ch, alloc)
    return float(per_state), float(grouped)


def expected_capacity(ch: PreparedChannel, alloc: PowerAllocation) -> float:
    """Expected capacity over one-block delay, in nats per channel use.

    Evaluates both closed forms and raises InternalConsistencyError if they
    disagree beyond ROUTE_RTOL relative; returns the per-state form.
    """
    per_state, grouped = _routes(ch, alloc)
    scale = max(abs(per_state), abs(grouped))
    if scale > 0 and abs(per_state - grouped) > ROUTE_RTOL * scale:
        raise InternalConsistencyError(
            f"closed forms disagree: per-state {per_state} vs grouped {grouped}"
        )
    return float(per_state)


def expected_rate_of(ch: PreparedChannel, beta) -> float:
    """Expected rate of an arbitrary feasible cumulative power vector.

    Feasibility means 0 <= beta_1 <= ... <= beta_K <= 1.  This evaluator is
    shared by the brute-force certifier and feasibility tests and does not
    touch the envelope machinery.
    """
    beta = tuple(beta)
    if len(beta) != ch.num_states:
        raise ValidationError(f"beta must have {ch.num_states} entries, got {len(beta)}")
    prev = 0.0
    for k, b in enumerate(beta, start=1):
        if not (prev <= b <= 1):
            raise ValidationError(f"beta is infeasible at state {k}: {beta}")
        prev = b
    total = 0.0
    prev = 0.0
    for g, f, b in zip(ch.gains, ch.cum_probs, beta):
        gf = float(g)
        total += float(f) * math.log1p((b - prev) * gf / (1 + prev * gf))
        prev = b
    return total

"""Optimal layered power allocation and the expected capacity it achieves.

The one-block expected rate of a cumulative power split ``beta`` is

    sum_k F_k * ln((1 + beta_k g_k) / (1 + beta_{k-1} g_k)),   beta_0 = 0,

and the optimum follows the envelope chain: power levels sweep the chain's
breakpoints clipped to the unit budget.  The capacity is evaluated two
ways: a per-state closed form built on the decoded rate factors
``Lambda_k``, and this expected rate at the allocation's own power vector,
which reads the levels and not the factors.  At the optimum both are the
capacity, so they must agree; disagreement means the chain logic is broken
and raises.

The two forms are evaluated on a precision ladder: floats first, then
mpmath at 60, 120, 240, 480 and 960 digits.  Each rung carries a
first-order bound on its own error (per-operation rounding, the
conditioning of the ``F_b - F_a``, ``n_b - n_a`` and level differences,
and the rounding of Fraction inputs), evaluates both forms and decides alone,
three ways: agreement and value the bounds certify return both forms,
disagreement they certify raises, and anything else moves up one rung.
The bounds shrink as the precision rises, so an agreement one rung
certifies, every higher rung certifies too: no rung carries it to the
next, and both values come from the rung that settles the channel.
The check of the stored decoded-rate factors, that each lies within
``LAMBDA_RTOL`` of the exact factor of the same recorded frontier, is a
statement about exact rationals, so it does not ride the ladder: it is
decided once, after the first rung that evaluates.  It decides only the
factors' accuracy; the levels meet the factors in the gate where the
per-state and expected-rate forms must agree.  The closed forms read the
active states only from the frontier every allocation records, the one
:func:`optimal_allocation` built its factors from, and a channel records
its first state whose input is exact (see :class:`PreparedChannel`).
With float or int inputs that the float rung evaluates first, the stored
factors before the weakest active state are bitwise the ones the rung
forms and logs, so the check reads the rung's own sum for an infinite
one and tests only the weakest active state's factor.  Every other case
is decided exactly, in Fractions.
Each rung forms the decoded-rate factor of each segment before the
weakest active one once, in the loop that logs it.  The error bounds are
formed after that loop: without Fraction inputs a factor's error is one
constant on the first segment and one on every later segment, so only
the weakest active segment and Fraction inputs add per-segment terms.
The layer rates ``ln((1 + beta_k g_k) / (1 + beta_{k-1} g_k))`` are left to
:func:`layer_rates`, for readers that need them.  Most channels settle in
floats, low-capacity ones included: the weakest active segment's log is
taken as log1p of its factor minus 1, formed without cancellation, so a
capacity near 0 keeps its relative accuracy, and the expected rate's
terms are never negative, so it never cancels.  What climbs is a channel
whose inverse gains, probabilities or level gaps leave the float rung's
range (gains near the float limits), a per-state value the float bound
cannot certify (low capacities spread over several segments), and
ill-conditioned Fraction inputs.  mpmath is imported
only when the float rung cannot settle a channel, and ``fractions`` only
for an exact input, an mpmath rung or a factor check that is decided
exactly.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .channel import PreparedChannel
from .errors import (
    InternalConsistencyError,
    ValidationError,
    _make,
    check_built,
    check_real,
    is_fraction,
    validated_tuple,
)
from .muf import MufChain

__all__ = [
    "PowerAllocation",
    "optimal_allocation",
    "layer_rates",
    "expected_capacity",
    "closed_form_routes",
    "expected_rate_of",
]

#: Relative tolerance for the agreement of the two closed forms.
ROUTE_RTOL = 1e-12

#: Relative tolerance for the decoded-rate factors stored by
#: optimal_allocation against the exact values of the ones the closed forms
#: re-derive from the power vector.  Looser than ROUTE_RTOL because the
#: stored factors carry the float rounding of the channel arithmetic.
LAMBDA_RTOL = 1e-9

#: Relative accuracy a rung must certify for the capacity it returns.
VALUE_RTOL = 1e-14

#: Working precisions of the mpmath rungs above the float one; the last is
#: the cap.
_MP_DIGITS = (60, 120, 240, 480, 960)

#: Largest relative error of a decoded-rate factor or expected-rate term a
#: rung may carry.  Below it the second-order terms a first-order error
#: bound leaves out stay under 1e-5 of its first-order ones, and widening
#: the bound by _SLACK covers them.
_MAX_REL_ERR = 1e-6
_SLACK = 1.001


@dataclass(frozen=True)
class PowerAllocation:
    """Optimal cumulative power vector and per-state diagnostics.

    beta: cumulative power fractions, non-decreasing with beta[-1] == 1.
    lam: decoded-rate factors; state k reliably receives ln(lam[k-1]) nats.
        Exactly 1 for states below the weakest active state.

    The stages take only one that :func:`optimal_allocation` built from
    the channel they are given; such an allocation also records the
    frontier of active states it built lam from, the one set of active
    states the closed forms read, which spares them re-checking lam.
    :func:`layer_rates` gives the rate each state's power layer carries.
    """

    beta: tuple
    lam: tuple
    #: the channel optimal_allocation built it from, set only by errors._make
    _source: object = field(default=None, init=False, repr=False, compare=False)
    #: the frontier optimal_allocation built lam from, equal to
    #: active_states; read only by _routes
    _frontier: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def active_states(self) -> tuple:
        """1-based indices of states with a non-empty power layer."""
        beta = self.beta
        steps = zip(itertools.count(1), beta, itertools.chain((0,), beta))
        return tuple([k for k, b, prev in steps if b > prev])


def optimal_allocation(ch: PreparedChannel, chain: MufChain) -> PowerAllocation:
    """Expected-rate maximizing cumulative power vector for the channel.

    States before the strongest active state get zero power, the active
    states split the budget at the chain breakpoints, and everything from
    the weakest active state on rides at the full budget.  The factors are
    built from the frontier ``pi[s-1:w]``, which the allocation records: the
    levels ``breakpoints[s:w]``, above 0 and below 1 by the choice of s and
    w, rise strictly, so each frontier state has a layer of its own.  Levels
    that do not rise mean a broken chain and raise InternalConsistencyError.
    """
    check_built("optimal_allocation", "ch", ch, PreparedChannel)
    check_built("optimal_allocation", "chain", chain, MufChain, ch)
    k_states = ch.num_states
    pi, bps, s, w = chain.pi, chain.breakpoints, chain.s, chain.w
    g_1 = ch.gains[0]
    if isinstance(g_1, float) or not is_fraction(g_1):
        one = 1.0
    else:
        from fractions import Fraction

        one = Fraction(1)

    levels, frontier = bps[s:w], pi[s - 1 : w]
    if not all(map(operator.lt, levels, levels[1:])):
        raise InternalConsistencyError(f"chain levels {levels} do not rise strictly")
    beta = [one - one] * (pi[s - 1] - 1)
    # segment i covers states pi[i-1] .. pi[i]-1.  When each of the w - s
    # active segments holds one state, the common case on long chains, the
    # levels are the active states' powers; else each segment repeats its
    # level, and a one-state one is one append
    if pi[w - 1] - pi[s - 1] == w - s:
        beta += levels
    else:
        for level, first, end in zip(levels, frontier, pi[s:w]):
            if end - first == 1:
                beta.append(level)
            else:
                beta += (level,) * (end - first)
    beta += (one,) * (k_states + 1 - pi[w - 1])

    lam = _decoded_rate_factors(ch.inverse_gains, ch.cum_probs, frontier)
    return _make(
        PowerAllocation, beta=tuple(beta), lam=tuple(lam), _source=ch, _frontier=frontier
    )


def layer_rates(ch: PreparedChannel, alloc: PowerAllocation) -> tuple:
    """Rate of each state's power layer, in nats:
    ``ln((1 + beta_k g_k) / (1 + beta_{k-1} g_k))``, zero for every state
    with an empty layer.  Their sum weighted by ``F_k`` is the expected
    rate of the allocation."""
    check_built("layer_rates", "ch", ch, PreparedChannel)
    check_built("layer_rates", "alloc", alloc, PowerAllocation, ch)
    beta = alloc.beta
    # log1p takes a Fraction as its float(); (b - 0) / (n_1 + 0) is exact
    # in floats and in Fractions alike
    log1p = math.log1p
    steps = zip(beta, itertools.chain((0,), beta), ch.inverse_gains)
    return tuple([log1p((b - prev) / (nk + prev)) for b, prev, nk in steps])


def _decoded_rate_factors(n, f, frontier) -> list:
    """Decoded-rate factors ``Lambda_k`` of states 1..len(n) for a frontier
    of active states (1-based, ascending), in the arithmetic of n and f.

    With ``head = (n_w + 1) / F_w`` for the weakest active state w, each
    active state b gives ``head * (F_b - F_a) / (n_b - n_a)`` to itself and
    the states since the previous active state a (``F_0 = n_0 = 0``); the
    states after w keep the factor 1.  When head overflows (tiny F_w, huge
    n_w), ``(F_b - F_a) / F_w`` in (0, 1] goes first, so no intermediate
    overflows unless the factor does.  When n_w itself overflowed to inf (a
    subnormal gain), the factor of w takes its limit ``(F_w - F_a) / F_w``,
    since ``(n_w + 1) / (n_w - n_a)`` tends to 1.
    """
    last = frontier[-1]
    top, f_w = n[last - 1] + 1, f[last - 1]
    head = top / f_w
    inf = math.inf
    lam = []
    a, fa, na = 0, 0, 0
    for b in frontier:
        fb, nb = f[b - 1], n[b - 1]
        df, dn = fb - fa, nb - na
        if head < inf:
            x = head * df / dn
        else:
            x = top * (df / f_w) / dn if dn < inf else df / f_w
        if b - a == 1:
            lam.append(x)
        else:
            lam += (x,) * (b - a)
        a, fa, na = b, fb, nb
    lam += (n[0] / n[0],) * (len(n) - a)
    return lam


class _Rung(NamedTuple):
    """Arithmetic of one rung of the precision ladder.

    The rung evaluates a channel only when its inverse gains and
    probabilities lie strictly inside (lo, hi) and its level gaps above lo:
    for floats that range keeps every intermediate a normal number, so
    rounding stays relative.
    """

    num: Callable
    log: Callable
    log1p: Callable
    fsum: Callable
    unit: object
    lo: float
    hi: float


@functools.lru_cache(maxsize=None)
def _rung(digits) -> _Rung:
    """Float arithmetic for ``digits=None``, else an mpmath context."""
    if digits is None:
        return _Rung(float, math.log, math.log1p, math.fsum, 2.0**-53, 1e-100, 1e100)
    from fractions import Fraction

    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = digits

    def num(x):
        if isinstance(x, Fraction):
            return ctx.mpf(x.numerator) / x.denominator
        return ctx.mpf(x)

    return _Rung(num, ctx.log, ctx.log1p, ctx.fsum, ctx.mpf(2) ** -ctx.prec, 0.0, math.inf)


def _evaluate(ch: PreparedChannel, active: tuple, exact_inputs: bool, beta, p_min, rung: _Rung):
    """Both closed forms on one rung, with first-order error bounds.

    exact_inputs is true when an input the forms read is a Fraction; beta
    is the allocation's power vector and p_min the smallest probability of
    the states up to the weakest active one.  The bounds take every
    arithmetic operation as exact up to one relative rounding ``unit`` and
    a log or log1p as exact up to two units of its result; a Fraction input
    converts with relative error ``iota = 2 * unit``, which the differences
    amplify by their conditioning.

    ``ln Lambda_k`` is the log of the factor, except on the weakest active
    segment w (previous active state a, ``F_0 = n_0 = 0``), where it is
    ``log1p(x)`` with

        x = Lambda_w - 1 = (df + (n_a df - F_a dn)) / (F_w dn),
        df = F_w - F_a,  dn = n_w - n_a.

    The n_w terms of ``(n_w + 1) df - F_w dn`` cancel in the algebra, so
    they never cancel in rounding, and x keeps its relative accuracy when
    Lambda_w is next to 1 (a low capacity).  The bracket is
    ``F_w n_a - F_a n_w`` formed from the differences the segment already
    has; when a = 0 it is exactly 0 and x is ``1 / n_w`` up to two roundings.
    Its absolute error, with e_f and e_n the relative errors of df and dn
    and r one rounding when a != 0 (else 0), is at first order

        e_x = (df e_f + n_a df (iota + e_f + u) + F_a dn (iota + e_n + u)
               + r (|bracket| + |numerator|)) / (F_w dn)
              + |x| (iota + e_n + 2u),

    and the term ``ln Lambda_w`` carries ``e_x / (1 + x) + |lr| * e_log``
    where any other segment carries ``e_lam + |lr| * e_log``.  Formed from
    the differences, the bracket's products are at most ``Lambda_w F_w dn``
    (``n_a df``) and ``F_w dn`` (``F_a dn``), so its cancellation costs a
    few units at most; the products of ``F_w n_a - F_a n_w`` itself can
    exceed ``F_w dn`` by ``n_a / dn``.

    Each segment's factor before w is formed once, in the segment loop, as
    ``head * df / dn``, the expression :func:`_decoded_rate_factors` uses
    for a finite head.

    The second form is the expected rate ``R(beta)`` of the power vector,
    the objective the allocation maximizes.  Only the active states have a
    layer, and between two of them the level stays, so ``beta_{b-1}`` of an
    active state b is the level of the previous one, a (0 when a = 0):

        R = sum_b F_b log1p((beta_b - beta_a) / (n_b + beta_a)).

    It reads the levels, not the factors, so a wrong level or frontier
    opens a gap to the per-state form.  Every term is at least 0, so the sum never cancels: a term
    carries 3u from its quotient, 2u from log1p (``x / (1 + x) <= log1p(x)``
    keeps x's relative error) and u from the product, and fsum adds u of
    the sum, ``7u R`` in all.  A Fraction input adds, per term,
    ``iota (beta_b + beta_a) / (beta_b - beta_a) + 2 iota`` for the level
    gap's conditioning and the rounding of n_b and F_b.

    The segment loop keeps only what varies per segment: the logs and the
    terms.  The per-state bound is formed after it.  Without input
    rounding (iota = 0, float or int inputs on every rung) a factor's error
    ``e_lam`` is one constant on the first segment and one on every later
    segment, so the ``e_lam`` charges are those constants weighted by the F
    differences the segments cover; the log errors ``|lr| * e_log`` come
    from the sum of ``|p_k lr_k| = p_k |lr_k|`` over the per-state terms.
    The loop notes whether a term is negative; a ``|.|`` sum with none is
    the value sum, so it is the per-state form itself, formed once.
    Segment w keeps its own ``e_x / (1 + x)`` charge.  With input rounding
    each segment adds its conditioning terms in the loop.

    The float rung evaluates only level gaps above its lower range end as
    well: with n and p inside its range they keep the quotient and the
    rate terms normal numbers.

    Returns ``(per_state, err_per_state, rate, err_rate)``, or None when
    the rung cannot evaluate the channel.
    """
    last = active[-1]
    lo, hi = rung.lo, rung.hi
    if not (lo < ch.inverse_gains[0] and ch.inverse_gains[last - 1] < hi and lo < p_min):
        return None
    num, log, log1p, u = rung.num, rung.log, rung.log1p, rung.unit
    iota = 2 * u if exact_inputs else 0
    n, f, p = ch.inverse_gains, ch.cum_probs, ch.probs
    # floats and ints already are the float rung's numbers (an int input is
    # exact in Python arithmetic), read where they are
    if num is not float or exact_inputs:
        n, f, p, beta = ([num(x) for x in xs[:last]] for xs in (n, f, p, beta))

    top, f_w = n[last - 1] + 1, f[last - 1]
    head = top / f_w
    e_head = 2 * u + 2 * iota
    u2, u3 = 2 * u, 3 * u
    e_log = iota + u3  # a log's two units, the product's one, the input rounding
    # a factor's error before its differences' conditioning: the first
    # segment's are against the zero origin, every later one's round once;
    # without input rounding at most 6u, far below _MAX_REL_ERR
    e_first, e_later = e_head + u2, e_head + u + u + u2
    single = len(active) == 1
    # with input rounding each segment adds its own conditioning terms to
    # the bounds
    cond_p = cond_r = 0
    # whether a per-state term is negative: without one, its |.| sum is
    # the value sum
    neg_p = False
    per_state, rates = [], []
    a, fa, na, ba = 0, 0, 0, 0
    for b in active:
        fb, nb, bb = f[b - 1], n[b - 1], beta[b - 1]
        df, dn, gap = fb - fa, nb - na, bb - ba
        # against 0.0, not 0: CPython specializes a float's comparison only
        # with a float, and an mpf compares with either exactly alike
        if not (df > 0.0 and dn > 0.0 and gap > lo):
            return None
        if iota:
            # the input rounding, amplified by the differences' conditioning
            c_f = iota * (fb + fa) / df
            c_n = iota * (nb + na) / dn
            c_r = iota * ((bb + ba) / gap + 2)
            e_0 = u if a else 0
            e_lam = e_head + (e_0 + c_f) + (e_0 + c_n) + u2
            if e_lam > _MAX_REL_ERR or c_r > _MAX_REL_ERR:
                return None
            if b < last:
                cond_p += df * (c_f + c_n)
        # Lambda_k is constant on the segment, so one log serves its states;
        # head is finite: the float rung runs only on n and p inside
        # (1e-100, 1e100), so head < 1e200, and an mpf does not overflow
        if b < last:
            lr = log(head * df / dn)
        else:
            # the bracket and its error terms are exactly 0 when a = 0
            e_f = e_n = u if a else 0
            if iota:
                e_f += c_f
                e_n += c_n
            numer, e_numer = df, df * e_f
            if a:
                bracket = na * df - fa * dn
                numer += bracket
                e_numer += (
                    na * df * (iota + e_f + u)
                    + fa * dn * (iota + e_n + u)
                    + u * (abs(bracket) + abs(numer))
                )
            den = fb * dn
            x = numer / den
            e_x = e_numer / den + abs(x) * (iota + e_n + u2)
            one_x = 1 + x
            if not e_x <= _MAX_REL_ERR * one_x:
                return None
            lr = log1p(x)
            err_w = df * (e_x / one_x)
        if lr < 0.0:
            neg_p = True
        # a one-state segment, the common case on long chains, needs no loop
        if b - a == 1:
            per_state.append(p[a] * lr)
        else:
            per_state += [pk * lr for pk in p[a:b]]
        rate = fb * log1p(gap / (nb + ba))
        rates.append(rate)
        if iota:
            cond_r += rate * c_r
        a, fa, na, ba = b, fb, nb, bb

    fsum = rung.fsum
    f_1 = f[active[0] - 1]
    # the factor errors of the segments before w, weighted by the F
    # differences they cover: the first ends at F_1 = F of the first active
    # state, the last at F_a of w
    err_p = cond_p + err_w
    if not single:
        err_p += e_first * f_1 + e_later * (f[active[-2] - 1] - f_1)
    # the logs' errors, |p lr| = p |lr|
    per = fsum(per_state)
    err_p += e_log * (fsum(map(abs, per_state)) if neg_p else per)
    err_p = _SLACK * (err_p + u * abs(per))
    r = fsum(rates)
    return per, err_p, r, _SLACK * (7 * u * r + cond_r)


def _check_factors(ch: PreparedChannel, alloc: PowerAllocation, active: tuple) -> None:
    """Raise InternalConsistencyError unless every stored decoded-rate factor
    lies within LAMBDA_RTOL of the exact factor formed from the channel's
    inputs and the frontier active, the one the allocation built its
    factors from: a mismatch means the stored factors are inaccurate.  The
    levels meet the factors only where the two closed forms must agree.
    Decided exactly, in Fraction arithmetic.
    """
    last = active[-1]
    tail = ch.num_states - last
    stored = list(alloc.lam)
    from fractions import Fraction

    # a float or int converts exactly
    inputs = (ch.inverse_gains[:last], ch.cum_probs[:last])
    n, f = ([x if isinstance(x, Fraction) else Fraction(x) for x in xs] for xs in inputs)
    exact = _decoded_rate_factors(n, f, active) + [Fraction(1)] * tail
    if stored == exact:
        return
    for k, (y, x) in enumerate(zip(stored, exact), start=1):
        # a NaN or infinite factor fails; a Fraction compares with a float
        # exactly
        if not abs(y) < math.inf or abs(Fraction(y) / x - 1) > LAMBDA_RTOL:
            raise InternalConsistencyError(
                f"decoded-rate factor of state {k} is {y},"
                f" exact factor of the recorded frontier is {_rung(_MP_DIGITS[0]).num(x)}"
            )


def _routes(ch: PreparedChannel, alloc: PowerAllocation):
    """Both closed forms, gated on the precision ladder.

    Returns ``(per_state, rate)`` as floats from the rung that certifies the
    exact values of the two forms within ROUTE_RTOL of each other and
    per_state within VALUE_RTOL of its own exact value, rate the expected
    rate of the allocation's power vector.  Raises InternalConsistencyError
    when a rung certifies that they differ by more than ROUTE_RTOL, or when
    no rung settles either.  Each rung decides alone, and a rung that
    settles neither moves up one.  A disagreement is only accepted from an
    mpmath rung, so a disagreement in floats moves up too.
    The decoded-rate factor cross-check is decided once, after the first
    rung that evaluates, and raises there.

    The active states are the frontier the allocation records; an
    allocation without one is not optimal_allocation's.  Whether a
    Fraction reaches the forms is read from the first exact state the
    channel records: it does when that state is the weakest active one w
    or comes before it.  The smallest probability up to w, which every
    rung's range test reads, is formed once here.

    With float or int inputs, when the float rung evaluates first, the
    stored factors pass when every one is finite and positive, and that
    takes two tests, not a pass over the K factors:

    - each factor before w is bitwise the rung's ``head * df / dn``, as
      :func:`_decoded_rate_factors` formed it from the same numbers with
      head finite, and the rung sums ``p_k`` times its log, so one of
      them is inf exactly when the per-state sum is;
    - those factors are positive: inside the rung's input range head is
      at least about 1 and ``df / dn`` at least about 1e-216, so no
      product underflows;
    - the factors after w are ``n_1 / n_1 = 1``;
    - the rung never forms w's stored factor, so it is tested itself.

    Each stored factor is then within a few units of its exact value.  An
    allocation mutated after optimal_allocation returned it is outside
    this contract, as a forged mark is.  :func:`_check_factors` decides
    every other case.
    """
    active = alloc._frontier
    if not active:
        raise ValidationError("allocation has no active state; not an optimal allocation")
    if not ch.inverse_gains[active[-1] - 1] < math.inf:
        raise ValidationError(
            f"gains: the inverse of the gain {ch.gains[active[-1] - 1]} of active"
            f" state {active[-1]} overflows double precision"
        )
    # whether an input the forms read is a Fraction, for every rung: a
    # cumulative probability is one only if a probability up to it is, and
    # the channel records the first state with such an input
    last = active[-1]
    exact_inputs = ch._first_exact <= last
    beta, p_min = alloc.beta, min(ch.probs[:last])
    per = rate = None
    for digits in (None,) + _MP_DIGITS:
        rung = _rung(digits)
        out = _evaluate(ch, active, exact_inputs, beta, p_min, rung)
        if out is None:
            continue
        first = per is None  # the first rung that evaluates
        per, err_p, rate, err_r = out
        if first:
            floats = digits is None and not exact_inputs
            if not (floats and per < math.inf and 0 < alloc.lam[last - 1] < math.inf):
                _check_factors(ch, alloc, active)
        diff = abs(per - rate)
        scale = max(abs(per), abs(rate))
        err = err_p + err_r + rung.unit * diff
        if diff + err <= ROUTE_RTOL * (scale - err) and err_p <= VALUE_RTOL * abs(per):
            return float(per), float(rate)
        if digits is not None and diff - err > ROUTE_RTOL * (scale + err):
            raise InternalConsistencyError(
                f"closed forms disagree: per-state {per} vs expected rate {rate}"
            )
    values = "no rung evaluated them" if per is None else f"per-state {per} vs expected rate {rate}"
    raise InternalConsistencyError(f"closed forms not settled at {_MP_DIGITS[-1]} digits: {values}")


def closed_form_routes(ch: PreparedChannel, alloc: PowerAllocation) -> tuple:
    """The per-state closed form and the expected rate of the allocation's
    power vector, as floats, for cross-checking.

    Gated as expected_capacity is: both values come from the rung that
    certified their agreement, and a certified disagreement raises
    InternalConsistencyError.
    """
    check_built("closed_form_routes", "ch", ch, PreparedChannel)
    check_built("closed_form_routes", "alloc", alloc, PowerAllocation, ch)
    return _routes(ch, alloc)


def expected_capacity(ch: PreparedChannel, alloc: PowerAllocation) -> float:
    """Expected capacity over one-block delay, in nats per channel use.

    Gated: evaluates the per-state closed form and the expected rate of the
    allocation's power vector, and raises InternalConsistencyError if they
    disagree beyond ROUTE_RTOL relative; returns the per-state form.
    """
    check_built("expected_capacity", "ch", ch, PreparedChannel)
    check_built("expected_capacity", "alloc", alloc, PowerAllocation, ch)
    return _routes(ch, alloc)[0]


def expected_rate_of(ch: PreparedChannel, beta) -> float:
    """Expected rate of an arbitrary feasible cumulative power vector.

    Feasibility means 0 <= beta_1 <= ... <= beta_K <= 1.  This evaluator is
    shared by the brute-force certifier and feasibility tests and does not
    touch the envelope machinery.
    """
    check_built("expected_rate_of", "ch", ch, PreparedChannel)
    beta = validated_tuple("beta", beta)
    if len(beta) != ch.num_states:
        raise ValidationError(f"beta must have {ch.num_states} entries, got {len(beta)}")
    total = 0.0
    prev = 0.0
    for k, (g, f, b) in enumerate(zip(ch.gains, ch.cum_probs, beta), start=1):
        check_real(f"beta: entry {k}", b)
        if not (prev <= b <= 1):
            raise ValidationError(f"beta is infeasible at state {k}: {beta}")
        gf = float(g)
        total += float(f) * math.log1p((b - prev) * gf / (1 + prev * gf))
        prev = b
    return total

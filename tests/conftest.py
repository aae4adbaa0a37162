"""Shared helpers for the test suite, and the one home of its channel
populations.

Random channels come from the same seeded generator the verify subcommand
uses, so test instances and CLI certification instances are drawn from one
distribution family: K uniform, gains log-uniform in [1e-3, 1e3], flat
Dirichlet probabilities.  POPULATIONS names every population the suite
certifies or pins to a golden; add a channel population there, and the
certification matrix of ``test_acceptance.py`` runs every check of
``certify.CHECKS`` on it.
"""

import bisect
import functools
import itertools
import json
import math
import numbers
import operator
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import strategies as st

from fadegap import (
    FadingDistribution,
    MufChain,
    OracleResult,
    additive_family,
    allocation,
    build_chain,
    dominating_muf,
    high_snr_instance,
    intersection,
    low_snr_instance,
    multiplicative_family,
    muf_value,
    optimal_allocation,
    prepare,
)
from fadegap.allocation import (
    _MAX_REL_ERR,
    _SLACK,
    LAMBDA_RTOL,
    _decoded_rate_factors,
    expected_rate_of,
)
from fadegap.certify import (
    CHAIN_ATOL,
    CHAIN_RTOL,
    Margin,
    _gap,
    _worst,
)
from fadegap.cli import _trial, random_distribution
from fadegap.errors import InternalConsistencyError, ValidationError

#: The stage that builds, and marks, each of the pipeline's objects.
BUILDERS = {
    "PreparedChannel": "prepare",
    "MufChain": "build_chain",
    "PowerAllocation": "optimal_allocation",
}


def _marked(obj, ch):
    """obj marked as built by its stage from the channel ch, for a test that
    hands a stage a corrupted chain or allocation on purpose: a stage
    refuses an unmarked one, or one of another channel, before it reads a
    field."""
    object.__setattr__(obj, "_source", ch)
    return obj


ADDITIVE_D_GRID = (3, 10, 100, 1e4)
MULTIPLICATIVE_D_GRID = (0.5, 2, 60, 1e4)


class _Real:
    """A real number that is neither a float nor a rational number, as a
    numpy float32 is; CI installs no numpy.  Like a float32 it compares by
    value and raises a number to its power, and does no other arithmetic."""

    def __init__(self, x):
        self.x = x

    def __float__(self):
        return self.x

    def __lt__(self, other):
        return self.x < float(other)

    def __gt__(self, other):
        return self.x > float(other)

    def __rpow__(self, base):
        return _Real(base**self.x)

    def __repr__(self):
        return f"_Real({self.x!r})"


numbers.Real.register(_Real)


def strict_json(text):
    """json.loads that refuses the non-JSON constants NaN and Infinity."""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def random_channels(n: int, seed: int, max_states: int = 5):
    rng = random.Random(seed)
    return [random_distribution(rng, max_states) for _ in range(n)]


def family_points():
    """(label, distribution) for both worst-case families across their d
    grids: every K admissible for the additive constraint d > max(K-1, 2)."""
    for d in ADDITIVE_D_GRID:
        for k in range(2, 9):
            if d > max(k - 1, 2):
                yield f"additive[K={k},d={d}]", additive_family(k, d)
    for d in MULTIPLICATIVE_D_GRID:
        for k in range(1, 9):
            yield f"multiplicative[K={k},d={d}]", multiplicative_family(k, d)


@pytest.fixture
def disagreeing_closed_forms(monkeypatch):
    """Every rung returns an expected rate 1e-6 relative off the per-state
    form, with its own error bounds, so the first mpmath rung certifies a
    disagreement."""
    evaluate = allocation._evaluate

    def disagreeing(*args):
        per, err_p, _, err_r = evaluate(*args)
        return per, err_p, per * (1 + 1e-6), err_r

    monkeypatch.setattr(allocation, "_evaluate", disagreeing)


def high_snr_ladder(k: int, snr: float = 1e12) -> FadingDistribution:
    """High-SNR ladder ``r_j = 1-(j-1)/K`` with uniform probabilities: every
    state lies on the envelope chain, so the chain length is K."""
    return high_snr_instance([1 - (j - 1) / k for j in range(1, k + 1)], [1 / k] * k, snr)


def extreme_gains(rng: random.Random, shape: int, k: int):
    if shape == 0:  # near the bottom of the float range
        return [1e-300 * 10 ** rng.uniform(0, 3) for _ in range(k)]
    if shape == 1:  # tied to within 1e-9
        g = 10 ** rng.uniform(-3, 3)
        return [g * (1 + 1e-9 * rng.uniform(-1, 1)) for _ in range(k)]
    if shape == 2:  # spread over 60 decades
        return [10 ** rng.uniform(-30, 30) for _ in range(k)]
    return [10 ** rng.uniform(-3, 3) for _ in range(k - 1)] + [0]


def extreme_channels(n: int, seed: int):
    """Channels at the edges of the float range, K in 2..5, cycling through
    the four shapes of extreme_gains, with flat-Dirichlet probabilities."""
    rng = random.Random(seed)
    channels = []
    for i in range(n):
        k = rng.randint(2, 5)
        raw = [rng.expovariate(1.0) for _ in range(k)]
        total = functools.reduce(operator.add, raw)  # as in random_distribution
        gains = extreme_gains(rng, i % 4, k)
        channels.append(FadingDistribution(tuple(gains), tuple(x / total for x in raw)))
    return channels


def near_parallel_channels(n: int, seed: int, concurrent: bool):
    """Channels whose lines ``(z + n_k) / F_k`` nearly meet in one point, K
    in 3..12, with flat-Dirichlet probabilities: ``n_k = (c + b F_k) (1 + e_k)``
    puts every line through z = -c, and e_k of either sign and relative size
    ``10**uniform(-16.5, top)`` moves it off.  Collinear points (concurrent
    False) have c > 0 and top -8; concurrent ones have -c in (0.05, 0.95),
    inside the power budget, and top -12."""
    rng = random.Random(seed)
    channels = []
    for _ in range(n):
        k = rng.randint(3, 12)
        raw = [rng.expovariate(1.0) for _ in range(k)]
        total = functools.reduce(operator.add, raw)  # as in random_distribution
        probs = [x / total for x in raw]
        cum = list(itertools.accumulate(probs))
        if concurrent:
            c, top = -rng.uniform(0.05, 0.95), -12
            b = -c / cum[0] * 10 ** rng.uniform(0, 2)
        else:
            c, top = 10 ** rng.uniform(-2, 1), -8
            b = 10 ** rng.uniform(-1, 1)
        inverse = [
            (c + b * f) * (1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-16.5, top))
            for f in cum
        ]
        channels.append(FadingDistribution(tuple(1 / x for x in inverse), tuple(probs)))
    return channels


def assert_accepted_channel_has_no_nan(dist):
    """If prepare accepts dist, its chain has no NaN breakpoint and its
    allocation no NaN power or factor.  The zero-gain channel has no chain."""
    try:
        ch = prepare(dist)
    except ValidationError:
        return
    if ch.degenerate:
        return
    chain = build_chain(ch)
    alloc = optimal_allocation(ch, chain)
    # NaN is the one value unequal to itself
    for values in (chain.breakpoints, alloc.beta, alloc.lam):
        assert all(x == x for x in values), (dist, chain, alloc)


def fraction_channels():
    """Exact channels: hand-picked ones, some mixed with floats, then random
    channels whose float gains and weights are taken exactly and normalised
    as Fractions."""
    half = Fraction(1, 2)
    channels = [
        FadingDistribution((Fraction(4), Fraction(1)), (half, half)),
        FadingDistribution((Fraction(1), Fraction(0)), (half, half)),
        FadingDistribution((Fraction(3), Fraction(2), Fraction(1)), (Fraction(1, 3),) * 3),
        # the crossing of the two states lies on the budget edge 1, in
        # Fractions and in floats
        FadingDistribution((Fraction(4), Fraction(2, 3)), (half, half)),
        FadingDistribution((Fraction(4), Fraction(2, 3)), (0.5, 0.5)),
        FadingDistribution((4.0, 1.0, 0.0), (Fraction(1, 4), Fraction(1, 4), half)),
    ]
    for dist in random_channels(12, seed=11, max_states=6):
        total = sum(map(Fraction, dist.probs))
        probs = tuple(Fraction(p) / total for p in dist.probs)
        channels.append(FadingDistribution(tuple(map(Fraction, dist.gains)), probs))
    return channels


#: Channels whose weakest states' inverse gains overflow: one such state,
#: two, and one after a state that almost all probability weight reaches.
OVERFLOWED = [
    FadingDistribution((2.0, 1e-320), (0.5, 0.5)),
    FadingDistribution((3.0, 1e-320, 2e-320), (0.4, 0.3, 0.3)),
    FadingDistribution((1e10, 1.0, 1e-320), (1e-6, 0.5, 0.5 - 1e-6)),
]


def hard_optima():
    """Channels that defeated earlier oracle searches: the 18th draw of seed
    0, whose optimum skips a state, and the draw of seed 3345769749, whose
    optimum sits on slice endpoints; high-SNR ladders, on which a grid that
    is not geometric near zero lands percents low; and a channel whose
    optimal beta_1 = 1e-20 - 2e-30 needs cells narrowed relative to it, not
    to the budget."""
    hard = random_channels(18, seed=0)[-1:] + random_channels(1, seed=3345769749)
    hard += [high_snr_ladder(k) for k in (4, 16, 32)]
    return hard + [FadingDistribution((1e30, 1e20), (0.5, 0.5))]


#: Every test channel population, by name, as a function that builds it.
#: The certification matrix runs every check on each; the golden-backed
#: views (analysis_digests.json, oracle_reference.json) and the
#: differential tests read theirs from here by name.
POPULATIONS = {
    "random-seed-0": lambda: random_channels(200, seed=0),
    "random-seed-7-k8": lambda: random_channels(50, seed=7, max_states=8),
    "random-seed-13": lambda: random_channels(40, seed=13),
    "random-seed-0-k12": lambda: random_channels(500, seed=0, max_states=12),
    "random-k12": lambda: random_channels(2000, seed=12, max_states=12),
    "extreme": lambda: extreme_channels(24, seed=5),
    "extreme-seed-3": lambda: extreme_channels(200, seed=3),
    "near-collinear": lambda: near_parallel_channels(300, seed=1, concurrent=False),
    "near-concurrent": lambda: near_parallel_channels(300, seed=2, concurrent=True),
    "overflowed": lambda: list(OVERFLOWED),
    "fraction": fraction_channels,
    "families": lambda: [dist for _, dist in family_points()],
    "low-snr": lambda: [
        low_snr_instance(range(k, 0, -1), [1 / k] * k, snr)
        for k in range(2, 7)
        for snr in (1e-9, 1e-6, 1e-3, 0.1)
    ],
    "long-ladder": lambda: [high_snr_ladder(k) for k in (128, 256, 512, 1024)],
    "hard-optima": hard_optima,
}


@functools.lru_cache(maxsize=1)
def population_trials(name):
    """(the certify.Trial of every channel of POPULATIONS[name], seconds it
    took to build them), by the trial builder verify uses.  Only the last
    population's trials are kept: the matrix asks for one population's
    in a row, and keeping every population's alive slows the garbage
    collector for the rest of the session."""
    start = time.monotonic()
    trials = [_trial(dist) for dist in POPULATIONS[name]()]
    return trials, time.monotonic() - start


def greedy_chain(ch) -> MufChain:
    """Reference envelope chain by direct search, O(K * chain length).

    From each chain state, jump to the later state with the smallest chord
    ``(n_l - n_cur) / (F_l - F_cur)``, which orders the crossing points
    ``z_{cur,l} = -n_cur + F_cur * chord``.  The chords are compared exactly,
    on the prepared values taken as Fractions, so a tie is a true tie of the prepared values, and it
    resolves to the largest index.  States whose inverse gain overflowed
    are left to the end, where the last of them closes the chain.
    build_chain must reproduce it exactly.
    """
    k_states = ch.num_states
    n, f = ch.inverse_gains, ch.cum_probs
    finite = sum(x < math.inf for x in n)

    def numerators(xs):
        """xs as ints over their common denominator, which the comparison
        of two chords cancels: exact, and faster than Fraction arithmetic."""
        exact = [Fraction(x) for x in xs[:finite]]
        d = math.lcm(*(x.denominator for x in exact))
        return [x.numerator * (d // x.denominator) for x in exact]

    n_exact, f_exact = numerators(n), numerators(f)

    pi = [1]
    breakpoints = [-n[0]]
    while pi[-1] < finite:
        cur = pi[-1] - 1
        best, best_dn, best_df = None, None, None
        for l in range(cur + 1, finite):
            dn, df = n_exact[l] - n_exact[cur], f_exact[l] - f_exact[cur]
            # dn / df <= best_dn / best_df, both denominators positive
            if best is None or dn * best_df <= best_dn * df:
                best, best_dn, best_df = l, dn, df
        pi.append(best + 1)
        breakpoints.append(intersection(ch, cur + 1, best + 1))
    if pi[-1] < k_states:
        breakpoints.append(intersection(ch, pi[-1], k_states))
        pi.append(k_states)

    s = max(i for i in range(1, len(pi) + 1) if breakpoints[i - 1] <= 0)
    w = max(i for i in range(1, len(pi) + 1) if breakpoints[i - 1] < 1)
    breakpoints.append(math.inf)

    return MufChain(pi=tuple(pi), breakpoints=tuple(breakpoints), s=s, w=w)


def reference_chain_ordering(ch, chain) -> Margin:
    """certify.chain_ordering_properties as it stood before the O(K)
    certificate: the three ordering properties of the envelope chain, in
    O(K^2).

    1. Each chosen crossing point minimizes over all later states.
    2. Interior crossing points are non-decreasing along the chain.
    3. Each chosen crossing point dominates the crossings from earlier states
       into the same chain state.

    States whose inverse gain overflowed cross every state at +inf
    (:func:`~fadegap.muf.intersection`), so two equal crossings, infinite
    ones included, are no gap; a NaN or +inf gap fails.  The certificate
    must equal it on every computed chain and fail every corrupted chain
    it fails.
    """
    gaps = []  # (excess, z it is measured against)
    segments = chain.segment_count
    for i in range(1, segments):
        z = chain.breakpoints[i]
        prev = chain.pi[i - 1]
        for l in range(prev + 1, ch.num_states + 1):
            gaps.append((_gap(z, intersection(ch, prev, l)), z))
        for l in range(1, chain.pi[i]):
            if l != prev:
                gaps.append((_gap(intersection(ch, l, chain.pi[i]), z), z))
    inner = chain.breakpoints[1:segments]
    gaps += [(_gap(a, b), b) for a, b in zip(inner, inner[1:])]
    ok = all(
        g <= max(CHAIN_ATOL, CHAIN_RTOL * abs(float(z))) and g < math.inf for g, z in gaps
    )
    return Margin(ok, _worst(g for g, _ in gaps))


#: Relative gap between the envelope and the best utility, and the number
#: of grid points reference_envelope_maximality samples it on.
ENVELOPE_RTOL = 1e-12
ENVELOPE_SAMPLES = 100


def reference_envelope_maximality(ch, chain) -> Margin:
    """The brute-force reference for the dominating_muf lookup: the value
    and state it returns match the best utility muf_value gives over all K
    states, on a uniform grid of ENVELOPE_SAMPLES points spanning
    (-n_1, 10 n_K].  The grid spans the finite inverse gains only: a state
    whose inverse gain overflowed has utility 0 at every finite z, so it is
    never best.  With no other state every utility is 0, the grid spans
    (-1, 10], and the deviation is the envelope value itself.
    """
    k_states, n = ch.num_states, ch.inverse_gains
    live = bisect.bisect_left(n, math.inf)
    n_1, n_k = (n[0], n[live - 1]) if live else (1.0, 1.0)
    span = 10 * n_k + n_1
    ok, deviations = True, []
    for j in range(1, ENVELOPE_SAMPLES + 1):
        z = -n_1 + span * j / ENVELOPE_SAMPLES
        value, state = dominating_muf(chain, ch, z)
        best = max(muf_value(ch, k, z) for k in range(1, k_states + 1) if z > -n[k - 1])
        deviations.append(abs(float(value - best)) / (float(best) or 1.0))
        ok = ok and 1 <= state <= k_states
    worst = max(deviations)
    return Margin(ok and worst <= ENVELOPE_RTOL, worst)


_ctx = mpmath.mp.clone()
_ctx.dps = 60


def _mpf(x):
    if isinstance(x, Fraction):
        return _ctx.mpf(x.numerator) / _ctx.mpf(x.denominator)
    return _ctx.mpf(x)


def reference_routes(ch, alloc):
    """Reference closed forms: both routes in a fixed 60-digit context.

    The per-state form sums ``p_k ln Lambda_k`` with the factors re-derived
    from the active states, and the stored factors are checked against the
    re-derived ones to LAMBDA_RTOL; the expected rate sums
    ``F_k ln((1 + beta_k g_k) / (1 + beta_{k-1} g_k))`` over every state
    with the allocation's own power vector.  Compare the per-state value
    only where the certified ladder settles at or below 60 digits.
    """
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

    for k, (stored, derived) in enumerate(zip(alloc.lam, factors), start=1):
        # a NaN factor fails too
        if not abs(_mpf(stored) / derived - 1) <= LAMBDA_RTOL:
            raise InternalConsistencyError(
                f"decoded-rate factor of state {k} is {stored}, factor of the frontier is {derived}"
            )

    per_state = sum((p[k] * _ctx.log(factors[k]) for k in range(ch.num_states)), _ctx.mpf(0))

    # an inactive state's term is exactly 0, and the states after the
    # weakest active one may have n = inf
    rate, prev = _ctx.mpf(0), _ctx.mpf(0)
    for fk, nk, bk in zip(f[:last], n[:last], map(_mpf, alloc.beta)):
        rate += fk * _ctx.log1p((bk - prev) / (nk + prev))
        prev = bk

    return per_state, rate


def reference_evaluate(ch, active: tuple, exact_inputs: bool, beta, rung):
    """allocation._evaluate as it stood before the segment loop formed the
    factors and the bounds were formed after the loop: the factors come
    from _decoded_rate_factors and every segment adds its error terms to the
    bounds, the expected rate's included.  _evaluate must return
    repr-identical values, and bounds equal up to the regrouping of their
    sums."""
    last = active[-1]
    lo, hi = rung.lo, rung.hi
    if not (lo < ch.inverse_gains[0] and ch.inverse_gains[last - 1] < hi):
        return None
    if not lo < min(ch.probs[:last]):
        return None
    num, log, log1p, u = rung.num, rung.log, rung.log1p, rung.unit
    iota = 2 * u if exact_inputs else 0
    inputs = (ch.inverse_gains[:last], ch.cum_probs[:last], ch.probs[:last], beta[:last])
    # floats and ints already are the float rung's numbers (an int input is
    # exact in Python arithmetic)
    if num is float and not exact_inputs:
        n, f, p, beta = inputs
    else:
        n, f, p, beta = ([num(x) for x in xs] for xs in inputs)

    lam = _decoded_rate_factors(n, f, active)
    e_head = 2 * u + 2 * iota
    u2, u3 = 2 * u, 3 * u
    e_log = iota + u3  # a log's two units, the product's one, the input rounding
    per_state, err_p = [], 0
    rates, err_r = [], 0
    a, fa, na, ba = 0, 0, 0, 0
    for b in active:
        fb, nb, bb = f[b - 1], n[b - 1], beta[b - 1]
        df, dn, gap = fb - fa, nb - na, bb - ba
        # a level gap at or below the rung's range would make the rate
        # terms subnormal in floats
        if not (df > 0 and dn > 0 and gap > lo):
            return None
        # one rounding (none against the zero origin) plus the amplified
        # input rounding, which is exactly 0 without one
        e_f = e_n = u if a else 0
        # the quotient's 3u, log1p's 2u and the product's u, plus the level
        # gap's conditioning and the rounding of n_b and F_b
        e_rate = 6 * u
        if iota:
            e_f += iota * (fb + fa) / df
            e_n += iota * (nb + na) / dn
            c_r = iota * (bb + ba) / gap + 2 * iota
            if c_r > _MAX_REL_ERR:
                return None
            e_rate += c_r
        e_lam = e_head + e_f + e_n + u2
        if e_lam > _MAX_REL_ERR:
            return None
        # Lambda_k is constant on the segment, so one log serves its states;
        # a one-state segment, the common case on long chains, needs no loop
        if b < last:
            lr = log(lam[b - 1])
            e_term = e_lam + abs(lr) * e_log
        else:
            # the bracket and its error terms are exactly 0 when a = 0
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
            e_term = e_x / one_x + abs(lr) * e_log
        if b - a == 1:
            per_state.append(p[a] * lr)
            err_p += p[a] * e_term
        else:
            for pk in p[a:b]:
                per_state.append(pk * lr)
                err_p += pk * e_term
        rate = fb * log1p(gap / (nb + ba))
        rates.append(rate)
        err_r += rate * e_rate
        a, fa, na, ba = b, fb, nb, bb

    per = rung.fsum(per_state)
    err_p = _SLACK * (err_p + u * abs(per))
    r = rung.fsum(rates)
    return per, err_p, r, _SLACK * (err_r + u * r)


@st.composite
def channel_distributions(draw, min_states: int = 2, max_states: int = 6):
    """Strategy over valid positive-gain distributions."""
    k = draw(st.integers(min_states, max_states))
    exponents = draw(
        st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k, unique=True)
    )
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    return FadingDistribution(
        gains=tuple(10.0**e for e in exponents),
        probs=tuple(x / total for x in weights),
    )


def as_distribution(ch) -> FadingDistribution:
    """Reinterpret a prepared channel as a raw distribution."""
    return FadingDistribution(gains=ch.gains, probs=ch.probs)


# ---------------------------------------------------------------------------
# reference oracle: the former grid and coordinate-ascent search
# ---------------------------------------------------------------------------

#: Axis point count for the grid strategy.
GRID_POINTS = 13

#: Invphi for golden-section search.
_INVPHI = (math.sqrt(5) - 1) / 2

#: Grid strategy handles up to this many states; beyond it, coordinate ascent.
GRID_MAX_STATES = 4

#: Coordinate-ascent pass limit per start (converges far earlier in practice).
MAX_PASSES = 60


def _grid_search(ch, tol: float):
    """Refine a uniform grid over the free coordinates until the bracketing
    cell falls below tol.  Axis brackets always retain the incumbent, and the
    budget endpoints stay on-grid so boundary optima are hit exactly."""
    free = ch.num_states - 1
    lo = [0.0] * free
    hi = [1.0] * free
    best_beta = None
    best_value = -math.inf
    evaluations = 0
    step = 1.0

    while True:
        axes = []
        for a, b in zip(lo, hi):
            span = b - a
            axes.append([a + span * j / (GRID_POINTS - 1) for j in range(GRID_POINTS)])
        step = max(h - l for l, h in zip(lo, hi)) / (GRID_POINTS - 1)

        stack = [()]
        for axis in axes:
            stack = [p + (x,) for p in stack for x in axis if not p or x >= p[-1]]
        for point in stack:
            if point and point[-1] > 1:
                continue
            beta = point + (1.0,)
            value = expected_rate_of(ch, beta)
            evaluations += 1
            if value > best_value or (value == best_value and beta < best_beta):
                best_value = value
                best_beta = beta

        if step <= tol:
            return best_beta, evaluations, step
        lo = [max(0.0, x - step) for x in best_beta[:free]]
        hi = [min(1.0, x + step) for x in best_beta[:free]]


def _golden_max(fun, a: float, b: float, tol: float):
    """Maximize a unimodal fun on [a, b] to within tol; returns (x, evals)."""
    evals = 0
    if b - a <= tol:
        x = (a + b) / 2
        return x, evals
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    evals += 2
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
        evals += 1
    return (a + b) / 2, evals


def _ascent_seeds(free: int):
    """Eight deterministic starting points: the step-shaped corners of the
    ordered simplex (subsampled when there are more than six), the midpoint,
    and the uniformly ascending interior point."""
    corners = []
    for ones in range(free + 1):
        corners.append(tuple([0.0] * (free - ones) + [1.0] * ones))
    if len(corners) > 6:
        idx = [round(i * (len(corners) - 1) / 5) for i in range(6)]
        corners = [corners[i] for i in idx]
    seeds = corners + [
        tuple([0.5] * free),
        tuple((k + 1) / (free + 1) for k in range(free)),
    ]
    return seeds[:8]


def _line_max(ch, beta, indices, lo, hi, tol):
    """Golden-section the common value of beta[indices] over [lo, hi].

    The joint slice telescopes to a single hyperbola difference, so it is
    unimodal just like the single-coordinate slices.  Returns the movement
    and the number of objective evaluations.  The searched point competes
    with the old one and with the slice endpoints, which the search brackets
    never reach although an empty power layer puts the optimum there; the
    first best of (searched, old, lo, hi) wins."""

    def slice_value(x):
        for k in indices:
            beta[k] = x
        return expected_rate_of(ch, beta + [1.0])

    old = beta[indices[0]]
    x, used = _golden_max(slice_value, lo, hi, tol)
    x = max((x, old, lo, hi), key=slice_value)
    for k in indices:
        beta[k] = x
    return abs(x - old), used + 4


def _glued_runs(beta, tol):
    """Maximal runs of >= 2 coordinates whose values agree to within 2 tol.

    Single-coordinate moves cannot split such a run when its shared value is
    pinched between two utility crossings, so runs get their own joint line
    search."""
    runs = []
    start = 0
    for k in range(1, len(beta) + 1):
        if k == len(beta) or abs(beta[k] - beta[k - 1]) > 2 * tol:
            if k - start >= 2:
                runs.append(list(range(start, k)))
            start = k
    return runs


def _coordinate_ascent(ch, tol: float):
    """Cyclic coordinate ascent from each seed, keeping the best outcome.

    Each pass maximizes one coordinate at a time between its neighbours,
    then jointly shifts every glued run of coordinates (single-coordinate
    moves stall whenever the optimum skips a state).  Ties across starts
    resolve to the lexicographically smallest beta."""
    free = ch.num_states - 1
    best_beta = None
    best_value = -math.inf
    evaluations = 0

    for seed in _ascent_seeds(free):
        beta = list(seed)
        for _ in range(MAX_PASSES):
            moved = 0.0
            for k in range(free):
                lo = beta[k - 1] if k > 0 else 0.0
                hi = beta[k + 1] if k + 1 < free else 1.0
                delta, used = _line_max(ch, beta, [k], lo, hi, tol)
                evaluations += used
                moved = max(moved, delta)
            for run in _glued_runs(beta, tol):
                lo = beta[run[0] - 1] if run[0] > 0 else 0.0
                hi = beta[run[-1] + 1] if run[-1] + 1 < free else 1.0
                delta, used = _line_max(ch, beta, run, lo, hi, tol)
                evaluations += used
                moved = max(moved, delta)
            if moved <= tol / 10:
                break
        value = expected_rate_of(ch, beta + [1.0])
        evaluations += 1
        candidate = tuple(beta) + (1.0,)
        if value > best_value or (value == best_value and candidate < best_beta):
            best_value = value
            best_beta = candidate

    return best_beta, evaluations, tol


def reference_brute_force(ch, tol: float) -> OracleResult:
    """The oracle's search as it stood before the monotone-grid dynamic
    program: a refined grid for K <= 4, coordinate ascent above.  The new
    search must never land below it by more than 1e-12.

    tol bounds the final bracketing resolution in beta space.  The returned
    value is the expected rate of the returned beta, recomputed through the
    shared objective evaluator.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if ch.degenerate:
        raise ValidationError("cannot search a degenerate zero-gain channel")

    if ch.num_states == 1:
        beta = (1.0,)
        return OracleResult(
            value=expected_rate_of(ch, beta), beta=beta, iterations=0, resolution=0.0
        )

    if ch.num_states <= GRID_MAX_STATES:
        beta, evaluations, resolution = _grid_search(ch, tol)
    else:
        beta, evaluations, resolution = _coordinate_ascent(ch, tol)

    return OracleResult(
        value=expected_rate_of(ch, beta),
        beta=beta,
        iterations=evaluations,
        resolution=resolution,
    )

import math
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    POPULATIONS,
    _marked,
    extreme_channels,
    high_snr_ladder,
    random_channels,
    reference_evaluate,
    reference_routes,
)
from fadegap import (
    FadingDistribution,
    additive_family,
    analyze,
    ValidationError,
    allocation,
    build_chain,
    certify,
    closed_form_routes,
    envelope_integral,
    expected_capacity,
    expected_rate_of,
    full_analysis,
    InternalConsistencyError,
    PowerAllocation,
    low_snr_instance,
    multiplicative_family,
    optimal_allocation,
    prepare,
)


def pipeline(dist):
    ch = prepare(dist)
    chain = build_chain(ch)
    return ch, chain, optimal_allocation(ch, chain)


@pytest.fixture
def two_state():
    return pipeline(FadingDistribution((4, 1), (0.5, 0.5)))


def test_optimal_allocation_two_state(two_state):
    ch, chain, alloc = two_state
    assert alloc.beta == (pytest.approx(0.5, rel=1e-15), 1.0)
    assert alloc.lam[0] == pytest.approx(4.0, rel=1e-15)
    assert alloc.lam[1] == pytest.approx(4 / 3, rel=1e-15)
    assert alloc.active_states == (1, 2)


def test_optimal_allocation_epsilon_regularized_channel():
    # crossing point (0.5*6 - 1)/0.5 = 4 lies above the budget, so only the
    # strong state is active
    ch, chain, alloc = pipeline(FadingDistribution((1, 1 / 6), (0.5, 0.5)))
    assert (chain.s, chain.w) == (1, 1)
    assert alloc.beta == (1.0, 1.0)
    assert alloc.active_states == (1,)
    assert allocation.layer_rates(ch, alloc)[1] == 0.0


def test_optimal_allocation_single_state():
    ch, chain, alloc = pipeline(FadingDistribution((2,), (1.0,)))
    assert alloc.beta == (1.0,)
    assert alloc.lam == (pytest.approx(3.0, rel=1e-15),)


def test_expected_capacity_two_state(two_state):
    ch, chain, alloc = two_state
    value = expected_capacity(ch, alloc)
    # closed form and a direct objective evaluation at the optimum
    assert value == pytest.approx(0.5 * math.log(4) + 0.5 * math.log(4 / 3), rel=1e-13)
    assert value == pytest.approx(expected_rate_of(ch, (0.5, 1.0)), rel=1e-13)
    assert value == pytest.approx(0.8369882167858357, rel=1e-12)


def test_expected_capacity_multiplicative_family():
    ch, chain, alloc = pipeline(multiplicative_family(2, 2))
    assert expected_capacity(ch, alloc) == pytest.approx(math.log(7 / 6), rel=1e-13)


def test_expected_capacity_single_state_equals_log1p_gain():
    ch, chain, alloc = pipeline(FadingDistribution((2,), (1.0,)))
    assert expected_capacity(ch, alloc) == pytest.approx(math.log(3), rel=1e-13)


def test_closed_form_routes_agree(two_state):
    ch, chain, alloc = two_state
    assert certify.closed_form_route_agreement(*closed_form_routes(ch, alloc)).ok


def test_corrupted_allocation_is_detected(two_state, rungs_used):
    from fadegap import InternalConsistencyError, PowerAllocation

    ch, chain, alloc = two_state
    wrong_lam = _marked(PowerAllocation(beta=alloc.beta, lam=(2.0, alloc.lam[1])), ch)
    with pytest.raises(InternalConsistencyError, match="decoded-rate factor of state 1"):
        allocation._check_factors(ch, wrong_lam, alloc._frontier)
    # a forgery records no frontier, so the stage refuses it before any rung
    with pytest.raises(ValidationError, match="no active state"):
        expected_capacity(ch, wrong_lam)
    assert rungs_used == []
    wrong_beta = recorded(_marked(PowerAllocation(beta=(1.0, 1.0), lam=alloc.lam), ch), alloc)
    with pytest.raises(InternalConsistencyError):
        expected_capacity(ch, wrong_beta)


def test_all_zero_beta_has_no_active_state(two_state):
    ch, _, alloc = two_state
    zero = _marked(PowerAllocation(beta=(0.0, 0.0), lam=alloc.lam), ch)
    with pytest.raises(ValidationError, match="no active state"):
        expected_capacity(ch, zero)


@pytest.mark.parametrize("route", [expected_capacity, closed_form_routes])
def test_active_state_with_an_overflowed_inverse_gain_is_refused(route):
    # a single state of gain 1e-320 is active, and its inverse gain is inf;
    # analyze takes its capacity from the gain itself, the closed forms
    # refuse it
    dist = FadingDistribution((1e-320,), (1.0,))
    ch, _, alloc = pipeline(dist)
    assert alloc._frontier == (1,)
    message = (
        "gains: the inverse of the gain 1e-320 of active state 1 overflows double precision"
    )
    with pytest.raises(ValidationError, match=f"^{message}$"):
        route(ch, alloc)
    report = analyze(dist)
    assert report.c_exp == report.c_erg == 1e-320


@pytest.mark.parametrize("route", [expected_capacity, closed_form_routes])
def test_certified_disagreement_of_the_closed_forms_raises(
    two_state, disagreeing_closed_forms, route
):
    # both public readers are gated: neither returns values the ladder
    # certified as disagreeing
    ch, _, alloc = two_state
    with pytest.raises(InternalConsistencyError, match="closed forms disagree"):
        route(ch, alloc)


def test_closed_forms_that_never_settle_raise(two_state, monkeypatch):
    # error bounds as wide as the value certify neither agreement nor
    # disagreement on any rung
    evaluate = allocation._evaluate

    def unsettled(*args):
        per, _, rate, _ = evaluate(*args)
        return per, abs(per), rate, abs(rate)

    monkeypatch.setattr(allocation, "_evaluate", unsettled)
    ch, _, alloc = two_state
    with pytest.raises(InternalConsistencyError, match="not settled at 960 digits"):
        expected_capacity(ch, alloc)


def _level_gap_channel(e):
    """Exact three-state channel whose second power level lies e above the
    first: the conditioning of the rounded level gap passes _MAX_REL_ERR on
    every rung whose precision does not resolve e."""
    gains = (Fraction(1), Fraction(2, 5), 1 / (4 + e / 2))
    return FadingDistribution(gains, (Fraction(1, 3),) * 3)


@pytest.mark.parametrize("route", [expected_capacity, closed_form_routes])
def test_closed_forms_that_no_rung_evaluates_raise(route):
    # a level gap of 1e-1000 is beyond every rung's conditioning bound
    ch, _, alloc = pipeline(_level_gap_channel(Fraction(1, 10**1000)))
    message = "closed forms not settled at 960 digits: no rung evaluated them"
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        route(ch, alloc)


@pytest.mark.parametrize(
    "exponent, digits",
    [
        (70, (60, 120)),
        (150, (60, 120, 240)),
        (300, (60, 120, 240, 480)),
        (600, (60, 120, 240, 480, 960)),
    ],
    ids=["1e-70", "1e-150", "1e-300", "1e-600"],
)
def test_a_level_gap_climbs_to_the_rung_that_resolves_it(exponent, digits, rungs_used):
    ch, _, alloc = pipeline(_level_gap_channel(Fraction(1, 10**exponent)))
    assert alloc.active_states == (1, 2, 3)
    value = expected_capacity(ch, alloc)
    assert rungs_used == [allocation._rung(d) for d in (None,) + digits]
    ref = analyze(_level_gap_channel(Fraction(1, 10**20))).c_exp
    assert abs(value - ref) <= allocation.VALUE_RTOL * ref


def test_expected_rate_examples(two_state):
    ch, _, _ = two_state
    assert expected_rate_of(ch, (0.0, 1.0)) == pytest.approx(math.log(2), rel=1e-15)
    for dist in random_channels(5, seed=5):
        pch = prepare(dist)
        k = pch.num_states
        beta = (0.0,) * (k - 1) + (1.0,)
        assert expected_rate_of(pch, beta) == pytest.approx(
            math.log1p(float(pch.gains[-1])), rel=1e-13
        )


@pytest.mark.parametrize(
    "beta",
    [
        (0.7, 0.3),
        (-0.1, 1.0),
        (0.5, 1.2),
        (0.5,),
        (0.1, 0.5, 1.0),
        # no real numbers, or no sequence
        ("a", 1.0),
        (0.5, None),
        None,
        1.0,
    ],
)
def test_expected_rate_rejects_infeasible_beta(two_state, beta):
    ch, _, _ = two_state
    with pytest.raises(ValidationError):
        expected_rate_of(ch, beta)


def test_allocation_invariants_on_random_channels():
    for dist in random_channels(40, seed=31, max_states=8):
        ch, chain, alloc = pipeline(dist)
        prev = 0.0
        for b in alloc.beta:
            assert b >= prev - 1e-15
            prev = b
        assert alloc.beta[-1] == 1
        pw = chain.pi[chain.w - 1]
        for k, lam in enumerate(alloc.lam, start=1):
            if k > pw:
                assert lam == 1
            else:
                assert lam >= 1 - 1e-12
        for rate, b, b_prev in zip(
            allocation.layer_rates(ch, alloc), alloc.beta, (0.0,) + alloc.beta[:-1]
        ):
            assert rate >= 0.0
            if b == b_prev:
                assert rate == 0.0
        assert alloc.active_states == chain.active_states


def test_no_feasible_beta_beats_the_closed_form():
    rng = random.Random(17)
    for dist in random_channels(5, seed=41, max_states=6):
        ch, chain, alloc = pipeline(dist)
        best = expected_capacity(ch, alloc)
        k = ch.num_states
        for _ in range(1000):
            beta = sorted(rng.uniform(0, 1) for _ in range(k))
            assert expected_rate_of(ch, beta) <= best + 1e-12


def test_capacity_equals_envelope_integral():
    for dist in random_channels(25, seed=42, max_states=8):
        ch, chain, alloc = pipeline(dist)
        integral = envelope_integral(chain, ch, 0.0, 1.0)
        assert expected_capacity(ch, alloc) == pytest.approx(integral, abs=1e-8)


def test_capacity_is_monotone_in_gains():
    rng = random.Random(4242)
    for dist in random_channels(20, seed=43, max_states=6):
        ch, chain, alloc = pipeline(dist)
        base = expected_capacity(ch, alloc)
        gains = list(dist.gains)
        idx = rng.randrange(len(gains))
        gains[idx] *= 1 + rng.uniform(0.001, 0.2)
        bumped_ch, _, bumped_alloc = pipeline(FadingDistribution(tuple(gains), dist.probs))
        assert expected_capacity(bumped_ch, bumped_alloc) >= base - 1e-12


def assert_matches_reference(dist):
    ch, _, alloc = pipeline(dist)
    value = expected_capacity(ch, alloc)
    ref = float(reference_routes(ch, alloc)[0])
    assert abs(value - ref) <= 1e-14 * abs(ref)


def test_capacity_matches_60_digit_reference_on_random_channels():
    for dist in random_channels(2000, seed=2718, max_states=8):
        assert_matches_reference(dist)


@pytest.mark.parametrize("k", [128, 1024])
def test_capacity_matches_60_digit_reference_on_long_ladders(k):
    assert_matches_reference(high_snr_ladder(k))


@pytest.fixture
def rungs_used(monkeypatch):
    """Precisions (None for floats) of the rungs each closed-form evaluation
    reaches."""
    used = []
    evaluate = allocation._evaluate

    def counting(*args):
        used.append(args[-1])
        return evaluate(*args)

    monkeypatch.setattr(allocation, "_evaluate", counting)
    return used


def test_float_rung_settles_an_ordinary_channel(two_state, rungs_used):
    ch, _, alloc = two_state
    expected_capacity(ch, alloc)
    assert rungs_used == [allocation._rung(None)]


def _ill_conditioned_fraction():
    """Exact channel whose second segment's F and n differences are 1e-10
    of their ends: the conditioning of its Fraction inputs' rounding passes
    _MAX_REL_ERR on the float rung."""
    e = Fraction(1, 10**10)
    gains = tuple(1 / n for n in (Fraction(1), 1 + 3 * e / 2, Fraction(4)))
    return FadingDistribution(gains, (Fraction(1, 2), e / 2, Fraction(1, 2) - e / 2))


def test_float_rung_refuses_an_ill_conditioned_fraction_segment():
    ch, _, alloc = pipeline(_ill_conditioned_fraction())
    args = routes_args(ch, alloc)
    assert allocation._evaluate(*args, allocation._rung(None)) is None
    assert allocation._evaluate(*args, allocation._rung(60)) is not None
    assert expected_capacity(ch, alloc) == 0.34657359028185675


def test_float_rung_refuses_a_segment_whose_f_difference_rounds_to_zero(rungs_used):
    # F_1 = 1/2 and F_2 = 1/2 + 1e-30 round to the same float, so the float
    # rung's second segment has no F difference; 60 digits settle it
    big = Fraction(10**90)
    gains = (big, big * (1 - Fraction(1, 10**11)), Fraction(1))
    tiny = Fraction(1, 10**30)
    ch, _, alloc = pipeline(
        FadingDistribution(gains, (Fraction(1, 2), tiny, Fraction(1, 2) - tiny))
    )
    assert float(ch.cum_probs[0]) == float(ch.cum_probs[1])
    assert alloc.active_states == (1, 2)
    value = expected_capacity(ch, alloc)
    assert rungs_used == [allocation._rung(None), allocation._rung(60)]
    assert allocation._evaluate(*routes_args(ch, alloc), allocation._rung(None)) is None
    ref = float(reference_routes(ch, alloc)[0])
    assert abs(value - ref) <= 1e-14 * ref


@pytest.mark.parametrize(
    "dist, climbs",
    [
        # the expected rate does not cancel, so these settle in floats
        (low_snr_instance((5, 3, 1), (0.2, 0.3, 0.5), 1e-6), False),
        (multiplicative_family(4, 1e4), False),
        # the conditioning of a Fraction segment, the per-state value of a
        # low-capacity channel of several segments, and inverse gains below
        # the float rung's range climb
        (_ill_conditioned_fraction(), True),
        (low_snr_instance((4, 3, 2, 1), (0.25,) * 4, 1e-6), True),
        (FadingDistribution((1e120, 1e110), (0.5, 0.5)), True),
    ],
    ids=[
        "low-snr-1e-6",
        "multiplicative-4-1e4",
        "ill-conditioned-fraction",
        "low-snr-4-states",
        "huge-gains",
    ],
)
def test_escalating_channels_match_reference(dist, climbs, rungs_used):
    ch, _, alloc = pipeline(dist)
    value = expected_capacity(ch, alloc)
    assert (len(rungs_used) > 1) == climbs
    ref = float(reference_routes(ch, alloc)[0])
    assert abs(value - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize(
    "dist, active",
    [
        (FadingDistribution((0.02, 0.01), (0.5, 0.5)), (2,)),
        (FadingDistribution((0.3, 0.02, 0.005), (0.01, 0.09, 0.9)), (3,)),
        (FadingDistribution((0.07, 0.03, 0.01), (0.2, 0.3, 0.5)), (2,)),
        (FadingDistribution((0.2, 0.04), (0.22, 0.78)), (1, 2)),
        (FadingDistribution((1.0, 0.05), (0.07, 0.93)), (1, 2)),
    ],
    ids=["one-active", "one-active-last", "one-active-inner", "two-active", "two-active-strong"],
)
def test_low_capacity_channels_settle_on_the_float_rung(dist, active, rungs_used):
    # capacities of 0.005-0.05 nat, whose factor logs sit next to 0: the
    # weakest active segment's log1p(Lambda_w - 1) keeps its relative
    # accuracy, so the float rung certifies the value
    ch, _, alloc = pipeline(dist)
    value = expected_capacity(ch, alloc)
    assert alloc.active_states == active
    assert rungs_used == [allocation._rung(None)]
    ref = float(reference_routes(ch, alloc)[0])
    assert abs(value - ref) <= 1e-14 * abs(ref)


def test_value_alone_climbs_past_the_float_rung(rungs_used):
    # two active states and a capacity of 0.02 nat: the float rung certifies
    # the route agreement, but not the value, whose stronger segment carries
    # the absolute error of its factor's log; the 60-digit rung settles both
    # forms, and both values come from it
    ch, _, alloc = pipeline(FadingDistribution((0.08, 0.02), (0.251, 0.749)))
    value = expected_capacity(ch, alloc)
    assert alloc.active_states == (1, 2)
    assert rungs_used == [allocation._rung(None), allocation._rung(60)]
    ref = float(reference_routes(ch, alloc)[0])
    assert abs(value - ref) <= 1e-14 * abs(ref)
    assert closed_form_routes(ch, alloc) == (value, value)


def with_factor(alloc, k, value):
    """alloc with the stored decoded-rate factor of state k (1-based) set,
    for alloc's channel.  It records no frontier, so a stage refuses it."""
    lam = alloc.lam[: k - 1] + (value,) + alloc.lam[k:]
    return _marked(PowerAllocation(beta=alloc.beta, lam=lam), alloc._source)


def recorded(forged, alloc):
    """forged with the frontier alloc records, as though optimal_allocation
    had built it."""
    object.__setattr__(forged, "_frontier", alloc._frontier)
    return forged


@pytest.fixture
def fraction_twin():
    """two_state's channel in Fraction probabilities: the closed forms
    decide its stored factors exactly after the float rung."""
    return pipeline(FadingDistribution((4, 1), (Fraction(1, 2), Fraction(1, 2))))


@pytest.mark.parametrize("sign, fails", [(1, True), (-1, False)])
def test_factor_at_the_tolerance_is_decided_exactly_without_a_climb(
    fraction_twin, rungs_used, sign, fails
):
    # a stored factor LAMBDA_RTOL off its exact value is beyond what the
    # float rung's rounding bounds could tell; the exact cross-check decides
    # it, so the float rung settles the channel or the check raises there
    ch, _, alloc = fraction_twin
    off = with_factor(alloc, 1, alloc.lam[0] * (1 + sign * allocation.LAMBDA_RTOL))
    off = recorded(off, alloc)
    if fails:
        with pytest.raises(InternalConsistencyError, match="decoded-rate factor of state 1"):
            expected_capacity(ch, off)
    else:
        ref = float(reference_routes(ch, alloc)[0])
        assert abs(expected_capacity(ch, off) - ref) <= 1e-14 * ref
    assert rungs_used == [allocation._rung(None)]


def routes_args(ch, alloc):
    """Channel, active states, exact_inputs, power vector and smallest
    probability up to the weakest active state, as _routes passes them to
    _evaluate before the rung."""
    active = alloc._frontier
    last = active[-1]
    return ch, active, scanned_exactness(ch, last), alloc.beta, min(ch.probs[:last])


def evaluate_args(dist):
    """routes_args of the channel's optimal allocation."""
    ch, _, alloc = pipeline(dist)
    return routes_args(ch, alloc)


#: Largest relative difference between an error bound of _evaluate and the
#: reference's: _evaluate forms the bounds after its segment loop, so their
#: sums are grouped differently and may differ in the last digits.
BOUND_RTOL = 1e-12


def assert_same_evaluation(new, ref):
    """Values repr-identical to the reference evaluation, error bounds
    within BOUND_RTOL of its."""
    if ref is None:
        assert new is None
        return
    assert repr(new[::2]) == repr(ref[::2])
    for err, err_ref in zip(new[1::2], ref[1::2]):
        assert abs(err - err_ref) <= BOUND_RTOL * err_ref


def differential_corpus():
    return random_channels(150, seed=61, max_states=8) + [
        high_snr_ladder(128),
        high_snr_ladder(1024),
        multiplicative_family(2, 2),
        multiplicative_family(4, 1e4),
        multiplicative_family(6, 60),
        low_snr_instance((5, 3, 1), (0.2, 0.3, 0.5), 1e-6),
    ]


@pytest.mark.parametrize("digits", [None, 60], ids=["float", "60-digit"])
def test_evaluate_matches_the_reference_evaluation(digits):
    # forming each factor in the segment loop and the bounds after the loop
    # change no factor or value, and a bound only in its last digits
    rung = allocation._rung(digits)
    for dist in differential_corpus():
        args = evaluate_args(dist)
        new = allocation._evaluate(*args, rung)
        try:
            # the reference forms the smallest probability itself
            assert_same_evaluation(new, reference_evaluate(*args[:4], rung))
        except AssertionError as exc:
            raise AssertionError(dist) from exc


def test_evaluate_bounds_take_negated_logs_in_absolute_value():
    # a per-state log is not negative on any channel here; negating every
    # log makes the per-state |.| sum differ from the value sum.  The
    # expected rate's terms are never negative, so its bound takes no
    # |.| sum and is not compared here
    rung = allocation._rung(None)._replace(
        log=lambda x: -math.log(x), log1p=lambda x: -math.log1p(x)
    )
    for dist in differential_corpus():
        args = evaluate_args(dist)
        new = allocation._evaluate(*args, rung)
        ref = reference_evaluate(*args[:4], rung)
        assert_same_evaluation(new and new[:2], ref and ref[:2])


def test_routes_climb_the_ladder_as_with_the_reference_evaluation(monkeypatch):
    # the regrouped bounds decide every rung as the reference's do: the same
    # evaluations, in order, and the same closed forms; the tiny gains climb
    # to 60 digits, and the ill-conditioned Fraction segment too
    dists = differential_corpus() + [
        FadingDistribution((1e-300, 1e-301), (0.5, 0.5)),
        _ill_conditioned_fraction(),
    ]
    evaluate = allocation._evaluate

    def reference(ch, active, exact_inputs, beta, p_min, rung):
        return reference_evaluate(ch, active, exact_inputs, beta, rung)

    def climb(evaluate, ch, alloc):
        rungs = []

        def recording(*args):
            out = evaluate(*args)
            # each rung's own values, at its precision: _routes returns floats
            rungs.append((args[-1], out and repr(out[::2])))
            return out

        monkeypatch.setattr(allocation, "_evaluate", recording)
        return repr(allocation._routes(ch, alloc)), rungs

    tops = []
    for dist in dists:
        ch, _, alloc = pipeline(dist)
        routes, rungs = climb(evaluate, ch, alloc)
        assert (routes, rungs) == climb(reference, ch, alloc), dist
        tops.append(rungs[-1][0])
    assert tops[-2:] == [allocation._rung(60)] * 2


def test_factor_one_ulp_off_passes_the_per_state_cross_check(fraction_twin, rungs_used):
    ch, _, alloc = fraction_twin
    off = with_factor(alloc, 2, math.nextafter(float(alloc.lam[1]), math.inf))
    assert off.lam != alloc.lam
    assert allocation._check_factors(ch, off, alloc._frontier) is None
    rungs_used.clear()
    value = expected_capacity(ch, recorded(off, alloc))
    assert rungs_used == [allocation._rung(None)]
    assert value == expected_capacity(ch, alloc)


def test_factor_two_tolerances_off_fails_without_a_climb(fraction_twin, rungs_used):
    ch, _, alloc = fraction_twin
    off = with_factor(alloc, 1, alloc.lam[0] * (1 + 2 * allocation.LAMBDA_RTOL))
    off = recorded(off, alloc)
    with pytest.raises(InternalConsistencyError, match="decoded-rate factor of state 1"):
        expected_capacity(ch, off)
    # decided exactly after the first rung that evaluates
    assert rungs_used == [allocation._rung(None)]


def test_a_moved_level_is_refused():
    # the frontier and the factors kept, the first active state's level
    # moved by 1e-4 relative: the per-state form reads the factors and does
    # not move, the expected rate reads the level and falls below it by
    # far more than ROUTE_RTOL
    ch, _, alloc = pipeline(FadingDistribution((8.0, 2.0, 0.5, 0.1), (0.25,) * 4))
    first = alloc.active_states[0]
    assert len(alloc.active_states) > 1
    beta = list(alloc.beta)
    beta[first - 1] *= 1 + 1e-4
    moved = recorded(_marked(PowerAllocation(beta=tuple(beta), lam=alloc.lam), ch), alloc)
    assert moved.active_states == alloc.active_states
    with pytest.raises(InternalConsistencyError, match="closed forms disagree"):
        expected_capacity(ch, moved)


def test_the_expected_rate_agrees_with_expected_rate_of():
    # the closed forms' second route and the brute-force certifier's
    # evaluator of the same objective, at the allocation's power vector
    dists = [d for make in POPULATIONS.values() for d in make()]
    dists += [d for seed in (11, 12, 13) for d in extreme_channels(500, seed)]
    checked = 0
    for dist in dists:
        analysis = full_analysis(dist)
        ch, alloc = analysis.channel, analysis.allocation
        if alloc is None:
            continue
        rate, ref = closed_form_routes(ch, alloc)[1], expected_rate_of(ch, alloc.beta)
        assert abs(rate - ref) <= 1e-14 * ref, dist
        checked += 1
    assert checked > 5000


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("k", [1, 2])
def test_non_finite_factor_never_settles(two_state, value, k):
    ch, _, alloc = two_state
    off = with_factor(alloc, k, value)
    with pytest.raises(InternalConsistencyError, match=f"decoded-rate factor of state {k}"):
        allocation._check_factors(ch, off, alloc._frontier)
    with pytest.raises(ValidationError, match="no active state"):
        expected_capacity(ch, off)


def test_every_allocation_records_its_active_states():
    # the frontier optimal_allocation builds the factors from, and records,
    # is the allocation's active states on every channel the suite certifies
    recorded = 0
    for make in POPULATIONS.values():
        for dist in make():
            alloc = full_analysis(dist).allocation
            if alloc is not None:
                assert alloc._frontier == alloc.active_states, dist
                recorded += 1
    assert recorded > 3000


class FloatSubclass(float):
    pass


#: Channels that mix Fractions and ints with floats: a Fraction gain only on
#: the weakest state, which receives no power; one Fraction probability; int
#: gains; a float and a Fraction gain that merge, in either order; a zero
#: gain with Fraction probabilities; and a single state of int gain and int
#: probability. Then the inputs that are plain-float lookalikes, which
#: prepare hands to the type rule: a bool probability; a float-subclass
#: probability on a middle and on the first state; a float-subclass gain,
#: whose inverse is a plain float; and a bool gain, whose inverse is too.
MIXED = [
    FadingDistribution((10.0, 5.0, Fraction(1, 1000)), (0.4, 0.4, 0.2)),
    FadingDistribution((4.0, 2.0, 1.0), (0.25, Fraction(1, 4), 0.5)),
    FadingDistribution((3, 2, 1), (0.2, 0.3, 0.5)),
    FadingDistribution((2.0, Fraction(2), 1.0), (0.25, 0.25, 0.5)),
    FadingDistribution((Fraction(2), 2.0, 1.0), (0.25, 0.25, 0.5)),
    FadingDistribution((4.0, 1.0, 0.0), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
    FadingDistribution((3,), (1,)),
    FadingDistribution((2.0,), (True,)),
    FadingDistribution((4.0, 2.0, 1.0), (0.25, FloatSubclass(0.25), 0.5)),
    FadingDistribution((FloatSubclass(4.0), 2.0, 1.0), (0.25, 0.25, 0.5)),
    FadingDistribution((3.0, 1.0), (FloatSubclass(0.5), 0.5)),
    FadingDistribution((True, 0.5), (0.5, 0.5)),
]


def scanned_exactness(ch, last):
    """Whether an inverse gain or probability of states 1..last is neither
    a float nor an int, by the scan of the types the closed forms read."""
    kinds = {*map(type, ch.inverse_gains[:last]), *map(type, ch.probs[:last])}
    return not kinds <= {float, int}


def test_the_recorded_first_exact_state_decides_as_the_scan():
    # over every prefix of every channel the suite certifies, and the mixed
    # ones, the record decides whether a Fraction reaches the closed forms
    # exactly as the scan of the prefix's types does
    checked = set()
    for make in [*POPULATIONS.values(), lambda: MIXED]:
        for dist in make():
            try:
                ch = prepare(dist)
            except ValidationError:
                continue
            for last in range(1, ch.num_states + 1):
                exact = ch._first_exact <= last
                assert exact == scanned_exactness(ch, last), (dist, last)
                checked.add(exact)
    assert checked == {False, True}
    # the record of the mixed channels: the weakest state's Fraction gain,
    # the second state's Fraction probability, none, none (a float gain
    # comes first in its run), the first state (a Fraction gain comes
    # first), the first state, none; then the bool probability, the
    # float-subclass probability of the second and of the first state, and
    # none for the float-subclass and the bool gain
    records = [prepare(dist)._first_exact for dist in MIXED]
    assert records == [3, 2, 4, 3, 1, 1, 2, 1, 2, 4, 1, 3]


#: The reports of the plain-float lookalikes in MIXED, as analyze gave them
#: when every state's record was decided by a call to the type rule
LOOKALIKE_REPORTS = [
    "CapacityReport(c_erg=1.0986122886681096, c_exp=1.0986122886681096,"
    " additive_gap=0.0, multiplicative_gap=1.0, entropy=0.0, lemma2_terms=(1.0,),"
    " lemma3_terms=(1.0,), active_states=(1,), epsilon_applied=None,"
    " boundary_breakpoints=())",
    "CapacityReport(c_erg=1.023586140555525, c_exp=0.6931471805599453,"
    " additive_gap=0.3304389599955798, multiplicative_gap=1.4767226489021297,"
    " entropy=1.0397207708399179, lemma2_terms=(2.5, 1.5, 1.0),"
    " lemma3_terms=(0.5804820237218405, 0.396240625180289, 0.5),"
    " active_states=(3,), epsilon_applied=None, boundary_breakpoints=(0.0,))",
    "CapacityReport(c_erg=1.023586140555525, c_exp=0.6931471805599453,"
    " additive_gap=0.3304389599955798, multiplicative_gap=1.4767226489021297,"
    " entropy=1.0397207708399179, lemma2_terms=(2.5, 1.5, 1.0),"
    " lemma3_terms=(0.5804820237218405, 0.396240625180289, 0.5),"
    " active_states=(3,), epsilon_applied=None, boundary_breakpoints=(0.0,))",
    "CapacityReport(c_erg=1.0397207708399179, c_exp=0.7520386983881371,"
    " additive_gap=0.2876820724517808, multiplicative_gap=1.3825362618551105,"
    " entropy=0.6931471805599453, lemma2_terms=(1.3333333333333333, 1.3333333333333335),"
    " lemma3_terms=(0.9216908412367403, 0.46084542061837014), active_states=(1, 2),"
    " epsilon_applied=None, boundary_breakpoints=())",
    "CapacityReport(c_erg=0.5493061443340548, c_exp=0.4054651081081644,"
    " additive_gap=0.1438410362258904, multiplicative_gap=1.3547556456757273,"
    " entropy=0.6931471805599453, lemma2_terms=(1.3333333333333333, 1.0),"
    " lemma3_terms=(0.8547556456757274, 0.5), active_states=(2,), epsilon_applied=None,"
    " boundary_breakpoints=(0.0,))",
]


@pytest.mark.parametrize(
    "dist, expected",
    zip(MIXED[-len(LOOKALIKE_REPORTS) :], LOOKALIKE_REPORTS),
    ids=["bool-prob", "subclass-prob-2", "subclass-gain", "subclass-prob-1", "bool-gain"],
)
def test_the_reports_of_plain_float_lookalikes_stay(dist, expected):
    assert repr(analyze(dist)) == expected


def calls_inside_prepare(dist):
    """The number of Python-level calls made while prepare(dist) runs,
    prepare's own included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        prepare(dist)
    finally:
        sys.setprofile(None)
    return calls


def test_prepare_makes_no_python_call_per_state_on_a_float_channel():
    # the record of a float channel is settled inline, in the merge pass: the
    # Python-level calls are those of the channel, not of its states
    short, long = high_snr_ladder(8), high_snr_ladder(1024)
    assert {*map(type, short.gains + short.probs + long.gains + long.probs)} == {float}
    assert calls_inside_prepare(short) == calls_inside_prepare(long)


def test_a_fraction_gain_on_an_inactive_weakest_state_settles_in_floats(rungs_used):
    dist = MIXED[0]
    ch, _, alloc = pipeline(dist)
    assert alloc.active_states == (2,) and ch._first_exact == 3
    expected_capacity(ch, alloc)
    assert rungs_used == [allocation._rung(None)]
    assert repr(analyze(dist)) == (
        "CapacityReport(c_erg=1.676061796877187, c_exp=1.433407575382444,"
        " additive_gap=0.24265422149474292, multiplicative_gap=1.1692848744921702,"
        " entropy=1.0549201679861442, lemma2_terms=(1.8333333333333335, 1.0, 1.001),"
        " lemma3_terms=(0.6691454165528863, 0.5, 0.00013945793928385775),"
        " active_states=(2,), epsilon_applied=None, boundary_breakpoints=(0.0,))"
    )


def test_a_single_state_of_int_gain_and_probability_settles_in_floats(rungs_used):
    ch, _, alloc = pipeline(FadingDistribution((3,), (1,)))
    assert ch._first_exact == 2
    assert expected_capacity(ch, alloc) == math.log(4)
    assert rungs_used == [allocation._rung(None)]


def factor_verdicts(ch, alloc):
    """The old range test over every stored factor and the constant-time
    test, on a recorded allocation of float or int inputs that the float
    rung evaluates first, or None where that is not the case."""
    active, lam = alloc._frontier, alloc.lam
    if ch._first_exact <= active[-1]:
        return None
    out = allocation._evaluate(*routes_args(ch, alloc), allocation._rung(None))
    if out is None:
        return None
    ranged = 0 < min(lam) and max(lam) < math.inf
    return ranged, out[0] < math.inf and 0 < lam[active[-1] - 1] < math.inf


def test_the_constant_time_factor_test_agrees_with_the_range_test():
    # where the float rung evaluates a recorded allocation of float or int
    # inputs first, the sum of its factors' logs and the weakest active
    # state's factor decide as the range test over every stored factor.
    # Every stored factor of these channels is finite and positive, so
    # they cover the passing side only
    dists = [d for make in POPULATIONS.values() for d in make()]
    dists += [d for seed in (11, 12, 13) for d in extreme_channels(200, seed)]
    verdicts = []
    for dist in dists:
        try:
            ch = prepare(dist)
        except ValidationError:
            continue
        if ch.degenerate:
            continue
        pair = factor_verdicts(ch, optimal_allocation(ch, build_chain(ch)))
        if pair is not None:
            verdicts.append(pair)
    assert len(verdicts) > 3000
    assert set(verdicts) == {(True, True)}


@pytest.mark.parametrize("value", [math.inf, 0.0])
def test_both_factor_tests_reject_a_forged_weakest_factor(value):
    # the failing side: the weakest active state's stored factor of a
    # recorded float allocation forged to inf or 0 after the fact; both
    # tests reject it, so the factors are decided exactly and refused
    dist = FadingDistribution((10.0, 5.0, 1.0), (0.3, 0.3, 0.4))
    ch, _, alloc = pipeline(dist)
    w = alloc._frontier[-1]
    assert factor_verdicts(ch, alloc) == (True, True)
    forged = alloc.lam[: w - 1] + (value,) + alloc.lam[w:]
    object.__setattr__(alloc, "lam", forged)
    assert factor_verdicts(ch, alloc) == (False, False)
    with pytest.raises(InternalConsistencyError, match=f"decoded-rate factor of state {w}"):
        expected_capacity(ch, alloc)


@pytest.mark.parametrize("tie", [2, 3], ids=["state-2", "state-3"])
def test_tied_levels_are_refused_by_optimal_allocation(tie):
    # a hand-marked chain whose level tie would take its second state of the
    # tie's layer away: the factors built from the chain's frontier would
    # not fit the active states, so optimal_allocation refuses the chain
    ch, chain, alloc = pipeline(high_snr_ladder(4))
    assert alloc._frontier == alloc.active_states == (1, 2, 3, 4)
    b = chain.breakpoints
    tied = _marked(replace(chain, breakpoints=b[:tie] + (b[tie - 1],) + b[tie + 1 :]), ch)
    levels = tied.breakpoints[tied.s : tied.w]
    message = f"chain levels {levels} do not rise strictly"
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        optimal_allocation(ch, tied)


def tampered_factors(y):
    """A stored factor y scaled by 1 +- LAMBDA_RTOL and 1 +- 2 LAMBDA_RTOL,
    moved by one ulp either way, or replaced by inf, nan or 0."""
    rtol = allocation.LAMBDA_RTOL
    values = [y * (1 + sign * m * rtol) for sign in (1, -1) for m in (1, 2)]
    values += [math.nextafter(float(y), math.inf), math.nextafter(float(y), 0.0)]
    return values + [math.inf, math.nan, 0.0]


def test_tampered_factors_raise_exactly_when_the_reference_check_does():
    # the exact cross-check against the 60-digit reference on every state
    # of random channels, both families and gains near 1e-300; a tampered
    # factor that passes changes nothing the closed forms read
    dists = random_channels(20, seed=71, max_states=6) + [
        additive_family(4, 10),
        multiplicative_family(4, 2),
        multiplicative_family(5, 60),
        FadingDistribution((1e-300, 1e-301), (0.5, 0.5)),
    ]
    raised = passed = 0
    for dist in dists:
        ch, _, alloc = pipeline(dist)
        value = expected_capacity(ch, alloc)
        ref = float(reference_routes(ch, alloc)[0])
        # the 60-digit reference cannot resolve a capacity near 1e-300
        resolved = abs(value - ref) <= allocation.VALUE_RTOL * abs(ref)
        assert resolved or value < 1e-250, dist
        for k in range(1, ch.num_states + 1):
            for y in tampered_factors(alloc.lam[k - 1]):
                off = with_factor(alloc, k, y)
                try:
                    reference_routes(ch, off)
                except InternalConsistencyError:
                    raised += 1
                    with pytest.raises(InternalConsistencyError, match=f"of state {k} is"):
                        allocation._check_factors(ch, off, alloc._frontier)
                    continue
                passed += 1
                assert allocation._check_factors(ch, off, alloc._frontier) is None
                assert expected_capacity(ch, recorded(off, alloc)) == value, (dist, k, y)
    assert raised > 100 and passed > 100

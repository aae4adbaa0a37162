import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    channel_distributions,
    family_points,
    greedy_chain,
    high_snr_ladder,
    random_channels,
    reference_envelope_maximality,
)
from fadegap import (
    FadingDistribution,
    ValidationError,
    build_chain,
    certify,
    dominating_muf,
    envelope_integral,
    intersection,
    muf_value,
    multiplicative_family,
    prepare,
)
from fadegap.cli import _trial


@pytest.fixture
def two_state():
    return prepare(FadingDistribution((4, 1), (0.5, 0.5)))


def test_muf_values(two_state):
    assert muf_value(two_state, 1, 0.0) == pytest.approx(2.0, rel=1e-15)
    assert muf_value(two_state, 2, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_muf_value_at_zero_equals_weakest_gain():
    for dist in random_channels(10, seed=3):
        ch = prepare(dist)
        k = ch.num_states
        assert muf_value(ch, k, 0.0) == pytest.approx(float(ch.gains[-1]), rel=1e-12)


def test_muf_value_outside_domain(two_state):
    with pytest.raises(ValidationError):
        muf_value(two_state, 1, -0.25)
    with pytest.raises(ValidationError):
        muf_value(two_state, 2, -1.5)


@pytest.mark.parametrize(
    "k, z, message",
    [pytest.param(k, 0.5, f"got k={k!r}", id=str(k)) for k in (0, -1, 3, 1.5, "1")]
    + [
        pytest.param(1, z, f"z must be a real number, got {z!r}", id=f"z={z!r}")
        for z in ("x", None, 1j)
    ],
)
def test_muf_value_rejects_bad_state_index(two_state, k, z, message):
    # 0 and -1 would index states 2 and 1 from the end, 3 past it; 1.5 and
    # "1" are no index at all; a z that is no real number is refused before
    # it is compared
    with pytest.raises(ValidationError, match=re.escape(message)):
        muf_value(two_state, k, z)


def test_intersection_two_state(two_state):
    # (F_1 n_2 - F_2 n_1) / (F_2 - F_1) = (0.5 - 0.25) / 0.5
    assert intersection(two_state, 1, 2) == pytest.approx(0.5, rel=1e-15)


def test_intersection_multiplicative_family_is_exactly_zero():
    ch = prepare(multiplicative_family(2, 2))
    assert ch.inverse_gains == (Fraction(2), Fraction(6))
    assert intersection(ch, 1, 2) == 0


def test_intersection_zero_numerator():
    # F_1 n_2 = F_2 n_1 with n = (1, 2) and uniform probabilities
    ch = prepare(FadingDistribution((1.0, 0.5), (0.5, 0.5)))
    assert intersection(ch, 1, 2) == 0.0


def test_intersection_with_overflowed_states_is_inf():
    # n_2 and n_3 overflow: they cross state 1 and each other at +inf
    ch = prepare(FadingDistribution((3.0, 1e-320, 2e-320), (0.4, 0.3, 0.3)))
    assert ch.inverse_gains[1:] == (math.inf, math.inf)
    assert intersection(ch, 1, 2) == intersection(ch, 1, 3) == math.inf
    assert intersection(ch, 2, 3) == math.inf


def test_intersection_rejects_bad_indices(two_state):
    with pytest.raises(ValidationError):
        intersection(two_state, 2, 1)
    with pytest.raises(ValidationError):
        intersection(two_state, 1, 1)
    with pytest.raises(ValidationError, match=re.escape("got l=2.0")):
        intersection(two_state, 1, 2.0)


def test_build_chain_two_state(two_state):
    chain = build_chain(two_state)
    assert chain.pi == (1, 2)
    assert chain.breakpoints[0] == pytest.approx(-0.25, rel=1e-15)
    assert chain.breakpoints[1] == pytest.approx(0.5, rel=1e-15)
    assert chain.breakpoints[2] == math.inf
    assert (chain.s, chain.w) == (1, 2)
    assert chain.active_states == (1, 2)


def test_build_chain_multiplicative_family():
    chain = build_chain(prepare(multiplicative_family(2, 2)))
    assert chain.pi == (1, 2)
    assert chain.breakpoints[0] == Fraction(-2)
    assert chain.breakpoints[1] == 0
    assert (chain.s, chain.w) == (2, 2)
    assert chain.active_states == (2,)


def test_build_chain_single_state():
    chain = build_chain(prepare(FadingDistribution((2,), (1.0,))))
    assert chain.pi == (1,)
    assert (chain.s, chain.w) == (1, 1)
    assert chain.breakpoints == (-0.5, math.inf)


class _Index:
    """An object that is an integer only through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_chain_keeps_s_and_w_as_ints(two_state):
    chain = build_chain(two_state)
    assert type(chain.s) is int and type(chain.w) is int
    assert chain.active_states == (1, 2)
    # a copy whose s and w are integers of other types is no chain
    # build_chain returned
    copy = replace(chain, s=True, w=_Index(2))
    with pytest.raises(ValidationError, match=re.escape("build it with build_chain()")):
        dominating_muf(copy, two_state, 0.5)


def test_build_chain_rejects_degenerate():
    with pytest.raises(ValidationError):
        build_chain(prepare(FadingDistribution((0,), (1.0,))))


def test_dominating_muf_segments(two_state):
    chain = build_chain(two_state)
    value, state = dominating_muf(chain, two_state, 0.25)
    assert (value, state) == (pytest.approx(1.0, rel=1e-15), 1)
    value, state = dominating_muf(chain, two_state, 0.75)
    assert value == pytest.approx(1 / 1.75, rel=1e-15)
    assert state == 2


def test_dominating_muf_at_breakpoint_reports_higher_segment(two_state):
    chain = build_chain(two_state)
    value, state = dominating_muf(chain, two_state, 0.5)
    assert value == pytest.approx(2 / 3, rel=1e-15)
    assert state == 2
    assert value == pytest.approx(muf_value(two_state, 1, 0.5), rel=1e-15)


def test_dominating_muf_rejects_pole(two_state):
    chain = build_chain(two_state)
    with pytest.raises(ValidationError):
        dominating_muf(chain, two_state, -0.25)
    for z in (None, "1", 1j):
        with pytest.raises(ValidationError, match=re.escape(f"z must be a real number, got {z!r}")):
            dominating_muf(chain, two_state, z)


@pytest.mark.parametrize(
    "lo, hi, message",
    [
        (-0.5, 1.0, "integration range must satisfy 0 <= lo <= hi, got [-0.5, 1.0]"),
        (0.75, 0.25, "integration range must satisfy 0 <= lo <= hi, got [0.75, 0.25]"),
        (math.nan, 1.0, "integration range must satisfy 0 <= lo <= hi, got [nan, 1.0]"),
        ("a", 1, "lo must be a real number, got 'a'"),
        (0, None, "hi must be a real number, got None"),
    ],
)
def test_envelope_integral_rejects_bad_range(two_state, lo, hi, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        envelope_integral(build_chain(two_state), two_state, lo, hi)


def test_envelope_integral_over_an_empty_range_is_zero(two_state):
    assert envelope_integral(build_chain(two_state), two_state, 0.5, 0.5) == 0.0


def test_chain_ordering_properties_on_random_channels():
    for dist in random_channels(40, seed=21, max_states=8):
        ch = prepare(dist)
        chain = build_chain(ch)
        assert chain.pi[0] == 1
        assert chain.pi[-1] == ch.num_states
        assert 1 <= chain.s <= chain.w <= chain.segment_count
        assert chain.breakpoints[chain.s - 1] <= 0
        if chain.s < chain.segment_count:
            assert chain.breakpoints[chain.s] > 0
        assert chain.breakpoints[chain.w - 1] < 1
        if chain.w < chain.segment_count:
            assert chain.breakpoints[chain.w] >= 1
        assert certify.chain_ordering_properties(ch, chain).ok


def test_envelope_is_pointwise_maximum_on_random_channels():
    for dist in random_channels(20, seed=22, max_states=8):
        ch = prepare(dist)
        assert reference_envelope_maximality(ch, build_chain(ch)).ok


def assert_chain_pins_its_crossings(ch, chain):
    """build_chain's breakpoints are exactly the crossings intersection()
    returns, and s and w their max() definitions."""
    pi, bps = chain.pi, chain.breakpoints
    for i in range(1, chain.segment_count):
        assert bps[i] == intersection(ch, pi[i - 1], pi[i])
    segments = range(1, chain.segment_count + 1)
    assert chain.s == max(i for i in segments if bps[i - 1] <= 0)
    assert chain.w == max(i for i in segments if bps[i - 1] < 1)


def test_chain_matches_greedy_reference_on_random_channels():
    for dist in random_channels(400, seed=23, max_states=12):
        ch = prepare(dist)
        chain = build_chain(ch)
        assert chain == greedy_chain(ch)
        assert_chain_pins_its_crossings(ch, chain)


def test_chain_matches_greedy_reference_on_family_grid():
    # exact Fraction channels; every multiplicative crossing lies exactly at 0
    for label, dist in family_points():
        ch = prepare(dist)
        chain = build_chain(ch)
        assert chain == greedy_chain(ch), label
        assert_chain_pins_its_crossings(ch, chain)


@pytest.mark.parametrize(
    "gains, probs",
    [
        # three lines 1/u_k nearly concurrent at z = 1, every float crossing
        # within 1e-12 relative of the others
        ((1.0, 0.5, (1 - 1e-14) / 3), (0.5, 0.25, 0.25)),
        # z_{1,3} within 1e-12 relative of z_{1,2}, but the nearly parallel
        # lines of states 2 and 3 push z_{2,3} about 100 times further out
        ((1.0, 1 / 2.96, (1 - 3e-13) / 3), (0.5, 0.49, 0.01)),
    ],
)
def test_chain_keeps_state_leading_a_float_near_tie(gains, probs):
    ch = prepare(FadingDistribution(gains, probs))
    z12, z13 = intersection(ch, 1, 2), intersection(ch, 1, 3)
    assert z12 < z13
    assert z13 - z12 <= 1e-12 * z13
    # the exact hull of the prepared values: state 2 leads the envelope
    # between z_{1,2} and z_{2,3}, which rise in Fractions
    n, f = (tuple(map(Fraction, xs)) for xs in (ch.inverse_gains, ch.cum_probs))
    exact = [(f[k] * n[l] - f[l] * n[k]) / (f[l] - f[k]) for k, l in ((0, 1), (1, 2))]
    assert exact[0] < exact[1]
    chain = build_chain(ch)
    assert chain.pi == (1, 2, 3)
    assert certify.chain_ordering_properties(ch, chain).ok
    assert chain == greedy_chain(ch)


def test_chain_keeps_state_leading_a_sliver_near_the_origin():
    # near z = -n_a + F_a * chord the crossings cancel to |z| << n_a, where
    # a tolerance relative to the chord once dropped state 2
    dist = FadingDistribution(
        (5.243838489774421, 1.0219724067450362, 0.8849557522123738), (0.07, 0.78, 0.15)
    )
    trial = _trial(dist)
    assert trial.analysis.chain.pi == (1, 2, 3)
    assert all(check(trial).ok for check in certify.CHECKS.values())
    assert trial.analysis.report.c_exp == 0.6339043469970762


@pytest.mark.parametrize(
    "gains, probs, pi",
    [
        # a subnormal gain overflows n_3, so z_{1,3} = inf; the live state 2
        # must not be popped as if it tied with it
        ((1e10, 1.0, 1e-320), (1e-6, 0.5, 0.5 - 1e-6), (1, 2, 3)),
        # two overflowed states cross state 2 at inf alike: a tie, resolved
        # to the largest index
        ((1e10, 1.0, 1e-320, 5e-321), (1e-6, 0.5, 0.25, 0.25 - 1e-6), (1, 2, 4)),
    ],
)
def test_infinite_crossing_ties_only_with_an_equal_one(gains, probs, pi):
    ch = prepare(FadingDistribution(gains, probs))
    chain = build_chain(ch)
    assert chain.pi == pi
    assert chain.breakpoints[1] == intersection(ch, 1, 2) < 1
    assert chain.breakpoints[2:] == (math.inf, math.inf)
    assert chain == greedy_chain(ch)


def test_crossing_survives_underflowing_products():
    # F_1 n_2 = 2.7e-363 and F_2 n_1 = 1.3e-524 both round to 0, which put
    # z_{1,2} at 0 and left state 1 without power
    ch = prepare(FadingDistribution(
        (1.654067573360229e207, 7.649376568999044e45, 1e-300),
        (2.086149e-317, 3.41765e-319, 1 - 2.1203257e-317),
    ))
    n, f = (tuple(map(Fraction, xs)) for xs in (ch.inverse_gains, ch.cum_probs))
    exact = (f[0] * n[1] - f[1] * n[0]) / (f[1] - f[0])
    assert intersection(ch, 1, 2) == pytest.approx(float(exact), rel=1e-14)
    chain = build_chain(ch)
    assert chain.active_states == (1, 2, 3)
    assert chain == greedy_chain(ch)


@pytest.mark.parametrize("k", [128, 512, 1024])
def test_chain_matches_greedy_reference_on_high_snr_ladders(k):
    ch = prepare(high_snr_ladder(k))
    chain = build_chain(ch)
    assert chain.segment_count == k
    assert chain == greedy_chain(ch)
    assert_chain_pins_its_crossings(ch, chain)


@given(st.floats(1e-3, 1e3), channel_distributions())
@settings(max_examples=60, deadline=None)
def test_chain_is_invariant_under_gain_scaling(c, dist):
    base = build_chain(prepare(dist))
    scaled = build_chain(
        prepare(FadingDistribution(tuple(g * c for g in dist.gains), dist.probs))
    )
    assert scaled.pi == base.pi

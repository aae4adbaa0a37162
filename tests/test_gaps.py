import dataclasses
import hashlib
import json
import math
import pathlib
from fractions import Fraction

import pytest

from conftest import POPULATIONS, high_snr_ladder, random_channels
from fadegap import (
    FadingDistribution,
    InternalConsistencyError,
    ValidationError,
    analyze,
    certify,
    expected_rate_of,
    full_analysis,
    multiplicative_family,
)


def test_two_state_report():
    report = analyze(FadingDistribution((4, 1), (0.5, 0.5)))
    assert report.c_erg == pytest.approx(0.5 * math.log(10), rel=1e-13)
    assert report.c_exp == pytest.approx(0.5 * math.log(16 / 3), rel=1e-13)
    # A = (ln 10 - ln(16/3)) / 2 = 0.5 ln(15/8), M = ln 10 / ln(16/3)
    assert report.additive_gap == pytest.approx(0.5 * math.log(15 / 8), rel=1e-12)
    assert report.additive_gap <= math.log(2)
    assert report.multiplicative_gap == pytest.approx(
        math.log(10) / math.log(16 / 3), rel=1e-12
    )
    assert report.multiplicative_gap <= 2
    assert report.entropy == pytest.approx(math.log(2), rel=1e-15)
    assert report.active_states == (1, 2)
    assert report.epsilon_applied is None


def test_zero_gain_channel_has_no_gap():
    report = analyze(FadingDistribution((1, 0), (0.5, 0.5)))
    assert report.c_erg == pytest.approx(0.5 * math.log(2), rel=1e-15)
    assert report.c_exp == report.c_erg
    assert report.additive_gap == 0.0
    assert report.multiplicative_gap == 1.0
    assert report.active_states == (1,)
    assert report.epsilon_applied == pytest.approx(1 / 6, rel=1e-15)


def test_single_state_gaps_are_exact():
    for g in (0.01, 1.0, 2.0, 1234.5):
        report = analyze(FadingDistribution((g,), (1.0,)))
        assert report.additive_gap == 0.0
        assert report.multiplicative_gap == 1.0
        assert report.c_exp == report.c_erg


def test_degenerate_channel_report():
    report = analyze(FadingDistribution((0,), (1.0,)))
    assert report.c_erg == 0.0
    assert report.c_exp == 0.0
    assert report.additive_gap == 0.0
    assert report.multiplicative_gap == 1.0
    assert report.active_states == ()


def test_report_invariants_on_500_random_channels():
    for dist in random_channels(500, seed=7, max_states=8):
        analysis = full_analysis(dist)
        report, k = analysis.report, analysis.channel.num_states
        assert report.additive_gap >= 0.0
        assert report.multiplicative_gap >= 1.0
        assert certify.additive_gap_bound(analysis).ok
        assert certify.multiplicative_gap_bound(analysis).ok
        assert certify.per_state_additive_terms(analysis).ok
        assert certify.per_state_multiplicative_terms(analysis).ok
        assert len(report.lemma2_terms) == k
        assert len(report.lemma3_terms) == k
        assert -1e-12 <= report.entropy <= math.log(k) + 1e-12


def test_lemma_terms_are_computed_on_the_regularized_channel():
    analysis = full_analysis(FadingDistribution((1, 0), (0.5, 0.5)))
    assert analysis.report.epsilon_applied is not None
    assert len(analysis.report.lemma2_terms) == 2
    assert all(math.isfinite(t) for t in analysis.report.lemma2_terms)


#: breakpoints (-1, 0, 1, inf): state 2 takes over at 0 and hands over to
#: state 3 at 1, so it alone carries the whole budget
BOTH_EDGES = FadingDistribution((1.0, 0.5, 0.2), (0.25, 0.25, 0.5))
BOTH_EDGES_EXACT = FadingDistribution(
    (Fraction(1), Fraction(1, 2), Fraction(1, 5)), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
)


@pytest.mark.parametrize(
    "dist, boundary, active, c_exp",
    [
        (multiplicative_family(3, 2), (0.0,), (3,), 0.06899287148695145),
        (BOTH_EDGES, (0.0, 1.0), (2,), 0.2027325540540822),
        (BOTH_EDGES_EXACT, (0.0, 1.0), (2,), 0.2027325540540822),
    ],
    ids=["multiplicative-family", "both-edges", "both-edges-fraction"],
)
def test_boundary_breakpoints_flagged(dist, boundary, active, c_exp):
    report = analyze(dist)
    assert report.boundary_breakpoints == boundary
    assert report.active_states == active
    assert report.c_exp == c_exp


def test_both_edges_fraction_twin_reports_as_its_float_channel():
    assert repr(analyze(BOTH_EDGES_EXACT)) == repr(analyze(BOTH_EDGES))


def test_long_high_snr_ladder_report():
    # chain length K; the all-pairs scan and the greedy reference are too
    # slow here, so the chain is checked by the O(K) chain certificate
    k = 4096
    analysis = full_analysis(high_snr_ladder(k))
    report = analysis.report
    for value in (report.c_erg, report.c_exp, report.additive_gap, report.multiplicative_gap):
        assert math.isfinite(value)
    assert report.additive_gap <= math.log(k)
    assert report.multiplicative_gap <= k
    assert report.c_exp == pytest.approx(
        expected_rate_of(analysis.channel, analysis.allocation.beta), rel=1e-9
    )
    inner = analysis.chain.breakpoints[1:-1]
    assert all(a <= b for a, b in zip(inner, inner[1:]))
    assert certify.chain_ordering_properties(analysis.channel, analysis.chain).ok


@pytest.mark.parametrize("k, d", [(32, 60), (16, 1e4), (32, 1e4)])
def test_exact_family_settles_in_floats_or_at_60_digits(k, d):
    # exact gains and probabilities spread over 55 to 124 decades; the
    # expected rate does not cancel, so floats or 60 digits settle them
    analysis = full_analysis(multiplicative_family(k, d))
    report = analysis.report
    exact = math.log1p(float(1 / analysis.channel.inverse_gains[-1]))
    assert report.c_exp == pytest.approx(exact, rel=1e-13)
    assert 1 <= report.multiplicative_gap <= k


@pytest.mark.parametrize("gains", [(1e-300, 1e-301), (0.0, 1e-200)])
def test_capacity_far_below_one_nat(gains):
    report = analyze(FadingDistribution(gains, (0.5, 0.5)))
    assert 0 < report.c_exp
    assert report.c_exp <= report.c_erg
    assert report.multiplicative_gap >= 1
    for value in (report.c_erg, report.additive_gap, report.multiplicative_gap):
        assert math.isfinite(value)


@pytest.mark.parametrize("k", [1, 2])
def test_capacity_below_double_range_is_a_validation_error(k):
    gains = (Fraction(1, 10**400), Fraction(1, 10**401))[:k]
    probs = (Fraction(1, k),) * k
    with pytest.raises(ValidationError, match="underflows double precision"):
        analyze(FadingDistribution(gains, probs))


def assert_finite_report(analysis):
    report = analysis.report
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        for x in value if isinstance(value, tuple) else (value,):
            assert x is None or math.isfinite(x), field.name
    assert certify.per_state_additive_terms(analysis).ok
    assert certify.per_state_multiplicative_terms(analysis).ok


def test_subnormal_single_state_gain():
    analysis = full_analysis(FadingDistribution((1e-320,), (1.0,)))
    assert analysis.report.c_exp == analysis.report.c_erg == 1e-320
    # (n + 1) / (n Lambda) and p ln(1 + 1/n) / C_exp at n = inf are both 1
    assert analysis.report.lemma2_terms == (1.0,)
    assert analysis.report.lemma3_terms == (1.0,)
    assert_finite_report(analysis)


def test_inactive_state_with_overflowing_inverse_gain():
    analysis = full_analysis(FadingDistribution((1.0, 1e-320), (0.5, 0.5)))
    assert analysis.channel.inverse_gains[1] == math.inf
    assert analysis.report.active_states == (1,)
    assert analysis.report.lemma2_terms[1] == 1.0
    assert_finite_report(analysis)


@pytest.mark.parametrize(
    "gains, probs, active",
    [
        # the overflowed weakest states cross the others at inf, which the
        # chain once took for a tie that popped state 2 (M = 15052 > K)
        ((1e10, 1.0, 1e-320), (1e-6, 0.5, 0.5 - 1e-6), (1, 2)),
        ((1e10, 1.0, 1e-320, 5e-321), (1e-6, 0.5, 0.25, 0.25 - 1e-6), (1, 2)),
        # F_1 = 1.25e-321: every crossing out of state 1 rounds to -n_1, and
        # comparing them popped state 2 (M = 5.3 > K)
        ((2.0, 1.0, 0.125), (1.25e-321, 0.875, 0.125), (2,)),
        # the chord of state 2 from state 1, 1.0e308 / 0.176, overflows
        (
            (9.038541003810272e-307, 9.85609251788806e-309, 3.07078322086e-313),
            (9.484919304289146e-05, 0.1755, 1 - 0.1755 - 9.484919304289146e-05),
            (2,),
        ),
    ],
    ids=["overflowed", "two-overflowed", "tiny-first-probability", "overflowed-chord"],
)
def test_extreme_channel_keeps_its_gap_bounds(gains, probs, active):
    analysis = full_analysis(FadingDistribution(gains, probs))
    assert analysis.report.active_states == active
    # the breakpoints never fall through the ties at -n_1 and at +inf, so
    # bisection finds s and w as their max() definitions give them
    chain = analysis.chain
    bps = chain.breakpoints
    assert all(a <= b for a, b in zip(bps, bps[1:]))
    segments = range(1, chain.segment_count + 1)
    assert chain.s == max(i for i in segments if bps[i - 1] <= 0)
    assert chain.w == max(i for i in segments if bps[i - 1] < 1)
    assert certify.additive_gap_bound(analysis).ok
    assert certify.multiplicative_gap_bound(analysis).ok
    rate = expected_rate_of(analysis.channel, analysis.allocation.beta)
    assert abs(analysis.report.c_exp - rate) <= 1e-9 * rate
    assert_finite_report(analysis)


def test_active_state_with_overflowing_inverse_gain_is_a_validation_error():
    with pytest.raises(ValidationError, match="overflows double precision"):
        analyze(FadingDistribution((1e-310, 1e-320), (0.5, 0.5)))


def test_decoded_rate_factor_survives_overflowing_head():
    # (n_w + 1) / F_w = 1e320 overflows, the factor (n_1 + 1) / n_1 does not
    analysis = full_analysis(FadingDistribution((1e-300, 0.0), (1e-20, 1 - 1e-20)))
    assert analysis.allocation.lam == (1.0, 1.0)
    assert analysis.report.c_exp > 0
    # the epsilon substitute is subnormal, so its inverse gain overflows
    assert analysis.channel.inverse_gains[1] == math.inf
    assert_finite_report(analysis)


@pytest.mark.parametrize(
    "c_exp, error, message",
    [
        (0.0, ValidationError, "expected capacity underflows double precision"),
        (2.0, InternalConsistencyError, "expected capacity 2.0 exceeds ergodic capacity"),
    ],
)
def test_full_analysis_refuses_an_impossible_expected_capacity(monkeypatch, c_exp, error, message):
    # C_erg of this channel is ln(10) / 2 = 1.15 nats
    monkeypatch.setattr("fadegap.gaps.expected_capacity", lambda ch, alloc: c_exp)
    with pytest.raises(error, match=message):
        full_analysis(FadingDistribution((4, 1), (0.5, 0.5)))


def test_zero_gain_epsilon_underflowing_to_zero_is_a_validation_error():
    with pytest.raises(ValidationError, match="zero gain underflows"):
        analyze(FadingDistribution((1e-320, 0.0), (0.5, 0.5)))


#: The populations whose full analyses the digest golden pins, bit for bit,
#: in the golden's order.  Their generators normalise with a left fold
#: rather than sum(), so every supported Python builds the same channels.
DIGEST_POPULATIONS = (
    "long-ladder",
    "random-seed-0",
    "random-k12",
    "families",
    "low-snr",
    "extreme",
    "fraction",
)

#: Digest of every channel of DIGEST_POPULATIONS; rewrite it with
#: ``PYTHONPATH=src python tests/test_gaps.py``.
DIGESTS = pathlib.Path(__file__).parent / "golden" / "analysis_digests.json"


def analysis_digest(dist) -> str:
    """First 16 hex digits of the sha256 of ``repr(full_analysis(dist))``, or
    of the error's class and text when it raises."""
    try:
        text = repr(full_analysis(dist))
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests():
    """Population name -> the digest of each of its channels."""
    return {
        name: [analysis_digest(dist) for dist in POPULATIONS[name]()]
        for name in DIGEST_POPULATIONS
    }


def test_full_analysis_is_bit_identical_to_the_golden():
    stored = json.loads(DIGESTS.read_text())
    assert list(stored) == list(DIGEST_POPULATIONS)
    for name in DIGEST_POPULATIONS:
        dists = POPULATIONS[name]()
        assert len(dists) == len(stored[name]), name
        for i, (dist, digest) in enumerate(zip(dists, stored[name])):
            assert analysis_digest(dist) == digest, f"{name}[{i}]: {dist}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")

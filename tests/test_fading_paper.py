import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channels
from fadegap import (
    FadingDistribution,
    ValidationError,
    analyze,
    certify,
    fading_paper_report,
    worst_case_fp_bracket,
)
from fadegap.fading_paper import LN2


def certify_brackets(dist):
    reports = [fading_paper_report(dist, inr) for inr in (0.0, 1.0, 1e6)]
    return certify.fading_paper_brackets(dist.gains, reports)


def test_two_state_report():
    report = fading_paper_report(FadingDistribution((4, 1), (0.5, 0.5)), inr=3.5)
    assert report.inr == 3.5
    assert report.achievable_rate == pytest.approx(0.5 * math.log(4), rel=1e-13)
    c_erg = 0.5 * math.log(10)
    assert report.c_erg_upper == pytest.approx(c_erg, rel=1e-13)
    assert report.c_erg_lower == pytest.approx(c_erg - LN2, rel=1e-12)
    assert report.c_erg_lower <= report.achievable_rate <= report.c_erg_upper
    assert report.c_exp_fp == pytest.approx(0.5 * math.log(16 / 3), rel=1e-12)
    assert report.gap_lower == 0.0
    assert report.gap_upper == pytest.approx(0.5 * math.log(15 / 8), rel=1e-12)
    assert report.gap_lower_raw == pytest.approx(0.5 * math.log(15 / 8) - LN2, rel=1e-12)


def test_achievable_rate_stays_within_the_ergodic_capacity_on_a_huge_gain():
    # ln g of the first gain rounds above ln(1 + g): summed as ln g, the
    # rate was 235.95685621545846, above c_erg 235.95685621545843
    dist = FadingDistribution(
        (2.983737561952692e102, 9.912527792854921e-22),
        (0.9999999999999968, 3.1231200117560917e-15),
    )
    report = fading_paper_report(dist, inr=0.0)
    assert report.achievable_rate <= report.c_erg_upper == 235.95685621545843
    assert certify_brackets(dist).ok


def test_boundary_gain_of_one():
    report = fading_paper_report(FadingDistribution((1,), (1.0,)), inr=0.0)
    assert report.achievable_rate == 0.0
    assert report.c_erg_upper == pytest.approx(LN2, rel=1e-15)
    assert report.c_erg_lower == pytest.approx(0.0, abs=1e-15)


def test_gains_above_one():
    report = fading_paper_report(
        FadingDistribution((math.e**2, math.e), (0.5, 0.5)), inr=1.0
    )
    assert report.achievable_rate == pytest.approx(1.5, rel=1e-12)


def test_zero_gain_state_contributes_nothing():
    report = fading_paper_report(FadingDistribution((1, 0), (0.5, 0.5)), inr=0.0)
    assert report.achievable_rate == 0.0
    assert report.gap_upper == 0.0


def test_inr_invariance():
    dist = FadingDistribution((9.0, 0.7, 0.02), (0.5, 0.2, 0.3))
    reports = [fading_paper_report(dist, inr) for inr in (0.0, 1.0, 1e6)]
    assert reports[0].inr == 0.0 and reports[2].inr == 1e6
    assert certify.fading_paper_brackets(dist.gains, reports).ok


def test_negative_inr_rejected():
    with pytest.raises(ValidationError, match="inr must be nonnegative, got -0.5"):
        fading_paper_report(FadingDistribution((1,), (1.0,)), inr=-0.5)
    with pytest.raises(ValidationError, match="inr must be a real number, got None"):
        fading_paper_report(FadingDistribution((1,), (1.0,)), inr=None)


def test_bracket_and_width_on_random_channels():
    for dist in random_channels(30, seed=77, max_states=6):
        report = fading_paper_report(dist, inr=1.0)
        assert report.gap_upper == analyze(dist).additive_gap
        assert 0.0 <= report.gap_lower <= report.gap_upper
        assert certify_brackets(dist).ok


@given(st.floats(1e-6, 1e6))
@settings(max_examples=200, deadline=None)
def test_pointwise_one_bit_domination(g):
    assert certify_brackets(FadingDistribution((g,), (1.0,))).ok


def test_worst_case_bracket():
    lower, upper = worst_case_fp_bracket(8)
    assert lower == pytest.approx(math.log(4), rel=1e-15)
    assert upper == pytest.approx(math.log(8), rel=1e-15)
    assert worst_case_fp_bracket(2) == (0.0, pytest.approx(LN2, rel=1e-15))
    assert worst_case_fp_bracket(1) == (0.0, 0.0)
    with pytest.raises(ValidationError):
        worst_case_fp_bracket(0)
    # no distribution has 2.5 states; 10**400 / 2 overflows a float
    with pytest.raises(ValidationError, match="needs an integer K, got K=2.5"):
        worst_case_fp_bracket(2.5)
    with pytest.raises(ValidationError, match="bracket: K lies beyond the double-precision"):
        worst_case_fp_bracket(10**400)

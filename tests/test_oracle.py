import math

import pytest

from conftest import random_channels
from fadegap import (
    FadingDistribution,
    ValidationError,
    analyze,
    brute_force_expected_capacity,
    certify,
    multiplicative_family,
    prepare,
)
from fadegap.certify import ORACLE_TOL


def test_two_state_optimum():
    ch = prepare(FadingDistribution((4, 1), (0.5, 0.5)))
    result = brute_force_expected_capacity(ch, ORACLE_TOL)
    assert result.value == pytest.approx(0.5 * math.log(16 / 3), abs=1e-9)
    assert result.beta[0] == pytest.approx(0.5, abs=1e-6)
    assert result.beta[1] == 1.0
    assert result.resolution <= ORACLE_TOL


def test_single_state_needs_no_search():
    ch = prepare(FadingDistribution((3,), (1.0,)))
    result = brute_force_expected_capacity(ch, ORACLE_TOL)
    assert result.value == pytest.approx(math.log(4), rel=1e-15)
    assert result.beta == (1.0,)
    assert result.iterations == 0


def test_multiplicative_family_optimum_sits_at_zero():
    ch = prepare(multiplicative_family(2, 2))
    result = brute_force_expected_capacity(ch, ORACLE_TOL)
    assert result.value == pytest.approx(math.log(7 / 6), abs=1e-9)
    assert result.beta[0] == pytest.approx(0.0, abs=1e-6)


def test_rejects_bad_inputs():
    ch = prepare(FadingDistribution((4, 1), (0.5, 0.5)))
    with pytest.raises(ValidationError):
        brute_force_expected_capacity(ch, 0.0)
    with pytest.raises(ValidationError):
        brute_force_expected_capacity(prepare(FadingDistribution((0,), (1.0,))), ORACLE_TOL)


def test_deterministic():
    ch = prepare(FadingDistribution((31.0, 2.5, 0.04, 0.001, 7e2), (0.2,) * 5))
    a = brute_force_expected_capacity(ch, ORACLE_TOL)
    b = brute_force_expected_capacity(ch, ORACLE_TOL)
    assert a == b


def test_certifies_closed_form_on_random_channels():
    # plus two channels that defeated the coordinate ascent: the optimum of
    # the 18th draw of seed 0 skips a state, where single-coordinate moves
    # stall, and that of seed 3345769749 sits on slice endpoints, which the
    # golden-section search alone never evaluates
    hard = random_channels(18, seed=0)[-1:] + random_channels(1, seed=3345769749)
    for dist in random_channels(40, seed=13, max_states=5) + hard:
        c_exp = analyze(dist).c_exp
        oracle = brute_force_expected_capacity(prepare(dist), ORACLE_TOL).value
        assert certify.oracle_certification(c_exp, oracle).ok
        assert certify.oracle_not_above_closed_form(c_exp, oracle).ok

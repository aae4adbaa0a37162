import json
import math
import pathlib

import pytest

from conftest import POPULATIONS, reference_brute_force
from fadegap import (
    FadingDistribution,
    OracleResult,
    ValidationError,
    analyze,
    brute_force_expected_capacity,
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
    # the subnormal gain's inverse overflows, so the first grid sees n = inf;
    # the zero gain's is inf too, and its rate is 0
    cases = ((3, math.log(4)), (5e-324, 5e-324), (1e300, 690.7755278982137), (0, 0.0))
    for gain, value in cases:
        dist = FadingDistribution((gain,), (1.0,))
        result = brute_force_expected_capacity(prepare(dist), ORACLE_TOL)
        assert result == OracleResult(value=value, beta=(1.0,), iterations=0, resolution=0.0)
        assert result.value == analyze(dist).c_exp


def test_multiplicative_family_optimum_sits_at_zero():
    ch = prepare(multiplicative_family(2, 2))
    result = brute_force_expected_capacity(ch, ORACLE_TOL)
    assert result.value == pytest.approx(math.log(7 / 6), abs=1e-9)
    assert result.beta[0] == pytest.approx(0.0, abs=1e-6)


def test_rejects_bad_inputs():
    ch = prepare(FadingDistribution((4, 1), (0.5, 0.5)))
    with pytest.raises(ValidationError, match="tol must be positive, got 0.0"):
        brute_force_expected_capacity(ch, 0.0)
    with pytest.raises(ValidationError, match="tol must be a real number, got None"):
        brute_force_expected_capacity(ch, None)


def test_deterministic():
    ch = prepare(FadingDistribution((31.0, 2.5, 0.04, 0.001, 7e2), (0.2,) * 5))
    a = brute_force_expected_capacity(ch, ORACLE_TOL)
    b = brute_force_expected_capacity(ch, ORACLE_TOL)
    assert a == b


def test_search_stops_where_rounding_ends_the_refinement():
    ch = prepare(FadingDistribution((31.0, 2.5, 0.04, 0.001, 7e2), (0.2,) * 5))
    coarse = brute_force_expected_capacity(ch, ORACLE_TOL)
    fine = brute_force_expected_capacity(ch, 1e-300)
    assert 0 < fine.resolution < 1e-15
    assert fine.iterations > coarse.iterations
    assert fine.value == pytest.approx(coarse.value, abs=1e-15)


def test_value_never_falls_as_the_tolerance_tightens():
    # each round keeps the incumbents on their grids, so the rounds that a
    # finer tolerance adds can only gain, up to the rounding of the value
    tols = (1e-1, 1e-3, 1e-5, ORACLE_TOL)
    for dist in POPULATIONS["random-seed-0"]():
        ch = prepare(dist)
        values = [brute_force_expected_capacity(ch, tol).value for tol in tols]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


#: The golden's keys, in its order, and the population behind each:
#: verify's two, and the extreme corpus.
REFERENCE_POPULATIONS = {
    "verify-seed-0": "random-seed-0",
    "verify-seed-7-k8": "random-seed-7-k8",
    "extreme": "extreme",
}

#: The reference search's value on every channel of REFERENCE_POPULATIONS;
#: rewrite it with ``PYTHONPATH=src python tests/test_oracle.py``.
REFERENCE_VALUES = pathlib.Path(__file__).parent / "golden" / "oracle_reference.json"


def reference_values():
    """Population name -> the reference search's value on each channel."""
    return {
        key: [reference_brute_force(prepare(d), ORACLE_TOL).value for d in POPULATIONS[name]()]
        for key, name in REFERENCE_POPULATIONS.items()
    }


@pytest.fixture(scope="module")
def stored_reference():
    return json.loads(REFERENCE_VALUES.read_text())


@pytest.mark.parametrize("key", REFERENCE_POPULATIONS)
def test_never_below_the_reference_search(key, stored_reference):
    """Differential check against the former grid and coordinate-ascent
    search: never more than 1e-12 below it, and within 1e-12 relative of
    the closed form."""
    dists = POPULATIONS[REFERENCE_POPULATIONS[key]]()
    assert len(dists) == len(stored_reference[key])
    for dist, reference in zip(dists, stored_reference[key]):
        c_exp = analyze(dist).c_exp
        value = brute_force_expected_capacity(prepare(dist), ORACLE_TOL).value
        assert value >= reference - 1e-12, (dist, value, reference)
        assert value == pytest.approx(c_exp, rel=1e-12, abs=0)


@pytest.mark.parametrize("key", REFERENCE_POPULATIONS)
def test_stored_values_are_the_reference_search(key, stored_reference):
    """Every eighth stored value, recomputed by the reference search, which
    is too slow to rerun on whole populations in the suite."""
    dists = POPULATIONS[REFERENCE_POPULATIONS[key]]()[::8]
    for dist, stored in zip(dists, stored_reference[key][::8]):
        value = reference_brute_force(prepare(dist), ORACLE_TOL).value
        assert value == pytest.approx(stored, rel=1e-14, abs=0)


if __name__ == "__main__":
    REFERENCE_VALUES.write_text(json.dumps(reference_values(), indent=1) + "\n")

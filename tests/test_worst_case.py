import math
import re
from fractions import Fraction

import pytest

from conftest import _Real
from fadegap import (
    ValidationError,
    additive_family,
    analyze,
    full_analysis,
    high_snr_instance,
    intersection,
    low_snr_instance,
    multiplicative_family,
    prepare,
    sweep,
    sweep_to_csv,
)
from fadegap.worst_case import SWEEP_CSV_HEADER


def test_additive_family_values():
    dist = additive_family(3, 10)
    assert dist.gains == (1110.0, 110.0, 10.0)
    assert dist.probs == (1 / 3,) * 3
    assert additive_family(1, 5).gains == (5.0,)
    assert additive_family(2, 3).gains == (12.0, 3.0)


@pytest.mark.parametrize("K, d", [(3, 2.0), (5, 4.0), (2, 1.5), (1, 2.0)])
def test_additive_family_rejects_small_d(K, d):
    with pytest.raises(ValidationError):
        additive_family(K, d)


def test_multiplicative_family_values():
    dist = multiplicative_family(2, 2)
    assert dist.gains == (Fraction(1, 2), Fraction(1, 6))
    assert dist.probs == (Fraction(1, 3), Fraction(2, 3))
    assert multiplicative_family(1, 4).gains == (Fraction(1, 4),)
    assert multiplicative_family(2, Fraction(2)) == dist


def test_multiplicative_family_rejects_nonpositive_d():
    with pytest.raises(ValidationError):
        multiplicative_family(3, 0.0)
    with pytest.raises(ValidationError):
        multiplicative_family(3, -1.0)


def test_multiplicative_family_gap_bracket():
    # ln(3/2)/3 + 2 ln(7/6)/3 over ln(7/6), inside [K d/(d+1), K]
    report = analyze(multiplicative_family(2, 2))
    expected = (math.log(3 / 2) / 3 + 2 * math.log(7 / 6) / 3) / math.log(7 / 6)
    assert report.multiplicative_gap == pytest.approx(expected, rel=1e-12)
    assert report.multiplicative_gap == pytest.approx(1.5434389, abs=1e-6)
    assert 4 / 3 <= report.multiplicative_gap <= 2


@pytest.mark.parametrize("K", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("d", [0.5, 2, 60])
def test_multiplicative_family_single_active_state(K, d):
    analysis = full_analysis(multiplicative_family(K, d))
    ch, chain = analysis.channel, analysis.chain
    for k in range(1, ch.num_states):
        for l in range(k + 1, ch.num_states + 1):
            assert intersection(ch, k, l) == 0
    assert chain.s == chain.w
    assert analysis.report.active_states == (ch.num_states,)


def test_high_snr_instance():
    assert high_snr_instance((1.0, 0.5), (0.5, 0.5), 100).gains == (100.0, 10.0)
    assert high_snr_instance(
        (1.0, 0.75, 0.5, 0.25), (0.25,) * 4, 1e12
    ).gains == (1e12, 1e9, 1e6, 1e3)
    # at snr 1 all gains collapse and prepare merges them
    merged = prepare(high_snr_instance((1.0, 0.5), (0.5, 0.5), 1.0))
    assert merged.num_states == 1


def test_low_snr_instance():
    dist = low_snr_instance((5, 3, 1), (0.2, 0.3, 0.5), 1e-6)
    assert dist.gains == pytest.approx((5e-6, 3e-6, 1e-6), rel=1e-15)
    doubled = low_snr_instance((2, 1), (0.5, 0.5), 1.0)
    assert doubled.gains == (2.0, 1.0)


def test_low_snr_regime_has_single_active_state():
    alpha, probs = (4.0, 2.5, 1.5, 0.5), (0.1, 0.4, 0.2, 0.3)
    analysis = full_analysis(low_snr_instance(alpha, probs, 1e-6))
    f = 0.0
    scores = []
    for a, p in zip(alpha, probs):
        f += p
        scores.append(f * a)
    winner = max(range(len(alpha)), key=lambda i: scores[i]) + 1
    assert analysis.report.active_states == (winner,)
    ratio = sum(a * p for a, p in zip(alpha, probs)) / max(scores)
    assert analysis.report.multiplicative_gap == pytest.approx(ratio, rel=1e-3)


@pytest.mark.parametrize(
    "profile, probs, message",
    [
        ((0.5, 1.0), (0.5, 0.5), "entries must be strictly decreasing"),
        ((1.0, 1.0), (0.5, 0.5), "entries must be strictly decreasing"),
        ((1.0, -0.5), (0.5, 0.5), "entries must be positive, got -0.5"),
        ((), (), "need at least one state"),
        ((2.0, 1.0), (1.0,), "profile and probabilities differ in length"),
        # refused before an entry is compared or the profile iterated
        (("1",), (1.0,), "entry 1 must be a real number, got '1'"),
        ((None,), (1.0,), "entry 1 must be a real number, got None"),
        ((2.0, 1j), (0.5, 0.5), "entry 2 must be a real number, got 1j"),
        (5, (1.0,), ": expected a sequence of numbers, got int"),
        (None, (1.0,), ": expected a sequence of numbers, got NoneType"),
        ((1.0,), 5, "probs: expected a sequence of numbers, got int"),
    ],
    ids=[f"profile{i}" for i in range(4)]
    + ["length", "str-entry", "none-entry", "complex-entry", "int", "none", "int-probs"],
)
def test_snr_instances_reject_bad_profiles(profile, probs, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        high_snr_instance(profile, probs, 10.0)
    with pytest.raises(ValidationError, match=re.escape(message)):
        low_snr_instance(profile, probs, 0.1)


@pytest.mark.parametrize("build", [high_snr_instance, low_snr_instance])
def test_snr_instances_check_snr_after_the_profile(build):
    for snr in (0.0, -1.0):
        with pytest.raises(ValidationError, match=f"snr must be positive, got {snr}"):
            build([2, 1], [0.5, 0.5], snr)
    with pytest.raises(ValidationError, match="entries must be strictly decreasing"):
        build([1, 2], [0.5, 0.5], math.nan)


#: the refusal of a _Real parameter
_NEITHER = "{} must be a real number, got _Real(10.0), which is neither a float nor a rational"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: multiplicative_family(3, math.inf), "d must be finite"),
        (lambda: additive_family(3, math.inf), "d must be finite"),
        (lambda: multiplicative_family(3, math.nan), "d must be finite"),
        (lambda: additive_family(3, 1e200), "d = 1e+200 with K = 3: a gain overflows"),
        (lambda: additive_family(200, 200.0), "d = 200.0 with K = 200: a gain overflows"),
        (lambda: high_snr_instance([2, 1], [0.5, 0.5], 1e300), "snr = 1e+300: a gain overflows"),
        (lambda: high_snr_instance([2, 1], [0.5, 0.5], math.inf), "snr must be finite"),
        (lambda: additive_family(3, "5"), "d must be a real number, got '5'"),
        (lambda: multiplicative_family(3, "5"), "d must be a real number, got '5'"),
        (lambda: high_snr_instance((1.0,), (1.0,), "2"), "snr must be a real number, got '2'"),
        (lambda: low_snr_instance([2, 1], [0.5, 0.5], 1e308), "snr = 1e+308: a gain overflows"),
        (lambda: sweep("additive", 3, [10, 1e200]), "d = 1e+200 with K = 3: a gain overflows"),
        (lambda: additive_family(2.5, 10.0), "additive family needs an integer K, got K=2.5"),
        (
            lambda: multiplicative_family(2.5, 10.0),
            "multiplicative family needs an integer K, got K=2.5",
        ),
        (
            lambda: low_snr_instance((1e-200, 1e-250), (0.5, 0.5), 1e-200),
            "snr = 1e-200: a gain underflows double precision",
        ),
        (
            lambda: high_snr_instance((2.0, 1.0), (0.5, 0.5), 1e-200),
            "snr = 1e-200: a gain underflows double precision",
        ),
        (lambda: additive_family(3, _Real(10.0)), _NEITHER.format("d")),
        (lambda: multiplicative_family(3, _Real(10.0)), _NEITHER.format("d")),
        (lambda: high_snr_instance((2.0, 1.0), (0.5, 0.5), _Real(10.0)), _NEITHER.format("snr")),
        (lambda: low_snr_instance((2.0, 1.0), (0.5, 0.5), _Real(10.0)), _NEITHER.format("snr")),
        (lambda: sweep("additive", 3, [_Real(10.0)]), _NEITHER.format("d")),
    ],
    ids=[
        "multiplicative-inf",
        "additive-inf",
        "multiplicative-nan",
        "additive-1e200",
        "additive-K200",
        "high-snr-1e300",
        "high-snr-inf",
        "additive-str",
        "multiplicative-str",
        "high-snr-str",
        "low-snr-1e308",
        "sweep-1e200",
        "additive-K2.5",
        "multiplicative-K2.5",
        "low-snr-underflow",
        "high-snr-underflow",
        "additive-real",
        "multiplicative-real",
        "high-snr-real",
        "low-snr-real",
        "sweep-real",
    ],
)
def test_generators_refuse_non_finite_or_overflowing_parameters(build, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()


def test_snr_instances_keep_subnormal_gains():
    # a subnormal gain is nonzero, and FadingDistribution keeps it
    assert low_snr_instance((1.0, 0.5), (0.5, 0.5), 1e-310).gains == (1e-310, 5e-311)
    assert high_snr_instance((2.0, 1.0), (0.5, 0.5), 1e-155).gains == (1e-310, 1e-155)


def test_sweep_additive_gap_grows():
    rows = sweep("additive", 8, (10, 100, 1000))
    gaps = [report.additive_gap for _, report in rows]
    assert [d for d, _ in rows] == [10, 100, 1000]
    assert gaps[0] < gaps[1] < gaps[2] < math.log(8)


def test_sweep_multiplicative_terms():
    ((_, report),) = sweep("multiplicative", 8, (60,))
    assert all(t >= 0.983 for t in report.lemma3_terms)


def test_sweep_empty_and_invalid():
    assert sweep("additive", 4, ()) == []
    with pytest.raises(ValidationError, match="2.5"):
        sweep("additive", 4, (10, 2.5))
    with pytest.raises(ValidationError):
        sweep("high_snr", 4, (10,))
    with pytest.raises(ValidationError, match="d_values: expected a sequence of numbers"):
        sweep("additive", 3, None)
    with pytest.raises(ValidationError, match="d must be a real number, got 'x'"):
        sweep("additive", 3, (10, "x"))


def test_sweep_builds_each_distribution_once(monkeypatch):
    calls = []

    def counting(K, d):
        calls.append(d)
        return additive_family(K, d)

    monkeypatch.setattr("fadegap.worst_case.additive_family", counting)
    sweep("additive", 3, (10, 100, 1000))
    assert calls == [10, 100, 1000]


def test_sweep_csv_round_trip():
    rows = sweep("additive", 3, (10, 100))
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 10.0
    assert first[1] == pytest.approx(rows[0][1].c_erg, rel=1e-15)
    assert text == sweep_to_csv(sweep("additive", 3, (10, 100)))

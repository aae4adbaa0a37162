import json
import math
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings

from conftest import POPULATIONS, as_distribution, channel_distributions, random_channels
from fadegap import (
    FadingDistribution,
    ValidationError,
    analyze,
    entropy,
    ergodic_capacity,
    prepare,
)


def test_prepare_sorts_descending():
    ch = prepare(FadingDistribution((1, 4), (0.5, 0.5)))
    assert ch.gains == (4, 1)
    assert ch.inverse_gains == (0.25, 1.0)
    assert ch.cum_probs == (0.5, 1.0)
    assert ch.epsilon_applied is None
    assert not ch.degenerate


def test_prepare_merges_identical_gains():
    ch = prepare(FadingDistribution((2, 2), (0.4, 0.6)))
    assert ch.gains == (2,)
    assert ch.probs == (1.0,)


def test_prepare_substitutes_epsilon_for_zero_gain():
    # min over k<K of F_k / ((1 - F_k) + n_k) = 0.5 / (0.5 + 1) = 1/3,
    # and the substitute is half of that.
    ch = prepare(FadingDistribution((1, 0), (0.5, 0.5)))
    assert ch.epsilon_applied == pytest.approx(1 / 6, rel=1e-15)
    assert ch.gains[0] == 1
    assert ch.gains[1] == ch.epsilon_applied
    bound = min(
        f / ((1 - f) + n)
        for f, n in zip(ch.cum_probs[:-1], ch.inverse_gains[:-1])
    )
    assert ch.epsilon_applied < bound


def test_prepare_merges_multiple_zero_gains():
    ch = prepare(FadingDistribution((1, 0, 0), (0.5, 0.25, 0.25)))
    assert len(ch.gains) == 2
    assert ch.probs == (0.5, 0.5)
    assert ch.epsilon_applied is not None


def test_prepare_degenerate_single_zero_state():
    ch = prepare(FadingDistribution((0,), (1.0,)))
    assert ch.degenerate
    assert ch.gains == (0,)


@pytest.mark.parametrize(
    "gains, probs, match",
    [
        ((), (), "at least one"),
        ((1, 2), (1.0,), "length mismatch"),
        ((1, 2), (0.5, 0.0), "non-positive"),
        ((1, 2), (0.5, -0.5), "non-positive"),
        ((1, 2), (0.5, 0.4), "sum to 1"),
        ((1, -2), (0.5, 0.5), "negative gain"),
        ((math.inf, 1.0), (0.5, 0.5), "infinite gain"),
        ((math.nan, 1.0), (0.5, 0.5), "gains: state 1 is not a number"),
        ((2.0, 1.0), (0.5, math.nan), "probs: state 2 is not a number"),
        ((10**400, 1), (0.5, 0.5), "gains: state 1 lies beyond the double-precision range"),
        ((Fraction(10**400), 1), (0.5, 0.5), "beyond the double-precision range"),
        ((2.0, 1.0), (10**400, 0.5), "probs: state 1 lies beyond the double-precision range"),
        ((2.0, 1.0), (1, Fraction(1, 10**400)), "probs: state 2 underflows double precision"),
        ((Fraction(1, 10**400), 1.0), (0.5, 0.5), "gains: state 1 underflows double precision"),
        # exact values below the normal range: their ratios overflow a float
        ((2.0, 1.0), (1, Fraction(1, 10**310)), "probs: state 2 underflows double precision"),
        ((Fraction(1, 10**310), 1.0), (0.5, 0.5), "gains: state 1 underflows double precision"),
    ],
)
def test_distribution_validation_errors(gains, probs, match):
    with pytest.raises(ValidationError, match=match):
        FadingDistribution(gains, probs)


#: the refusal of a value that is neither a float nor a rational number
_NOT_REAL = "{} must be a real number, got {}"


@pytest.mark.parametrize(
    "gains, probs, match",
    [
        ((Decimal(2), Decimal(1)), (0.5, 0.5), _NOT_REAL.format("gains: state 1", "Decimal")),
        ((2.0, 1.0), (Decimal("0.5"),) * 2, _NOT_REAL.format("probs: state 1", "Decimal")),
        (("2", 1.0), (0.5, 0.5), _NOT_REAL.format("gains: state 1", "'2'")),
        ((2.0, None), (0.5, 0.5), _NOT_REAL.format("gains: state 2", "None")),
        ((2.0, 1j), (0.5, 0.5), _NOT_REAL.format("gains: state 2", "1j")),
        ((2.0, 1.0), (0.5, "0.5"), _NOT_REAL.format("probs: state 2", "'0.5'")),
        (5, (1.0,), "gains: expected a sequence of numbers, got int"),
        ((1.0,), None, "probs: expected a sequence of numbers, got NoneType"),
    ],
    ids=[
        "decimal-gains", "decimal-probs", "str", "none", "complex", "str-prob", "int",
        "none-probs",
    ],
)
def test_non_real_entry_is_a_validation_error(gains, probs, match):
    with pytest.raises(ValidationError, match=match):
        FadingDistribution(gains, probs)


def test_type_error_raised_while_iterating_gains_propagates():
    def gains():
        yield 2.0
        raise TypeError("broken source")

    with pytest.raises(TypeError, match="broken source"):
        FadingDistribution(gains(), (0.5, 0.5))


class _Gain(float):
    pass


def test_float_subclasses_and_rationals_are_accepted():
    report = analyze(FadingDistribution((_Gain(4.0), True), (Fraction(1, 2), 0.5)))
    assert report == analyze(FadingDistribution((4.0, 1), (0.5, 0.5)))


@pytest.mark.parametrize(
    "gains, probs, match",
    [
        # n_1 = 5.6e-309 is subnormal, and Lambda_1 = 1 + 1/n_1 overflows
        ((1.7976931348623157e308,), (1.0,), "state 1 .* inverse below the normal"),
        # n_2 overflows, yet g_2 = 8.1e-311 beats F_1 / n_1 = 5e-311
        (
            (3.789162577964379e-308, 8.1089904430823e-311),
            (0.0013190771960513885, 0.9986809228039486),
            "gain 8.1089904430823e-311 of state 2 overflows double precision, and the"
            " state may receive power",
        ),
        # the exact zero-gain substitute, 5e-311, has an inverse beyond the range
        (
            (Fraction(1, 10**300), 0),
            (Fraction(1, 10**10), 1 - Fraction(1, 10**10)),
            "state 2 .* has an inverse beyond the double-precision range",
        ),
        # every inverse overflows: no finite state beats the first
        (
            (1e-320, 5e-321),
            (0.5, 0.5),
            "gain 1e-320 of state 1 overflows double precision, and the state may"
            " receive power",
        ),
        # n_1 overflows to inf, so the zero gain's substitute
        # F_1 / ((1 - F_1) + n_1) / 2 is 0
        (
            (1e-320, 0.0),
            (0.5, 0.5),
            "^gains: the substitute for the zero gain underflows double precision$",
        ),
        ((0.0, 1e-320), (0.5, 0.5), "the substitute for the zero gain underflows"),
    ],
)
def test_inverse_gain_outside_the_double_range_is_refused(gains, probs, match):
    dist = FadingDistribution(gains, probs)
    with pytest.raises(ValidationError, match=match):
        prepare(dist)


@pytest.mark.parametrize(
    "gains, probs, match",
    [
        # 1 - 1e-300 rounds to 1.0, which adding 1e-300 does not move
        ((2.0, 1.0), (1 - 1e-300, 1e-300), r"state 2 \(gain 1.0\) has probability 1e-300"),
        ((4.0, 2.0, 1.0), (0.5, 1e-300, 0.5), r"state 2 \(gain 2.0\) has probability 1e-300"),
        # the same states listed out of order
        ((1.0, 2.0), (1e-300, 1 - 1e-300), r"state 2 \(gain 1.0\) has probability 1e-300"),
        ((1.0, 2.0, 4.0), (0.5, 1e-300, 0.5), r"state 2 \(gain 2.0\) has probability 1e-300"),
        # a zero last gain is refused before it is substituted
        (
            (2.0, 0.0),
            (1 - 1e-300, 1e-300),
            r"^probs: state 2 \(gain 0.0\) has probability 1e-300, below the resolution of"
            r" the cumulative probability 1.0$",
        ),
        ((0.0, 2.0), (1e-300, 1 - 1e-300), r"state 2 \(gain 0.0\) has probability 1e-300"),
    ],
)
def test_probability_below_the_cumulative_resolution_is_refused(gains, probs, match):
    # F_k == F_{k-1} leaves states k-1 and k without a crossing
    dist = FadingDistribution(gains, probs)
    with pytest.raises(ValidationError, match=match):
        prepare(dist)
    with pytest.raises(ValidationError, match=match):
        analyze(dist)


class _ZeroDividesToInf(float):
    """A float subclass whose zero, as numpy's float64 zero does, divides to
    inf rather than raising."""

    def __rtruediv__(self, other):
        return math.inf if self == 0 else float.__rtruediv__(self, other)


#: Channels whose last state has a zero gain, each with the repr and the
#: first exact state prepare gives it in every listing: float gains; Fraction
#: gains; a Fraction probability on the zero state only; a merged run
#: just before the zero gain; an int zero gain; a float-subclass zero that
#: divides to inf; and the lone zero states.
_ZERO_LAST = {
    "float": (
        (1.0, 4.0, 0.0),
        (0.25, 0.25, 0.5),
        "PreparedChannel(gains=(4.0, 1.0, 0.125), probs=(0.25, 0.25, 0.5),"
        " inverse_gains=(0.25, 1.0, 8.0), cum_probs=(0.25, 0.5, 1.0),"
        " epsilon_applied=0.125, degenerate=False)",
        4,
    ),
    "fraction": (
        (Fraction(1), Fraction(4), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        "PreparedChannel(gains=(Fraction(4, 1), Fraction(1, 1), Fraction(1, 8)),"
        " probs=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),"
        " inverse_gains=(Fraction(1, 4), Fraction(1, 1), Fraction(8, 1)),"
        " cum_probs=(Fraction(1, 4), Fraction(1, 2), Fraction(1, 1)),"
        " epsilon_applied=Fraction(1, 8), degenerate=False)",
        1,
    ),
    "fraction-zero-state-probability": (
        (2.0, 0.0),
        (0.5, Fraction(1, 2)),
        "PreparedChannel(gains=(2.0, 0.25), probs=(0.5, Fraction(1, 2)),"
        " inverse_gains=(0.5, 4.0), cum_probs=(0.5, 1.0), epsilon_applied=0.25,"
        " degenerate=False)",
        2,
    ),
    "merged-run": (
        (2.0, 0.0, 2.0),
        (0.25, 0.5, 0.25),
        "PreparedChannel(gains=(2.0, 0.25), probs=(0.5, 0.5), inverse_gains=(0.5, 4.0),"
        " cum_probs=(0.5, 1.0), epsilon_applied=0.25, degenerate=False)",
        3,
    ),
    "int-zero": (
        (1.0, 0, 4.0),
        (0.25, 0.5, 0.25),
        "PreparedChannel(gains=(4.0, 1.0, 0.125), probs=(0.25, 0.25, 0.5),"
        " inverse_gains=(0.25, 1.0, 8.0), cum_probs=(0.25, 0.5, 1.0),"
        " epsilon_applied=0.125, degenerate=False)",
        4,
    ),
    "zero-dividing-to-inf": (
        (2.0, _ZeroDividesToInf(0.0)),
        (0.5, 0.5),
        "PreparedChannel(gains=(2.0, 0.25), probs=(0.5, 0.5), inverse_gains=(0.5, 4.0),"
        " cum_probs=(0.5, 1.0), epsilon_applied=0.25, degenerate=False)",
        3,
    ),
    "lone-zero-dividing-to-inf": (
        (_ZeroDividesToInf(0.0),),
        (1.0,),
        "PreparedChannel(gains=(0.0,), probs=(1.0,), inverse_gains=(inf,),"
        " cum_probs=(1.0,), epsilon_applied=None, degenerate=True)",
        2,
    ),
    "lone-float-zero": (
        (0.0,),
        (1.0,),
        "PreparedChannel(gains=(0.0,), probs=(1.0,), inverse_gains=(inf,),"
        " cum_probs=(1.0,), epsilon_applied=None, degenerate=True)",
        2,
    ),
    "lone-int-zero": (
        (0,),
        (1,),
        "PreparedChannel(gains=(0,), probs=(1,), inverse_gains=(inf,), cum_probs=(1,),"
        " epsilon_applied=None, degenerate=True)",
        2,
    ),
}


@pytest.mark.parametrize("listing", ["given", "descending", "ascending"])
@pytest.mark.parametrize("case", _ZERO_LAST)
def test_a_zero_last_gain_is_closed_as_every_state(case, listing):
    gains, probs, expected, first_exact = _ZERO_LAST[case]
    pairs = list(zip(gains, probs))
    if listing != "given":
        pairs.sort(key=itemgetter(0), reverse=listing == "descending")
    ch = prepare(FadingDistribution(*zip(*pairs)))
    assert (repr(ch), ch._first_exact) == (expected, first_exact)


def test_ergodic_capacity_two_state():
    ch = prepare(FadingDistribution((4, 1), (0.5, 0.5)))
    assert ergodic_capacity(ch) == pytest.approx(
        0.5 * math.log(5) + 0.5 * math.log(2), rel=1e-15
    )


def test_ergodic_capacity_zero_state_contributes_nothing():
    assert ergodic_capacity(prepare(FadingDistribution((0,), (1.0,)))) == 0.0
    # epsilon substitution must not leak into the ergodic capacity
    ch = prepare(FadingDistribution((1, 0), (0.5, 0.5)))
    assert ergodic_capacity(ch) == pytest.approx(0.5 * math.log(2), rel=1e-15)


def test_ergodic_capacity_single_state():
    ch = prepare(FadingDistribution((2,), (1.0,)))
    assert ergodic_capacity(ch) == pytest.approx(math.log(3), rel=1e-15)


def test_entropy_values():
    assert entropy(prepare(FadingDistribution((4, 1), (0.5, 0.5)))) == pytest.approx(
        math.log(2), rel=1e-15
    )
    assert entropy(prepare(FadingDistribution((2,), (1.0,)))) == 0.0
    uniform8 = prepare(
        FadingDistribution(tuple(2.0**k for k in range(8)), (1 / 8,) * 8)
    )
    assert entropy(uniform8) == pytest.approx(math.log(8), rel=1e-15)


def left_fold_entropy(probs):
    total = 0.0
    for p in probs:
        total -= p * math.log(p)
    return total + 0.0


@pytest.mark.parametrize(
    "gains, probs",
    [
        # distinct objects, as parsed from JSON
        ((7, 6, 5, 4, 3, 2, 1), json.loads(json.dumps([1 / 7] * 7))),
        ((3, 2, 1), (Fraction(1, 4), 0.25, 0.5)),
        # sorted by gain, the equal probabilities alternate
        ((1, 2, 3, 4), (0.1, 0.4, 0.1, 0.4)),
        ((4, 3, 2, 1), (Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3))),
    ],
    ids=["uniform-floats", "fraction-beside-float", "equal-apart", "fractions"],
)
def test_entropy_is_the_left_fold_bit_for_bit(gains, probs):
    # a run of equal probabilities shares one term; the sum does not change
    ch = prepare(FadingDistribution(gains, tuple(probs)))
    assert entropy(ch).hex() == left_fold_entropy(ch.probs).hex()


@given(channel_distributions(max_states=8))
@settings(max_examples=50, deadline=None)
def test_entropy_bounds(dist):
    ch = prepare(dist)
    h = entropy(ch)
    assert -1e-12 <= h <= math.log(ch.num_states) + 1e-12


def test_prepare_is_idempotent():
    for dist in random_channels(25, seed=11, max_states=6):
        once = prepare(dist)
        twice = prepare(as_distribution(once))
        assert twice.gains == once.gains
        assert twice.probs == once.probs
        assert twice.inverse_gains == once.inverse_gains
        assert twice.cum_probs == once.cum_probs


def test_prepare_accepts_fraction_inputs_exactly():
    ch = prepare(
        FadingDistribution(
            (Fraction(1, 2), Fraction(1, 6)), (Fraction(1, 3), Fraction(2, 3))
        )
    )
    assert ch.inverse_gains == (Fraction(2), Fraction(6))
    assert ch.cum_probs == (Fraction(1, 3), Fraction(1))


@pytest.mark.parametrize(
    "channels, probs",
    [pytest.param(make, None, id=name) for name, make in POPULATIONS.items()]
    + [
        pytest.param(
            lambda: [
                FadingDistribution((1.0, 7.5, 0.02, 130.0), (0.1, 0.2, 0.3, 0.4)),
                FadingDistribution((130.0, 0.02, 1.0, 7.5), (0.4, 0.3, 0.1, 0.2)),
            ],
            (0.4, 0.2, 0.1, 0.3),
            id="shuffled",
        ),
        # a run of equal gains merges into its first state, summed in the
        # order given: 0.1 + 0.2 + 0.3 rounds up, 0.3 + 0.2 + 0.1 does not
        pytest.param(
            lambda: [
                FadingDistribution((3.0, 3.0, 3.0, 1.0), (0.1, 0.2, 0.3, 0.4)),
                FadingDistribution((1.0, 3.0, 3.0, 3.0), (0.4, 0.1, 0.2, 0.3)),
            ],
            (0.6000000000000001, 0.4),
            id="merge-order",
        ),
        pytest.param(
            lambda: [FadingDistribution((3.0, 3.0, 3.0, 1.0), (0.3, 0.2, 0.1, 0.4))],
            (0.6, 0.4),
            id="merge-order-reversed",
        ),
    ],
)
def test_permuting_states_does_not_change_analysis(channels, probs):
    # the listing as given, its stable descending listing (which prepare
    # takes unsorted) and its stable ascending one prepare alike
    for dist in channels():
        pairs = list(zip(dist.gains, dist.probs))
        listings = [dist] + [
            FadingDistribution(*zip(*sorted(pairs, key=itemgetter(0), reverse=reverse)))
            for reverse in (True, False)
        ]
        prepared = [prepare(d) for d in listings]
        assert len({repr(ch) for ch in prepared}) == 1, dist
        if probs is not None:
            assert prepared[0].probs == probs
        a, b, c = (analyze(d) for d in listings)
        assert a == b == c, dist


def test_merging_preserves_capacities():
    split = FadingDistribution((8.0, 3.0, 3.0, 0.2), (0.25, 0.3, 0.15, 0.3))
    merged = FadingDistribution((8.0, 3.0, 0.2), (0.25, 0.45, 0.3))
    ra, rb = analyze(split), analyze(merged)
    assert ra.c_erg == pytest.approx(rb.c_erg, rel=1e-12)
    assert ra.c_exp == pytest.approx(rb.c_exp, rel=1e-12)


def test_epsilon_substitution_preserves_expected_capacity():
    original = analyze(FadingDistribution((1, 0), (0.5, 0.5)))
    ch = prepare(FadingDistribution((1, 0), (0.5, 0.5)))
    modified = analyze(as_distribution(ch))
    assert modified.c_exp == original.c_exp

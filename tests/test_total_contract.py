"""The total input contract, as properties over extreme inputs.

For every input the library returns a finite report or raises
ValidationError or InternalConsistencyError, and every report keeps the
``A <= ln K`` and ``M <= K`` bounds; ``fadegap.cli.run`` exits 0, 1 or 2
and never lets an exception through.  The draws reach the float limits:
zero and subnormal gains up to 1.8e308, probabilities down to 1e-320,
exact Fraction and big-int values, and K up to a few hundred.  The
worst-case family generators behind ``family`` and ``sweep`` see K up to 40
and non-finite, huge, subnormal and negative d.
"""

import contextlib
import copy
import functools
import inspect
import io
import json
import math
import pickle
import random
import re
import sys
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BUILDERS, _marked, _Real, assert_accepted_channel_has_no_nan, strict_json
from fadegap import (
    FadingDistribution,
    PowerAllocation,
    PreparedChannel,
    analyze,
    brute_force_expected_capacity,
    build_chain,
    certify,
    closed_form_routes,
    dominating_muf,
    entropy,
    envelope_integral,
    ergodic_capacity,
    expected_capacity,
    expected_rate_of,
    fading_paper_report,
    full_analysis,
    high_snr_instance,
    intersection,
    low_snr_instance,
    muf_value,
    optimal_allocation,
    prepare,
    sweep_to_csv,
)
from fadegap.allocation import layer_rates
from fadegap.cli import random_distribution, run, verify_run
from fadegap.errors import InternalConsistencyError, ValidationError

_SETTINGS = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Each channel draws its gains from one of these styles, so that most
#: channels stay inside the float range while every style of extreme input
#: still appears.
_FLOAT_GAINS = [
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1.8e308),
    st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(1e300, 1.8e308)),
    st.integers(0, 10**300),
    st.one_of(st.floats(0.0, 1.8e308), st.integers(0, 10**400)),
]
_EXACT_GAINS = [
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
    st.builds(Fraction, st.integers(0, 10**320), st.integers(1, 10**320)),
]
_WEIGHTS = [
    st.floats(0.01, 1.0),
    st.floats(1e-12, 1.0),
    st.one_of(st.floats(0.01, 1.0), st.floats(1e-320, 1e-300)),
]


@st.composite
def channels(draw, exact=True):
    """(gains, probs) of a channel with K up to 300.  The probabilities are
    the drawn weights normalised (in floats, or exactly as Fractions), or
    the weights as drawn, which rarely sum to 1."""
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 300)))
    # JSON carries floats and ints only
    styles = _FLOAT_GAINS + (_EXACT_GAINS if exact else [])
    gains = draw(st.lists(draw(st.sampled_from(styles)), min_size=k, max_size=k))
    weights = draw(st.lists(draw(st.sampled_from(_WEIGHTS)), min_size=k, max_size=k))
    hows = ["float", "float", "fraction", "raw"] if exact else ["float", "raw"]
    how = draw(st.sampled_from(hows))
    if how == "fraction":
        total = sum(map(Fraction, weights))
        probs = [Fraction(w) / total for w in weights]
    elif how == "float":
        total = math.fsum(weights)
        probs = [w / total for w in weights]
    else:
        probs = weights
    return tuple(gains), tuple(probs)


def _is_finite(x):
    return x is None or math.isfinite(x)


@settings(_SETTINGS, max_examples=150)
@given(channels())
def test_library_returns_a_certified_report_or_a_typed_error(channel):
    try:
        analysis = full_analysis(FadingDistribution(*channel))
    except (ValidationError, InternalConsistencyError):
        return
    report = analysis.report
    values = [report.c_erg, report.c_exp, report.additive_gap, report.multiplicative_gap]
    values += [report.entropy, report.epsilon_applied, *report.lemma2_terms, *report.lemma3_terms]
    assert all(map(_is_finite, values))
    assert certify.additive_gap_bound(analysis).ok
    assert certify.multiplicative_gap_bound(analysis).ok


@settings(_SETTINGS, max_examples=150)
@given(channels())
def test_an_accepted_channel_has_no_nan_breakpoint_or_factor(channel):
    try:
        dist = FadingDistribution(*channel)
    except ValidationError:
        return
    assert_accepted_channel_has_no_nan(dist)


def _assert_exit_contract(argv, text="", json_out=False):
    """run(argv) with text on stdin exits 0, 1 or 2 without a traceback;
    with json_out, an exit-0 stdout is strict JSON, with no NaN or Infinity."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        # an exception escaping run() fails the test
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0 and json_out:
        strict_json(out.getvalue())


@settings(_SETTINGS, max_examples=60)
@given(
    channels(exact=False),
    st.sampled_from(["capacity", "fading-paper"]),
    st.sampled_from(["json", "csv"]),
)
def test_cli_exits_0_1_or_2_without_a_traceback(channel, command, fmt):
    gains, probs = channel
    text = json.dumps({"gains": list(gains), "probs": list(probs)})
    _assert_exit_contract([command, f"--format={fmt}"], text, json_out=fmt == "json")


_KINDS = st.sampled_from(["additive", "multiplicative"])
_STATES = st.integers(-1, 40)
#: d values at and beyond the float limits, and ordinary ones
_D = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, 5e-324, 1e200, 0.0, -1.0, -50.0]),
    st.floats(0.1, 1e4),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(_SETTINGS, max_examples=40)
@given(_KINDS, _STATES, _D)
def test_family_report_exits_0_1_or_2_without_a_traceback(kind, states, d):
    # the = form keeps argparse from reading a negative value as a flag
    argv = ["family", f"--kind={kind}", f"--states={states}", f"--d={d!r}", "--emit=report"]
    _assert_exit_contract(argv, json_out=True)


@settings(_SETTINGS, max_examples=30)
@given(_KINDS, _STATES, st.lists(_D, min_size=1, max_size=3))
def test_sweep_exits_0_1_or_2_without_a_traceback(kind, states, ds):
    d_values = ",".join(map(repr, ds))
    argv = ["sweep", f"--kind={kind}", f"--states={states}", f"--d-values={d_values}"]
    _assert_exit_contract(argv)


_DIST = FadingDistribution((4.0, 1.0), (0.5, 0.5))
_CH = prepare(_DIST)
_CHAIN = build_chain(_CH)
_ALLOC = optimal_allocation(_CH, _CHAIN)
_CH4 = prepare(FadingDistribution((8.0, 4.0, 2.0, 1.0), (0.25,) * 4))
_CHAIN4 = build_chain(_CH4)
_ALLOC4 = optimal_allocation(_CH4, _CHAIN4)
_ZERO_GAIN = full_analysis(FadingDistribution((0,), (1.0,)))
_REPORTS = [fading_paper_report(_DIST, 0.0)]


def _refusal(function, args, position):
    """The refusal of the pipeline object at args[position], which its stage
    did not build."""
    cls = type(args[position]).__name__
    name = list(inspect.signature(function).parameters)[position]
    builder = BUILDERS[cls]
    return (
        f"{function.__name__} needs a {cls} that {builder}() returned, got a copy or a"
        f" hand-built one for {name}; build it with {builder}()"
    )


#: Copies of the 4-state objects with a field that no stage could read, by
#: the id of the row that hands one to a stage, as (function, arguments,
#: position of the copy): the stage refuses each by its mark, before it
#: reads a field.
_CORRUPTED_COPIES = {
    "expected_capacity-short-lam": (
        expected_capacity,
        (_CH4, replace(_ALLOC4, lam=_ALLOC4.lam[:2])),
        1,
    ),
    "layer_rates-short-beta": (layer_rates, (_CH4, replace(_ALLOC4, beta=_ALLOC4.beta[:2])), 1),
    "dominating_muf-short-breakpoints": (
        dominating_muf,
        (replace(_CHAIN4, breakpoints=_CHAIN4.breakpoints[:-1]), _CH4, 0.5),
        0,
    ),
    "optimal_allocation-s-0": (optimal_allocation, (_CH4, replace(_CHAIN4, s=0)), 1),
    "optimal_allocation-w-0": (optimal_allocation, (_CH4, replace(_CHAIN4, w=0)), 1),
    "optimal_allocation-s-above-w": (optimal_allocation, (_CH4, replace(_CHAIN4, s=3, w=2)), 1),
    "optimal_allocation-w-9": (optimal_allocation, (_CH4, replace(_CHAIN4, w=9)), 1),
    "dominating_muf-pi-falls": (dominating_muf, (replace(_CHAIN4, pi=(1, 7, 3, 4)), _CH4, 0.5), 0),
    "envelope_integral-pi-falls": (
        envelope_integral,
        (replace(_CHAIN4, pi=(1, 7, 3, 4)), _CH4, 0, 1),
        0,
    ),
    "optimal_allocation-pi-falls": (
        optimal_allocation,
        (_CH4, replace(_CHAIN4, pi=(1, 7, 3, 4))),
        1,
    ),
    "optimal_allocation-pi-negative": (
        optimal_allocation,
        (_CH4, replace(_CHAIN4, pi=(1, -2, 3, 4))),
        1,
    ),
    "dominating_muf-pi-from-0": (
        dominating_muf,
        (replace(_CHAIN4, pi=(0, 2, 3, 4)), _CH4, -0.1),
        0,
    ),
    "optimal_allocation-s-1.5": (optimal_allocation, (_CH4, replace(_CHAIN4, s=1.5)), 1),
    "optimal_allocation-w-str": (optimal_allocation, (_CH4, replace(_CHAIN4, w="2")), 1),
    "expected_capacity-beta-None": (
        expected_capacity,
        (_CH4, PowerAllocation(beta=None, lam=_ALLOC4.lam)),
        1,
    ),
    "layer_rates-lam-None": (layer_rates, (_CH4, replace(_ALLOC4, lam=None)), 1),
    "build_chain-channel-of-None": (build_chain, (PreparedChannel(None, None, None, None),), 0),
    "ergodic_capacity-gains-None": (ergodic_capacity, (replace(_CH4, gains=None),), 0),
    "build_chain-channel-of-0-states": (build_chain, (PreparedChannel((), (), (), ()),), 0),
    "build_chain-short-cum-probs": (
        build_chain,
        (replace(_CH4, cum_probs=_CH4.cum_probs[:2]),),
        0,
    ),
    "build_chain-str-cum-probs": (build_chain, (replace(_CH4, cum_probs=("a",) * 4),), 0),
    "dominating_muf-None-breakpoints": (
        dominating_muf,
        (replace(_CHAIN4, breakpoints=(None,) * 5), _CH4, 0.5),
        0,
    ),
    "expected_capacity-str-beta": (
        expected_capacity,
        (_CH4, PowerAllocation(beta=tuple("abcd"), lam=_ALLOC4.lam)),
        1,
    ),
    "MufChain-pi-5": (optimal_allocation, (_CH4, replace(_CHAIN4, pi=5)), 1),
    "MufChain-breakpoints-None": (
        dominating_muf,
        (replace(_CHAIN4, breakpoints=None), _CH4, 0.5),
        0,
    ),
    "MufChain-pi-None-entry": (
        optimal_allocation,
        (_CH4, replace(_CHAIN4, pi=(1, None, 3, 4))),
        1,
    ),
    "dominating_muf-pi-float-entry": (
        dominating_muf,
        (replace(_CHAIN4, pi=(1, 2.5, 3, 4)), _CH4, 0.5),
        0,
    ),
    "MufChain-pi-Fraction-entry": (
        envelope_integral,
        (replace(_CHAIN4, pi=(1, 2, Fraction(3), 4)), _CH4, 0, 1),
        0,
    ),
    "MufChain-s-str": (dominating_muf, (replace(_CHAIN4, s="a"), _CH4, 0.5), 0),
    "MufChain-s-1.5": (optimal_allocation, (_CH4, replace(_CHAIN4, s=1.5)), 1),
    "PowerAllocation-beta-str": (
        expected_capacity,
        (_CH, PowerAllocation(beta="ab", lam=_ALLOC.lam)),
        1,
    ),
    "PowerAllocation-empty": (layer_rates, (_CH, PowerAllocation(beta=(), lam=())), 1),
}


def _chain_misfit(stage):
    return (
        f"{stage} needs a MufChain built from the channel it is given;"
        " build it with build_chain()"
    )


def _allocation_misfit(stage):
    return (
        f"{stage} needs a PowerAllocation built from the channel it is given;"
        " build it with optimal_allocation()"
    )


#: A second 4-state channel: _CHAIN4 and _ALLOC4 have its K but not its
#: envelope, and optimal_allocation(_CH_B, _CHAIN4) without the channel
#: tie gives beta (0.0, 0.25, 1.0, 1.0), where _CH_B's own chain gives
#: (0.0, 0.0, 1.0, 1.0)
_CH_B = prepare(FadingDistribution((9.0, 3.0, 2.0, 0.5), (0.1, 0.2, 0.3, 0.4)))


def _not_real_value(name, value):
    return (
        f"{name} must be a real number, got {value!r}, which is neither a float nor"
        " a rational number"
    )


def _not_real(name, x):
    return _not_real_value(name, _Real(x))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: analyze(None), "prepare needs a FadingDistribution, got NoneType"),
        (lambda: full_analysis(None), "prepare needs a FadingDistribution, got NoneType"),
        (
            lambda: fading_paper_report(None, 0.0),
            "prepare needs a FadingDistribution, got NoneType",
        ),
        (lambda: prepare("x"), "prepare needs a FadingDistribution, got str"),
        (lambda: sweep_to_csv(None), "rows: expected a sequence of numbers, got NoneType"),
        (
            lambda: sweep_to_csv([(1.0, None)]),
            "rows: row 1 is not a real d paired with a CapacityReport",
        ),
        (lambda: sweep_to_csv([None]), "rows: row 1 is not a real d paired with a CapacityReport"),
        (
            lambda: sweep_to_csv([(10**400, analyze(FadingDistribution((1.0,), (1.0,))))]),
            "rows: the d of row 1 lies beyond the double-precision range",
        ),
        (lambda: verify_run(3, 0, 1), "max-states: must be at least 2, got 1"),
        (
            lambda: random_distribution(random.Random(0), 1),
            "max-states: must be at least 2, got 1",
        ),
        (lambda: verify_run(2.5), "verify needs an integer trials, got trials=2.5"),
        (lambda: verify_run(0), "trials: must be positive, got 0"),
        (lambda: verify_run(3, [1]), "verify needs an integer seed, got seed=[1]"),
        (lambda: verify_run(3, None), "verify needs an integer seed, got seed=None"),
        (
            lambda: random_distribution(None, 5),
            "random_distribution needs a Random, got NoneType for rng",
        ),
        (lambda: muf_value(_CH, 1, 10**400), "z lies beyond the double-precision range"),
        (
            lambda: muf_value(_CH, 1, Fraction(10**400, 3)),
            "z lies beyond the double-precision range",
        ),
        (
            lambda: dominating_muf(_CHAIN, _CH, 10**400),
            "z lies beyond the double-precision range",
        ),
        (
            lambda: envelope_integral(_CHAIN, _CH, 0, 10**400),
            "hi lies beyond the double-precision range",
        ),
        (
            lambda: fading_paper_report(_DIST, 10**400),
            "inr lies beyond the double-precision range",
        ),
        (
            lambda: build_chain(_DIST),
            "build_chain needs a PreparedChannel, got FadingDistribution for ch",
        ),
        (lambda: expected_capacity(_CH4, _ALLOC), _allocation_misfit("expected_capacity")),
        (lambda: expected_capacity(_CH, _ALLOC4), _allocation_misfit("expected_capacity")),
        (lambda: closed_form_routes(_CH, _ALLOC4), _allocation_misfit("closed_form_routes")),
        (lambda: expected_capacity(_CH_B, _ALLOC4), _allocation_misfit("expected_capacity")),
        (lambda: closed_form_routes(_CH_B, _ALLOC4), _allocation_misfit("closed_form_routes")),
        (lambda: layer_rates(_CH_B, _ALLOC4), _allocation_misfit("layer_rates")),
        (lambda: optimal_allocation(_CH, _CHAIN4), _chain_misfit("optimal_allocation")),
        (lambda: optimal_allocation(_CH_B, _CHAIN4), _chain_misfit("optimal_allocation")),
        (lambda: dominating_muf(_CHAIN4, _CH, 0.5), _chain_misfit("dominating_muf")),
        (lambda: dominating_muf(_CHAIN4, _CH_B, 0.5), _chain_misfit("dominating_muf")),
        (lambda: envelope_integral(_CHAIN4, _CH, 0, 1), _chain_misfit("envelope_integral")),
        (lambda: envelope_integral(_CHAIN4, _CH_B, 0, 1), _chain_misfit("envelope_integral")),
        (
            lambda: build_chain(_ZERO_GAIN.channel),
            "build_chain: the single zero-gain channel has no chain; both its capacities are 0",
        ),
        (
            lambda: certify.chain_ordering_properties(_ZERO_GAIN.channel, _ZERO_GAIN.chain),
            "chain_ordering_properties needs a MufChain, got NoneType for chain",
        ),
        # a float32 passes numbers.Real but is no float or rational number
        (lambda: muf_value(_CH, 1, _Real(0.5)), _not_real("z", 0.5)),
        (lambda: dominating_muf(_CHAIN, _CH, _Real(0.5)), _not_real("z", 0.5)),
        (lambda: envelope_integral(_CHAIN, _CH, 0, _Real(0.3)), _not_real("hi", 0.3)),
        (lambda: expected_rate_of(_CH, (_Real(0.5), 1.0)), _not_real("beta: entry 1", 0.5)),
        (lambda: fading_paper_report(_DIST, _Real(1.0)), _not_real("inr", 1.0)),
        (lambda: brute_force_expected_capacity(_CH, _Real(1e-7)), _not_real("tol", 1e-7)),
        (
            lambda: low_snr_instance([_Real(2.0), 1.0], [0.5, 0.5], 1.0),
            _not_real("low-SNR slopes: entry 1", 2.0),
        ),
        (
            lambda: high_snr_instance([_Real(2.0), 0.5], [0.5, 0.5], 10.0),
            _not_real("high-SNR exponents: entry 1", 2.0),
        ),
        (lambda: certify.oracle_certification(None, 1.0), _not_real_value("c_exp", None)),
        (lambda: certify.oracle_certification(1.0, "1"), _not_real_value("oracle", "1")),
        (
            lambda: certify.closed_form_route_agreement("a", 1.0),
            _not_real_value("per_state", "a"),
        ),
        (
            lambda: certify.closed_form_route_agreement(1.0, None),
            _not_real_value("rate", None),
        ),
        (
            lambda: certify.additive_gap_bound(None),
            "additive_gap_bound needs an Analysis, got NoneType for analysis",
        ),
        (
            lambda: certify.multiplicative_gap_bound(None),
            "multiplicative_gap_bound needs an Analysis, got NoneType for analysis",
        ),
        (
            lambda: certify.per_state_additive_terms(None),
            "per_state_additive_terms needs an Analysis, got NoneType for analysis",
        ),
        (
            lambda: certify.per_state_multiplicative_terms(_ZERO_GAIN.report),
            "per_state_multiplicative_terms needs an Analysis, got CapacityReport for analysis",
        ),
        (
            lambda: certify.fading_paper_brackets(_DIST.gains, []),
            "fading_paper_brackets needs at least one gain and one report",
        ),
        (
            lambda: certify.fading_paper_brackets((), _REPORTS),
            "fading_paper_brackets needs at least one gain and one report",
        ),
        (
            lambda: certify.fading_paper_brackets(None, _REPORTS),
            "gains: expected a sequence of numbers, got NoneType",
        ),
        (
            lambda: certify.fading_paper_brackets((4.0, "1"), _REPORTS),
            "gains: state 2 must be a real number, got '1', which is neither a float nor"
            " a rational number",
        ),
        (
            lambda: certify.fading_paper_brackets((4.0, -1.0), _REPORTS),
            "gains: state 2 has negative gain -1.0",
        ),
        (
            lambda: certify.fading_paper_brackets(_DIST.gains, _REPORTS + [None]),
            "fading_paper_brackets needs a FadingPaperReport, got NoneType for reports",
        ),
        (
            lambda: certify.fading_paper_brackets(_DIST.gains, None),
            "fading_paper_brackets needs a FadingPaperReport, got NoneType for reports",
        ),
    ]
    + [
        (functools.partial(function, *args), _refusal(function, args, position))
        for function, args, position in _CORRUPTED_COPIES.values()
    ],
    ids=[
        "analyze-None",
        "full_analysis-None",
        "fading_paper_report-None",
        "prepare-str",
        "sweep_to_csv-None",
        "sweep_to_csv-row-None-report",
        "sweep_to_csv-row-None",
        "sweep_to_csv-huge-d",
        "verify_run-max-states-1",
        "random_distribution-max-states-1",
        "verify_run-trials-2.5",
        "verify_run-trials-0",
        "verify_run-seed-list",
        "verify_run-seed-None",
        "random_distribution-rng-None",
        "muf_value-huge-z",
        "muf_value-huge-fraction-z",
        "dominating_muf-huge-z",
        "envelope_integral-huge-hi",
        "fading_paper_report-huge-inr",
        "build_chain-distribution",
        "expected_capacity-fewer-states",
        "expected_capacity-more-states",
        "closed_form_routes-more-states",
        "expected_capacity-allocation-of-another-channel",
        "closed_form_routes-allocation-of-another-channel",
        "layer_rates-allocation-of-another-channel",
        "optimal_allocation-longer-chain",
        "optimal_allocation-chain-of-another-channel",
        "dominating_muf-longer-chain",
        "dominating_muf-chain-of-another-channel",
        "envelope_integral-longer-chain",
        "envelope_integral-chain-of-another-channel",
        "build_chain-zero-gain-channel",
        "chain_ordering_properties-None",
        "muf_value-float32-z",
        "dominating_muf-float32-z",
        "envelope_integral-float32-hi",
        "expected_rate_of-float32-beta",
        "fading_paper_report-float32-inr",
        "brute_force_expected_capacity-float32-tol",
        "low_snr_instance-float32-entry",
        "high_snr_instance-float32-entry",
        "oracle_certification-None-c_exp",
        "oracle_certification-str-oracle",
        "closed_form_route_agreement-str-per_state",
        "closed_form_route_agreement-None-rate",
        "additive_gap_bound-None",
        "multiplicative_gap_bound-None",
        "per_state_additive_terms-None",
        "per_state_multiplicative_terms-report",
        "fading_paper_brackets-no-report",
        "fading_paper_brackets-no-gain",
        "fading_paper_brackets-gains-None",
        "fading_paper_brackets-str-gain",
        "fading_paper_brackets-negative-gain",
        "fading_paper_brackets-None-report",
        "fading_paper_brackets-reports-None",
    ]
    + list(_CORRUPTED_COPIES),
)
def test_a_wrong_argument_raises_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_an_infinite_float_stays_accepted():
    assert muf_value(_CH, 1, math.inf) == 0.0
    assert dominating_muf(_CHAIN, _CH, math.inf) == (0.0, 2)


#: (stage, arguments with one None, the class it needs there, that argument)
_NONE_ARGUMENTS = [
    (build_chain, (None,), "PreparedChannel", "ch"),
    (optimal_allocation, (_CH, None), "MufChain", "chain"),
    (optimal_allocation, (None, _CHAIN), "PreparedChannel", "ch"),
    (expected_capacity, (_CH, None), "PowerAllocation", "alloc"),
    (closed_form_routes, (None, _ALLOC), "PreparedChannel", "ch"),
    (layer_rates, (_CH, None), "PowerAllocation", "alloc"),
    (expected_rate_of, (None, (0.5, 1.0)), "PreparedChannel", "ch"),
    (ergodic_capacity, (None,), "PreparedChannel", "ch"),
    (entropy, (None,), "PreparedChannel", "ch"),
    (intersection, (None, 1, 2), "PreparedChannel", "ch"),
    (muf_value, (None, 1, 0.5), "PreparedChannel", "ch"),
    (dominating_muf, (None, _CH, 0.5), "MufChain", "chain"),
    (envelope_integral, (_CHAIN, None, 0, 1), "PreparedChannel", "ch"),
    (brute_force_expected_capacity, (None, 1e-7), "PreparedChannel", "ch"),
]


@pytest.mark.parametrize(
    "stage, args, cls, name",
    _NONE_ARGUMENTS,
    ids=[f"{stage.__name__}-{name}" for stage, _, _, name in _NONE_ARGUMENTS],
)
def test_a_stage_refuses_a_prepared_argument_of_the_wrong_type(stage, args, cls, name):
    message = f"{stage.__name__} needs a {cls}, got NoneType for {name}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        stage(*args)


def _hand_built(obj):
    """obj built anew from its constructor fields, as a caller could."""
    return type(obj)(**{f.name: getattr(obj, f.name) for f in fields(obj) if f.init})


#: Every public function that takes a pipeline object, its arguments, and
#: the position of one such object among them.  The chain certificate
#: judges a chain from anywhere, so only its channel is listed.
_PIPELINE_ARGUMENTS = [
    (build_chain, (_CH4,), 0),
    (optimal_allocation, (_CH4, _CHAIN4), 0),
    (optimal_allocation, (_CH4, _CHAIN4), 1),
    (expected_capacity, (_CH4, _ALLOC4), 0),
    (expected_capacity, (_CH4, _ALLOC4), 1),
    (closed_form_routes, (_CH4, _ALLOC4), 0),
    (closed_form_routes, (_CH4, _ALLOC4), 1),
    (layer_rates, (_CH4, _ALLOC4), 0),
    (layer_rates, (_CH4, _ALLOC4), 1),
    (expected_rate_of, (_CH4, _ALLOC4.beta), 0),
    (ergodic_capacity, (_CH4,), 0),
    (entropy, (_CH4,), 0),
    (muf_value, (_CH4, 1, 0.5), 0),
    (intersection, (_CH4, 1, 2), 0),
    (dominating_muf, (_CHAIN4, _CH4, 0.5), 0),
    (dominating_muf, (_CHAIN4, _CH4, 0.5), 1),
    (envelope_integral, (_CHAIN4, _CH4, 0, 1), 0),
    (envelope_integral, (_CHAIN4, _CH4, 0, 1), 1),
    (brute_force_expected_capacity, (_CH4, 1e-3), 0),
    (certify.chain_ordering_properties, (_CH4, _CHAIN4), 0),
]


@pytest.mark.parametrize("how", [replace, _hand_built], ids=["replace", "hand-built"])
@pytest.mark.parametrize(
    "function, args, position",
    _PIPELINE_ARGUMENTS,
    ids=[
        f"{function.__name__}-{type(args[i]).__name__}" for function, args, i in _PIPELINE_ARGUMENTS
    ],
)
def test_a_function_refuses_a_pipeline_object_its_stage_did_not_build(
    function, args, position, how
):
    function(*args)
    unmarked = args[:position] + (how(args[position]),) + args[position + 1 :]
    message = _refusal(function, unmarked, position)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        function(*unmarked)


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("clone", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "Fraction"])
def test_a_marked_object_survives_a_deep_copy_and_a_pickle_round_trip(clone, exact):
    gains, probs = (8, 4, 2, 1), (Fraction(1, 4),) * 4
    if not exact:
        gains, probs = tuple(map(float, gains)), tuple(map(float, probs))
    a = full_analysis(FadingDistribution(gains, probs))
    ch, chain, alloc = clone(a.channel), clone(a.chain), clone(a.allocation)
    assert (ch, chain, alloc) == (a.channel, a.chain, a.allocation)
    # each clone feeds the next stage to the same bytes; the chain and the
    # allocation each carry their own copy of the channel, which fits ch by ==
    assert chain._source is not ch and alloc._source is not ch
    assert repr(build_chain(ch)) == repr(a.chain)
    assert repr(optimal_allocation(ch, chain)) == repr(a.allocation)
    assert repr(expected_capacity(ch, alloc)) == repr(a.report.c_exp)
    assert repr(ergodic_capacity(ch)) == repr(a.report.c_erg)
    assert repr(entropy(ch)) == repr(a.report.entropy)
    assert repr(layer_rates(ch, alloc)) == repr(layer_rates(a.channel, a.allocation))


def test_each_stage_marks_its_object_with_what_it_built_it_from():
    dist = FadingDistribution((8.0, 4.0, 2.0, 1.0), (0.25,) * 4)
    ch = prepare(dist)
    chain = build_chain(ch)
    alloc = optimal_allocation(ch, chain)
    assert ch._source is dist and chain._source is ch and alloc._source is ch
    # a channel prepared again from the same input fits by ==
    again = prepare(dist)
    assert again is not ch
    assert repr(optimal_allocation(again, chain)) == repr(alloc)
    assert repr(expected_capacity(again, alloc)) == repr(expected_capacity(ch, alloc))
    assert layer_rates(again, alloc) == layer_rates(ch, alloc)
    assert dominating_muf(chain, again, 0.5) == dominating_muf(chain, ch, 0.5)


def test_the_analyze_path_ties_by_identity_without_comparing_channels(monkeypatch):
    report = analyze(_DIST)

    def compared(self, other):
        raise AssertionError("a channel was compared by ==")

    monkeypatch.setattr(PreparedChannel, "__eq__", compared)
    assert repr(analyze(_DIST)) == repr(report)
    with pytest.raises(AssertionError, match="compared"):
        expected_capacity(prepare(_DIST), _ALLOC)


def _stage_objects():
    """Each object a stage returns, as a param named by channel and class:
    the channel, chain, allocation, report and analysis of a float, an
    exact and a zero-gain channel, and what the single zero-gain channel
    has of them."""
    channels = {
        "float": FadingDistribution((8.0, 4.0, 2.0, 1.0), (0.25,) * 4),
        "Fraction": FadingDistribution((8, 4, 2, 1), (Fraction(1, 4),) * 4),
        "zero-gain": FadingDistribution((4.0, 1.0, 0.0), (0.25, 0.25, 0.5)),
        "single-zero-gain": FadingDistribution((0.0,), (1.0,)),
    }
    for label, dist in channels.items():
        a = full_analysis(dist)
        for obj in (a.channel, a.chain, a.allocation, a.report, a):
            if obj is not None:
                yield pytest.param(obj, id=f"{label}-{type(obj).__name__}")


@pytest.mark.parametrize("obj", _stage_objects())
def test_the_mark_leaves_repr_equality_and_hash_unchanged(obj):
    # a stage fills every field, the mark included, in one step: the object
    # is the one its __init__ makes, down to the order of its fields
    assert list(vars(obj)) == [f.name for f in fields(obj)]
    twin = _hand_built(obj)
    if hasattr(obj, "_source"):
        _marked(twin, obj._source)
    # an allocation also records the frontier it built its factors from,
    # and a channel its first exact state
    for record in ("_frontier", "_first_exact"):
        if hasattr(obj, record):
            object.__setattr__(twin, record, getattr(obj, record))
    assert pickle.dumps(obj) == pickle.dumps(twin)
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, None)
    for record in ("_source", "_frontier", "_first_exact"):
        assert record not in repr(obj)
    for unmarked in (replace(obj), _hand_built(obj)):
        assert repr(unmarked) == repr(obj)
        assert unmarked == obj and hash(unmarked) == hash(obj)
        assert getattr(unmarked, "_frontier", None) is None
        assert getattr(unmarked, "_first_exact", None) is None

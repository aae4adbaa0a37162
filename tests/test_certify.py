"""Every certification check passes a computed input and fails a corrupted one."""

import math
from dataclasses import replace

import pytest

from fadegap import FadingDistribution, certify, closed_form_routes, fading_paper_report
from fadegap import full_analysis
from fadegap.fading_paper import LN2

#: Three states, all on the envelope chain, so swapping its two interior
#: breakpoints breaks the chain order.
DIST = FadingDistribution((100.0, 10.0, 1.0), (0.2, 0.3, 0.5))


@pytest.fixture(scope="module")
def inputs():
    """check name -> (computed arguments, corrupted arguments)."""
    a = full_analysis(DIST)
    ch, chain, rep = a.channel, a.chain, a.report
    c, routes = rep.c_exp, closed_form_routes(ch, a.allocation)
    b = chain.breakpoints
    swapped = replace(chain, breakpoints=(b[0], b[2], b[1], b[3]))
    reports = [fading_paper_report(DIST, inr) for inr in (0.0, 1.0, 1e6)]
    wide = [replace(r, gap_lower=r.gap_upper - 2 * LN2) for r in reports]

    def report(**fields):
        return (replace(a, report=replace(rep, **fields)),)

    return {
        "oracle_certification": ((c, c), (c, c - 2e-6)),
        "oracle_not_above_closed_form": ((c, c), (c, c + 2e-6)),
        "closed_form_route_agreement": (routes, (routes[0], routes[0] * (1 + 1e-10))),
        "additive_gap_bound": ((a,), report(additive_gap=math.log(3) + 1e-6)),
        "multiplicative_gap_bound": ((a,), report(multiplicative_gap=3 + 1e-6)),
        "per_state_additive_terms": ((a,), report(lemma2_terms=(1 / ch.probs[0] + 1e-6, 0, 0))),
        "per_state_multiplicative_terms": ((a,), report(lemma3_terms=(1 + 1e-6, 0, 0))),
        "chain_ordering_properties": ((ch, chain), (ch, swapped)),
        "envelope_maximality": ((ch, chain), (ch, swapped)),
        "fading_paper_brackets": ((DIST.gains, reports), (DIST.gains, wide)),
    }


@pytest.mark.parametrize("name", [n for n in certify.__all__ if n != "Margin"])
def test_check_fails_on_corrupted_input(inputs, name):
    check = getattr(certify, name)
    computed, corrupted = inputs[name]
    assert check(*computed).ok
    assert not check(*corrupted).ok


@pytest.mark.parametrize(
    "name, field",
    [
        ("per_state_additive_terms", "lemma2_terms"),
        ("per_state_multiplicative_terms", "lemma3_terms"),
    ],
)
def test_per_state_check_fails_on_a_nan_term(name, field):
    a = full_analysis(DIST)
    terms = getattr(a.report, field)
    check = getattr(certify, name)
    for k in range(len(terms)):
        nan_at_k = terms[:k] + (math.nan,) + terms[k + 1 :]
        assert not check(replace(a, report=replace(a.report, **{field: nan_at_k}))).ok, k

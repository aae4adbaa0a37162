"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  The random instances are the verify subcommand's own population: 200
seeded channels, K in 2..5, gains log-uniform in [1e-3, 1e3], flat Dirichlet
probabilities.  Family instances cover both worst-case ladders across their
d grids (every K admissible for the additive constraint d > max(K-1, 2)).
"""

import math
import time

import pytest

from conftest import family_points, random_channels
from fadegap import (
    FadingDistribution,
    additive_family,
    analyze,
    brute_force_expected_capacity,
    certify,
    closed_form_routes,
    fading_paper_report,
    full_analysis,
    intersection,
    high_snr_instance,
    low_snr_instance,
    multiplicative_family,
    prepare,
)
from fadegap.certify import ORACLE_TOL
from fadegap.fading_paper import LN2


def report_line(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def report_checks(name: str, instances, *checks):
    """One line for certify checks over instances: every margin ok, and the
    worst margin of each check."""
    margins = [[check(inst) for inst in instances] for check in checks]
    worst = ", ".join(f"{max(m.worst for m in ms):.3e}" for ms in margins)
    ok = all(m.ok for ms in margins for m in ms)
    report_line(name, ok, f"worst margins {worst} over {len(instances)} instances")


@pytest.fixture(scope="module")
def random_suite():
    """(distributions, analyses, build seconds)"""
    start = time.monotonic()
    dists = random_channels(200, seed=0, max_states=5)
    analyses = [full_analysis(dist) for dist in dists]
    return dists, analyses, time.monotonic() - start


@pytest.fixture(scope="module")
def all_analyses(random_suite):
    """The random analyses followed by the worst-case family points."""
    return random_suite[1] + [full_analysis(dist) for _, dist in family_points()]


def test_criterion_01_oracle_certification(random_suite):
    _, analyses, build_time = random_suite
    start = time.monotonic()
    pairs = [
        (a.report.c_exp, brute_force_expected_capacity(a.channel, ORACLE_TOL).value)
        for a in analyses
    ]
    elapsed = time.monotonic() - start + build_time
    report_checks(
        f"criterion 1 (oracle certification, runtime {elapsed:.1f}s < 60s)",
        pairs,
        lambda pair: certify.oracle_certification(*pair),
    )
    assert elapsed < 60


def test_criterion_02_closed_form_self_consistency(all_analyses):
    report_checks(
        "criterion 2 (dual closed forms, random + families)",
        all_analyses,
        lambda a: certify.closed_form_route_agreement(*closed_form_routes(a.channel, a.allocation)),
    )


def test_criterion_03_gap_bounds(all_analyses):
    report_checks(
        "criterion 3 (A <= ln K and M <= K)",
        all_analyses,
        certify.additive_gap_bound,
        certify.multiplicative_gap_bound,
    )


def test_criterion_04_per_state_inequalities(all_analyses):
    report_checks(
        "criterion 4 (per-state additive/multiplicative terms)",
        all_analyses,
        certify.per_state_additive_terms,
        certify.per_state_multiplicative_terms,
    )


def test_criterion_05_chain_properties_and_envelope(all_analyses):
    report_checks(
        "criterion 5 (chain certificate of the envelope)",
        all_analyses,
        lambda a: certify.chain_ordering_properties(a.channel, a.chain),
    )


def test_criterion_06_additive_family_convergence():
    gaps = [analyze(additive_family(8, d)).additive_gap for d in (10, 100, 1000, 10000)]
    increasing = all(a < b for a, b in zip(gaps, gaps[1:]))
    tail = math.log(8) - gaps[-1]
    terms = analyze(additive_family(8, 300)).lemma2_terms
    in_band = all(7.8 <= t <= 8.0 for t in terms)
    ok = increasing and 0 <= tail <= 0.02 and in_band
    report_line(
        "criterion 6 (additive family, K=8)",
        ok,
        f"A strictly increasing {['%.4f' % g for g in gaps]}, ln8 - A(1e4) = {tail:.2e}"
        f" <= 0.02, lemma2(d=300) in [7.8, 8.0] (min {min(terms):.4f}, max {max(terms):.4f})",
    )


def test_criterion_07_multiplicative_family_convergence():
    analysis = full_analysis(multiplicative_family(8, 60))
    rep, ch = analysis.report, analysis.channel
    m_ok = 7.85 <= rep.multiplicative_gap <= 8.0
    terms_ok = all(0.983 <= t <= 1.0 for t in rep.lemma3_terms)
    worst_z = max(
        abs(float(intersection(ch, k, l)))
        for k in range(1, 8)
        for l in range(k + 1, 9)
    )
    ok = m_ok and terms_ok and worst_z <= 1e-12
    report_line(
        "criterion 7 (multiplicative family, K=8, d=60)",
        ok,
        f"M = {rep.multiplicative_gap:.4f} in [7.85, 8.0], lemma3 in [0.983, 1.0] "
        f"(min {min(rep.lemma3_terms):.5f}), max |z| = {worst_z:.1e} <= 1e-12",
    )


def test_criterion_08_high_snr_regime():
    analysis = full_analysis(
        high_snr_instance((1.0, 0.75, 0.5, 0.25), (0.25,) * 4, 1e12)
    )
    chain, rep = analysis.chain, analysis.report
    structure_ok = (
        chain.pi == (1, 2, 3, 4) and chain.s == 1 and chain.w == 4
        and rep.active_states == (1, 2, 3, 4)
    )
    deviation = abs(rep.additive_gap - math.log(4))
    ok = structure_ok and deviation <= 0.01
    report_line(
        "criterion 8 (high-SNR regime, K=4, SNR=1e12)",
        ok,
        f"all states active (pi={chain.pi}, s={chain.s}, w={chain.w}), "
        f"|A - ln 4| = {deviation:.2e} <= 0.01",
    )


def test_criterion_09_low_snr_regime():
    dist = low_snr_instance((5, 3, 1), (0.2, 0.3, 0.5), 1e-6)
    analysis = full_analysis(dist)
    rep = analysis.report
    # independent recomputation of the limit: sum(p a) / max(F a) = 2.4/1.5
    f = 0.0
    best = -math.inf
    for a, p in zip((5, 3, 1), (0.2, 0.3, 0.5)):
        f += p
        best = max(best, f * a)
    limit = sum(p * a for a, p in zip((5, 3, 1), (0.2, 0.3, 0.5))) / best
    assert limit == pytest.approx(1.6, abs=1e-12)
    ok = rep.active_states == (2,) and abs(rep.multiplicative_gap - 1.6) <= 0.01
    report_line(
        "criterion 9 (low-SNR regime, K=3, SNR=1e-6)",
        ok,
        f"single active state {rep.active_states} = argmax F alpha, "
        f"|M - 1.6| = {abs(rep.multiplicative_gap - 1.6):.2e} <= 0.01",
    )


def test_criterion_10_fading_paper_bracket(random_suite):
    report_checks(
        "criterion 10 (fading-paper brackets, INR-invariant, 200 instances)",
        random_suite[0],
        lambda dist: certify.fading_paper_brackets(
            dist.gains, [fading_paper_report(dist, inr) for inr in (0.0, 1.0, 1e6)]
        ),
    )


def test_criterion_11_zero_gain_handling():
    dist = FadingDistribution((1, 0), (0.5, 0.5))
    rep = analyze(dist)
    target = 0.5 * LN2
    ch = prepare(dist)
    modified = analyze(FadingDistribution(ch.gains, ch.probs))
    ok = (
        abs(rep.c_exp - target) <= 1e-12
        and abs(rep.c_erg - target) <= 1e-12
        and rep.additive_gap == 0.0
        and rep.multiplicative_gap == 1.0
        and modified.c_exp == rep.c_exp
    )
    report_line(
        "criterion 11 (zero-gain handling)",
        ok,
        f"C_exp = C_erg = {rep.c_exp:.12f} = ln(2)/2, A = {rep.additive_gap}, "
        f"M = {rep.multiplicative_gap}, epsilon-modified channel identical",
    )

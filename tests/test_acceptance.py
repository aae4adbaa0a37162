"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Criteria 1-5 and 10 (the oracle certification within 60 s, the dual
closed forms, ``A <= ln K`` and ``M <= K``, the per-state lemma terms, the
chain certificate and the fading-paper brackets) are one certification
matrix: every check of ``certify.CHECKS``, the table ``verify`` prints, on
every population of ``conftest.POPULATIONS``.
"""

import math

import pytest

from conftest import POPULATIONS, population_trials
from fadegap import (
    FadingDistribution,
    additive_family,
    analyze,
    certify,
    full_analysis,
    intersection,
    high_snr_instance,
    low_snr_instance,
    multiplicative_family,
    prepare,
)
from fadegap.cli import verify_run
from fadegap.fading_paper import LN2


def report_line(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("check", certify.CHECKS)
@pytest.mark.parametrize("population", POPULATIONS)
def test_criteria_01_to_05_and_10_every_check_on_every_population(population, check):
    # each population's trials are built once, and the oracle runs in each:
    # criterion 1 asks for it within 60 s
    trials, seconds = population_trials(population)
    margins = [certify.CHECKS[check](trial) for trial in trials]
    failed = [i for i, margin in enumerate(margins) if not margin.ok]
    worst = certify._worst(margin.worst for margin in margins)
    report_line(
        f"{check} on {population} (trials built in {seconds:.1f}s < 60s)",
        not failed and seconds < 60,
        f"worst margin {worst:.3e} over {len(trials)} channels, failing channels {failed}",
    )


def test_the_matrix_runs_the_checks_verify_prints_in_its_order():
    names = [line.split()[1].rstrip(":") for line in verify_run(trials=1)["lines"]]
    assert names == list(certify.CHECKS)


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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  The random instances are the verify subcommand's own population: 200
seeded channels, K in 2..5, gains log-uniform in [1e-3, 1e3], flat Dirichlet
probabilities.  Family instances cover both worst-case ladders across their
d grids (every K admissible for the additive constraint d > max(K-1, 2)).
"""

import math
import time
from dataclasses import dataclass

import pytest

from conftest import (
    assert_chain_ordering,
    assert_envelope_maximality,
    family_points,
    random_channels,
)
from fadegap import (
    FadingDistribution,
    additive_family,
    analyze,
    brute_force_expected_capacity,
    closed_form_routes,
    fading_paper_report,
    full_analysis,
    intersection,
    high_snr_instance,
    low_snr_instance,
    multiplicative_family,
    prepare,
)

LN2 = math.log(2)
ORACLE_TOL = 1e-7


def report_line(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@dataclass
class Instance:
    dist: FadingDistribution
    analysis: object
    label: str


@pytest.fixture(scope="module")
def random_suite():
    start = time.monotonic()
    instances = [
        Instance(dist, full_analysis(dist), f"random[{i}]")
        for i, dist in enumerate(random_channels(200, seed=0, max_states=5))
    ]
    elapsed = time.monotonic() - start
    return instances, elapsed


@pytest.fixture(scope="module")
def family_suite():
    return [Instance(dist, full_analysis(dist), label) for label, dist in family_points()]


def test_criterion_01_oracle_certification(random_suite):
    instances, build_time = random_suite
    start = time.monotonic()
    worst = 0.0
    for inst in instances:
        result = brute_force_expected_capacity(inst.analysis.channel, ORACLE_TOL)
        worst = max(worst, abs(result.value - inst.analysis.report.c_exp))
    elapsed = time.monotonic() - start + build_time
    ok = worst <= 1e-6 and elapsed < 60
    report_line(
        "criterion 1 (oracle certification, 200 instances)",
        ok,
        f"worst |closed-oracle| = {worst:.3e} <= 1e-6, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_02_closed_form_self_consistency(random_suite, family_suite):
    instances = random_suite[0] + family_suite
    worst = 0.0
    for inst in instances:
        a = inst.analysis
        r1, r2 = closed_form_routes(a.channel, a.allocation)
        rel = abs(r1 - r2) / max(abs(r1), abs(r2))
        worst = max(worst, rel)
    report_line(
        "criterion 2 (dual closed forms, random + families)",
        worst <= 1e-12,
        f"worst relative disagreement = {worst:.3e} <= 1e-12 over {len(instances)} instances",
    )


def test_criterion_03_gap_bounds(random_suite, family_suite):
    worst_a = -math.inf
    worst_m = -math.inf
    instances = random_suite[0] + family_suite
    for inst in instances:
        rep = inst.analysis.report
        k = inst.analysis.channel.num_states
        worst_a = max(worst_a, rep.additive_gap - math.log(k))
        worst_m = max(worst_m, rep.multiplicative_gap - k)
    ok = worst_a <= 1e-9 and worst_m <= 1e-9
    report_line(
        "criterion 3 (A <= ln K and M <= K)",
        ok,
        f"max A - ln K = {worst_a:.3e}, max M - K = {worst_m:.3e}, both <= 1e-9",
    )


def test_criterion_04_per_state_inequalities(random_suite, family_suite):
    worst2 = -math.inf
    worst3 = -math.inf
    for inst in random_suite[0] + family_suite:
        rep = inst.analysis.report
        ch = inst.analysis.channel
        worst2 = max(
            worst2,
            max(t - 1 / float(p) for t, p in zip(rep.lemma2_terms, ch.probs)),
        )
        worst3 = max(worst3, max(t - 1 for t in rep.lemma3_terms))
    ok = worst2 <= 1e-9 and worst3 <= 1e-9
    report_line(
        "criterion 4 (per-state additive/multiplicative terms)",
        ok,
        f"max lemma2 excess = {worst2:.3e}, max lemma3 excess = {worst3:.3e}, both <= 1e-9",
    )


def test_criterion_05_chain_properties_and_envelope(random_suite, family_suite):
    instances = random_suite[0] + family_suite
    for inst in instances:
        ch, chain = inst.analysis.channel, inst.analysis.chain
        assert_chain_ordering(ch, chain)
        assert_envelope_maximality(ch, chain)
    report_line(
        "criterion 5 (chain ordering + envelope sampling)",
        True,
        f"all three ordering properties and 100-sample envelope checks on "
        f"{len(instances)} instances",
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
    worst = 0.0
    for inst in random_suite[0]:
        reports = [fading_paper_report(inst.dist, inr) for inr in (0.0, 1.0, 1e6)]
        base = reports[0]
        assert base.c_erg_lower <= base.achievable_rate <= base.c_erg_upper + 1e-12
        assert base.gap_upper - base.gap_lower <= LN2 + 1e-12
        for r in reports[1:]:
            assert (
                r.achievable_rate,
                r.c_erg_lower,
                r.c_erg_upper,
                r.c_exp_fp,
                r.gap_lower,
                r.gap_upper,
            ) == (
                base.achievable_rate,
                base.c_erg_lower,
                base.c_erg_upper,
                base.c_exp_fp,
                base.gap_lower,
                base.gap_upper,
            )
        for g in inst.dist.gains:
            gf = float(g)
            point = max(math.log(gf), 0.0)
            upper = math.log1p(gf)
            worst = max(worst, upper - LN2 - point, point - upper)
    report_line(
        "criterion 10 (fading-paper brackets, 200 instances)",
        worst <= 1e-12,
        f"aggregate and per-state one-bit brackets hold, INR-invariant "
        f"(worst per-state excess {worst:.2e})",
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

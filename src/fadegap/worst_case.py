"""Extremal channel families and asymptotic-regime instance generators.

Two parameter families drive the gaps to their worst cases as d grows:

* the additive family, geometric gain ladders ``g_k = d + d^2 + ... +
  d^(K-k+1)`` with uniform probabilities, pushes the additive gap toward
  ln K;
* the multiplicative family, ``n_k = d + ... + d^k`` with probabilities
  proportional to d^k, pushes the multiplicative gap toward K.

The multiplicative family is generated in exact rational arithmetic: its
defining property is that *all* utility crossing points coincide at zero,
which float rounding would destroy (the whole pipeline accepts Fractions,
so exactness survives analysis).  The two SNR-regime generators scale a
fixed gain profile to extreme SNR, where either every state or exactly one
state ends up active.
"""

import math
from fractions import Fraction

from .channel import FadingDistribution
from .errors import ValidationError, check_real, validated_state_count, validated_tuple
from .gaps import CapacityReport, analyze

__all__ = [
    "additive_family",
    "multiplicative_family",
    "high_snr_instance",
    "low_snr_instance",
    "sweep",
    "sweep_to_csv",
    "SWEEP_CSV_HEADER",
]

SWEEP_KINDS = ("additive", "multiplicative")

SWEEP_CSV_HEADER = "d,c_erg,c_exp,additive_gap,multiplicative_gap,entropy"


def _check_finite(name: str, value):
    """Refuse a generator parameter that is not a real number by
    :func:`~fadegap.errors.check_real`, or is NaN or infinite, naming it."""
    if not -math.inf < check_real(name, value) < math.inf:
        raise ValidationError(f"{name} must be finite, got {value}")


def _gains(build, what: str) -> tuple:
    """The gains build() returns from a positive profile; a gain that
    overflows double precision (an OverflowError or an infinite float) or
    underflows it (a zero) is refused, naming what.  A subnormal gain is
    kept, as FadingDistribution keeps it."""
    try:
        gains = tuple(build())
    except OverflowError:
        gains = (math.inf,)
    if math.inf in gains:
        raise ValidationError(f"{what}: a gain overflows double precision")
    if 0 in gains:
        raise ValidationError(f"{what}: a gain underflows double precision")
    return gains


def additive_family(K: int, d: float) -> FadingDistribution:
    """Uniform-probability geometric gain ladder; requires d > max(K-1, 2).

    Gains use the closed form ``d (d^(K-k+1) - 1) / (d - 1)`` rather than a
    K-term sum, keeping the relative error at one rounding even when the top
    gain reaches ~1e32.
    """
    K = validated_state_count("additive family", K)
    _check_finite("d", d)
    if not d > max(K - 1, 2):
        raise ValidationError(f"additive family needs d > max(K-1, 2) = {max(K - 1, 2)}, got {d}")
    gains = _gains(
        lambda: [d * (d ** (K - k + 1) - 1) / (d - 1) for k in range(1, K + 1)],
        f"d = {d} with K = {K}",
    )
    return FadingDistribution(gains=gains, probs=(1.0 / K,) * K)


def multiplicative_family(K: int, d: float) -> FadingDistribution:
    """Exact-rational family with all utility crossings at zero; d > 0.

    Inverse gains are ``n_k = d + d^2 + ... + d^k`` and probabilities are
    proportional to d^k, making cumulative probability exactly proportional
    to n_k.  Gains and probabilities come back as Fractions.
    """
    K = validated_state_count("multiplicative family", K)
    _check_finite("d", d)
    if not d > 0:
        raise ValidationError(f"multiplicative family needs d > 0, got {d}")
    dq = Fraction(d)
    powers = [dq**k for k in range(1, K + 1)]
    inverse_gains = []
    acc = Fraction(0)
    for x in powers:
        acc += x
        inverse_gains.append(acc)
    total = acc
    gains = tuple(1 / n for n in inverse_gains)
    probs = tuple(x / total for x in powers)
    return FadingDistribution(gains=gains, probs=probs)


def _check_profile(values, probs, snr, what: str) -> tuple:
    """The profile and probabilities as tuples; refuse a bad profile, then an
    snr that is not finite and positive."""
    values = validated_tuple(what, values)
    probs = validated_tuple("probs", probs)
    if len(values) == 0:
        raise ValidationError(f"{what}: need at least one state")
    if len(values) != len(probs):
        raise ValidationError(f"{what}: profile and probabilities differ in length")
    prev = None
    for k, v in enumerate(values, start=1):
        check_real(f"{what}: entry {k}", v)
        if not v > 0:
            raise ValidationError(f"{what}: entries must be positive, got {v}")
        if prev is not None and not v < prev:
            raise ValidationError(f"{what}: entries must be strictly decreasing")
        prev = v
    _check_finite("snr", snr)
    if not snr > 0:
        raise ValidationError(f"snr must be positive, got {snr}")
    return values, probs


def high_snr_instance(r, p, snr: float) -> FadingDistribution:
    """Gains ``SNR^r_k`` for a strictly decreasing positive exponent profile.

    At large SNR every state becomes active and the additive gap approaches
    the entropy of the state distribution.
    """
    r, p = _check_profile(r, p, snr, "high-SNR exponents")
    gains = _gains(lambda: [snr**rk for rk in r], f"snr = {snr}")
    return FadingDistribution(gains=gains, probs=p)


def low_snr_instance(alpha, p, snr: float) -> FadingDistribution:
    """Gains ``alpha_k * SNR`` for a strictly decreasing positive slope profile.

    At small SNR exactly one state stays active (the maximizer of F_k
    alpha_k) and the multiplicative gap approaches the per-unit-cost ratio
    sum(p alpha) / max(F alpha).
    """
    alpha, p = _check_profile(alpha, p, snr, "low-SNR slopes")
    gains = _gains(lambda: [a * snr for a in alpha], f"snr = {snr}")
    return FadingDistribution(gains=gains, probs=p)


def sweep(kind: str, K: int, d_values) -> list:
    """Analyze one family at each d; returns [(d, CapacityReport), ...].

    Points are evaluated independently and returned in the given order; any
    invalid d aborts before any work with the offending value named.
    """
    if kind not in SWEEP_KINDS:
        raise ValidationError(f"sweep supports kinds {SWEEP_KINDS}, got {kind!r}")
    d_values = validated_tuple("d_values", d_values)
    build = additive_family if kind == "additive" else multiplicative_family
    dists = [build(K, d) for d in d_values]  # validate all points before analyzing any
    return [(d, analyze(dist)) for d, dist in zip(d_values, dists)]


def sweep_to_csv(rows) -> str:
    """Serialize sweep rows to CSV with full round-trip float precision.

    Each row is a real d paired with a CapacityReport, as :func:`sweep`
    returns them; anything else is refused, naming the row.
    """
    lines = [SWEEP_CSV_HEADER]
    for k, row in enumerate(validated_tuple("rows", rows), start=1):
        d, report = row if isinstance(row, (tuple, list)) and len(row) == 2 else (None, None)
        if not isinstance(report, CapacityReport):
            raise ValidationError(f"rows: row {k} is not a real d paired with a CapacityReport")
        check_real(f"rows: the d of row {k}", d)
        lines.append(
            ",".join(
                repr(float(v))
                for v in (
                    d,
                    report.c_erg,
                    report.c_exp,
                    report.additive_gap,
                    report.multiplicative_gap,
                    report.entropy,
                )
            )
        )
    return "\n".join(lines) + "\n"

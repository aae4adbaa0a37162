"""Finite-state fading channel distributions and their canonical form.

A channel is described by the possible power-gain realizations ``g_k``
(dimensionless receive SNR per state) and their probabilities ``p_k``.
:func:`prepare` validates a raw :class:`FadingDistribution`, sorts its states
by descending gain, merges physically identical states, and derives the
inverse gains ``n_k = 1/g_k`` and cumulative probabilities ``F_k`` used by
every downstream computation.

Arithmetic is deliberately type-agnostic: gains and probabilities may be
floats or exact :class:`fractions.Fraction` values, and all derived fields
keep the input's arithmetic.  Exact inputs keep exact intersections, which
the degenerate worst-case families rely on.
"""

import bisect
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from operator import ge, itemgetter
from typing import Optional

from .errors import ValidationError, _make, check_built, check_instance, check_real, validated_tuple

__all__ = [
    "FadingDistribution",
    "PreparedChannel",
    "prepare",
    "ergodic_capacity",
    "entropy",
]

#: Relative gap below which two gains are treated as the same physical state.
MERGE_RTOL = 1e-12

#: Allowed deviation of the probability total from one.
PROB_SUM_ATOL = 1e-9

_FLOAT_MIN = sys.float_info.min
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class FadingDistribution:
    """Raw user-supplied power-gain distribution.

    gains and probs must have equal length K >= 1, every probability must be
    positive with total within 1e-9 of one, and every gain must be
    nonnegative and finite.  Every value must be a real number by
    :func:`~fadegap.errors.check_real`, not NaN, and a positive one must
    convert to a positive float: a positive int or Fraction below the
    normal range is refused, since exact ratios of such values would
    overflow where they meet a float.  Order is irrelevant; :func:`prepare`
    canonicalizes it.
    """

    gains: tuple
    probs: tuple

    def __post_init__(self):
        for name in ("gains", "probs"):
            object.__setattr__(self, name, validated_tuple(name, getattr(self, name)))
        if len(self.gains) == 0:
            raise ValidationError("gains: need at least one fading state")
        if len(self.gains) != len(self.probs):
            raise ValidationError(
                f"gains/probs length mismatch: {len(self.gains)} != {len(self.probs)}"
            )
        for k, p in enumerate(self.probs, start=1):
            p_float = _as_float("probs", k, p)
            if not p > 0:
                raise ValidationError(f"probs: state {k} has non-positive probability {p}")
            if _underflows(p, p_float):
                raise ValidationError(f"probs: state {k} underflows double precision")
        total = sum(self.probs)
        if abs(total - 1) > PROB_SUM_ATOL:
            raise ValidationError(f"probs: must sum to 1 within {PROB_SUM_ATOL}, got {total}")
        for k, g in enumerate(self.gains, start=1):
            g_float = _as_float("gains", k, g)
            if not g >= 0:
                raise ValidationError(f"gains: state {k} has negative gain {g}")
            if g_float == math.inf:
                raise ValidationError(f"gains: state {k} has infinite gain")
            if g > 0 and _underflows(g, g_float):
                raise ValidationError(f"gains: state {k} underflows double precision")


def _underflows(x, as_float):
    """Whether a positive x rounds to 0, or, unless a float, below the
    normal range."""
    return as_float == 0 or (as_float < _FLOAT_MIN and not isinstance(x, float))


def _as_float(name, k, x):
    """x as a float by :func:`~fadegap.errors.check_real`, naming the field
    and the state; a NaN is refused too."""
    try:
        as_float = check_real(name, x)
    except ValidationError:
        # the state is named only here: formatting it costs more than the check
        as_float = check_real(f"{name}: state {k}", x)
    if as_float != as_float:
        raise ValidationError(f"{name}: state {k} is not a number")
    return as_float


@dataclass(frozen=True)
class PreparedChannel:
    """Validated channel in canonical form.

    Fields:
        gains: strictly descending positive gains (a zero gain, if present in
            the input, has been replaced by a small positive ``epsilon``).
        probs: per-state probabilities after merging duplicates.
        inverse_gains: ``n_k = 1/g_k``, strictly ascending.
        cum_probs: ``F_k``, strictly increasing with ``F_K ~ 1``.
        epsilon_applied: substitute used for an input zero gain, or None.
        degenerate: True only for the single-state all-zero-gain channel,
            which carries no information; its inverse gain is inf.

    The stages take only one that :func:`prepare` built.  Such a channel
    also records the first state whose inverse gain or probability is
    of a type other than exactly float or int, as :func:`prepare` decides
    it, which spares the closed forms a scan of the types they read.
    """

    gains: tuple
    probs: tuple
    inverse_gains: tuple
    cum_probs: tuple
    epsilon_applied: Optional[object] = None
    degenerate: bool = False
    #: the FadingDistribution prepare built it from, set only by errors._make
    _source: object = field(default=None, init=False, repr=False, compare=False)
    #: the 1-based index of the first state whose inverse gain or probability
    #: is of a type other than float and int (a Fraction, a float subclass),
    #: or K + 1 if there is none; set only by prepare, read only by _routes
    _first_exact: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_states(self) -> int:
        return len(self.gains)


def _zero_gain_epsilon(inverse, cum_probs):
    """Substitute for a zero smallest gain, small enough that the zero state
    provably receives no power: half of min_k F_k / ((1 - F_k) + n_k) over
    the positive states, whose inverse gains are given."""
    return min(f / ((1 - f) + n) for n, f in zip(inverse, cum_probs)) / 2


def prepare(dist: FadingDistribution) -> PreparedChannel:
    """Canonicalize a distribution: sort descending, merge duplicate gains,
    and substitute a positive epsilon for a zero smallest gain after a
    positive one.

    Only a listing out of descending order is sorted: the sort is stable,
    so it would return a descending listing unchanged, equal gains in their
    given order.  One pass then merges the states and forms each ``F_k``
    and ``n_k``, and records the first state whose ``n_k`` or ``p_k`` is
    of a type other than exactly float or int; a float channel makes no
    Python call per state for it.

    The single-state zero-gain channel keeps its zero gain, with inverse
    gain inf, and is returned with ``degenerate=True`` rather than rejected:
    both capacities are exactly zero for it.
    """
    check_instance("prepare", "dist", dist, FadingDistribution)
    pairs = zip(dist.gains, dist.probs)
    if not all(map(ge, dist.gains, dist.gains[1:])):
        pairs = sorted(pairs, key=itemgetter(0), reverse=True)

    # a run of adjacent gains that agree to MERGE_RTOL is one physical
    # state, the first of the run; a state is closed when the next starts,
    # the last one by a sentinel gain below every gain.
    # A probability below the resolution of the running sum leaves F_k equal
    # to F_{k-1}; two such states have no crossing, so the channel is refused.
    # first_exact is the first state whose inverse gain or probability is of
    # a type other than exactly float or int (a Fraction, a float subclass, a
    # bool), 0 while there is none: the one statement of which inputs the
    # closed forms read as plain. Two floats are tested first, so a float
    # channel makes no call per state
    gains, probs, cum, inverse = [], [], [], []
    acc = first_exact = 0
    epsilon = None
    pairs = chain(pairs, ((-1, None),))
    g_run, p_run = next(pairs)
    for g, p in pairs:
        if g_run - g <= MERGE_RTOL * g_run:
            p_run = p_run + p
            continue
        prev, acc = acc, acc + p_run
        if acc == prev:
            raise ValidationError(
                f"probs: state {len(gains) + 1} (gain {g_run}) has probability {p_run},"
                f" below the resolution of the cumulative probability {acc}"
            )
        # only the last gain can be zero: a lone zero state keeps it, with
        # inverse gain inf, and one after a positive state is substituted.
        # The value is tested: 1 / g need not raise, numpy's float64 zero
        # divides to inf
        if g_run:
            n_run = 1 / g_run
        elif gains:
            epsilon = g_run = _zero_gain_epsilon(inverse, cum)
            if epsilon == 0:
                raise ValidationError(
                    "gains: the substitute for the zero gain underflows double precision"
                )
            n_run = 1 / g_run
        else:
            n_run = math.inf
        gains.append(g_run)
        probs.append(p_run)
        cum.append(acc)
        inverse.append(n_run)
        if not (
            type(n_run) is float is type(p_run)
            or first_exact
            or type(n_run) in {float, int} and type(p_run) in {float, int}
        ):
            first_exact = len(inverse)
        g_run, p_run = g, p
    # a float inverse below the normal range has lost bits, and the decoded
    # rate factors built on it overflow
    if inverse[0] < _FLOAT_MIN and isinstance(inverse[0], float):
        raise ValidationError(
            f"gains: state 1 (gain {gains[0]}) has an inverse below the normal"
            " double-precision range"
        )
    # inverse gains ascend, so the ones beyond the double range come last
    if inverse[-1] > _FLOAT_MAX:
        _check_overflowed_inverses(gains, inverse, cum)
    return _make(
        PreparedChannel,
        gains=tuple(gains),
        probs=tuple(probs),
        inverse_gains=tuple(inverse),
        cum_probs=tuple(cum),
        epsilon_applied=epsilon,
        degenerate=not gains[-1],
        _source=dist,
        _first_exact=first_exact or len(inverse) + 1,
    )


def _check_overflowed_inverses(gains, inverse, cum):
    """Refuse the states whose inverse gain lies beyond the double range
    that the chain cannot take as never receiving power."""
    finite = bisect.bisect_right(inverse, _FLOAT_MAX)
    # the largest utility F_j / (n_j + 1) of a finite state at z = 1
    best = max((fj / (nj + 1) for nj, fj in zip(inverse[:finite], cum)), default=0)
    for k in range(finite, len(inverse)):
        if not isinstance(inverse[k], float):
            # an exact inverse (of a zero-gain substitute) would overflow
            # wherever it meets a float
            raise ValidationError(
                f"gains: state {k + 1} (gain {gains[k]}) has an inverse beyond the"
                " double-precision range"
            )
        # a float one is inf, a state taken to receive no power; that holds
        # when a finite state's utility beats its F_k g_k / (1 + g_k) at
        # z = 1, the end of the budget where the weaker state fares best.
        # With no finite state best is 0, so only a single state passes
        if len(inverse) > 1 and not best > cum[k] * gains[k]:
            raise ValidationError(
                f"gains: the inverse of the gain {gains[k]} of state {k + 1} overflows"
                " double precision, and the state may receive power"
            )


def ergodic_capacity(ch: PreparedChannel) -> float:
    """Ergodic capacity sum(p_k * ln(1 + g_k)) in nats per channel use.

    Always evaluated on the original gains: a state whose input gain was zero
    contributes exactly zero even though the prepared channel carries the
    epsilon substitute.
    """
    check_built("ergodic_capacity", "ch", ch, PreparedChannel)
    gains = ch.gains if ch.epsilon_applied is None else ch.gains[:-1]
    total = 0.0
    log1p = math.log1p
    # a Fraction meets a float in the product and log1p as its float()
    for g, p in zip(gains, ch.probs):
        total += p * log1p(g)
    return total


def entropy(ch: PreparedChannel) -> float:
    """Entropy -sum(p_k * ln(p_k)) of the state distribution, in nats.

    A run of equal adjacent probabilities shares one ``p * ln(p)`` term, so a
    uniform distribution takes one log; the terms are still subtracted state
    by state, in order.
    """
    check_built("entropy", "ch", ch, PreparedChannel)
    total = 0.0
    log = math.log
    # equal by value: a Fraction and the float it equals give the same term
    prev = term = math.nan
    for p in ch.probs:
        if p != prev:
            prev, term = p, p * log(p)
        total -= term
    return total + 0.0

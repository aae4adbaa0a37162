"""Marginal utility functions and their dominating upper envelope.

Each state k has a marginal utility ``u_k(z) = F_k / (n_k + z)``: the rate
value of an extra sliver of cumulative power at level z when layered coding
targets state k.  Because both n_k and F_k increase with k, any two of these
hyperbolas cross exactly once, and the pointwise maximum ``u*(z)`` is traced
by a chain of states.  The reciprocals ``1/u_k(z) = (z + n_k) / F_k`` are
lines whose slopes ``1/F_k`` strictly decrease in k, so the upper envelope
of the utilities is the lower envelope of these lines, and one left-to-right
stack pass over the states builds it (Andrew's monotone chain, also known as
the convex-hull trick).  The chain's breakpoints against the power budget
[0, 1] single out the states that receive positive power.

All arithmetic follows the channel's numeric type.  A state pops when its
crossing with the stack's top lies at or below the top's recorded
breakpoint, so with Fraction channels the crossing points and every tie
decision are exact, and float channels pop by the crossings the chain
records.
"""

import bisect
import math
from dataclasses import dataclass, field

from .channel import PreparedChannel
from .errors import ValidationError, _make, check_built, check_real, validated_index

__all__ = [
    "MufChain",
    "muf_value",
    "intersection",
    "build_chain",
    "dominating_muf",
    "envelope_integral",
]

@dataclass(frozen=True)
class MufChain:
    """Envelope chain for a prepared channel.

    pi: 1-based state indices tracing the envelope, rising strictly from
        pi[0] == 1 to pi[-1] == K.
    breakpoints: length I+1; breakpoints[i-1] is the crossing point where
        segment i takes over (the leading sentinel is -n_1, where u_1 leaves
        its pole) and breakpoints[I] is the +infinity sentinel.  The
        interior breakpoints breakpoints[1..I-1] rise strictly, but for a
        crossing that overflowed to +inf and the +inf crossing of a state
        whose inverse gain overflowed after it.
    s: largest segment index whose takeover point is <= 0, which is the
        count of breakpoints <= 0.
    w: largest segment index whose takeover point is < 1, which is the
        count of breakpoints < 1.  The breakpoints never fall, the leading
        sentinel included, so build_chain finds s and w by bisection.

    Segments s..w are the ones intersecting the power budget (0, 1]; the
    states pi[s-1..w-1] are exactly those assigned positive power.  The
    stages take only a chain that :func:`build_chain` built from the
    channel they are given;
    :func:`~fadegap.certify.chain_ordering_properties` judges any chain.
    """

    pi: tuple
    breakpoints: tuple
    s: int
    w: int
    #: the channel build_chain built it from, set only by errors._make
    _source: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def segment_count(self) -> int:
        return len(self.pi)

    @property
    def active_states(self) -> tuple:
        """1-based indices of the states that receive positive power."""
        return tuple(self.pi[self.s - 1 : self.w])


def muf_value(ch: PreparedChannel, k: int, z):
    """Marginal utility ``F_k / (n_k + z)`` of state k (1-based) at level z.

    Only defined for 1 <= k <= K and z > -n_k, where it is strictly positive.
    """
    check_built("muf_value", "ch", ch, PreparedChannel)
    k = validated_index("muf_value", "k", k)
    if not 1 <= k <= ch.num_states:
        raise ValidationError(f"muf_value needs 1 <= k <= K, got k={k}")
    check_real("z", z)
    n = ch.inverse_gains[k - 1]
    if not z > -n:
        raise ValidationError(f"marginal utility of state {k} undefined at z={z} <= -n_k")
    return ch.cum_probs[k - 1] / (n + z)


def intersection(ch: PreparedChannel, k: int, l: int):
    """Unique crossing point of the utilities of states k < l (1-based).

    Returns ``z_{k,l} = (F_k n_l - F_l n_k) / (F_l - F_k)``, which always
    lies to the right of -n_k.  :func:`build_chain` evaluates the same
    expression, so its breakpoints are the values returned here.  A state
    whose inverse gain overflowed crosses every other state at +inf, as in
    :func:`build_chain`, another overflowed one included.

    Evaluated as ``F_k / (F_l - F_k) * (n_l - n_k) - n_k``: in floats the
    first quotient stays below 2**53 (F_l moved F_k by at least one ulp),
    so no intermediate overflows unless z does, and none underflows where
    the products ``F_k n_l`` and ``F_l n_k`` of tiny probabilities and
    inverse gains would round to 0.
    """
    check_built("intersection", "ch", ch, PreparedChannel)
    k = validated_index("intersection", "k", k)
    l = validated_index("intersection", "l", l)
    if not 1 <= k < l <= ch.num_states:
        raise ValidationError(f"intersection needs 1 <= k < l <= K, got k={k}, l={l}")
    n, f = ch.inverse_gains, ch.cum_probs
    if n[k - 1] == math.inf:
        return math.inf
    k, l = k - 1, l - 1
    return f[k] / (f[l] - f[k]) * (n[l] - n[k]) - n[k]


def build_chain(ch: PreparedChannel) -> MufChain:
    """Construct the dominating-envelope chain of a prepared channel.

    States 2..K are pushed in order onto a stack that starts with state 1.
    Before state l is pushed, the top is popped while l crosses it at or
    below the top's own breakpoint, where the top took over from the state
    beneath: such a top never leads the envelope, and an exact tie resolves
    to the largest index.  Each pushed breakpoint thus lies strictly above
    the one beneath it, so the interior breakpoints rise strictly.  States
    whose inverse gain overflowed (subnormal gains) come last and have no
    utility: they cross every other state at +inf and tie among themselves,
    so the last of them closes the chain, at +inf even if the breakpoint
    beneath overflowed to +inf too.  Each state is pushed and popped
    at most once: O(K) crossings, each the expression
    :func:`intersection` evaluates.  The breakpoints never fall: a crossing
    out of state 1 is at least its pole -n_1, and every later push lies
    above the top's breakpoint.  So s and w, the counts of breakpoints
    <= 0 and < 1, are found by bisection.
    """
    check_built("build_chain", "ch", ch, PreparedChannel)
    if ch.degenerate:
        raise ValidationError(
            "build_chain: the single zero-gain channel has no chain; both its capacities are 0"
        )

    n, f = ch.inverse_gains, ch.cum_probs
    inf = math.inf
    finite = len(n) if n[-1] < inf else bisect.bisect_left(n, inf)
    pi = [1]
    breakpoints = [-n[0]]
    # (nt, ft) is (n, F) of the top, pi[-1]
    nt, ft = n[0], f[0]
    for l, nl, fl in zip(range(2, finite + 1), n[1:finite], f[1:finite]):
        # intersection of the top and l, inlined; state 1 leads right of its
        # pole -n_1 and is never popped, though a crossing may round onto it
        z = ft / (fl - ft) * (nl - nt) - nt
        while z <= breakpoints[-1] and len(pi) > 1:
            pi.pop()
            breakpoints.pop()
            nt, ft = n[pi[-1] - 1], f[pi[-1] - 1]
            z = ft / (fl - ft) * (nl - nt) - nt
        breakpoints.append(z)
        pi.append(l)
        nt, ft = nl, fl
    if pi[-1] < len(n):
        # the last overflowed state crosses the finite top at +inf
        breakpoints.append(inf)
        pi.append(len(n))

    s = bisect.bisect_right(breakpoints, 0)
    w = bisect.bisect_left(breakpoints, 1)
    breakpoints.append(inf)

    return _make(MufChain, pi=tuple(pi), breakpoints=tuple(breakpoints), s=s, w=w, _source=ch)


def _segment_index(chain: MufChain, z) -> int:
    """1-based envelope segment containing z; exact breakpoints belong to the
    higher segment (both neighbours agree in value there)."""
    count = chain.segment_count
    return bisect.bisect_right(chain.breakpoints, z, 0, count)


def dominating_muf(chain: MufChain, ch: PreparedChannel, z):
    """Value of the upper envelope at z along with the achieving state.

    Returns ``(u*(z), k)`` where k is the 1-based state index whose utility
    equals the pointwise maximum at z.
    """
    check_built("dominating_muf", "ch", ch, PreparedChannel)
    check_built("dominating_muf", "chain", chain, MufChain, ch)
    check_real("z", z)
    if not z > chain.breakpoints[0]:
        raise ValidationError(f"envelope undefined at z={z} <= -n_1")
    # z > -n_1 >= -n_k, so the utility of the state k is defined
    k = chain.pi[_segment_index(chain, z) - 1]
    return ch.cum_probs[k - 1] / (ch.inverse_gains[k - 1] + z), k


def envelope_integral(chain: MufChain, ch: PreparedChannel, lo, hi) -> float:
    """Exact integral of the upper envelope over [lo, hi], lo >= 0.

    Each segment contributes ``F_k * ln((n_k + b) / (n_k + a))``; segment
    boundaries inside the range split the integration exactly, so the only
    error is the final float rounding of each log.
    """
    check_built("envelope_integral", "ch", ch, PreparedChannel)
    check_built("envelope_integral", "chain", chain, MufChain, ch)
    check_real("lo", lo)
    check_real("hi", hi)
    if not 0 <= lo <= hi:
        raise ValidationError(f"integration range must satisfy 0 <= lo <= hi, got [{lo}, {hi}]")
    total = 0.0
    cuts = [lo]
    for z in chain.breakpoints[1:-1]:
        if lo < z < hi:
            cuts.append(z)
    cuts.append(hi)
    for a, b in zip(cuts, cuts[1:]):
        if not b > a:
            continue
        state = chain.pi[_segment_index(chain, a) - 1]
        n = ch.inverse_gains[state - 1]
        f = ch.cum_probs[state - 1]
        total += float(f) * math.log1p(float((b - a) / (n + a)))
    return total

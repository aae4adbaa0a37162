"""Brute-force maximizer of the expected rate, independent of the envelope.

Certifies the closed-form expected capacity by searching the cumulative
power simplex directly through :func:`expected_rate_of`, never touching the
chain construction.  The last coordinate is pinned at the full budget (the
objective is increasing in it); small channels get an exhaustively refined
grid over the remaining coordinates, larger ones cyclic coordinate ascent
with golden-section line searches.  Every slice of the objective along one
coordinate is unimodal (two utility hyperbolas cross once), which both
strategies rely on, and the search is fully deterministic.
"""

import math
from dataclasses import dataclass

from .allocation import expected_rate_of
from .channel import PreparedChannel
from .errors import ValidationError

__all__ = ["OracleResult", "brute_force_expected_capacity"]

#: Axis point count for the grid strategy.
GRID_POINTS = 13

#: Invphi for golden-section search.
_INVPHI = (math.sqrt(5) - 1) / 2

#: Grid strategy handles up to this many states; beyond it, coordinate ascent.
GRID_MAX_STATES = 4

#: Coordinate-ascent pass limit per start (converges far earlier in practice).
MAX_PASSES = 60


@dataclass(frozen=True)
class OracleResult:
    value: float
    beta: tuple
    iterations: int
    resolution: float


def _grid_search(ch: PreparedChannel, tol: float):
    """Refine a uniform grid over the free coordinates until the bracketing
    cell falls below tol.  Axis brackets always retain the incumbent, and the
    budget endpoints stay on-grid so boundary optima are hit exactly."""
    free = ch.num_states - 1
    lo = [0.0] * free
    hi = [1.0] * free
    best_beta = None
    best_value = -math.inf
    evaluations = 0
    step = 1.0

    while True:
        axes = []
        for a, b in zip(lo, hi):
            span = b - a
            axes.append([a + span * j / (GRID_POINTS - 1) for j in range(GRID_POINTS)])
        step = max(h - l for l, h in zip(lo, hi)) / (GRID_POINTS - 1)

        stack = [()]
        for axis in axes:
            stack = [p + (x,) for p in stack for x in axis if not p or x >= p[-1]]
        for point in stack:
            if point and point[-1] > 1:
                continue
            beta = point + (1.0,)
            value = expected_rate_of(ch, beta)
            evaluations += 1
            if value > best_value or (value == best_value and beta < best_beta):
                best_value = value
                best_beta = beta

        if step <= tol:
            return best_beta, evaluations, step
        lo = [max(0.0, x - step) for x in best_beta[:free]]
        hi = [min(1.0, x + step) for x in best_beta[:free]]


def _golden_max(fun, a: float, b: float, tol: float):
    """Maximize a unimodal fun on [a, b] to within tol; returns (x, evals)."""
    evals = 0
    if b - a <= tol:
        x = (a + b) / 2
        return x, evals
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    evals += 2
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
        evals += 1
    return (a + b) / 2, evals


def _ascent_seeds(free: int):
    """Eight deterministic starting points: the step-shaped corners of the
    ordered simplex (subsampled when there are more than six), the midpoint,
    and the uniformly ascending interior point."""
    corners = []
    for ones in range(free + 1):
        corners.append(tuple([0.0] * (free - ones) + [1.0] * ones))
    if len(corners) > 6:
        idx = [round(i * (len(corners) - 1) / 5) for i in range(6)]
        corners = [corners[i] for i in idx]
    seeds = corners + [
        tuple([0.5] * free),
        tuple((k + 1) / (free + 1) for k in range(free)),
    ]
    return seeds[:8]


def _line_max(ch: PreparedChannel, beta, indices, lo, hi, tol):
    """Golden-section the common value of beta[indices] over [lo, hi].

    The joint slice telescopes to a single hyperbola difference, so it is
    unimodal just like the single-coordinate slices.  Returns the movement
    and the number of objective evaluations.  The searched point competes
    with the old one and with the slice endpoints, which the search brackets
    never reach although an empty power layer puts the optimum there; the
    first best of (searched, old, lo, hi) wins."""

    def slice_value(x):
        for k in indices:
            beta[k] = x
        return expected_rate_of(ch, beta + [1.0])

    old = beta[indices[0]]
    x, used = _golden_max(slice_value, lo, hi, tol)
    x = max((x, old, lo, hi), key=slice_value)
    for k in indices:
        beta[k] = x
    return abs(x - old), used + 4


def _glued_runs(beta, tol):
    """Maximal runs of >= 2 coordinates whose values agree to within 2 tol.

    Single-coordinate moves cannot split such a run when its shared value is
    pinched between two utility crossings, so runs get their own joint line
    search."""
    runs = []
    start = 0
    for k in range(1, len(beta) + 1):
        if k == len(beta) or abs(beta[k] - beta[k - 1]) > 2 * tol:
            if k - start >= 2:
                runs.append(list(range(start, k)))
            start = k
    return runs


def _coordinate_ascent(ch: PreparedChannel, tol: float):
    """Cyclic coordinate ascent from each seed, keeping the best outcome.

    Each pass maximizes one coordinate at a time between its neighbours,
    then jointly shifts every glued run of coordinates (single-coordinate
    moves stall whenever the optimum skips a state).  Ties across starts
    resolve to the lexicographically smallest beta."""
    free = ch.num_states - 1
    best_beta = None
    best_value = -math.inf
    evaluations = 0

    for seed in _ascent_seeds(free):
        beta = list(seed)
        for _ in range(MAX_PASSES):
            moved = 0.0
            for k in range(free):
                lo = beta[k - 1] if k > 0 else 0.0
                hi = beta[k + 1] if k + 1 < free else 1.0
                delta, used = _line_max(ch, beta, [k], lo, hi, tol)
                evaluations += used
                moved = max(moved, delta)
            for run in _glued_runs(beta, tol):
                lo = beta[run[0] - 1] if run[0] > 0 else 0.0
                hi = beta[run[-1] + 1] if run[-1] + 1 < free else 1.0
                delta, used = _line_max(ch, beta, run, lo, hi, tol)
                evaluations += used
                moved = max(moved, delta)
            if moved <= tol / 10:
                break
        value = expected_rate_of(ch, beta + [1.0])
        evaluations += 1
        candidate = tuple(beta) + (1.0,)
        if value > best_value or (value == best_value and candidate < best_beta):
            best_value = value
            best_beta = candidate

    return best_beta, evaluations, tol


def brute_force_expected_capacity(ch: PreparedChannel, tol: float) -> OracleResult:
    """Search the feasible power splits directly for the expected capacity.

    tol bounds the final bracketing resolution in beta space.  The returned
    value is the expected rate of the returned beta, recomputed through the
    shared objective evaluator.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if ch.degenerate:
        raise ValidationError("cannot search a degenerate zero-gain channel")

    if ch.num_states == 1:
        beta = (1.0,)
        return OracleResult(
            value=expected_rate_of(ch, beta), beta=beta, iterations=0, resolution=0.0
        )

    if ch.num_states <= GRID_MAX_STATES:
        beta, evaluations, resolution = _grid_search(ch, tol)
    else:
        beta, evaluations, resolution = _coordinate_ascent(ch, tol)

    return OracleResult(
        value=expected_rate_of(ch, beta),
        beta=beta,
        iterations=evaluations,
        resolution=resolution,
    )

"""Brute-force maximizer of the expected rate, independent of the envelope.

Certifies the closed-form expected capacity by searching the cumulative
power simplex directly, never touching the chain construction or a crossing
formula.  The last coordinate is pinned at the full budget (the objective is
increasing in it), and summing the layered rate by parts separates the rest:

    expected_rate_of(beta) = sum_{j<K} phi_j(beta_j) + F_K ln(1 + g_K),
    phi_j(x) = F_j ln(1 + x g_j) - F_{j+1} ln(1 + x g_{j+1}).

Maximizing it over ``0 <= beta_1 <= ... <= beta_{K-1} <= 1`` with one grid
per coordinate is a chain dynamic program with a running prefix maximum,
O(K G) for G points per grid.  The first grid is global and geometric: 0
plus GEOMETRIC_POINTS points from far below the smallest inverse gain up to
the full budget, shared by every coordinate.  Each later round refines
locally: every coordinate is re-gridded uniformly on each side of its
incumbent, out to the incumbent's two grid neighbours, until the widest
relative cell is at most tol.  The incumbent stays on its grid, so no round
loses value, and the search is fully deterministic.
"""

import math
from dataclasses import dataclass

from .allocation import expected_rate_of
from .channel import PreparedChannel
from .errors import ValidationError, check_built, check_real

__all__ = ["OracleResult", "brute_force_expected_capacity"]

#: Geometric points of the first grid; a refined grid has as many cells,
#: half on each side of the incumbent.
GEOMETRIC_POINTS = 128


@dataclass(frozen=True)
class OracleResult:
    value: float
    beta: tuple
    iterations: int
    resolution: float


def _first_grid(ch: PreparedChannel):
    """0, then geometric points from 10^min(-16, log10(1e-4 min n_k)) to 1.

    The clamp keeps tiny gains from putting grid points above the budget;
    the last point is pinned, since the power of ten can round above 1."""
    top = min(-16.0, math.log10(float(ch.inverse_gains[0])) - 4)
    last = GEOMETRIC_POINTS - 1
    return [0.0] + [10 ** (top * (last - i) / last) for i in range(last)] + [1.0]


def _best_path(grids, coefficients):
    """Grid indices of the nondecreasing picks that maximize sum phi_j.

    Each row holds phi_j plus the best total over the previous grid's
    points at or below, found by a running prefix maximum; beta_0 = 0
    starts the chain.  Ties go to the smaller grid points."""
    log1p = math.log1p
    prev, values, links = [0.0], [0.0], []
    for grid, (g, f, g_next, f_next) in zip(grids, coefficients):
        best, arg, p, stop = -math.inf, -1, 0, len(prev)
        row, link = [], []
        for x in grid:
            while p < stop and prev[p] <= x:
                if values[p] > best:
                    best, arg = values[p], p
                p += 1
            row.append(f * log1p(x * g) - f_next * log1p(x * g_next) + best)
            link.append(arg)
        prev, values = grid, row
        links.append(link)
    i = max(range(len(values)), key=values.__getitem__)
    path = []
    for link in reversed(links):
        path.append(i)
        i = link[i]
    path.reverse()
    return path


def _window(grid, i):
    """The incumbent and its two grid neighbours; at an end of the grid,
    the incumbent itself stands in for the missing one."""
    x = grid[i]
    left = grid[i - 1] if i else x
    right = grid[i + 1] if i + 1 < len(grid) else x
    return left, x, right


def _refine(left, x, right):
    """Uniform cells on each side of x, out to the window's ends.  x itself
    stays on the grid, as the split point of its two halves, so rounding
    never puts a twin of it beside it."""
    cells = GEOMETRIC_POINTS // 2
    below = (left + (x - left) * k / cells for k in range(cells))
    above = (x + (right - x) * k / cells for k in range(1, cells))
    points = {t for t in below if t < x} | {t for t in above if x < t < right}
    return sorted(points | {x, right})


def _relative_cell(left, x, right, floor):
    """The wider cell beside x, relative to the window's top, or to the
    first grid's smallest positive point when the top lies below it."""
    return max(x - left, right - x) / max(right, floor)


def brute_force_expected_capacity(ch: PreparedChannel, tol: float) -> OracleResult:
    """Search the feasible power splits directly for the expected capacity.

    tol bounds the final widest relative cell beside the incumbent in beta
    space; the search also stops once a round no longer narrows the cells,
    which rounding ends a few ulps wide.  The returned value is the expected
    rate of the returned beta, recomputed through the shared objective
    evaluator, and iterations counts the phi evaluations.
    """
    check_built("brute_force_expected_capacity", "ch", ch, PreparedChannel)
    if not check_real("tol", tol) > 0:
        raise ValidationError(f"tol must be positive, got {tol!r}")

    g = [float(x) for x in ch.gains]
    f = [float(x) for x in ch.cum_probs]
    coefficients = list(zip(g, f, g[1:], f[1:]))
    first = _first_grid(ch)
    grids = [first] * len(coefficients)
    evaluations = 0
    previous = math.inf
    while True:
        path = _best_path(grids, coefficients)
        evaluations += sum(map(len, grids))
        windows = [_window(grid, i) for grid, i in zip(grids, path)]
        beta = tuple(w[1] for w in windows) + (1.0,)
        # a one-state channel, the zero-gain one included, has no
        # coordinate to search: resolution 0
        resolution = max((_relative_cell(*w, first[1]) for w in windows), default=0.0)
        if resolution <= tol or not resolution < previous:
            break
        previous = resolution
        grids = [_refine(*w) for w in windows]

    return OracleResult(
        value=expected_rate_of(ch, beta),
        beta=beta,
        iterations=evaluations,
        resolution=resolution,
    )

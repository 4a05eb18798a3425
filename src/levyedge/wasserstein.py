"""Wasserstein distances and log-log rate fitting.

One-dimensional distances use the quantile formula (exact on sorted
samples, a fixed Gauss-Hermite rule on quantile functions).  Multivariate
empirical distances solve the minimum-cost assignment exactly, with
scipy's compiled shortest augmenting path solver (Crouse, IEEE TAES 2016)
on a |x_i - y_j|^p cost built here in numpy.

The solver is the builtin `linear_sum_assignment` of scipy's private
extension module `scipy/optimize/_lsap`, which `scipyext` loads on its
own, without `scipy.optimize` and its linalg, sparse, spatial and fft
packages; a scipy without that extension raises ImportError at import
(tests/test_wasserstein.py::TestSolverLoad guards the dependency).
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .scipyext import linear_sum_assignment

# numpy imports np.ma on first use, and rate_fit's np.percentile reaches it
# (through np.unique's np.ma.is_masked): load it with the package rather
# than inside the first operation that fits a rate
np.ma


class WassersteinError(ValueError):
    pass


MAX_ASSIGNMENT_SIZE = 4096

#: column resamples behind rate_fit's bootstrap interval
BOOTSTRAP_REPS = 200

#: cost entries per row block: the one scratch block is 512 kB
_BLOCK = 1 << 16


#: nodes z_i and weights w_i with sum_i w_i h(z_i) = E h(Z), Z ~ N(0, 1), exact
#: for polynomials h of degree below 200: the probabilists' Gauss-Hermite rule
_NODES, _WEIGHTS = np.polynomial.hermite_e.hermegauss(100)
SCORE_RULE = (_NODES, _WEIGHTS / np.sqrt(2.0 * np.pi))


def _points(x) -> np.ndarray:
    """x as n equal-weight points in R^q: a finite (n, q) array, 1-D read as (n, 1)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1 or not np.all(np.isfinite(pts)):
        raise WassersteinError("points must be a finite (n, q) array")
    return pts


def wp_1d_exact(
    f: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
    g: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
    p: float = 2.0,
) -> float:
    """Exact 1D W_p via the quantile formula.

    Arrays are treated as equal-weight samples (sorted and paired);
    callables are quantile functions of the normal score, z -> F^-1(Phi(z)),
    and the integral over u = Phi(z) is one weighted sum over SCORE_RULE.
    """
    if p < 1:
        raise WassersteinError("p must be >= 1")
    fa, ga = callable(f), callable(g)
    if fa != ga:
        raise WassersteinError("mix of sample and quantile inputs not supported")
    if not fa:
        x = np.array(f, dtype=float).ravel()
        y = np.array(g, dtype=float).ravel()
        if x.size != y.size:
            raise WassersteinError("sample mode needs equal sizes")
        return _wp_1d_in_place(x, y, p)
    z, w = SCORE_RULE
    return float(np.dot(w, np.abs(f(z) - g(z)) ** p) ** (1.0 / p))


def _wp_1d_in_place(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """W_p between two equal-size 1-D float samples, in place: both are
    sorted and x ends up holding |x - y|^p.  The same float operations,
    in the same order, as sorting copies and taking mean(|x - y|^p)."""
    x.sort()
    y.sort()
    x -= y
    np.abs(x, out=x)
    x **= p
    return float(np.mean(x) ** (1.0 / p))


def wp_empirical(a, b, p: float = 2.0) -> float:
    """Exact W_p between two equal-size empirical measures.

    Solves the minimum-cost perfect matching on the |x_i - y_j|^p cost
    matrix.
    """
    if p < 1:
        raise WassersteinError("p must be >= 1")
    x, y = _points(a), _points(b)
    if x.shape != y.shape:
        raise WassersteinError("clouds must share size and dimension")
    n = x.shape[0]
    if n > MAX_ASSIGNMENT_SIZE:
        raise WassersteinError(f"size cap {MAX_ASSIGNMENT_SIZE} exceeded")
    cost = _cost(x, y, p)
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    return (total / n) ** (1.0 / p)


def _cost(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """The (n, m) matrix |x_i - y_j|^p, with scipy's cdist arithmetic:
    the squared coordinate differences summed in coordinate order, the
    square root, then the power, so the bytes are cdist(x, y) ** p's.
    Built in place one row block at a time; the cost and one block of
    scratch are all it allocates."""
    n, q = x.shape
    cost = np.empty((n, y.shape[0]))
    rows = max(1, _BLOCK // y.shape[0])
    diff = np.empty((min(rows, n), y.shape[0]))
    for lo in range(0, n, rows):
        out, xb = cost[lo:lo + rows], x[lo:lo + rows]
        np.subtract(xb[:, :1], y[:, 0], out=out)
        out *= out
        d = diff[:out.shape[0]]
        for k in range(1, q):
            np.subtract(xb[:, k:k + 1], y[:, k], out=d)
            d *= d
            out += d
        np.sqrt(out, out=out)
    cost **= p
    return cost


def rate_fit(
    xs: Sequence[float], reps: np.ndarray, seed: int = 0,
) -> Tuple[float, Tuple[float, float]]:
    """Least-squares slope of log mean against log x, with bootstrap CI.

    reps is the (len(xs), R) matrix of per-replicate values; the slope
    fits the log of its row means.  With R > 1 the CI is the 2.5-97.5%
    range of BOOTSTRAP_REPS refits on resampled columns; with R = 1 every
    resample is the matrix itself, and the CI is the point estimate.
    """
    xs = np.asarray(xs, dtype=float)
    reps = np.asarray(reps, dtype=float)
    if xs.size < 3:
        raise WassersteinError("need at least 3 points")
    if reps.ndim != 2 or reps.shape[0] != xs.size or reps.shape[1] < 1:
        raise WassersteinError("replicate matrix must have one row per x and a column")
    means = reps.mean(axis=1)
    if not (np.all(xs > 0) and np.all(means > 0)):
        raise WassersteinError("rate fit needs positive values")
    lx = np.log(xs)

    def _slope(vals):
        return float(np.polyfit(lx, np.log(vals), 1)[0])

    slope = _slope(means)
    r = reps.shape[1]
    if r == 1:
        return slope, (slope, slope)
    rng = np.random.default_rng(seed)
    slopes = []
    for _ in range(BOOTSTRAP_REPS):
        m = reps[:, rng.integers(0, r, size=r)].mean(axis=1)
        if np.all(m > 0):
            slopes.append(_slope(m))
    if not slopes:
        raise WassersteinError("no bootstrap resample has positive means")
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return slope, (float(lo), float(hi))

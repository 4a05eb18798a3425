"""Wasserstein distances and log-log rate fitting.

One-dimensional distances use the quantile formula (exact on sorted
samples, adaptive quadrature on quantile functions).  Multivariate
empirical distances solve the minimum-cost assignment exactly.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import integrate
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist


class WassersteinError(ValueError):
    pass


MAX_ASSIGNMENT_SIZE = 4096


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
    callables are quantile functions and the integral over (0,1) is done
    by adaptive quadrature.
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
    val, _ = integrate.quad(
        lambda t: abs(f(t) - g(t)) ** p, 0.0, 1.0, epsrel=1e-10, epsabs=1e-14, limit=200
    )
    return float(val ** (1.0 / p))


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


def wp_empirical(a, b, p: float = 2.0, certify: bool = False) -> float:
    """Exact W_p between two equal-size empirical measures.

    Solves the minimum-cost perfect matching on the |x_i - y_j|^p cost
    matrix.  With certify=True the assignment additionally passes a
    complementary-slackness check against dual potentials recovered from
    the matched costs.
    """
    if p < 1:
        raise WassersteinError("p must be >= 1")
    x, y = _points(a), _points(b)
    if x.shape != y.shape:
        raise WassersteinError("clouds must share size and dimension")
    n = x.shape[0]
    if n > MAX_ASSIGNMENT_SIZE:
        raise WassersteinError(f"size cap {MAX_ASSIGNMENT_SIZE} exceeded")
    cost = cdist(x, y) ** p
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    if certify and not _dual_certificate(cost, cols):
        raise AssertionError("assignment failed the optimality certificate")
    return (total / n) ** (1.0 / p)


def _dual_certificate(cost: np.ndarray, cols: np.ndarray, tol: float = 1e-9) -> bool:
    """Optimality check: no negative alternating cycle in the matching.

    Re-routing row i to row k's partner changes the cost by
    w(i, k) = c[i, cols[k]] - c[i, cols[i]]; the assignment is optimal
    iff this graph has no negative cycle (Bellman-Ford relaxation).
    """
    n = cost.shape[0]
    matched = cost[np.arange(n), cols]
    w = cost[:, cols] - matched[:, None]
    scale = max(1.0, float(np.abs(cost).max()))
    dist = np.zeros(n)
    for _ in range(n):
        new = np.min(dist[:, None] + w, axis=0)
        new = np.minimum(dist, new)
        if np.all(dist - new <= tol * scale):
            return True
        dist = new
    return False


def rate_fit(
    xs: Sequence[float],
    ys: Sequence[float],
    bootstrap_reps: int = 0,
    replicates: Optional[np.ndarray] = None,
    seed: int = 0,
) -> Tuple[float, Tuple[float, float]]:
    """Least-squares slope of log y against log x, with bootstrap CI.

    replicates, when given, is an (len(xs), R) matrix of per-replicate
    values; the CI resamples replicate columns and refits on the means.
    Without replicates the CI degenerates to the point estimate.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise WassersteinError("need at least 3 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise WassersteinError("rate fit needs positive values")
    lx = np.log(xs)

    def _slope(vals):
        return float(np.polyfit(lx, np.log(vals), 1)[0])

    slope = _slope(ys)
    if bootstrap_reps <= 0 or replicates is None:
        return slope, (slope, slope)
    reps = np.asarray(replicates, dtype=float)
    if reps.shape[0] != xs.size:
        raise WassersteinError("replicate matrix must have one row per x")
    rng = np.random.default_rng(seed)
    r = reps.shape[1]
    slopes = []
    for _ in range(bootstrap_reps):
        pick = rng.integers(0, r, size=r)
        m = reps[:, pick].mean(axis=1)
        if np.any(m <= 0):
            continue
        slopes.append(_slope(m))
    if not slopes:
        raise WassersteinError("no bootstrap resample has positive means")
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return slope, (float(lo), float(hi))

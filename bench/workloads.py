"""The benchmark's workloads: pinned CLI configs made from a seed, and the
invariant checks every output must pass.

A workload is a round of operations. An operation is one ``levyedge``
CLI invocation together with its output checks. The two workloads split
the program where it splits itself, so that a change to one side is
exercised by one workload and bypassed by the other:

- ``rate-experiments``: the numeric rate experiments at pinned configs,
  scaled down from the acceptance shapes so that one takes a few
  seconds. ``jump-coupling`` in the C7 measure (q = 2, alpha = 1.5) at
  one replicate, eps 2^-1..2^-3, n = 1200 (a few large jump batches plus
  the assignment solve, at about the C7 split between them: jump kernel,
  scatter, W_p, memory); ``sde-convergence`` in the C8 shape at M = 16,
  h 2^-3..2^-5 (~6k small compound-Poisson calls and Euler stepping:
  per-call overhead); and ``clt-rate`` in C5 Gaussian mode, then the C6
  exact-quantile path (no jumps, no assignment).
- ``symbolic-build``: ``edgeworth-build`` over a (q, r) grid of about a
  second per point on random rational cumulant files; exact polycore,
  edgeworth and perturbation work that the numeric experiments do not
  reach, and no numpy layer.

Operations are kept short so that a run holds many rounds: the
per-operation median over rounds then discards the rounds that a burst
of load from other guests on a shared host slowed down, which one long
operation cannot do. The experiments share one workload, rather than
one each, so that each run can be long; each operation's time is still
printed.

Statistical slopes of jump-coupling and sde-convergence are reported but
not gated: at benchmark sizes they sit near the edge of the C7/C8 bands.
The tier-1 tests keep those gates.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

JUMP_EPS = [2.0 ** -1, 2.0 ** -2, 2.0 ** -3]
JUMP_REPLICATES = 1
JUMP_SAMPLES = 1200
SDE_H = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
SDE_REPLICATES = 16
CLT_M = [16, 64, 256, 1024]
CLT_SAMPLES = 100_000
CLT_REPLICATES = 20
CLT_GAUSSIAN_BAND = (-0.65, -0.35)   # C5
CLT_PERTURBED_BAND = (-1.25, -0.75)  # C6
SYMBOLIC_GRID = [(2, 4), (3, 3), (4, 2), (2, 5)]  # (q, r); cumulant order r + 2

#: spans that draw jumps or solve an assignment; none may occur on the
#: workloads that bypass those layers
JUMP_SPANS = ["levy.sample_interval", "levy.sample_radius", "levy.AnnulusDecomposition",
              "sampling.sample_compound_poisson", "sampling.sample_small_jumps"]
ASSIGNMENT_SPANS = ["wasserstein.wp_empirical"]


@dataclass
class Op:
    """One CLI invocation: its config, side files, and output check."""

    name: str
    experiment: str
    config: str
    check: Callable[[str], Tuple[List[str], Dict[str, float]]]
    files: Dict[str, str] = field(default_factory=dict)
    #: exact span counts the config implies, checked on traced runs
    expect_calls: Dict[str, int] = field(default_factory=dict)
    expect_zero: List[str] = field(default_factory=list)


def _fmt(values) -> str:
    return ",".join(repr(v) for v in values)


def _measure(q: int) -> str:
    return f"kind = stable-like\nq = {q}\nalpha = 1.5\ntau = 1\n"


# ----------------------------------------------------------------- checks

def _number(cell: str, what: str, problems: List[str]) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        problems.append(f"{what} {cell!r} is not a finite number")
    return value


def _slope(row: list, width: int, tag: str, problems: List[str]) -> float:
    if len(row) != width or row[0] != "slope" or row[-1] != tag:
        problems.append(f"bad slope row {row}")
        return math.nan
    return _number(row[1], "slope", problems)


def _check_table(text, header, n_rows, distance_col, slope_width, band=None):
    """Header, row count, positive finite distances, then the slope row."""
    problems: List[str] = []
    rows = list(csv.reader(text.splitlines()))[1:]  # the runner checks the hash line
    if not rows or rows[0] != header:
        return [f"header {rows[:1]} != {header}"], {}
    body, tail = rows[1:-1], rows[-1]
    if len(body) != n_rows:
        problems.append(f"{len(body)} data rows, expected {n_rows}")
    for row in body:
        if len(row) != len(header):
            problems.append(f"row {row} does not match the header")
        elif _number(row[distance_col], "distance", problems) <= 0:
            problems.append(f"distance {row[distance_col]} is not > 0")
    slope = _slope(tail, slope_width, "rate", problems)
    if band is not None and not band[0] <= slope <= band[1]:
        problems.append(f"slope {slope} outside {band}")
    return problems, {"slope": slope}


def _check_symbolic(q: int, r: int):
    order = r + 2
    n_moments = math.comb(q + order, q) - 1  # multi-indices of total degree 1..order

    def check(text: str):
        lines = text.splitlines()[1:]
        problems = []
        if not lines or lines[0] != f"dimension {q}  order {order}  r {r}":
            problems.append(f"bad first line {lines[:1]}")
        counts = {
            "P_": r, "Q_": r, "u_": r, "p_": r * q, "residual_": r, "  alpha=": n_moments,
        }
        for prefix, want in counts.items():
            got = sum(1 for ln in lines if ln.startswith(prefix))
            if got != want:
                problems.append(f"{got} lines start with {prefix!r}, expected {want}")
        if sum(1 for ln in lines if ln.startswith("residual_") and ln.endswith(": 0 (exact)")) != r:
            problems.append("a residual is not exactly zero")
        for want in ("residual check: all zero (exact)", "moment check: all equal (exact)"):
            if want not in lines:
                problems.append(f"missing {want!r}")
        return problems, {}

    return check


# --------------------------------------------------------------- cumulants

def multi_indices(q: int, total: int):
    for combo in itertools.combinations_with_replacement(range(q), total):
        alpha = [0] * q
        for j in combo:
            alpha[j] += 1
        yield tuple(alpha)


def random_cumulant_text(rng: random.Random, q: int, order: int) -> str:
    """A random rational cumulant set with diagonal integer covariance.

    Cumulants of order 3 and up are n/d with n in [-5, 5] and d in [1, 4];
    variances are integers in [1, 3] and covariances are zero, so the
    whole symbolic pipeline stays in exact rationals.
    """
    mu = {}
    for total in range(2, order + 1):
        for alpha in multi_indices(q, total):
            mu[alpha] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    for alpha in multi_indices(q, 2):
        mu[alpha] = Fraction(rng.randint(1, 3)) if max(alpha) == 2 else Fraction(0)
    return "".join(" ".join(map(str, a)) + f" {c}\n" for a, c in sorted(mu.items()))


# --------------------------------------------------------------- workloads

def _jump_coupling() -> Op:
    config = _measure(2) + (
        f"eps_list = {_fmt(JUMP_EPS)}\nn_samples = {JUMP_SAMPLES}\n"
        f"replicates = {JUMP_REPLICATES}\np = 2\nt_factor = 1\n"
    )
    n = len(JUMP_EPS) * JUMP_REPLICATES
    return Op(
        "jump-coupling", "jump-coupling", config,
        lambda text: _check_table(text, ["eps", "t", "p", "distance", "replicate"], n, 3, 7),
        expect_calls={"sampling.sample_small_jumps": n, "wasserstein.wp_empirical": n},
    )


def _sde_convergence() -> Op:
    config = _measure(2) + (
        f"d = 2\nh_list = {_fmt(SDE_H)}\nreplicates = {SDE_REPLICATES}\n"
        "fine_substeps = 16\ncoupling_style = radial\nsigma = contractive\n"
    )
    n = len(SDE_H)
    return Op(
        "sde-convergence", "sde-convergence", config,
        lambda text: _check_table(text, ["h", "eps", "replicates", "rms_sup_error"], n, 3, 4),
        expect_calls={"sde.coupled_paths": n},
    )


def _clt_rate() -> List[Op]:
    header = ["m", "p", "mode", "distance", "replicate"]
    common = f"law = centered-exponential\nm_list = {_fmt(CLT_M)}\np = 2\n"
    gaussian = common + (
        f"mode = gaussian\nn_samples = {CLT_SAMPLES}\nreplicates = {CLT_REPLICATES}\n"
    )
    perturbed = common + "mode = perturbed\nn = 4\n"
    bypass = JUMP_SPANS + ASSIGNMENT_SPANS
    return [
        Op("clt-gaussian", "clt-rate", gaussian,
           lambda text: _check_table(text, header, len(CLT_M) * CLT_REPLICATES, 3, 7,
                                     CLT_GAUSSIAN_BAND),
           expect_zero=bypass),
        Op("clt-perturbed", "clt-rate", perturbed,
           lambda text: _check_table(text, header, len(CLT_M), 3, 7, CLT_PERTURBED_BAND),
           expect_zero=bypass),
    ]


def rate_experiments(seed: int) -> List[Op]:
    """The configs are fixed; the seed reaches the CLI as --seed."""
    return [_jump_coupling(), _sde_convergence(), *_clt_rate()]


def symbolic_build(seed: int) -> List[Op]:
    """One random cumulant file per grid point, drawn from the seed."""
    rng = random.Random(seed)
    ops = []
    for q, r in SYMBOLIC_GRID:
        cum = f"q{q}_r{r}.cum"
        ops.append(Op(
            f"edgeworth-q{q}-r{r}", "edgeworth-build", f"cumulants = {cum}\nr = {r}\n",
            _check_symbolic(q, r),
            files={cum: random_cumulant_text(rng, q, r + 2)},
            expect_zero=JUMP_SPANS + ASSIGNMENT_SPANS,
        ))
    return ops


WORKLOADS = {
    "rate-experiments": rate_experiments,
    "symbolic-build": symbolic_build,
}

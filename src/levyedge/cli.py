"""Experiment harness: named rate experiments behind one command.

Experiments reproduce the headline convergence rates (central-limit
distance decay, plain and perturbed; small-jump Gaussian substitution;
SDE strong error) and expose the symbolic pipeline (expansion build,
smoothness probe).  Configs are flat ``key = value`` text; outputs are
RFC-4180 CSV (or plain text for the symbolic dumps) stamped with a hash
of the effective configuration, and a re-run with the same config and
seed is byte-identical apart from the optional timestamp line.

Exit codes: 0 success, 2 configuration or argument error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from .edgeworth import (
    CumulantSet,
    EdgeworthError,
    _hermite_form,
    build_P,
    build_Q,
    edgeworth_signed_moments,
    scaled_sum_moments,
)
from .laws import LawError, make_law
from .levy import (
    AnnulusDecomposition,
    LevyError,
    cramer_amplify,
    cramer_probe,
    measure_from_config,
)
from .perturbation import PerturbationError, invert_S_map
from .polycore import PolynomialError, coefficient_text
from .sampling import (
    RngStream,
    SamplingError,
    sample_gaussian,
    sample_perturbed_normal,
    sample_small_jumps,
    sym_sqrt,
)
from .sde import SchemeConfig, SdeError, SdeSpec, coupled_paths
from .wasserstein import (
    MAX_ASSIGNMENT_SIZE,
    WassersteinError,
    _wp_1d_in_place,
    rate_fit,
    wp_1d_exact,
    wp_empirical,
)


class ConfigError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    pass


#: most expected jumps one jump-coupling or sde-convergence run may draw,
#: summed over its eps or h and its samples or replicates; the default
#: configurations need about 1.75e9 and 1.2e9
MAX_TOTAL_JUMPS = 2e10

#: most samples per clt-rate replicate: a worker thread's workspace holds
#: three (n_samples, q) float arrays, 384 MiB at the cap for q = 1, and in
#: perturbed mode three (n_samples,) float arrays more, another 384 MiB
MAX_CLT_SAMPLES = 1 << 24

#: most grid points of one probe-cramer run: conditional_char makes
#: (grid_n, 400) float arrays, 32 MB each at the cap; a q = 2 run at the
#: cap peaks about 160 MB above the import
MAX_GRID_POINTS = 10_000


_NUMERIC_ERRORS = (
    EdgeworthError,
    PerturbationError,
    PolynomialError,
    LevyError,
    SamplingError,
    WassersteinError,
    SdeError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


# ---------------------------------------------------------------- config

def parse_config_text(text: str) -> Dict[str, str]:
    """Flat key = value lines; '#' comments and [section] markers ignored."""
    out: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def load_config(path: Optional[str]) -> Dict[str, str]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_hash(experiment: str, cfg: Dict[str, str], seed: int) -> str:
    canon = "\n".join(
        [f"experiment={experiment}", f"seed={seed}"]
        + [f"{k}={cfg[k]}" for k in sorted(cfg)]
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _get_float_list(cfg, key, default):
    raw = cfg.get(key, default)
    try:
        vals = [float(x) for x in str(raw).replace(" ", "").split(",") if x != ""]
    except ValueError as exc:
        raise ConfigError(f"{key} must be a comma list of numbers") from exc
    if not vals:
        raise ConfigError(f"{key} must be non-empty")
    return vals


def _get_grid(cfg, key, default):
    """A comma list of at least 3 numbers: the points of a rate fit."""
    vals = _get_float_list(cfg, key, default)
    if len(vals) < 3:
        raise ConfigError(f"{key} needs at least 3 points for the rate fit")
    return vals


def _get_int(cfg, key, default):
    try:
        return int(cfg.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer") from exc


def _get_float(cfg, key, default):
    try:
        return float(cfg.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number") from exc


def _check_jump_budget(jumps: float, advice: str) -> None:
    """Refuse a run whose expected jump count exceeds MAX_TOTAL_JUMPS."""
    if not jumps <= MAX_TOTAL_JUMPS:
        raise ConfigError(f"the run needs about {jumps:.3g} jumps, over the budget of "
                          f"{MAX_TOTAL_JUMPS:.3g}; {advice}")


def _check_even_p(p: float) -> int:
    if not math.isfinite(p) or p != int(p) or int(p) <= 0 or int(p) % 2:
        raise ConfigError("p must be a positive even integer")
    return int(p)


# ---------------------------------------------------------------- output

def _existing_hash(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            row = next(csv.reader(fh), None)
    except OSError:
        return None
    if row and len(row) >= 2 and row[0] == "config_hash":
        return row[1]
    return None


def _check_hash_guard(path: Optional[str], chash: str, force: bool) -> None:
    """Refuse to overwrite an output stamped with a different config hash."""
    if path is None or force:
        return
    prev = _existing_hash(path)
    if prev is not None and prev != chash:
        raise ConfigError(
            f"output {path} carries config hash {prev}, current run is {chash}; "
            "pass --force to overwrite"
        )


def _open_out(path: Optional[str], chash: str, force: bool):
    if path is None:
        return sys.stdout, False
    _check_hash_guard(path, chash, force)
    try:
        return open(path, "w", encoding="utf-8", newline=""), True
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _emit(result: list, kind: str, chash: str, no_timestamp: bool,
          out_path: Optional[str], force: bool) -> None:
    """The hash line, the optional timestamp, then CSV rows or text lines."""
    fh, close = _open_out(out_path, chash, force)
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["config_hash", chash])
        if not no_timestamp:
            w.writerow(["timestamp", datetime.datetime.now(datetime.timezone.utc).isoformat()])
        for item in result:
            if kind == "csv":
                w.writerow(item)
            else:
                fh.write(item + "\n")
    finally:
        if close:
            fh.close()


def _parallel(fn, jobs, threads: int):
    if threads <= 1:
        return [fn(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


#: the last row of clt-rate and jump-coupling when a mean distance is 0: no log-log fit
DEGENERATE_SLOPE_ROW = ["slope", "nan", "ci_lo", "nan", "ci_hi", "nan", "degenerate"]


# ------------------------------------------------------------ clt-rate

def run_clt_rate(cfg: Dict[str, str], seed: int, threads: int) -> List[list]:
    law_name = cfg.get("law", "centered-exponential")
    mode = cfg.get("mode", "gaussian")
    if mode not in ("gaussian", "perturbed"):
        raise ConfigError("mode must be gaussian or perturbed")
    try:
        law = make_law(law_name)
    except LawError as exc:
        raise ConfigError(str(exc)) from exc
    m_vals = _get_grid(cfg, "m_list", "16,64,256,1024")
    if not all(map(math.isfinite, m_vals)):
        raise ConfigError("m_list entries must be finite")
    if not all(v.is_integer() for v in m_vals):
        raise ConfigError("m_list entries must be integers")
    m_list = [int(v) for v in m_vals]
    if any(m < 1 for m in m_list):
        raise ConfigError("m_list entries must be positive")
    p = _check_even_p(_get_float(cfg, "p", 2))
    n = _get_int(cfg, "n_samples", 100_000)
    reps = _get_int(cfg, "replicates", 20)
    target = _get_int(cfg, "n", 4)  # moment-match order of the perturbed reference
    if reps < 1 or n < 2:
        raise ConfigError("replicates must be >= 1 and n_samples >= 2")
    if n > MAX_CLT_SAMPLES:
        raise ConfigError(f"n_samples {n} exceeds the sample cap {MAX_CLT_SAMPLES}")
    if law.dimension > 1 and n > MAX_ASSIGNMENT_SIZE:
        raise ConfigError(
            f"n_samples {n} exceeds the assignment cap {MAX_ASSIGNMENT_SIZE} "
            f"for {law.dimension}-dimensional laws"
        )

    root = RngStream(seed, 0)
    sigma = law.cumulants.covariance_array()
    pmap = None
    r_order = target - 3
    if mode == "perturbed":
        if r_order < 1:
            raise ConfigError("perturbed mode needs n >= 4")
        if target > law.cumulants.order + 1:
            raise ConfigError(f"perturbed mode with n = {target} needs cumulants up to order "
                              f"{target - 1}; {law_name} has them up to {law.cumulants.order}")
        Q = build_Q(law.cumulants, r_order)
        pmap = invert_S_map(Q, law.cumulants.gaussian)

    rows: List[list] = [["m", "p", "mode", "distance", "replicate"]]
    exact_quantile = (
        mode == "perturbed" and law.dimension == 1 and law.sum_quantile is not None and p == 2
    )
    if exact_quantile:
        # both sides are exact quantile functions of the normal score: no sampling floor
        per_m_reps = []
        for m in m_list:
            def qref(z, eps=1.0 / math.sqrt(m)):
                # the map at xi = z sqrt(sigma): each p_k(xi), then scaled
                # by eps^k, as sample_perturbed_normal adds them
                xi = (z * math.sqrt(sigma[0, 0]))[:, None]
                x = xi[:, 0].copy()
                for k, pk in enumerate(pmap.gradients, start=1):
                    x += pk[0](xi) * eps ** k
                return x

            w = wp_1d_exact(law.sum_quantile(m), qref, p)
            per_m_reps.append([w])
            rows.append([m, p, mode, repr(w), 0])
    else:
        # each worker thread draws every replicate it runs into its own
        # three (n, q) buffers: the sum, the reference and the standard
        # normals under it, and in perturbed mode evaluates the map into
        # three (n,) buffers more; no buffer is freed and faulted in again
        local = threading.local()
        sigma_root = sym_sqrt(sigma)  # one eigendecomposition for every replicate

        def one(job):
            mi, rep = job
            if not hasattr(local, "ws"):
                local.ws = np.empty((3, n, law.dimension))
                local.work = np.empty((3, n)) if pmap is not None else None
            ws, work = local.ws, local.work
            m = m_list[mi]
            g = root.child(rep, mi, "clt").generator
            ym = law.sample_sum(m, n, g, out=ws[0])
            if mode == "gaussian":
                ref = sample_gaussian(sigma_root, g, n, out=ws[1], scratch=ws[2])
            else:
                ref = sample_perturbed_normal(pmap, 1.0 / math.sqrt(m), r_order, g, n,
                                              out=ws[1], scratch=ws[2], work=work,
                                              root=sigma_root)
            if law.dimension == 1:
                return _wp_1d_in_place(ym[:, 0], ref[:, 0], p)
            return wp_empirical(ym, ref, p)

        # one pool for every (m, replicate): a thread keeps its buffers
        # across the m values
        flat = _parallel(one, [(mi, rep) for mi in range(len(m_list)) for rep in range(reps)],
                         threads)
        per_m_reps = [flat[mi * reps:(mi + 1) * reps] for mi in range(len(m_list))]
        for m, vals in zip(m_list, per_m_reps):
            for rep, v in enumerate(vals):
                rows.append([m, p, mode, repr(float(v)), rep])
    mat = np.array(per_m_reps)
    means = mat.mean(axis=1)
    if not np.all(means > 0):
        # the reference is the law itself, as for the gaussian law in
        # perturbed mode, whose every p_k is zero
        rows.append(DEGENERATE_SLOPE_ROW)
        return rows
    boot = mat.shape[1] > 1
    slope, ci = rate_fit(m_list, means, bootstrap_reps=200 if boot else 0,
                         replicates=mat if boot else None, seed=seed)
    null_case = law_name == "gaussian" and mode == "gaussian"
    rows.append(["slope", repr(slope), "ci_lo", repr(ci[0]), "ci_hi", repr(ci[1]),
                 "null_case" if null_case else "rate"])
    return rows


# -------------------------------------------------------- jump-coupling

def run_jump_coupling(cfg: Dict[str, str], seed: int, threads: int) -> List[list]:
    try:
        meas = measure_from_config(cfg)
    except (LevyError, KeyError, ValueError) as exc:
        raise ConfigError(f"bad measure config: {exc}") from exc
    eps_list = _get_grid(cfg, "eps_list", "0.125,0.0625,0.03125,0.015625")
    p = _check_even_p(_get_float(cfg, "p", 2))
    n = _get_int(cfg, "n_samples", 2000)
    reps = _get_int(cfg, "replicates", 20)
    if reps < 1 or n < 2:
        raise ConfigError("replicates must be >= 1 and n_samples >= 2")
    t_factor = _get_float(cfg, "t_factor", 1.0)  # t = t_factor * eps; theorem needs t >= eps
    if not t_factor >= 1.0:
        raise ConfigError("t_factor must be >= 1 (coupling bound needs t >= eps)")
    if n > MAX_ASSIGNMENT_SIZE:
        raise ConfigError(f"n_samples exceeds the assignment cap {MAX_ASSIGNMENT_SIZE}")
    if any(not 0 < e <= meas.tau for e in eps_list):
        raise ConfigError("eps_list must lie in (0, tau]")

    # a decomposition draws nothing: an eps over the intensity budget, or
    # a run over the total jump budget, fails before any sampling
    decs = [AnnulusDecomposition(meas, eps) for eps in eps_list]
    jumps = sum(t_factor * eps * dec.intensity for eps, dec in zip(eps_list, decs)) * n * reps
    _check_jump_budget(jumps, "use a smaller t_factor, fewer samples or replicates, or larger eps")
    root = RngStream(seed, 1)
    rows: List[list] = [["eps", "t", "p", "distance", "replicate"]]
    per_eps = []
    for ei, (eps, dec) in enumerate(zip(eps_list, decs)):
        # Sigma_eps = s^2 I: the surrogate is a scaled standard normal
        s = math.sqrt(meas.small_jump_variance(eps))
        t = t_factor * eps

        def one(rep, ei=ei, dec=dec, s=s, t=t):
            g = root.child(rep, ei, "jump").generator
            z = sample_small_jumps(dec, t, g, n)
            ref = math.sqrt(t) * (g.standard_normal((n, meas.dimension)) * s)
            if meas.dimension == 1:
                return wp_1d_exact(z[:, 0], ref[:, 0], p)
            return wp_empirical(z, ref, p)

        vals = _parallel(one, range(reps), threads)
        for rep, v in enumerate(vals):
            rows.append([eps, t, p, repr(float(v)), rep])
        per_eps.append(vals)
    mat = np.array(per_eps)
    means = mat.mean(axis=1)
    if np.all(means > 0):
        slope, ci = rate_fit(eps_list, means, bootstrap_reps=200, replicates=mat, seed=seed)
        rows.append(["slope", repr(slope), "ci_lo", repr(ci[0]), "ci_hi", repr(ci[1]), "rate"])
    else:
        rows.append(DEGENERATE_SLOPE_ROW)
    return rows


# ------------------------------------------------------ sde-convergence

def _sigma_builtin(name: str, d: int, q: int):
    if name == "contractive":
        def fn(x):
            m = x.shape[0]
            n2 = (x ** 2).sum(axis=1)
            base = 0.6 + 0.4 / (1.0 + n2)
            s = np.zeros((m, d, q))
            for j in range(min(d, q)):
                s[:, j, j] = base
            if d >= 2 and q >= 2:
                s[:, 0, 1] = 0.1 / (1.0 + n2)
                s[:, 1, 0] = 0.1 / (1.0 + n2)
            return s
        return fn
    if name == "zero":
        return lambda x: np.zeros((x.shape[0], d, q))
    if name == "constant":
        eye = np.eye(d, q)
        return lambda x: np.tile(eye, (x.shape[0], 1, 1))
    raise ConfigError(f"unknown sigma builtin {name!r}")


def run_sde_convergence(cfg: Dict[str, str], seed: int, threads: int) -> List[list]:
    try:
        meas = measure_from_config(cfg)
    except (LevyError, KeyError, ValueError) as exc:
        raise ConfigError(f"bad measure config: {exc}") from exc
    q = meas.dimension
    d = _get_int(cfg, "d", q)
    h_list = _get_grid(cfg, "h_list", "0.0625,0.03125,0.015625,0.0078125")
    M = _get_int(cfg, "replicates", 256)
    sub = _get_int(cfg, "fine_substeps", 16)
    if cfg.get("coupling_style", "radial") != "radial":
        raise ConfigError("coupling_style must be radial")
    sigma_name = cfg.get("sigma", "contractive")
    T = _get_float(cfg, "T", 1.0)
    drift = _get_float(cfg, "drift", 0.1)
    bscale = _get_float(cfg, "b_scale", 0.3)
    if not (math.isfinite(drift) and math.isfinite(bscale)):
        raise ConfigError("drift and b_scale must be finite numbers")
    if d < 1:
        raise ConfigError("d must be >= 1")
    if M < 2:
        raise ConfigError("replicates must be >= 2 (the coupling pairs replicates)")
    if not (math.isfinite(T) and T > 0):
        raise ConfigError("T must be a positive number")
    if any(not 0 < h <= meas.tau for h in h_list):
        raise ConfigError("h_list must lie in (0, tau]")
    # every h is checked, sizes included, before the first one runs
    try:
        schemes = [SchemeConfig(h=h, fine_substeps=sub) for h in h_list]
        for scfg in schemes:
            scfg.check_size(T, M, d, q)
    except SdeError as exc:
        raise ConfigError(str(exc)) from exc
    # as in jump-coupling, an h over the intensity budget, or a run over
    # the total jump budget, fails before any sampling
    decs = [AnnulusDecomposition(meas, h) for h in h_list]
    jumps = sum(dec.intensity + meas.big_jump_mass(h) for h, dec in zip(h_list, decs)) * M * T
    _check_jump_budget(jumps, "use fewer replicates, a shorter horizon or larger h")
    a = drift * np.array([1.0, -1.0] * (q // 2) + [1.0] * (q % 2))[:q]
    spec = SdeSpec(
        d=d, a=a, B=bscale * np.eye(q), sigma_fn=_sigma_builtin(sigma_name, d, q),
        x0=np.zeros(d), T=T, measure=meas,
    )
    rows: List[list] = [["h", "eps", "replicates", "rms_sup_error"]]
    rms = []
    for hi, (h, scfg, dec) in enumerate(zip(h_list, schemes, decs)):
        rng = RngStream(seed, 100 + hi)
        # paths that overflow give an inf or NaN RMS, refused below as a
        # numerical failure; numpy's overflow warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            res = coupled_paths(spec, scfg, dec, M, rng)
            r = float(np.sqrt(np.mean(res.sup_distance ** 2)))
        rms.append(r)
        rows.append([h, h, M, repr(r)])
    if not all(map(math.isfinite, rms)):
        raise NumericalFailure("an RMS sup-error is not finite: the paths overflowed")
    if all(r > 0 for r in rms):
        slope, _ = rate_fit(h_list, rms)
        rows.append(["slope", repr(slope), "", "rate"])
    else:
        rows.append(["slope", "0", "", "exact-coincidence"])
    return rows


# ------------------------------------------------------ edgeworth-build

def run_edgeworth_build(cfg: Dict[str, str], seed: int, threads: int) -> List[str]:
    if "cumulants" in cfg:
        try:
            with open(cfg["cumulants"], "r", encoding="utf-8") as fh:
                cset = CumulantSet.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read cumulant file: {exc}") from exc
        except EdgeworthError as exc:
            raise ConfigError(f"bad cumulant file: {exc}") from exc
    elif "law" in cfg:
        try:
            cset = make_law(cfg["law"]).cumulants
        except LawError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError("edgeworth-build needs cumulants=PATH or law=NAME")
    r = _get_int(cfg, "r", 1)
    if r < 1:
        raise ConfigError("r must be >= 1")
    if cset.order < r + 2:
        raise ConfigError(f"cumulant set of order {cset.order} cannot support r={r}")

    lines = [f"dimension {cset.dimension}  order {cset.order}  r {r}", ""]
    P = build_P(cset, r)
    Q = _hermite_form(cset, P)
    for k in range(1, r + 1):
        lines.append(f"P_{k}(y) = {P[k - 1].to_text()}")
    lines.append("")
    for k in range(1, r + 1):
        lines.append(f"Q_{k}(x) = {Q[k - 1].to_text()}")
    lines.append("")
    pmap = invert_S_map(Q, cset.gaussian)
    all_zero = True
    for k in range(1, r + 1):
        u = pmap.potentials[k - 1]
        lines.append(f"u_{k}(x) = {u.to_text()}")
        for j, g in enumerate(pmap.gradients[k - 1]):
            lines.append(f"p_{k},{j + 1}(x) = {g.to_text()}")
        # Q_k - S~_k - L_Sigma u_k, with the L_Sigma u_k that the build checked
        resid = Q[k - 1] - pmap.s_tilde[k - 1] - pmap.l_sigma[k - 1]
        zero = resid.is_zero()
        lines.append(f"residual_{k}: {'0 (exact)' if zero else resid.to_text()}")
        all_zero = all_zero and zero
    lines.append("")
    lines.append(f"residual check: {'all zero (exact)' if all_zero else 'FAILED'}")
    if not all_zero:
        raise NumericalFailure("nonzero residual in the eigenfunction solve")

    # moment-match report: signed expansion density vs normalized sum, at
    # a perfect-square m, so both are exact rationals
    m_probe = _get_int(cfg, "m_probe", 100)
    if m_probe < 1 or math.isqrt(m_probe) ** 2 != m_probe:
        raise ConfigError("m_probe must be a positive perfect square")
    eps = Fraction(1, math.isqrt(m_probe))
    order = min(cset.order, r + 2)
    left = edgeworth_signed_moments(cset, Q, eps, order)
    right = scaled_sum_moments(cset, m_probe, order)
    lines.append(f"moment match at m = {m_probe} up to order {order}:")
    ok = True
    for alpha in sorted(left):
        l, rgt = left[alpha], right.get(alpha, 0)
        match = l == rgt
        ok = ok and match
        lines.append(f"  alpha={alpha}  expansion={coefficient_text(l)}  "
                     f"sum={coefficient_text(rgt)}  {'ok' if match else 'MISMATCH'}")
    lines.append(f"moment check: {'all equal (exact)' if ok else 'FAILED'}")
    if not ok:
        raise NumericalFailure("moment matching failed")
    return lines


# -------------------------------------------------------- probe-cramer

def run_probe_cramer(cfg: Dict[str, str], seed: int, threads: int) -> List[str]:
    try:
        meas = measure_from_config(cfg)
    except (LevyError, KeyError, ValueError) as exc:
        raise ConfigError(f"bad measure config: {exc}") from exc
    r = _get_int(cfg, "r", 4)
    try:
        a, b = meas.annulus_bounds(r)
        math.ldexp(1.0, r)  # the 2^r rescaling of the annulus law
    except OverflowError as exc:
        raise ConfigError(f"annulus index r = {r} is out of the float range") from exc
    if not a < b:
        raise ConfigError(f"annulus r = {r}, radii [2^-(r+1), 2^-r], is empty "
                          f"in (0, tau = {meas.tau}]")
    # the quadrature weighs the radial density on the annulus, largest at
    # its inner radius for a power law
    with np.errstate(over="ignore", divide="ignore"):
        inner = meas.radial_mass_density(np.array([a]))[0]
    if not math.isfinite(inner):
        raise ConfigError(f"annulus index r = {r}: the radial density at its inner radius "
                          f"{a!r} is out of the float range")
    if not meas.interval_mass(a, b) > 0:
        raise ConfigError(f"annulus r = {r}, radii [{a!r}, {b!r}], carries no mass")
    rho = _get_float(cfg, "rho", 8.0)
    lo = _get_float(cfg, "grid_lo", rho)
    hi = _get_float(cfg, "grid_hi", 60.0)
    npts = _get_int(cfg, "grid_n", 200)
    if not all(map(math.isfinite, (rho, lo, hi))):
        raise ConfigError("rho, grid_lo and grid_hi must be finite numbers")
    if lo < rho or hi <= lo or npts < 2:
        raise ConfigError("grid must satisfy rho <= grid_lo < grid_hi, grid_n >= 2")
    if npts > MAX_GRID_POINTS:
        raise ConfigError(f"grid_n {npts} exceeds the grid cap {MAX_GRID_POINTS}")
    delta = _get_float(cfg, "delta", 0.1) if "delta" in cfg else None
    if delta is not None and not 0 < delta < min(rho, 1.0):
        raise ConfigError("delta must lie in (0, min(rho, 1))")
    grid = np.linspace(lo, hi, npts)
    gamma = cramer_probe(meas, r, rho, grid)
    lines = [
        f"annulus index r = {r}",
        f"grid [{lo}, {hi}] with {npts} points, rho = {rho}",
        f"sup |char| over grid = {gamma!r}",
    ]
    if gamma >= 1.0:
        raise NumericalFailure("characteristic probe did not certify decay (sup >= 1)")
    if delta is not None:
        gbar = cramer_amplify(rho, gamma, delta)
        lines.append(f"amplified bound on |s| >= {delta}: gamma_bar = {gbar!r}")
    return lines


# ----------------------------------------------------------------- main

_EXPERIMENTS = {
    "clt-rate": (run_clt_rate, "csv"),
    "jump-coupling": (run_jump_coupling, "csv"),
    "sde-convergence": (run_sde_convergence, "csv"),
    "edgeworth-build": (run_edgeworth_build, "text"),
    "probe-cramer": (run_probe_cramer, "text"),
}


#: the one parser, built at import so no call of main builds another
_PARSER = argparse.ArgumentParser(prog="levyedge", description=__doc__)
_PARSER.add_argument("experiment", choices=list(_EXPERIMENTS), metavar="EXPERIMENT",
                     help=" | ".join(_EXPERIMENTS))
_PARSER.add_argument("--config", metavar="PATH", help="flat key = value config file")
_PARSER.add_argument("--seed", type=int, default=0, metavar="INT",
                     help="master seed (u64), default 0")
_PARSER.add_argument("--out", metavar="PATH", help="output path (default stdout)")
_PARSER.add_argument("--threads", type=int, default=1, metavar="INT",
                     help="replicate worker threads, default 1")
_PARSER.add_argument("--no-timestamp", action="store_true",
                     help="suppress the timestamp line for byte-identical re-runs")
_PARSER.add_argument("--force", action="store_true",
                     help="overwrite outputs whose config hash differs")


def main(argv=None) -> int:
    args = vars(_PARSER.parse_args(argv))
    runner, kind = _EXPERIMENTS[args["experiment"]]
    try:
        cfg = load_config(args["config"])
        seed = args["seed"] & ((1 << 64) - 1)
        chash = config_hash(args["experiment"], cfg, seed)
        # surface hash conflicts before doing any work
        _check_hash_guard(args["out"], chash, args["force"])
        result = runner(cfg, seed, max(1, args["threads"]))
        _emit(result, kind, chash, args["no_timestamp"], args["out"], args["force"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure,) + _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: config parsing, hashing, exit codes, CSV output."""

import csv
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyedge import cli, edgeworth, laws, perturbation, polycore, sampling
from levyedge.edgeworth import multi_indices
from levyedge.levy import AnnulusDecomposition, StableLikeMeasure


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MEASURE = "kind = stable-like\nq = 2\nalpha = 1.5\n"

#: small configs, one per replicated experiment; {reps} is the replicate count
TINY = {
    "clt-rate": "law = centered-exponential\nm_list = 4,16,64\n"
                "n_samples = 200\nreplicates = {reps}\n",
    "jump-coupling": MEASURE + "eps_list = 0.5,0.25,0.125\nn_samples = 64\n"
                     "replicates = {reps}\n",
    "sde-convergence": MEASURE + "h_list = 0.25,0.125,0.0625\nreplicates = {reps}\n"
                       "fine_substeps = 2\nT = 0.5\ncoupling_style = radial\n",
}


#: sha256 of the --no-timestamp output at --seed 9 of each GOLDEN_CASES
#: config.  A change that reorders random draws changes these on purpose,
#: and CHANGES.md says so.
GOLDEN = {
    "jump-coupling": "d850d9346d9814859da6700773aaa2e0d6b89966fb4f0fcdf5308a2e15645b31",
    "sde-convergence": "094764d6b3c8e17155ed89cd9a3c7c552e641f6ac0fb039f9664b0c7319eb548",
    "clt-rate-perturbed": "0e326a000259a9c1628a4dc0defb31264e24bd9970b10d4ceb791b1c0b5a9102",
    "edgeworth-build": "cd0e17870c960713cdce6f29f280cda43952a733f8dfab1d3b20dfa66451a489",
    "edgeworth-build-sigma": "00146694405456e9158ea7530adb1a22dd1171eeeef966308e673f109ccde8fc",
    "edgeworth-build-q2-r5": "49e03098ef8458dbd5919832e8a24182fc51be1eb821d06316719ddf01f5edcc",
    "edgeworth-build-q4-r2-sigma": "3a222d147179b5daf444bd9dd693cdc05562b9751f1653165299358a79d7bb48",
    "clt-rate-sampled-perturbed": "9aee91c58af4ff161a31d37e0b89945e27ca8092db56068a906ac26976435f71",
    "clt-rate-sampled-gaussian": "41cdb89ef8055a859f1ec090fdcf4a1a5b2cf2ff989b29fc0c5661eaf024b902",
}
EDGEWORTH_R3 = "law = centered-exponential\nr = 3\n"
#: q = 3 rational cumulants up to order 5 with a non-diagonal covariance
SIGMA_CUM = (
    "2 0 0 2\n1 1 0 1/2\n1 0 1 0\n0 2 0 1\n0 1 1 1/3\n0 0 2 3/2\n"
    "3 0 0 1\n1 1 1 -1/2\n0 2 1 1/3\n0 0 3 2/3\n"
    "4 0 0 -1\n2 2 0 1/4\n0 1 3 1/2\n"
    "5 0 0 1/2\n1 2 2 -1/3\n0 0 5 1/5\n"
)


def formula_cumulants(q: int, order: int, cov) -> str:
    """A cumulant file in q variables up to `order`: the covariance cov,
    and each cumulant of order 3 and up n/d, with n in [-5, 5] and d in
    [1, 4] fixed by its place in the file."""
    lines = []
    for total in range(2, order + 1):
        for n, alpha in enumerate(multi_indices(q, total)):
            if total == 2:
                i, j = [k for k, a in enumerate(alpha) for _ in range(a)]
                value = Fraction(cov[i][j])
            else:
                value = Fraction((5 * n + 3 * total) % 11 - 5, 1 + (n + total) % 4)
            lines.append(" ".join(map(str, alpha)) + f" {value}")
    return "\n".join(lines) + "\n"


#: q = 2 up to order 7 with a diagonal covariance, for r = 5
Q2R5_CUM = formula_cumulants(2, 7, [[2, 0], [0, Fraction(3, 2)]])
#: q = 4 up to order 4 with a tridiagonal covariance, for r = 2
Q4R2_CUM = formula_cumulants(4, 4, [[2 if i == j else Fraction(1, 2) if abs(i - j) == 1 else 0
                                     for j in range(4)] for i in range(4)])
#: (experiment, config, files in the working directory) of each golden
#: case: TINY with 2 replicates, the exact-quantile clt-rate path, the
#: sampled perturbed one (p = 4) and the sampled gaussian one,
#: edgeworth-build of the centered exponential at r = 3, of SIGMA_CUM at
#: r = 3, of Q2R5_CUM at r = 5 and of Q4R2_CUM at r = 2
GOLDEN_CASES = {
    "jump-coupling": ("jump-coupling", TINY["jump-coupling"].format(reps=2), {}),
    "sde-convergence": ("sde-convergence", TINY["sde-convergence"].format(reps=2), {}),
    "clt-rate-perturbed": ("clt-rate", TINY["clt-rate"].format(reps=2) + "mode = perturbed\n", {}),
    "edgeworth-build": ("edgeworth-build", EDGEWORTH_R3, {}),
    "edgeworth-build-sigma": ("edgeworth-build", "cumulants = sigma.cum\nr = 3\n",
                              {"sigma.cum": SIGMA_CUM}),
    "edgeworth-build-q2-r5": ("edgeworth-build", "cumulants = q2r5.cum\nr = 5\n",
                              {"q2r5.cum": Q2R5_CUM}),
    "edgeworth-build-q4-r2-sigma": ("edgeworth-build", "cumulants = q4r2.cum\nr = 2\n",
                                    {"q4r2.cum": Q4R2_CUM}),
    "clt-rate-sampled-perturbed": ("clt-rate", TINY["clt-rate"].format(reps=2)
                                   + "mode = perturbed\np = 4\n", {}),
    "clt-rate-sampled-gaussian": ("clt-rate", TINY["clt-rate"].format(reps=2)
                                  + "mode = gaussian\n", {}),
}

#: probe-cramer's measure, annulus and rho
PROBE = "q = 2\nalpha = 1.5\nr = 3\nrho = 8\n"

#: jump-coupling whose last eps, 2^-14, is over the jump-intensity budget
OVER_BUDGET = MEASURE + (
    "eps_list = 0.125, 0.0625, 0.03125, 0.00006103515625\nn_samples = 64\nreplicates = 2\n"
)


class TestConfigParsing:
    def test_key_value_with_comments_and_sections(self):
        text = "# comment\n[sweep]\nm_list = 16, 64\np = 2  # inline\n"
        assert cli.parse_config_text(text) == {"m_list": "16, 64", "p": "2"}

    def test_bad_line_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("this is not a pair\n")

    def test_hash_sensitivity(self):
        a = cli.config_hash("clt-rate", {"p": "2"}, 0)
        b = cli.config_hash("clt-rate", {"p": "4"}, 0)
        c = cli.config_hash("clt-rate", {"p": "2"}, 1)
        assert len({a, b, c}) == 3


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "p = 3\n")  # odd p
        assert cli.main(["clt-rate", "--config", cfg]) == 2

    def test_missing_config_file_is_2(self):
        assert cli.main(["clt-rate", "--config", "/nonexistent.cfg"]) == 2

    def test_unknown_law_is_2(self, tmp_path):
        cfg = write(tmp_path, "law.cfg", "law = rademacher\n")
        assert cli.main(["clt-rate", "--config", cfg]) == 2

    def test_numerical_failure_is_3(self, tmp_path, monkeypatch):
        def boom(cfg, seed, threads):
            raise cli.NumericalFailure("synthetic")

        monkeypatch.setitem(cli._EXPERIMENTS, "clt-rate", (boom, "csv"))
        assert cli.main(["clt-rate"]) == 3

    def test_only_radial_coupling_style(self, tmp_path):
        base = TINY["sde-convergence"].format(reps=2).replace("coupling_style = radial\n", "")
        bad = write(tmp_path, "a.cfg", base + "coupling_style = assignment\n")
        good = write(tmp_path, "r.cfg", base + "coupling_style = radial\n")
        out = str(tmp_path / "out.csv")
        assert cli.main(["sde-convergence", "--config", bad, "--out", out]) == 2
        assert cli.main(["sde-convergence", "--config", good, "--out", out]) == 0

    @pytest.mark.parametrize("line", ["fine_substeps = 0", "fine_substeps = -3", "d = 0",
                                      "replicates = 0", "T = 1e9", "drift = nan",
                                      "b_scale = inf"])
    def test_sde_convergence_bad_value_is_2(self, tmp_path, monkeypatch, capsys, line):
        # each is a config error found before any path is drawn; T = 1e9
        # would need path arrays of about 10^10 elements
        def no_paths(*args, **kwargs):
            raise AssertionError("paths drawn before the config was checked")

        monkeypatch.setattr(cli, "coupled_paths", no_paths)
        cfg = write(tmp_path, "s.cfg", TINY["sde-convergence"].format(reps=2) + line + "\n")
        assert cli.main(["sde-convergence", "--config", cfg, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_sde_convergence_h_over_tau_is_2_before_decomposing(self, tmp_path, monkeypatch,
                                                                capsys):
        # an h beyond the measure's tau is a config error, as an eps beyond
        # it is in jump-coupling, found before any decomposition is built
        def no_decomposition(*args, **kwargs):
            raise AssertionError("decomposed before the config was checked")

        monkeypatch.setattr(cli, "AnnulusDecomposition", no_decomposition)
        cfg = write(tmp_path, "s.cfg", TINY["sde-convergence"].format(reps=2)
                    + "tau = 0.25\nh_list = 0.5,0.25,0.125\n")
        assert cli.main(["sde-convergence", "--config", cfg, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "tau" in err

    @pytest.mark.parametrize("experiment", ["probe-cramer", "jump-coupling", "sde-convergence"])
    @pytest.mark.parametrize("measure", [
        MEASURE + "tau = nan\n",
        "kind = custom-radial\nq = 2\nradii = 0.01,0.1,0.5,inf\ndensity = 1,1,1,1\n",
        "kind = custom-radial\nq = 2\nradii = 0.01,0.1,0.5,1\ndensity = 1,nan,1,1\n",
    ], ids=["nan-tau", "inf-radius", "nan-density"])
    def test_non_finite_measure_is_2(self, tmp_path, capsys, experiment, measure):
        # a NaN tau fails no 'tau <= 0' test, and a non-finite table entry
        # no ordering test: each is refused as a bad measure, with no warning
        cfg = write(tmp_path, "m.cfg", measure)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([experiment, "--config", cfg, "--out", str(tmp_path / "out"),
                             "--no-timestamp"]) == 2
        assert capsys.readouterr().err.startswith("config error: bad measure config")

    @pytest.mark.parametrize("p", ["2", "4"], ids=["exact", "sampled"])
    def test_clt_rate_perturbed_order_over_cumulants_is_2(self, tmp_path, monkeypatch, capsys, p):
        # the centered exponential carries cumulants up to order 6: n = 7
        # (r = 4) uses them all, n = 8 asks for order 7 and is refused
        # before the expansion is built
        built = []
        real = cli.build_Q
        monkeypatch.setattr(cli, "build_Q", lambda *a: built.append(a) or real(*a))

        def run(n):
            cfg = write(tmp_path, f"n{n}.cfg", TINY["clt-rate"].format(reps=2)
                        + f"mode = perturbed\np = {p}\nn = {n}\n")
            return cli.main(["clt-rate", "--config", cfg, "--no-timestamp",
                             "--out", str(tmp_path / f"n{n}.csv")])

        assert run(8) == 2 and built == []
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "order 7" in err
        assert run(7) == 0 and len(built) == 1

    def test_sde_convergence_non_finite_rms_is_3(self, tmp_path, capsys):
        # a finite but huge drift overflows the paths: the NaN/inf errors
        # are a numerical failure, not an exact coincidence of the schemes
        cfg = write(tmp_path, "s.cfg", TINY["sde-convergence"].format(reps=2) + "drift = 1e308\n")
        out = tmp_path / "out.csv"
        rc = cli.main(["sde-convergence", "--config", cfg, "--out", str(out), "--no-timestamp"])
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err

    def test_sde_convergence_overflow_warns_nothing(self, tmp_path, capsys):
        # the overflowing paths of the test above are refused by the RMS
        # check alone: numpy raises no overflow warning on the way
        cfg = write(tmp_path, "s.cfg", TINY["sde-convergence"].format(reps=2) + "drift = 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["sde-convergence", "--config", cfg, "--out", str(tmp_path / "out.csv"),
                           "--no-timestamp"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("experiment,line", [
        ("jump-coupling", "p = nan"), ("jump-coupling", "p = inf"),
        ("clt-rate", "m_list = 16,64,inf"), ("clt-rate", "m_list = nan"),
    ])
    def test_non_finite_integer_key_is_2(self, tmp_path, capsys, experiment, line):
        cfg = write(tmp_path, "c.cfg", TINY[experiment].format(reps=2) + line + "\n")
        assert cli.main([experiment, "--config", cfg, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_total_jump_budget_is_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        # t_factor = 1e12 asks for about 10^13 jumps per replicate: refused
        # before the first draw
        def no_draw(*args, **kwargs):
            raise AssertionError("jumps drawn past the total jump budget")

        monkeypatch.setattr(cli, "sample_small_jumps", no_draw)
        cfg = write(tmp_path, "jc.cfg", TINY["jump-coupling"].format(reps=2) + "t_factor = 1e12\n")
        assert cli.main(["jump-coupling", "--config", cfg, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "jumps" in err

    @pytest.mark.parametrize("experiment,line", [
        ("jump-coupling", "replicates = 0"), ("jump-coupling", "replicates = -2"),
        ("jump-coupling", "n_samples = 0"), ("jump-coupling", "n_samples = 1"),
        ("jump-coupling", "eps_list = 0.5,0.25"), ("sde-convergence", "h_list = 0.25,0.125"),
        ("clt-rate", "m_list = 16,64"), ("clt-rate", "m_list = 1.5,16.9,64"),
        ("clt-rate", "n_samples = 1000000000000000"),
    ])
    def test_bad_counts_and_grids_are_2_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                        experiment, line):
        # too few replicates or samples, a grid of fewer than the 3 points
        # of the rate fit, a fractional m, more samples than the clt-rate
        # cap (10^15 used to die in Generator.gamma): refused before the
        # first draw
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        for name in ("sample_small_jumps", "sample_gaussian", "coupled_paths"):
            monkeypatch.setattr(cli, name, no_draw)
        monkeypatch.setattr(laws.TestLaw, "sample_sum", no_draw)
        cfg = write(tmp_path, "c.cfg", TINY[experiment].format(reps=2) + line + "\n")
        assert cli.main([experiment, "--config", cfg, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_default_jump_coupling_well_inside_budget(self):
        # the default (C7-shaped) configuration, about 1.75e9 expected
        # jumps, stays at least 8x inside the total jump budget
        meas = StableLikeMeasure(2, 1.5, 1.0)
        eps_list = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
        jumps = sum(e * AnnulusDecomposition(meas, e).intensity for e in eps_list) * 2000 * 20
        assert 1.7e9 < jumps and 8 * jumps <= cli.MAX_TOTAL_JUMPS

    def test_probe_cramer_grid_cap_is_2_before_allocating(self, tmp_path, monkeypatch, capsys):
        # 10^12 points: (grid_n, 400) arrays would need petabytes; the cap
        # is checked before the grid is made
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was made")

        monkeypatch.setattr(cli.np, "linspace", refuse)
        cfg = write(tmp_path, "pc.cfg", PROBE + "grid_n = 1000000000000\n")
        assert cli.main(["probe-cramer", "--config", cfg, "--no-timestamp"]) == 2
        assert "grid cap" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "rho = nan", "grid_lo = nan", "grid_hi = nan", "grid_hi = inf", "delta = nan",
        "delta = 0", "delta = -0.5", "delta = 1", "delta = 2",
        "rho = 0.5\ngrid_lo = 8\ndelta = 0.75",
    ])
    def test_probe_cramer_bad_value_is_2(self, tmp_path, monkeypatch, capsys, line):
        calls = []
        monkeypatch.setattr(cli, "cramer_probe", lambda *a: calls.append(1) or 0.5)
        cfg = write(tmp_path, "pc.cfg", PROBE + "grid_n = 50\n" + line + "\n")
        assert cli.main(["probe-cramer", "--config", cfg, "--no-timestamp"]) == 2
        assert "config error" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("r", [-2000, -1, 2000, 408, 1023])
    def test_probe_cramer_bad_annulus_is_2_before_the_grid(self, tmp_path, monkeypatch, capsys,
                                                           recwarn, r):
        # 2^2001 overflows; annulus -1 lies past tau = 1; 2^-2001 underflows;
        # from r = 408 the density |z|^-3.5 overflows at the inner radius
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was made")

        monkeypatch.setattr(cli.np, "linspace", refuse)
        cfg = write(tmp_path, "pc.cfg", PROBE.replace("r = 3", f"r = {r}") + "grid_n = 50\n")
        assert cli.main(["probe-cramer", "--config", cfg, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"r = {r}" in err
        assert not recwarn.list

    def test_probe_cramer_massless_annulus_is_2(self, tmp_path, capsys, recwarn):
        # a custom measure has no mass below its table: annulus 5,
        # (1/64, 1/32], lies under radii from 0.05 and has no conditional law
        radii = ",".join(str(0.05 + 0.19 * i) for i in range(6))
        dens = ",".join(str((0.05 + 0.19 * i) ** -3.5) for i in range(6))
        cfg = write(tmp_path, "pc.cfg", f"kind = custom-radial\nq = 2\nradii = {radii}\n"
                    f"density = {dens}\nrho = 8\ngrid_n = 50\nr = 5\n")
        assert cli.main(["probe-cramer", "--config", cfg, "--no-timestamp"]) == 2
        assert "carries no mass" in capsys.readouterr().err
        assert not recwarn.list

    def test_probe_cramer_deepest_annulus_keeps_its_value(self, tmp_path, capsys, recwarn):
        # r = 407, the last annulus whose density is finite at the inner
        # radius: the rescaled annulus law does not depend on r
        cfg = write(tmp_path, "pc.cfg", PROBE.replace("r = 3", "r = 407") + "grid_n = 50\n")
        assert cli.main(["probe-cramer", "--config", cfg, "--no-timestamp"]) == 0
        assert "sup |char| over grid = 0.10068287537405027\n" in capsys.readouterr().out
        assert not recwarn.list

    def test_probe_cramer_wide_grid_on_deep_annulus(self, tmp_path, capsys, recwarn):
        # 2^400 s overflows at s = 1e200, but s (2^400 rho), with 2^400 rho
        # in [1/2, 1], does not
        cfg = write(tmp_path, "pc.cfg", PROBE.replace("r = 3", "r = 400")
                    + "grid_n = 50\ngrid_hi = 1e200\n")
        assert cli.main(["probe-cramer", "--config", cfg, "--no-timestamp"]) == 0
        assert "sup |char| over grid = 0.07259592947712991\n" in capsys.readouterr().out
        assert not recwarn.list

    @pytest.mark.parametrize("argv", [
        ["no-such-experiment"],
        ["probe-cramer", "--seed", "1.5"],
        [],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage: levyedge" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["3 abc", "a 2", "2 1/0"])
    def test_malformed_cumulant_file_is_2(self, tmp_path, capsys, line):
        cum = write(tmp_path, "bad.cum", line + "\n")
        cfg = write(tmp_path, "eb.cfg", f"cumulants = {cum}\nr = 1\n")
        assert cli.main(["edgeworth-build", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "line 1" in err

    @pytest.mark.parametrize("value", ["1e-5000", "1e-10000000"])
    def test_decimal_exponent_over_bound_is_2(self, tmp_path, capsys, value):
        # 1e-5000 used to be read, then die printing a 5001-digit
        # denominator; 1e-10000000 spent seconds becoming a Fraction
        cum = write(tmp_path, "big.cum", f"2 1\n3 {value}\n")
        cfg = write(tmp_path, "eb.cfg", f"cumulants = {cum}\nr = 1\n")
        assert cli.main(["edgeworth-build", "--config", cfg, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "line 2: exponent over" in err

    def test_coefficient_too_long_to_print_is_3(self, tmp_path, capsys):
        # values of 1e-300 at order 20: P_18 holds kappa_3^18 / (6^18 18!),
        # whose denominator has over 5400 digits
        text = "2 1\n" + "".join(f"{j} 1e-300\n" for j in range(3, 21))
        cum = write(tmp_path, "o20.cum", text)
        cfg = write(tmp_path, "eb.cfg", f"cumulants = {cum}\nr = 18\n")
        assert cli.main(["edgeworth-build", "--config", cfg, "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "too long to print" in err

    def test_polynomial_degree_cap_is_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(polycore, "MAX_DEGREE", 2)
        cfg = write(tmp_path, "eb.cfg", "law = centered-exponential\nr = 1\n")
        assert cli.main(["edgeworth-build", "--config", cfg]) == 3
        assert "exceeds cap 2" in capsys.readouterr().err

    def test_jump_intensity_budget_is_3(self, tmp_path, capsys):
        # eps = 2^-14 needs ~4.5e9 jumps per unit time, over the budget
        cfg = write(tmp_path, "jc.cfg", OVER_BUDGET)
        assert cli.main(["jump-coupling", "--config", cfg, "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "larger eps" in err
        assert "Traceback" not in err
        assert "policy" not in err and "max_intensity" not in err

    def test_jump_intensity_budget_fails_before_sampling(self, tmp_path, monkeypatch):
        # the last eps is over the budget: no eps before it is sampled
        calls = []
        real = sampling.sample_small_jumps

        def counted(*args, **kwargs):
            calls.append(args[0].eps)
            return real(*args, **kwargs)

        for mod in list(sys.modules.values()):  # every binding, as `from ... import` makes
            if mod.__name__.startswith("levyedge") and vars(mod).get("sample_small_jumps") is real:
                monkeypatch.setattr(mod, "sample_small_jumps", counted)
        cfg = write(tmp_path, "jc.cfg", OVER_BUDGET)
        assert cli.main(["jump-coupling", "--config", cfg, "--no-timestamp"]) == 3
        assert calls == []

    @pytest.mark.parametrize("experiment,text", [
        ("jump-coupling", MEASURE + "eps_list = 1e-300, 1e-301, 1e-302\nn_samples = 64\n"
                          "replicates = 2\n"),
        ("sde-convergence", MEASURE + "h_list = 1e-300, 1e-301, 1e-302\nT = 1e-299\n"
                            "replicates = 2\nfine_substeps = 2\n"),
    ])
    def test_tiny_cutoff_is_3_before_sampling(self, tmp_path, monkeypatch, capsys, experiment,
                                              text):
        # inner ** -alpha overflows a float at these cutoffs: an intensity
        # over the budget, not an OverflowError traceback
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled past the intensity budget")

        for name in ("sample_small_jumps", "coupled_paths"):
            monkeypatch.setattr(cli, name, no_draw)
        cfg = write(tmp_path, "c.cfg", text)
        assert cli.main([experiment, "--config", cfg, "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "larger eps" in err
        assert "Traceback" not in err

    def test_sde_intensity_budget_is_3_before_sampling(self, tmp_path, monkeypatch, capsys):
        # h = 2^-13 is over the jump-intensity budget: the two h before it
        # are not run either
        calls = []
        monkeypatch.setattr(cli, "coupled_paths", lambda *args: calls.append(args[1].h))
        text = TINY["sde-convergence"].format(reps=2).replace(
            "h_list = 0.25,0.125,0.0625", "h_list = 0.125,0.0625,0.0001220703125")
        cfg = write(tmp_path, "s.cfg", text)
        assert cli.main(["sde-convergence", "--config", cfg, "--no-timestamp"]) == 3
        assert "larger eps" in capsys.readouterr().err
        assert calls == []

    def test_sde_total_jump_budget_is_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        # the default replicates and horizon at h 2^-9..2^-11 need about
        # 7.5e10 jumps, hours of work: refused before the first path
        calls = []
        monkeypatch.setattr(cli, "coupled_paths", lambda *args: calls.append(args[1].h))
        text = MEASURE + "h_list = 0.001953125,0.0009765625,0.00048828125\n"
        cfg = write(tmp_path, "s.cfg", text)
        assert cli.main(["sde-convergence", "--config", cfg, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "7.52e+10 jumps" in err
        assert calls == []

    @pytest.mark.parametrize("experiment", ["jump-coupling", "sde-convergence"])
    def test_jump_side_makes_no_eigendecomposition(self, tmp_path, monkeypatch, experiment):
        # every measure is isotropic: each jump-side Gaussian is a scaled
        # standard normal, drawn without sym_sqrt or np.linalg.eigh
        calls = []
        real_sqrt, real_eigh = sampling.sym_sqrt, np.linalg.eigh

        def counted_sqrt(*args):
            calls.append("sym_sqrt")
            return real_sqrt(*args)

        def counted_eigh(*args, **kwargs):
            calls.append("eigh")
            return real_eigh(*args, **kwargs)

        for mod in list(sys.modules.values()):  # every binding, as `from ... import` makes
            if mod.__name__.startswith("levyedge") and vars(mod).get("sym_sqrt") is real_sqrt:
                monkeypatch.setattr(mod, "sym_sqrt", counted_sqrt)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        cfg = write(tmp_path, "c.cfg", TINY[experiment].format(reps=3))
        assert cli.main([experiment, "--config", cfg, "--no-timestamp",
                         "--out", str(tmp_path / "out.csv")]) == 0
        assert calls == []
        # the counters see a Gaussian that does take a root
        cfg = write(tmp_path, "g.cfg", TINY["clt-rate"].format(reps=1))
        assert cli.main(["clt-rate", "--config", cfg, "--no-timestamp",
                         "--out", str(tmp_path / "clt.csv")]) == 0
        assert calls == ["sym_sqrt", "eigh"]

    def test_correlated_covariance_builds_exactly(self, tmp_path):
        # off-diagonal covariance 1/2: the build, residuals and moment
        # check all stay exact rationals
        cum = write(tmp_path, "corr.cum",
                    "2 0 1\n1 1 1/2\n0 2 1\n3 0 1\n0 3 1/2\n2 1 0\n1 2 0\n")
        cfg = write(tmp_path, "eb.cfg", f"cumulants = {cum}\nr = 1\n")
        out = str(tmp_path / "out.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out,
                         "--no-timestamp"]) == 0
        lines = open(out).read().splitlines()
        assert "residual check: all zero (exact)" in lines
        assert "moment check: all equal (exact)" in lines

    @pytest.mark.parametrize("text", [
        "2 1e-400\n3 1/2\n4 1/3\n",  # float(1e-400) is 0.0
        "2 0 1\n1 1 0\n0 2 1e-11\n3 0 1/2\n0 3 1/3\n2 1 0\n1 2 0\n",  # condition 1e11
    ])
    def test_exactly_positive_definite_covariance_builds(self, tmp_path, text):
        # both covariances are exactly positive definite; float eigenvalues
        # rejected the first (exit 2) and the second (exit 3)
        cum = write(tmp_path, "pd.cum", text)
        cfg = write(tmp_path, "eb.cfg", f"cumulants = {cum}\nr = 1\n")
        out = str(tmp_path / "out.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out,
                         "--no-timestamp"]) == 0
        lines = open(out).read().splitlines()
        assert "residual check: all zero (exact)" in lines
        assert "moment check: all equal (exact)" in lines


def decimal_file(q: int, order: int) -> str:
    """A cumulant file of dimension q up to `order` in one-decimal values,
    with a diagonal covariance."""
    lines = []
    for total in range(2, order + 1):
        for n, alpha in enumerate(multi_indices(q, total)):
            if total == 2:
                value = f"{1 + (n + 1) / 5}" if max(alpha) == 2 else "0"
            else:
                value = f"{((7 * n + 3 * total) % 31 - 15) / 10}"
            lines.append(" ".join(map(str, alpha)) + " " + value)
    return "\n".join(lines) + "\n"


def rational_twin(text: str) -> str:
    """The same file with each value written as a fraction (0.7 -> 7/10)."""
    return "".join(" ".join(line.split()[:-1] + [str(Fraction(line.split()[-1]))]) + "\n"
                   for line in text.splitlines())


class TestDecimalCumulants:
    """A decimal cumulant file is read exactly (0.7 is 7/10), so its report
    is its rational twin's, line for line after the hash line."""

    def build(self, tmp_path, text, r=2):
        cum = write(tmp_path, "c.cum", text)
        cfg = write(tmp_path, "eb.cfg", f"cumulants = {cum}\nr = {r}\n")
        out = tmp_path / "out.txt"
        rc = cli.main(["edgeworth-build", "--config", cfg, "--out", str(out), "--no-timestamp"])
        return rc, out.read_text().splitlines() if out.exists() else []

    def test_decimal_file_passes_both_checks(self, tmp_path):
        rc, lines = self.build(tmp_path, "2 1.5\n3 0.7\n4 0.3\n")
        assert rc == 0
        assert "residual check: all zero (exact)" in lines
        assert "moment check: all equal (exact)" in lines
        rc_twin, twin = self.build(tmp_path, "2 3/2\n3 7/10\n4 3/10\n")
        assert rc_twin == 0 and lines[1:] == twin[1:]

    @pytest.mark.parametrize("q, r", [(1, 4), (2, 3), (2, 4), (3, 3)])
    def test_report_equals_rational_twin(self, tmp_path, q, r):
        # (2, 4) and (3, 3) died on float rounding ("gradient field not
        # curl-free") when decimals were read as floats
        text = decimal_file(q, r + 2)
        assert "." in text and "/" not in text
        rc, lines = self.build(tmp_path, text, r)
        rc_twin, twin = self.build(tmp_path, rational_twin(text), r)
        assert rc == rc_twin == 0
        assert lines[1:] == twin[1:]
        assert "residual check: all zero (exact)" in lines
        assert "moment check: all equal (exact)" in lines

    def test_rational_twin_stays_exact(self, tmp_path):
        rc, lines = self.build(tmp_path, "2 3/2\n3 7/10\n4 3/10\n")
        assert rc == 0
        assert "residual_1: 0 (exact)" in lines and "residual_2: 0 (exact)" in lines
        assert "residual check: all zero (exact)" in lines
        assert "  alpha=(4,)  expansion=6753/1000  sum=6753/1000  ok" in lines
        assert "moment check: all equal (exact)" in lines


def count_gaussians(monkeypatch) -> list:
    """A list that gets "inverse" for each rational_inverse call (at every
    levyedge binding of it) and "table" for each GaussianMoments made."""
    made = []
    real_inverse, real_init = polycore.rational_inverse, polycore.GaussianMoments.__init__

    def inverse(*args):
        made.append("inverse")
        return real_inverse(*args)

    def init(table, *args):
        made.append("table")
        real_init(table, *args)

    for mod in list(sys.modules.values()):  # every binding, as `from ... import` makes
        if mod.__name__.startswith("levyedge") and vars(mod).get("rational_inverse") is real_inverse:
            monkeypatch.setattr(mod, "rational_inverse", inverse)
    monkeypatch.setattr(polycore.GaussianMoments, "__init__", init)
    return made


class TestOutputs:
    def test_small_run_and_summary(self, tmp_path):
        cfg = write(
            tmp_path, "clt.cfg",
            "law = centered-exponential\nmode = gaussian\n"
            "m_list = 4,16,64\nn_samples = 500\nreplicates = 2\n",
        )
        out = str(tmp_path / "out.csv")
        assert cli.main(["clt-rate", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0][0] == "config_hash"
        assert rows[1] == ["m", "p", "mode", "distance", "replicate"]
        assert rows[-1][0] == "slope"

    def test_clt_rate_exact_null_case_is_degenerate(self, tmp_path):
        # the gaussian law against its own perturbed reference: every p_k
        # is zero, so every distance is exactly 0 and no rate exists
        cfg = write(tmp_path, "g.cfg", "law = gaussian\nmode = perturbed\nm_list = 16,64,256\n")
        out = str(tmp_path / "g.csv")
        assert cli.main(["clt-rate", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        rows = list(csv.reader(open(out)))
        assert [float(r[3]) for r in rows[2:-1]] == [0.0, 0.0, 0.0]
        assert rows[-1] == ["slope", "nan", "ci_lo", "nan", "ci_hi", "nan", "degenerate"]

    def test_clt_rate_exact_quantile_ignores_sample_keys(self, tmp_path):
        # perturbed mode at p = 2 on a 1-D law with a sum quantile draws
        # nothing: n_samples and replicates enter the hash, not the rows
        base = "law = centered-exponential\nmode = perturbed\nm_list = 4,16,64\n"
        rows = []
        for name, keys in (("a", ""), ("b", "n_samples = 300\nreplicates = 7\n")):
            out = tmp_path / f"{name}.csv"
            cfg = write(tmp_path, f"{name}.cfg", base + keys)
            assert cli.main(["clt-rate", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
            rows.append(list(csv.reader(open(out)))[1:])
        assert rows[0] == rows[1]
        assert [r[4] for r in rows[0][1:-1]] == ["0", "0", "0"]

    @pytest.mark.parametrize("experiment", list(TINY))
    def test_byte_identical_rerun(self, tmp_path, experiment):
        cfg = write(tmp_path, "tiny.cfg", TINY[experiment].format(reps=2))
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for o in (o1, o2):
            assert cli.main(
                [experiment, "--config", cfg, "--seed", "9", "--out", o, "--no-timestamp"]
            ) == 0
        assert open(o1).read() == open(o2).read()

    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_golden_bytes(self, tmp_path, monkeypatch, case):
        experiment, text, files = GOLDEN_CASES[case]
        monkeypatch.chdir(tmp_path)  # the config names its files relative to it
        for name, body in files.items():
            write(tmp_path, name, body)
        cfg = write(tmp_path, "tiny.cfg", text)
        out = tmp_path / "out"
        assert cli.main(
            [experiment, "--config", cfg, "--seed", "9", "--out", str(out), "--no-timestamp"]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[case]

    def test_edgeworth_build_computes_each_s_tilde_once(self, tmp_path, monkeypatch):
        # one pass of the recursion makes S~_2 and S~_3 once each; the
        # residual report reuses them and never calls compute_S_tilde
        steps, made, calls = [], [], []
        real_level, real_next = perturbation._Recursion.level, perturbation._Recursion._next
        real = perturbation.compute_S_tilde

        def level(rec, *args):
            steps.append(len(rec.grads) + 1)
            return real_level(rec, *args)

        def next_level(rec, n):
            made.append(n)
            return real_next(rec, n)

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(perturbation._Recursion, "level", level)
        monkeypatch.setattr(perturbation._Recursion, "_next", next_level)
        for mod in list(sys.modules.values()):  # every binding, as `from ... import` makes
            if mod.__name__.startswith("levyedge") and vars(mod).get("compute_S_tilde") is real:
                monkeypatch.setattr(mod, "compute_S_tilde", counted)
        cfg = write(tmp_path, "eb.cfg", EDGEWORTH_R3)
        out = str(tmp_path / "out.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        assert steps == [1, 2, 3]
        assert made == [2, 3]
        assert calls == []
        assert "residual check: all zero (exact)" in open(out).read().splitlines()

    def test_edgeworth_build_builds_Q_once(self, tmp_path, monkeypatch):
        # the moment check takes the Q that the build printed and inverted;
        # build_Q goes through the same P -> Q step, so this counts it too
        calls = []
        real = edgeworth._hermite_form

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return real(*args, **kwargs)

        for mod in list(sys.modules.values()):  # every binding, as `from ... import` makes
            if mod.__name__.startswith("levyedge") and vars(mod).get("_hermite_form") is real:
                monkeypatch.setattr(mod, "_hermite_form", counted)
        cfg = write(tmp_path, "eb.cfg", EDGEWORTH_R3)
        out = str(tmp_path / "out.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        assert calls == [3]
        assert "moment check: all equal (exact)" in open(out).read().splitlines()

    def test_edgeworth_build_builds_P_once(self, tmp_path, monkeypatch):
        # the printed P_k are the ones the Hermite form of Q is made from
        calls = []
        real = edgeworth.build_P

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        for mod in list(sys.modules.values()):  # every binding, as `from ... import` makes
            if mod.__name__.startswith("levyedge") and vars(mod).get("build_P") is real:
                monkeypatch.setattr(mod, "build_P", counted)
        cfg = write(tmp_path, "eb.cfg", EDGEWORTH_R3)
        out = str(tmp_path / "out.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        assert calls == [3]
        assert "residual check: all zero (exact)" in open(out).read().splitlines()

    def test_edgeworth_build_inverts_sigma_once_per_stage(self, tmp_path, monkeypatch):
        # one Sigma^{-1}, on the cumulant set's Gaussian, for the Hermite
        # step and the recursion, which hands it to every level's solve;
        # the residual lines read the L_Sigma u_k that the recursion checked
        made = count_gaussians(monkeypatch)
        cfg = write(tmp_path, "eb.cfg", EDGEWORTH_R3)
        out = str(tmp_path / "out.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        assert sorted(made) == ["inverse", "table"]
        assert "residual check: all zero (exact)" in open(out).read().splitlines()

    @pytest.mark.parametrize("p", [2, 4])  # the exact-quantile path, then the sampled one
    def test_clt_rate_perturbed_makes_one_gaussian(self, tmp_path, monkeypatch, p):
        # build_Q and invert_S_map share the law's one Sigma^{-1} and table
        made = count_gaussians(monkeypatch)
        cfg = write(tmp_path, "c.cfg", TINY["clt-rate"].format(reps=2) + f"mode = perturbed\np = {p}\n")
        assert cli.main(["clt-rate", "--config", cfg, "--out", str(tmp_path / "c.csv"),
                         "--no-timestamp"]) == 0
        assert sorted(made) == ["inverse", "table"]

    def test_edgeworth_build_computes_each_moment_once(self, tmp_path, monkeypatch):
        # the moment check reads the cumulant set's Gaussian moment table:
        # one table for Sigma, and no entry of it computed twice
        tables, computed = [], []
        real_init = polycore.GaussianMoments.__init__
        real_numerator = polycore.GaussianMoments._numerator

        def init(table, *args):
            tables.append(1)
            real_init(table, *args)

        def numerator(table, gamma):
            if gamma not in table._memo:
                computed.append(gamma)
            return real_numerator(table, gamma)

        monkeypatch.setattr(polycore.GaussianMoments, "__init__", init)
        monkeypatch.setattr(polycore.GaussianMoments, "_numerator", numerator)
        cfg = write(tmp_path, "eb.cfg", "cumulants = sigma.cum\nr = 3\n")
        write(tmp_path, "sigma.cum", SIGMA_CUM)
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / "out.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        assert tables == [1]
        assert computed and len(set(computed)) == len(computed)
        assert "moment check: all equal (exact)" in open(out).read().splitlines()

    def test_edgeworth_build_judges_each_sigma_once(self, tmp_path, monkeypatch):
        # reading the file, the Hermite step and the moment check all read
        # the verdict of the one LDL^T pass that made the cumulant set's table
        judged = []
        real = polycore.positive_definite

        def counted(mat, semi=False):
            judged.append(tuple(tuple(Fraction(v) for v in row) for row in mat))
            return real(mat, semi)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("levyedge") and vars(mod).get("positive_definite") is real:
                monkeypatch.setattr(mod, "positive_definite", counted)
        cum = write(tmp_path, "q2.cum", "2 0 2\n1 1 1/2\n0 2 1\n3 0 1\n1 2 -1/3\n"
                                        "0 3 1/2\n4 0 1/4\n2 2 -1/5\n0 4 1\n")
        cfg = write(tmp_path, "eb.cfg", f"cumulants = {cum}\nr = 2\n")
        out = str(tmp_path / "out.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        assert judged == [((2, Fraction(1, 2)), (Fraction(1, 2), 1))]
        assert "moment check: all equal (exact)" in open(out).read().splitlines()

    @pytest.mark.parametrize("experiment", list(TINY))
    def test_threads_do_not_change_results(self, tmp_path, experiment):
        # 5 replicates: over 2 or 4 threads the workers run unequal shares
        cfg = write(tmp_path, "tiny.cfg", TINY[experiment].format(reps=5))
        outs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}.csv"
            assert cli.main([experiment, "--config", cfg, "--out", str(out), "--no-timestamp",
                             "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("mode", ["gaussian", "perturbed"])
    def test_clt_rate_one_workspace_per_thread(self, tmp_path, monkeypatch, mode):
        # every replicate and every m a thread runs draws into the same
        # sum and reference buffers, and no two threads share one
        calls = []
        real = cli._wp_1d_in_place

        def spy(x, y, p):
            calls.append((threading.get_ident(), x, y))  # kept alive: no address reused
            time.sleep(0.01)  # while a job waits, the pool starts further workers
            return real(x, y, p)

        monkeypatch.setattr(cli, "_wp_1d_in_place", spy)
        # p = 4 keeps perturbed mode off the exact-quantile path
        cfg = write(tmp_path, "c.cfg", TINY["clt-rate"].format(reps=8) + f"mode = {mode}\np = 4\n")

        def buffers(threads):
            calls.clear()
            assert cli.main(["clt-rate", "--config", cfg, "--no-timestamp", "--threads", threads,
                             "--out", str(tmp_path / f"t{threads}.csv")]) == 0
            assert len(calls) == 3 * 8
            by_thread = {}
            for tid, x, y in calls:
                by_thread.setdefault(tid, set()).add((x.ctypes.data, y.ctypes.data))
            return by_thread

        one = buffers("1")
        assert len(one) == 1 and len(next(iter(one.values()))) == 1
        four = buffers("4")
        assert 2 <= len(four) <= 4
        assert all(len(pairs) == 1 for pairs in four.values())
        addresses = [a for pairs in four.values() for pair in pairs for a in pair]
        assert len(set(addresses)) == len(addresses)

    def test_hash_guard_blocks_mismatched_overwrite(self, tmp_path):
        cfg1 = write(tmp_path, "a.cfg", "m_list = 4,16,64\nn_samples = 200\nreplicates = 1\n")
        cfg2 = write(tmp_path, "b.cfg", "m_list = 4,16,256\nn_samples = 200\nreplicates = 1\n")
        out = str(tmp_path / "out.csv")
        assert cli.main(["clt-rate", "--config", cfg1, "--out", out, "--no-timestamp"]) == 0
        assert cli.main(["clt-rate", "--config", cfg2, "--out", out, "--no-timestamp"]) == 2
        assert cli.main(
            ["clt-rate", "--config", cfg2, "--out", out, "--no-timestamp", "--force"]
        ) == 0

    def test_hash_guard_catches_output_written_during_run(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"

        def racing(cfg, seed, threads):
            out.write_text("config_hash,0000000000000000\n")
            return [["m"]]

        monkeypatch.setitem(cli._EXPERIMENTS, "clt-rate", (racing, "csv"))
        assert cli.main(["clt-rate", "--out", str(out)]) == 2
        assert out.read_text() == "config_hash,0000000000000000\n"

    def test_edgeworth_build_text_dump(self, tmp_path):
        cfg = write(tmp_path, "eb.cfg", "law = centered-exponential\nr = 1\nm_probe = 100\n")
        out = str(tmp_path / "dump.txt")
        assert cli.main(["edgeworth-build", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        text = open(out).read()
        assert "u_1(x)" in text
        assert "residual check: all zero (exact)" in text
        assert "moment check: all equal (exact)" in text

    def test_probe_cramer_runs(self, tmp_path):
        cfg = write(tmp_path, "pc.cfg", "q = 2\nalpha = 1.5\nr = 3\nrho = 8\ngrid_n = 50\n")
        out = str(tmp_path / "probe.txt")
        assert cli.main(["probe-cramer", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        assert "sup |char|" in open(out).read()

    def test_degenerate_jump_measure(self, tmp_path):
        radii = ",".join(str(0.1 + 0.9 * i / 15) for i in range(16))
        dens = ",".join("0" for _ in range(16))
        cfg = write(
            tmp_path, "deg.cfg",
            f"kind = custom-radial\nq = 2\nradii = {radii}\ndensity = {dens}\n"
            "eps_list = 0.5,0.25,0.125\nn_samples = 64\nreplicates = 2\n",
        )
        out = str(tmp_path / "deg.csv")
        assert cli.main(["jump-coupling", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[-1][-1] == "degenerate"
        # every distance row is exactly zero
        assert all(float(r[3]) == 0.0 for r in rows[2:-1])


#: tokens a hand-edited file might hold in place of a number
_JUNK = ["abc", "1/0", "-1", "nan", "1e999", "0.5", "3/", "=", "#", "", "2 2"]


@st.composite
def cumulant_files(draw):
    """A valid cumulant file of dimension 1-2 and order up to 4, with a
    token now and then swapped for junk, lines dropped, or junk added.
    The covariance is sometimes correlated (and then not always positive
    definite)."""
    q = draw(st.integers(1, 2))
    lines = []
    for total in range(2, draw(st.integers(2, 4)) + 1):
        for alpha in multi_indices(q, total):
            if total == 2:
                if max(alpha) == 2:
                    value = str(draw(st.integers(1, 3)))
                else:
                    value = str(draw(st.fractions(-2, 2, max_denominator=3)))
            else:
                value = str(draw(st.fractions(-3, 3, max_denominator=4)))
            tokens = [str(a) for a in alpha] + [value]
            for i in range(len(tokens)):
                if draw(st.integers(0, 19)) == 0:
                    tokens[i] = draw(st.sampled_from(_JUNK))
            if draw(st.integers(0, 19)):
                lines.append(" ".join(tokens))
    lines += draw(st.lists(st.text(" 0123456789/.-#ae", max_size=8), max_size=1))
    return "\n".join(lines) + "\n"


def config_values(valid):
    """A valid value half of the time, otherwise a wrong one."""
    return st.one_of(st.sampled_from(valid),
                     st.sampled_from(["0", "-1", "-4", "x", "1.5", "", "99", "1e3"]))


class TestImport:
    def test_cli_import_loads_no_scipy_package_f2py_or_testing(self):
        # the CLI loads numpy and two compiled extensions of scipy alone,
        # special/_special_ufuncs and optimize/_lsap: no scipy package runs,
        # not even scipy/__init__, and scipy.special's array-API layer with
        # numpy.f2py and numpy.testing stays out
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, levyedge.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
                " or m in ('numpy.f2py', 'numpy.testing')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_runs_import_nothing_after_the_cli(self, tmp_path):
        # every module an operation needs is imported with the CLI, so none
        # of that work moves from the import into the operations' wall time
        runs = [("jump-coupling", TINY["jump-coupling"].format(reps=2)),
                ("sde-convergence", TINY["sde-convergence"].format(reps=2)),
                ("clt-rate", TINY["clt-rate"].format(reps=2) + "mode = gaussian\n"),
                ("clt-rate", TINY["clt-rate"].format(reps=2) + "mode = perturbed\n")]
        argvs = []
        for i, (experiment, text) in enumerate(runs):
            cfg = write(tmp_path, f"c{i}.cfg", text)
            argvs.append([experiment, "--config", cfg, "--out", str(tmp_path / f"o{i}.csv"),
                          "--threads", "1", "--no-timestamp"])
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, levyedge.cli\n"
                "before = set(sys.modules)\n"
                f"for argv in {argvs!r}:\n"
                "    assert levyedge.cli.main(argv) == 0, argv\n"
                "print(sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"


class TestExitCodeFuzz:
    @given(
        cumulants=cumulant_files(),
        r=config_values(["1", "2"]),
        m_probe=config_values(["4", "100"]),
        source=st.sampled_from(["cumulants", "law", "both", "neither"]),
        extra=st.one_of(st.just(""), st.text("abc=# []\n0123456789", max_size=12)),
    )
    @settings(deadline=None, max_examples=50)
    def test_edgeworth_build_exit_code(self, cumulants, r, m_probe, source, extra):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "c.cum").write_text(cumulants)
            cfg = f"r = {r}\nm_probe = {m_probe}\n" + extra + "\n"
            if source in ("cumulants", "both"):
                cfg += f"cumulants = {d / 'c.cum'}\n"
            if source in ("law", "both"):
                cfg += "law = centered-exponential\n"
            (d / "e.cfg").write_text(cfg)
            rc = cli.main(["edgeworth-build", "--config", str(d / "e.cfg"),
                           "--out", str(d / "out.txt"), "--no-timestamp"])
        assert rc in (0, 2, 3)

    @given(
        replicates=st.sampled_from(["2", "1", "0", "x"]),
        fine_substeps=st.sampled_from(["1", "2", "0", "-3", "x"]),
        d=st.sampled_from(["1", "2", "0", "x"]),
        T=st.sampled_from(["0.25", "-1", "1e9", "x"]),
        h_list=st.sampled_from(["0.25,0.125,0.0625", "2,0.5,0.25", "x"]),
    )
    @settings(deadline=None, max_examples=50)
    def test_sde_convergence_exit_code(self, replicates, fine_substeps, d, T, h_list):
        cfg = MEASURE + (f"replicates = {replicates}\nfine_substeps = {fine_substeps}\n"
                         f"d = {d}\nT = {T}\nh_list = {h_list}\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.cfg"
            path.write_text(cfg)
            rc = cli.main(["sde-convergence", "--config", str(path),
                           "--out", str(Path(tmp) / "out.csv"), "--no-timestamp"])
        assert rc in (0, 2, 3)


class TestArguments:
    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_help_exits_0(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["clt-rate", flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: levyedge") and "--no-timestamp" in out and not err

    def test_main_builds_no_parser_per_call(self, tmp_path, monkeypatch, capsys):
        # the console script reads sys.argv with the one parser built at import
        import argparse

        def refuse(*args, **kwargs):
            raise AssertionError("an argparse parser was built")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        cfg = write(tmp_path, "pc.cfg", PROBE + "grid_n = 50\n")
        monkeypatch.setattr(sys, "argv", ["levyedge", "--no-t", "probe-cramer", f"--config={cfg}",
                                          "--seed", "-3"])
        assert cli.main() == 0
        assert "sup |char| over grid" in capsys.readouterr().out

"""End-to-end tests of the command-line harness.

Everything runs in-process through main(argv) against tmp_path output
directories, with tiny epoch/trial counts so the whole file stays fast.
"""
import argparse
import ast
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harqpower
from harqpower import gcn, montecarlo, training
from harqpower.cli import (DEFAULTS, MAX_DBW, MIN_DBW, SEED_ENV_VAR,
                           ConfigError, build_parser, main, read_config,
                           resolve_config)
from harqpower.types import Scheme

FAST_TRAIN = ("--epochs", "2", "--dataset-size", "20", "--batch-size", "10")


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def float_flags() -> list:
    """(command, flag) for every float-valued flag of every command."""
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [(name, flag) for name, parser in commands.items()
            for action in parser._actions if action.type is float
            for flag in action.option_strings]


def resolved(args):
    """resolve_config's result for `args`, or its error's text."""
    try:
        return resolve_config(args)
    except ConfigError as exc:
        return str(exc)


class TestConfigFile:
    def test_parses_comments_blanks_and_command_echo(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# full-line comment\n"
            "\n"
            "scheme = cc\n"
            "epochs = 3   # trailing comment\n"
            "command = train\n")
        assert read_config(str(cfg)) == {"scheme": "cc", "epochs": 3}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_factor = 9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            read_config(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="bad value"):
            read_config(str(cfg))

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            read_config("/nonexistent/run.cfg")


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        rc = run("oracle", "--config", cfg, "--out", tmp_path)
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        rc = run("oracle", "--rounds", 2, "--points", 8, "--out", tmp_path)
        assert rc == 2
        assert SEED_ENV_VAR in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep-power", "sweep-rho",
                                         "mc-validate"])
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys,
                                   source, command):
        # numpy's seed sequences reject negative integers with a traceback
        out = tmp_path / "out"
        argv = [command, "--out", out]
        if source == "flag":
            argv += ["--seed", -1]
        elif source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -1\n")
            argv += ["--config", cfg]
        else:
            monkeypatch.setenv(SEED_ENV_VAR, "-1")
        assert run(*argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: seed must be >= 0, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("lr_weights", -5e-4), ("lr_lambda", -1.0), ("lr_upsilon", -1.0),
        ("lr_weights", -5e-324)])
    @pytest.mark.parametrize("command", ["train", "sweep-rho", "oracle"])
    def test_negative_learning_rate_exits_2(self, tmp_path, capsys, command,
                                            key, value):
        # a negative weight rate ascends the Lagrangian and a negative dual
        # rate pins its multiplier at 0; both used to train to exit 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value!r}\n")
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key} must be >= 0, got {value!r}"]
        assert not out.exists()

    def test_zero_learning_rates_train(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr_weights = 0.0\nlr_lambda = 0.0\nlr_upsilon = 0.0\n")
        assert run("train", "--config", cfg, *FAST_TRAIN, "--out",
                   tmp_path / "out") == 0

    def test_bad_scheme_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scheme = turbo\n")
        rc = run("oracle", "--config", cfg, "--out", tmp_path)
        assert rc == 2

    def test_inconsistent_batch_exits_2(self, tmp_path, capsys):
        rc = run("train", "--out", tmp_path, "--epochs", 1,
                 "--dataset-size", 5, "--batch-size", 10)
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ("mc-validate", "--trials", 0),
        ("mc-validate", "--trials", -5, "--estimator", "direct"),
        ("mc-validate", "--threads", 0),
        ("train", "--epochs", 0),
        ("oracle", "--power-budget-dbw", "nan"),
        ("oracle", "--rho", "inf"),
        ("oracle", "--points", 1),
        ("sweep-rho", "--rho-points", 0),
        ("sweep-power", "--budget-lo-dbw", 18, "--budget-hi-dbw", 12),
        ("sweep-power", "--budget-lo-dbw", 19),
        # values the config dataclasses check, rejected before any work
        ("train", "--config", "rho = 1.5"),
        ("sweep-power", "--rho", 1.0, "--epochs", 40, "--budget-lo-dbw", 15,
         "--budget-hi-dbw", 16),
        ("mc-validate", "--rate", -1),
        ("mc-validate", "--rounds", 0),
        # PowerPolicy would floor -100 dBW at 1e-6 W (-60 dBW)
        ("mc-validate", "--power-dbw", -100),
        # 10 ** (4000 / 10) W overflows a float
        ("mc-validate", "--power-dbw", 4000, "--trials", 10),
        ("oracle", "--power-budget-dbw", 4000, "--points", 4),
        ("train", "--power-budget-dbw", 4000, "--epochs", 1,
         "--dataset-size", 10, "--batch-size", 10),
        ("sweep-power", "--budget-lo-dbw", 4000, "--budget-hi-dbw", 4000,
         "--epochs", 1, "--dataset-size", 10, "--batch-size", 10),
        # (2 ** rate - 1) ** k and 2 ** rate overflow a float
        ("mc-validate", "--trials", 1000, "--rate", 1000),
        ("train", "--epochs", 1, "--dataset-size", 10, "--batch-size", 10,
         "--rate", 2000),
        # rounding leaves ir's rate factor below or at 0, so its outages
        # would not be positive
        ("mc-validate", "--rate", 3, "--rounds", 25, "--trials", 1000),
        ("mc-validate", "--rate", 0.001, "--rounds", 5, "--trials", 1000),
        # 10 ** (-1e8 / 10) W underflows, and -1e8 + 1e-9 is -1e8
        ("sweep-power", "--budget-lo-dbw", -1e8, "--budget-hi-dbw", -1e8,
         "--epochs", 1, "--dataset-size", 10, "--batch-size", 10),
        ("oracle", "--power-budget-dbw", -4000, "--points", 4),
    ], ids=lambda argv: " ".join(str(a) for a in argv))
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = list(argv)
        if "--config" in argv:
            # the value after --config is the text of the config file
            at = argv.index("--config") + 1
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv[at] + "\n")
            argv[at] = cfg
        rc = run(*argv, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", float_flags(),
                             ids=lambda v: v)
    def test_negative_exponent_after_a_space_is_a_value(self, command, flag):
        parser = build_parser()
        spaced = parser.parse_args([command, flag, "-1e-05"])
        joined = parser.parse_args([command, f"{flag}=-1e-05"])
        assert vars(spaced) == vars(joined)
        assert getattr(spaced, flag[2:].replace("-", "_")) == -1e-05
        assert resolved(spaced) == resolved(joined)

    @pytest.mark.parametrize("argv, message", [
        # every scheme's round-1 factor is 2^rate - 1, which rounds to 0
        # below a rate of about 1.6e-16, where fewer rounds cannot help
        (("--rate", "1e-300"), "rate 1e-300 leaves the type1 rate factor of "
         "round 1 at 0, not positive; 2^rate - 1 rounds to 0 at this rate"),
        (("--rate", "1e-17"), "rate 1e-17 leaves the type1 rate factor of "
         "round 1 at 0, not positive; 2^rate - 1 rounds to 0 at this rate"),
        (("--rate", 3, "--rounds", 25), "rate 3 leaves the ir rate factor of "
         "round 25 at -1.77636e-15, not positive; use fewer rounds"),
        # ir's alternating sum cancels to 0, where type1's and cc's factors
        # stay positive
        (("--rate", "1e-15", "--rounds", 2), "rate 1e-15 leaves the ir rate "
         "factor of round 2 at 0, not positive; use fewer rounds")],
        ids=["1e-300", "1e-17", "rate-3-rounds-25", "rate-1e-15-rounds-2"])
    def test_nonpositive_rate_factor_message(self, tmp_path, capsys, argv,
                                             message):
        rc = run("mc-validate", *argv, "--trials", 1000, "--out", tmp_path)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message}"]

    def test_rate_factors_of_unused_schemes_are_not_checked(self, tmp_path,
                                                             capsys):
        # train uses only its scheme, so ir's zero factor of round 2 at
        # this rate does not reject a type1 run
        rc = run("train", "--scheme", "type1", "--rate", "1e-15", "--rounds",
                 2, *FAST_TRAIN, "--out", tmp_path)
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_infeasible_oracle_exits_1(self, tmp_path, capsys):
        # one round at the default 1e-2 target needs 300 W; grid tops at 63 W
        rc = run("oracle", "--rounds", 1, "--points", 10, "--out", tmp_path)
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_underflowing_outage_exits_1_without_traceback(self, tmp_path,
                                                           capsys):
        # at 2000 dBW the final-round outage underflows to 0 and its log has
        # no value; 1000 dBW still trains
        rc = run("train", "--power-budget-dbw", 2000, "--epochs", 1,
                 "--dataset-size", 10, "--batch-size", 10, "--out", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert errors == ["error: ir at 2000 dBW: cannot evaluate the "
                          "Lagrangian at iteration 0: log: nonpositive entry"]

    def test_underflowing_analytic_outage_exits_1(self, tmp_path, capsys):
        # at 3000 dBW every analytic outage after round 1 underflows to 0,
        # so no ratio has a value; the check runs before any sampling
        out = tmp_path / "mc"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("mc-validate", "--power-dbw", 3000, "--trials", 1000,
                     "--out", out)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the analytic type1 outage after round 2 "
                       "underflows to 0 at 3000 dBW, so its Monte-Carlo "
                       "ratio is undefined"]
        assert not (out / "mc_report.csv").exists()

    def test_underflowing_power_product_exits_1(self, tmp_path, capsys):
        # 55 rounds at 1e-6 W: the power product underflows to 0 and every
        # analytic outage divides by it; the check runs before any sampling
        out = tmp_path / "mc"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("mc-validate", "--rate", 17.75, "--rounds", 55,
                     "--power-dbw=-60", "--trials", 1000, "--out", out)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the analytic outages divide by zero at -60 dBW "
                       "over 55 rounds, so no Monte-Carlo ratio has a value"]
        assert not (out / "mc_report.csv").exists()

    @pytest.mark.parametrize("budget, rc", [(1000, 0), (2000, 1)])
    def test_extreme_budget_training_prints_no_warning(self, tmp_path,
                                                       budget, rc):
        # products in the training graph overflow to inf at these budgets;
        # stderr holds nothing, or the one error line, and no numpy warning
        proc = run_fresh_process(
            ["-m", "harqpower", "train", "--power-budget-dbw", str(budget),
             "--epochs", "1", "--dataset-size", "10", "--batch-size", "10",
             "--out", "out"], tmp_path)
        assert proc.returncode == rc
        err = proc.stderr.splitlines()
        if rc == 0:
            assert err == []
        else:
            assert len(err) == 1 and err[0].startswith("error: ")

    def test_overflowing_batch_mean_exits_1_with_one_line(self, tmp_path,
                                                          capsys):
        # every sample's average power is finite near the dBW ceiling, but
        # their sum over the batch overflows, so the step's mean is inf
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("train", "--scheme", "type1", "--rounds", 1,
                     "--power-budget-dbw", 3075, "--epochs", 1,
                     "--dataset-size", 10, "--batch-size", 10, "--out", out)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: type1 at 3075 dBW: non-finite "
                                 "mean_pavg_w at iteration 0: ")
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("argv, rc", [
        pytest.param(argv, rc, id=" ".join(str(a) for a in argv))
        for argv, rc in [
            *[(("train", "--scheme", scheme, "--rounds", rounds),
               1 if scheme == "type1" else 2)
              for rounds in (300, 400) for scheme in ("ir", "cc", "type1")],
            (("train", "--scheme", "type1", "--rounds", 250), 1),
            (("sweep-rho", "--rounds", 400), 2)]])
    def test_many_rounds_exit_1_with_one_line(self, tmp_path, capsys, argv,
                                              rc):
        # the config check rejects the round counts where a used scheme's
        # rate factor is not positive (ir's from 21 rounds at rate 2, cc's
        # from 171) before any training, with exit 2; type1's factors stay
        # positive, so its runs train and fail the first step with exit 1
        # (a non-finite objective at 250 rounds, a zero denominator at 300
        # and 400).  Any numpy warning raises here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(*argv, "--epochs", 1, "--dataset-size", 1,
                      "--batch-size", 1, "--out", tmp_path)
        assert got == rc
        err = capsys.readouterr().err.splitlines()
        prefix = "error: " if rc == 1 else "config error: "
        assert len(err) == 1 and err[0].startswith(prefix)

    @pytest.mark.parametrize("lr, argv, message", [
        # one step sends the weights to about 1e300, where the network's
        # products overflow: the last step's check names it
        ("1e300", ("train", "--epochs", 1),
         "ir at 15 dBW: non-finite network output after the Adam step at "
         "iteration 0"),
        ("1e300", ("sweep-rho", "--epochs", 1),
         "type1 at 15 dBW: non-finite network output after the Adam step at "
         "iteration 0"),
        # with a second step, its forward pass overflows first
        ("1e300", ("train", "--epochs", 2),
         "ir at 15 dBW: cannot evaluate the Lagrangian at iteration 1: "
         "non-finite network output"),
        # a gradient entry above 1 overflows the Adam step itself
        ("1.79e308", ("train", "--epochs", 1, "--scheme", "cc",
                      "--power-budget-dbw", 10),
         "cc at 10 dBW: non-finite weights after the Adam step at "
         "iteration 0"),
    ], ids=["train-1-step", "sweep-rho-1-step", "train-2-steps",
            "adam-step"])
    def test_diverging_weights_exit_1_with_one_line(self, tmp_path, capsys,
                                                    lr, argv, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lr_weights = {lr}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(*argv, "--config", cfg, "--dataset-size", 10,
                     "--batch-size", 10, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("argv, message", [
        (("sweep-power",), "type1 at 12 dBW"),
        (("sweep-rho", "--power-budget-dbw", 14), "type1 at 14 dBW")],
        ids=["sweep-power", "sweep-rho"])
    def test_diverging_stack_names_its_failing_run(self, tmp_path, capsys,
                                                   argv, message):
        # the second step of a stack of 21 (or 3) runs overflows; the
        # stacked step's network output names the first run it fails
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr_weights = 1e300\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(*argv, "--epochs", 2, "--config", cfg, "--dataset-size",
                     10, "--batch-size", 10, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {message}: cannot evaluate the Lagrangian at iteration "
            "1: non-finite network output"]
        assert not any(out.glob("*.csv"))

    def test_overflowing_oracle_latency_prints_no_warning(self, tmp_path,
                                                          capsys):
        # at 1e-300 Hz most grid latencies overflow; those points are
        # infeasible, and the best finite one is the answer
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bandwidth_hz = 1e-300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("oracle", "--config", cfg, "--points", 8,
                     "--out", tmp_path / "out")
        assert rc == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == ("oracle ir: tau=8.65037e+305 "
                       "powers=[4.8497, 4.8497, 63.0957]\n")

    def test_budget_below_power_floor_exits_1(self, tmp_path, capsys):
        # the grid would top out at -97 dBW, under the 1e-6 W power floor
        rc = run("oracle", "--power-budget-dbw", -100, "--out", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no feasible power")


class TestTrainCommand:
    def test_writes_history_checkpoint_manifest(self, tmp_path, capsys):
        rc = run("train", "--out", tmp_path, "--seed", 123, *FAST_TRAIN)
        assert rc == 0
        hist = (tmp_path / "history.csv").read_text().splitlines()
        assert hist[0] == "iter,mean_tau_s,mean_log_pout,mean_pavg_w,lambda,upsilon"
        assert len(hist) == 1 + 4  # 2 epochs x 20/10 steps
        assert (tmp_path / "checkpoint_ir.txt").exists()
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "command = train"
        assert "seed = 123" in manifest
        assert "trained ir" in capsys.readouterr().out

    def test_dead_initial_network_exits_1(self, tmp_path, capsys):
        # seed 7's initial network outputs the power floor for every rho
        rc = run("train", "--out", tmp_path, "--seed", 7, *FAST_TRAIN)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: seed 7:")

    def test_manifest_round_trip_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--out", a, "--seed", 31, *FAST_TRAIN) == 0
        assert run("train", "--out", b, "--config", a / "manifest.txt") == 0
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
        assert (a / "checkpoint_ir.txt").read_bytes() == \
            (b / "checkpoint_ir.txt").read_bytes()
        assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()

    def test_seed_precedence_env_beats_config_flag_beats_env(
            self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        monkeypatch.setenv(SEED_ENV_VAR, "6")
        d1 = tmp_path / "envwins"
        assert run("train", "--out", d1, "--config", cfg, *FAST_TRAIN) == 0
        assert "seed = 6" in (d1 / "manifest.txt").read_text().splitlines()
        d2 = tmp_path / "flagwins"
        assert run("train", "--out", d2, "--config", cfg, "--seed", 123,
                   *FAST_TRAIN) == 0
        assert "seed = 123" in (d2 / "manifest.txt").read_text().splitlines()

    def test_defaults_include_all_schema_keys(self):
        from harqpower.cli import CONFIG_SCHEMA
        assert set(DEFAULTS) == set(CONFIG_SCHEMA)


class TestOracleCommand:
    def test_writes_single_row_csv(self, tmp_path):
        # 16 points per axis is the coarsest grid whose span from the power
        # floor up to budget+3dB still contains a feasible two-round pair
        rc = run("oracle", "--scheme", "cc", "--rounds", 2, "--points", 16,
                 "--out", tmp_path)
        assert rc == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert lines[0] == "scheme,tau_s,pout_K,pavg_w,p1_w,p2_w"
        assert len(lines) == 2
        assert lines[1].startswith("cc,")


class TestMcValidateCommand:
    @pytest.mark.parametrize("estimator,passes",
                             [("direct", 1), ("conditional", 1)])
    def test_one_sampling_pass_serves_every_row(self, tmp_path, monkeypatch,
                                                estimator, passes):
        # one chunk: each estimator draws it once for all 9 rows
        drawn = []
        original = montecarlo._chunk_rng

        def counted(seed, chunk):
            drawn.append(chunk)
            return original(seed, chunk)

        monkeypatch.setattr(montecarlo, "_chunk_rng", counted)
        assert run("mc-validate", "--out", tmp_path, "--estimator", estimator,
                   "--trials", montecarlo.CHUNK_TRIALS) == 0
        assert drawn == [0] * passes

    def test_threads_do_not_change_the_report(self, tmp_path):
        outs = []
        for threads, sub in ((1, "t1"), (3, "t3")):
            d = tmp_path / sub
            rc = run("mc-validate", "--out", d, "--trials", 70000,
                     "--threads", threads, "--seed", 8)
            assert rc == 0
            outs.append((d / "mc_report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_report_covers_all_schemes_and_rounds(self, tmp_path):
        d = tmp_path / "mc"
        assert run("mc-validate", "--out", d, "--trials", 20000,
                   "--seed", 8) == 0
        lines = (d / "mc_report.csv").read_text().splitlines()
        assert lines[0] == "scheme,k,analytic,mc_mean,mc_stderr,ratio"
        assert len(lines) == 1 + 3 * 3
        # at 30 dBW the conditional estimator should sit near the asymptote
        # even with this few trials; ratios live in the final column
        ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert all(0.5 < r < 2.0 for r in ratios)


class TestSweepCommands:
    def test_sweep_rho_writes_grid(self, tmp_path):
        rc = run("sweep-rho", "--out", tmp_path, "--rho-points", 3,
                 *FAST_TRAIN)
        assert rc == 0
        lines = (tmp_path / "sweep_rho.csv").read_text().splitlines()
        assert lines[0] == "rho,scheme,tau_s,pout_K"
        assert len(lines) == 1 + 3 * 3
        for name in ("type1", "cc", "ir"):
            assert (tmp_path / f"checkpoint_{name}.txt").exists()

    def test_sweep_power_single_budget(self, tmp_path):
        rc = run("sweep-power", "--out", tmp_path, "--budget-lo-dbw", 15.0,
                 "--budget-hi-dbw", 15.0, *FAST_TRAIN)
        assert rc == 0
        lines = (tmp_path / "sweep_power.csv").read_text().splitlines()
        assert lines[0] == "pbar_dbw,scheme,tau_s,pout_K,pavg_w,feasible"
        assert len(lines) == 1 + 3
        assert all(ln.split(",")[-1] in ("0", "1") for ln in lines[1:])

    def test_sweep_power_stays_within_the_budget_range(self, tmp_path):
        # 15 to 15.7 dBW holds one whole-dB step: 16 dBW lies above the range
        rc = run("sweep-power", "--out", tmp_path, "--budget-lo-dbw", 15.0,
                 "--budget-hi-dbw", 15.7, *FAST_TRAIN)
        assert rc == 0
        lines = (tmp_path / "sweep_power.csv").read_text().splitlines()
        assert {ln.split(",")[0] for ln in lines[1:]} == {"1.50000e+01"}

    def test_sweep_power_steps_every_run_together(self, tmp_path,
                                                  monkeypatch):
        # two budgets x three schemes train as one stack: one epoch of the
        # default 1000/50 dataset is 20 stacked steps, not 6 x 20; the stack
        # builds its graph once, and each step runs the network backward once
        calls = {"adam_update": 0, "batch_lagrangian": 0, "backward": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(training, "adam_update")
        counted(training, "batch_lagrangian")
        counted(gcn._Network, "backward")
        rc = run("sweep-power", "--out", tmp_path, "--epochs", 1,
                 "--budget-lo-dbw", 15.0, "--budget-hi-dbw", 16.0)
        assert rc == 0
        assert calls == {"adam_update": 20, "batch_lagrangian": 1,
                         "backward": 20}
        lines = (tmp_path / "sweep_power.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3


class TestSelftestCommand:
    def test_selftest_passes(self, tmp_path, capsys):
        rc = run("selftest", "--out", tmp_path)
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_checks_still_run_under_optimize_flag(self):
        # python -O strips assert statements; a broken identity must still fail
        src = os.path.dirname(os.path.dirname(harqpower.__file__))
        code = ("from harqpower import selftest; "
                "selftest.correlation_factor = lambda *a, **k: 2.0; "
                "print(selftest.run_selftest()[0])")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("('correlation-identities', False")


def run_fresh_process(args, cwd) -> subprocess.CompletedProcess:
    """Run the interpreter on `args` in a fresh process with harqpower on
    its path."""
    src = os.path.dirname(os.path.dirname(harqpower.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(SEED_ENV_VAR, None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def run_fresh(code: str, cwd) -> str:
    """Run `code` in a fresh interpreter with harqpower on its path; stdout."""
    proc = run_fresh_process(["-c", code], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# prelude for fresh interpreters: any import of scipy raises ImportError
BLOCK_SCIPY = """
import importlib.abc
import sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked: " + name)
        return None

sys.meta_path.insert(0, NoScipy())
"""


# what `import harqpower.cli` loads: every module but selftest, which the
# selftest command imports when it runs
CLI_MODULES = ["harqpower", "harqpower.analytics", "harqpower.autodiff",
               "harqpower.cli", "harqpower.gcn", "harqpower.graph",
               "harqpower.montecarlo", "harqpower.oracle",
               "harqpower.training", "harqpower.types"]


def loaded(module: str, cwd) -> tuple:
    """Whether numpy is loaded, and the sorted harqpower modules, after
    `import module` in a fresh interpreter."""
    code = (f"import sys; import {module}; print('numpy' in sys.modules); "
            "print(sorted(m for m in sys.modules if m.startswith('harqpower')))")
    numpy, modules = run_fresh(code, cwd).splitlines()
    return numpy == "True", ast.literal_eval(modules)


class TestStartUpImports:
    """What each import loads; no command loads scipy, and none loads
    concurrent.futures.

    Every public name is imported from its module, so importing one module
    loads only what that module needs.  This file's own process has numpy,
    scipy and every module loaded already, so these checks run in fresh
    interpreters.
    """

    def test_package_loads_no_submodule_and_no_numpy(self, tmp_path):
        assert loaded("harqpower", tmp_path) == (False, ["harqpower"])

    def test_types_loads_no_numpy_and_no_other_module(self, tmp_path):
        assert loaded("harqpower.types", tmp_path) == (
            False, ["harqpower", "harqpower.types"])

    def test_gcn_loads_only_types(self, tmp_path):
        # in particular not autodiff or training
        assert loaded("harqpower.gcn", tmp_path) == (
            True, ["harqpower", "harqpower.gcn", "harqpower.types"])

    def test_cli_loads_the_pinned_modules(self, tmp_path):
        # the benchmark's start-up time is this import
        assert loaded("harqpower.cli", tmp_path) == (True, CLI_MODULES)

    def test_commands_without_scipy_never_load_it(self, tmp_path):
        # any import of scipy fails in this interpreter
        code = BLOCK_SCIPY + """
from harqpower import cli
fast = ["--epochs", "1", "--dataset-size", "10", "--batch-size", "10"]
for name, argv in [
        ("train", ["train", *fast]),
        ("sweep-power", ["sweep-power", "--budget-lo-dbw", "15",
                         "--budget-hi-dbw", "15", *fast]),
        ("sweep-rho", ["sweep-rho", "--rho-points", "2", *fast]),
        ("oracle", ["oracle", "--points", "8"]),
        ("mc-validate", ["mc-validate", "--estimator", "direct",
                         "--trials", "1000"]),
        ("selftest", ["selftest"])]:
    assert cli.main(argv + ["--out", name]) == 0, name
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        assert run_fresh(code, tmp_path).splitlines()[-1] == "[]"
        for name in ("train", "sweep-power", "sweep-rho", "oracle",
                     "mc-validate"):
            assert (tmp_path / name / "manifest.txt").exists()

    def test_conditional_estimator_first_loads_scipy_under_threads(
            self, tmp_path):
        # the conditional estimator once loaded scipy on first use; it now
        # runs with scipy blocked. The two-thread run comes first, so its
        # first chunks run on a worker pool, three chunks split over two
        # workers, and the report must equal the one-thread report
        code = BLOCK_SCIPY + """
from harqpower import cli
for threads in ("2", "1"):
    assert cli.main(["mc-validate", "--estimator", "conditional",
                     "--trials", "70000", "--seed", "8",
                     "--threads", threads, "--out", "t" + threads]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        assert run_fresh(code, tmp_path).splitlines()[-1] == "[]"
        assert (tmp_path / "t2" / "mc_report.csv").read_bytes() == \
            (tmp_path / "t1" / "mc_report.csv").read_bytes()

    def test_import_and_threaded_run_never_load_concurrent_futures(
            self, tmp_path):
        # the Monte-Carlo workers are plain threads
        code = """
import sys
import harqpower
from harqpower import cli
after_import = "concurrent.futures" in sys.modules
assert cli.main(["mc-validate", "--estimator", "direct", "--trials", "70000",
                 "--threads", "2", "--out", "mc"]) == 0
print(after_import, "concurrent.futures" in sys.modules)
"""
        assert run_fresh(code, tmp_path).splitlines()[-1] == "False False"


def _magnitudes(lo_exp, hi_exp):
    """Positive floats 10**e, e uniform in [lo_exp, hi_exp]."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


class TestExtremeTrainingInputs:
    """Training commands on extreme inputs end in a clean exit: 0 with
    finite CSVs, 1 or 2 with at most one line on stderr, never a numpy
    warning or a traceback."""

    @staticmethod
    def check(command, lr, budget, target, rate, rounds):
        lr_weights, lr_lambda, lr_upsilon = lr
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write(f"lr_weights = {lr_weights!r}\n"
                         f"lr_lambda = {lr_lambda!r}\n"
                         f"lr_upsilon = {lr_upsilon!r}\n"
                         f"outage_target = {target!r}\n"
                         f"rate = {rate!r}\nrounds = {rounds}\n")
            budget_flags = (("--power-budget-dbw", repr(budget))
                            if command == "train"
                            else ("--budget-lo-dbw", repr(budget),
                                  "--budget-hi-dbw", repr(budget)))
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                rc = run(command, "--config", cfg, *budget_flags,
                         "--epochs", 1, "--dataset-size", 10, "--batch-size",
                         10, "--out", out)
            assert rc in (0, 1, 2)
            assert len(err.getvalue().splitlines()) <= (0 if rc == 0 else 1), \
                err.getvalue()
            assert [str(w.message) for w in caught] == []
            if rc == 1:
                # a failed training names its run, or the seed whose
                # initial network is dead
                names = "|".join(re.escape(f"{s.value} at {budget:g} dBW")
                                 for s in Scheme)
                assert re.match(rf"error: ({names}|seed \d+): ",
                                err.getvalue()), err.getvalue()
            if rc == 0:
                csvs = [name for name in os.listdir(out)
                        if name.endswith(".csv")]
                assert csvs
                for name in csvs:
                    with open(os.path.join(out, name)) as fh:
                        rows = [line.split(",") for line in fh.read().split()]
                    cells = [c for row in rows[1:] for c in row]
                    values = [float(c) for c in cells
                              if c not in {s.value for s in Scheme}]
                    assert np.all(np.isfinite(values)), name

    # learning rates of either sign and any size; budgets across the dBW
    # range the CLI accepts and around the default; outage targets and
    # rates from the smallest normal floats up; round counts around the
    # default and far past it
    LR = st.tuples(*[st.one_of(st.just(0.0), _magnitudes(-300.0, 308.0),
                               _magnitudes(-300.0, 308.0).map(lambda x: -x))]
                   * 3)
    BUDGET = st.one_of(st.floats(-60.0, 60.0), st.floats(MIN_DBW, MAX_DBW))
    TARGET = st.one_of(_magnitudes(-300.0, -1e-9), st.just(1.0 - 2.0 ** -53))
    RATE = st.one_of(st.floats(0.25, 8.0), _magnitudes(-300.0, 3.0))
    ROUNDS = st.one_of(st.integers(1, 5), st.integers(1, 12),
                       st.integers(1, 200))

    @given(lr=LR, budget=BUDGET, target=TARGET, rate=RATE, rounds=ROUNDS)
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_train(self, lr, budget, target, rate, rounds):
        self.check("train", lr, budget, target, rate, rounds)

    @given(lr=LR, budget=BUDGET, target=TARGET, rate=RATE, rounds=ROUNDS)
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_sweep_power(self, lr, budget, target, rate, rounds):
        self.check("sweep-power", lr, budget, target, rate, rounds)

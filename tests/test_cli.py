"""End-to-end tests of the command-line interface."""

import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest

from steinbn import __version__
from steinbn.cli import _build_parser, run_cli
from steinbn.harness import RESULTS_HEADER, Checkpoint, ExperimentConfig, load_arrays, rows_from_csv
from steinbn.tensor import InvalidInputError

FAST_CONFIG = dict(
    dataset="SyntheticBlobs",
    model="MLP2",
    bn_variant="stein",
    batch_size=16,
    max_epochs=2,
    noise_levels=[0, 10],
    seeds=[1],
    n_classes=3,
    n_per_class=30,
    channels=3,
    hw=2,
    hidden=8,
)


def write_config(tmp_path, **overrides):
    cfg = ExperimentConfig(**{**FAST_CONFIG, **overrides})
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


# configs each path refuses, with the message it gives
BAD_CONFIGS = [
    ({"modle": "MLP2"}, "unknown config key 'modle'"),
    ({"batch_size": "32"}, "'batch_size' has a str value"),
    ([1, 2], "config must be a JSON object"),
    ({"noise_family": "gausian"}, "unknown noise family 'gausian'"),
    ({"noise_levels": [0, "10"]}, "noise level '10' is not a number in [0, 100]"),
    # each of these ran and labelled its rows with a value it did not run
    ({"seeds": [1.5]}, "seed 1.5 is not an integer"),
    ({"seeds": [True]}, "seed True is not an integer"),
    ({"seeds": ["1"]}, "seed '1' is not an integer"),
    ({"seeds": [1, 1]}, "seeds must be distinct, got [1, 1]"),
    ({"noise_levels": [True]}, "noise level True is not a number in [0, 100]"),
    # each of these ran meaninglessly, diverged or failed naming nothing
    ({"batch_size": 1}, "'batch_size' must be an integer >= 2, got 1"),
    ({"n_classes": 0}, "'n_classes' must be an integer >= 2, got 0"),
    ({"n_per_class": 0}, "'n_per_class' must be a positive integer, got 0"),
    ({"channels": 0}, "'channels' must be a positive integer, got 0"),
    ({"hw": 0}, "'hw' must be a positive integer, got 0"),
    ({"hidden": 0}, "'hidden' must be a positive integer, got 0"),
    ({"max_epochs": -3}, "'max_epochs' must be an integer >= 0, got -3"),
    ({"early_stop_patience": -1}, "'early_stop_patience' must be an integer >= 0, got -1"),
    ({"learning_rate": -1}, "'learning_rate' must be a finite number > 0, got -1"),
    ({"learning_rate": 0}, "'learning_rate' must be a finite number > 0, got 0"),
    ({"learning_rate": float("nan")}, "'learning_rate' must be a finite number > 0, got nan"),
    ({"learning_rate": float("inf")}, "'learning_rate' must be a finite number > 0, got inf"),
    ({"momentum_sgd": float("nan")}, "'momentum_sgd' must be a number in [0, 1), got nan"),
    ({"momentum_sgd": 1}, "'momentum_sgd' must be a number in [0, 1), got 1"),
    ({"momentum_sgd": -0.5}, "'momentum_sgd' must be a number in [0, 1), got -0.5"),
    ({"lambda": -0.1}, "'lambda' must be a finite number >= 0, got -0.1"),
    ({"lambda": float("inf")}, "'lambda' must be a finite number >= 0, got inf"),
    ({"sep": -1.0}, "'sep' must be a finite number >= 0, got -1.0"),
    ({"sep": float("nan")}, "'sep' must be a finite number >= 0, got nan"),
    ({"c_tilde": -5}, "'c_tilde' must be null or a finite number >= 0, got -5"),
    ({"c_tilde": float("nan")}, "'c_tilde' must be null or a finite number >= 0, got nan"),
    ({"n_per_class": 1},
     "4 samples split into 3 train, 0 validation and 1 test; need at least one of each"),
    ({"n_classes": 3, "n_per_class": 3},
     "9 samples split into 7 train, 0 validation and 2 test; need at least one of each"),
    # true passed as the int 1 and crashed in Dense with a TypeError
    ({"hidden": True}, "'hidden' has a bool value: True"),
    ({"learning_rate": True}, "'learning_rate' has a bool value: True"),
    # each of these passed the check: train made the checkpoint directory
    # and drew a dataset before refusing a model or dataset, and the
    # bn_variant error named no key
    ({"model": "ResNet"}, "'model' must be one of 'MLP2', 'TinyCNN', got 'ResNet'"),
    ({"dataset": "CIFAR10"}, "'dataset' must be 'SyntheticBlobs', got 'CIFAR10'"),
    ({"bn_variant": "steins"}, "'bn_variant' must be one of 'standard', 'stein', "
     "'mean-only', 'khoshsirat', 'lasso', 'ridge', got 'steins'"),
    # the key was renamed before its type check, which named 'lam', and
    # a config giving both kept one of them silently
    ({"lambda": "x"}, "config key 'lambda' has a str value: 'x'"),
    ({"lambda": 0.5, "lam": 0.1}, "config gives both 'lambda' and 'lam'"),
    # the domain error named 'lambda' whichever key the config wrote
    ({"lam": -1}, "config key 'lam' must be a finite number >= 0, got -1"),
    ({"lambda": -1}, "config key 'lambda' must be a finite number >= 0, got -1"),
    # both levels keyed their noise as 1000 and drew the same unit noise
    ({"noise_levels": [0, 10, 10.004]}, "noise levels 10 and 10.004 would draw the same noise"),
    # the checkpoint's float64 stored 2**53 + 1 as 2**53, and eval
    # scored the model on seed 2**53's test split under that label
    ({"seeds": [2**53 + 1]}, "seed 9007199254740993 is outside [-2**53, 2**53]"),
    ({"seeds": [-(2**53) - 1]}, "seed -9007199254740993 is outside [-2**53, 2**53]"),
    # passed the config; train made the checkpoint directory, then the
    # dataset refused it
    ({"n_classes": 1}, "'n_classes' must be an integer >= 2, got 1"),
    # a config built in code took these, and train_model failed with a
    # TypeError traceback or ran a meaningless flag
    ({"batch_size": 32.0}, "config key 'batch_size' has a float value: 32.0"),
    ({"hw": 2.5}, "config key 'hw' has a float value: 2.5"),
    ({"max_epochs": 1.5}, "config key 'max_epochs' has a float value: 1.5"),
    ({"channels": 2.0}, "config key 'channels' has a float value: 2.0"),
    ({"nesterov": "yes"}, "config key 'nesterov' has a str value: 'yes'"),
    ({"feature_noise": 1}, "config key 'feature_noise' has a int value: 1"),
]
# the cases whose keys are field names, so that a config built in code can give them
BAD_FIELDS = [
    (config, message) for config, message in BAD_CONFIGS
    if isinstance(config, dict) and set(config) <= {f.name for f in dataclasses.fields(ExperimentConfig)}
]


class TestUsageAndErrors:
    def test_no_arguments_is_usage_exit_1(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        code = run_cli(
            ["noise", "sample", "--family", "gaussian", "--n", "5", "--seed", "1",
             "--out", str(tmp_path / "x.csv"), "--bogus", "1"]
        )
        assert code == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli(["risk", "gaussian", "--p", "8"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_family_exit_1(self, tmp_path, capsys):
        code = run_cli(
            ["noise", "sample", "--family", "pink", "--n", "5", "--seed", "1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_negative_sample_count_exit_1_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(["noise", "sample", "--family", "gaussian", "--n", "-1", "--seed", "1",
                        "--out", str(out)])
        assert code == 1
        assert "count must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_eps_names_epsilon_exit_1(self, tmp_path, capsys):
        code = run_cli(["risk", "gaussian", "--p", "8", "--theta-norm", "0", "--eps", "-1",
                        "--trials", "100", "--seed", "1", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "epsilon must be non-negative" in capsys.readouterr().err

    def test_bare_subcommand_is_usage(self, capsys):
        assert run_cli(["risk"]) == 1
        assert run_cli(["noise"]) == 1


class TestNoiseSample:
    def test_deterministic_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        args = ["noise", "sample", "--family", "levy-gauss", "--sigma", "1",
                "--n", "10", "--seed", "7", "--out", str(out)]
        assert run_cli(args) == 0
        first = out.read_text()
        assert run_cli(args) == 0
        assert out.read_text() == first
        lines = first.splitlines()
        assert lines[0] == "index,value"
        assert len([l for l in lines if l and not l.startswith("#") and l != lines[0]]) == 10

    def test_artifact_echoes_config_and_version(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["noise", "sample", "--family", "gaussian", "--n", "3", "--seed", "2",
                 "--out", str(out)])
        comment = [l for l in out.read_text().splitlines() if l.startswith("# config:")]
        assert comment
        echoed = json.loads(comment[0].removeprefix("# config: "))
        assert echoed["seed"] == 2
        assert echoed["version"] == __version__


class TestRisk:
    def test_gaussian_dominates_exit_0(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli(["risk", "gaussian", "--p", "8", "--theta-norm", "0",
                        "--trials", "20000", "--seed", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "Dominates"
        assert payload["config"]["version"] == __version__
        assert sorted(payload["config"]["noise"]) == ["epsilon_bound", "family", "sigma"]
        assert "Dominates" in capsys.readouterr().out

    def test_gamma_midpoint_default(self, tmp_path):
        out = tmp_path / "g.json"
        code = run_cli(["risk", "gamma", "--p", "3", "--n", "10", "--trials", "20000",
                        "--seed", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "Dominates"
        assert payload["config"]["c"] > 0

    def test_inequality_artifact(self, tmp_path):
        out = tmp_path / "iq.json"
        code = run_cli(["risk", "inequality", "--p", "10", "--theta-norm", "0",
                        "--trials", "50000", "--seed", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["holds"] is True
        assert payload["estimate"] == pytest.approx(1.0, abs=0.05)

    def test_lemma_artifact(self, tmp_path):
        out = tmp_path / "lm.json"
        code = run_cli(["risk", "lemma", "--alpha", "1", "--beta", "1", "--h", "identity",
                        "--trials", "50000", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["holds"] is True

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        log, default = tmp_path / "log.json", tmp_path / "default.json"
        lemma = ["risk", "lemma", "--alpha", "1", "--beta", "1", "--trials", "2000", "--seed", "1"]
        assert run_cli([*lemma, "--h", "log", "--out", str(log)]) == 0
        assert run_cli([*lemma, "--out", str(default)]) == 0
        assert json.loads(log.read_text())["config"]["h"] == "log"
        assert json.loads(default.read_text())["config"]["h"] == "square"

    def test_version_then_next_command(self, tmp_path, capsys):
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"steinbn {__version__}"
        out = tmp_path / "n.csv"
        assert run_cli(["noise", "sample", "--n", "3", "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text().startswith("index,value\n0,")

    def test_lemma_unknown_function_exit_1(self, tmp_path):
        code = run_cli(["risk", "lemma", "--alpha", "1", "--beta", "1", "--h", "cube",
                        "--trials", "1000", "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert code == 1

    # the parser's last value of a repeated flag wins, so each case appends
    # one non-finite value to a command that runs
    GAUSSIAN = ["risk", "gaussian", "--p", "8", "--theta-norm", "1", "--trials", "200", "--seed", "1"]
    GAMMA = ["risk", "gamma", "--p", "3", "--n", "5", "--trials", "200", "--seed", "1"]
    INEQUALITY = ["risk", "inequality", "--p", "5", "--theta-norm", "1", "--trials", "200", "--seed", "1"]
    LEMMA = ["risk", "lemma", "--alpha", "1", "--beta", "1", "--trials", "200", "--seed", "1"]
    NOISE = ["noise", "sample", "--n", "5", "--seed", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            [*GAUSSIAN, "--theta-norm", "nan"],
            [*GAUSSIAN, "--sigma", "nan"],
            [*GAUSSIAN, "--eps", "nan"],
            [*GAUSSIAN, "--k", "nan"],
            [*GAMMA, "--c", "nan"],
            [*GAMMA, "--mu", "inf"],
            [*GAMMA, "--eps", "inf"],
            [*GAMMA, "--sigmas-x", "nan"],
            [*GAMMA, "--sigmas-x", "1,nan,1"],
            [*INEQUALITY, "--theta-norm", "inf"],
            [*INEQUALITY, "--k", "nan"],
            [*LEMMA, "--alpha", "nan"],
            [*LEMMA, "--beta", "inf"],
            [*NOISE, "--sigma", "nan"],
            [*NOISE, "--family", "bounded-uniform", "--eps", "inf"],
        ],
        ids=lambda argv: "-".join(argv[1:2] + argv[-2:]),
    )
    def test_non_finite_float_flag_exit_1_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli([*argv, "--out", str(out)]) == 1
        assert f"error: argument {argv[-2]}: " in capsys.readouterr().err
        assert not out.exists()

    # CounterRng reduces seeds modulo 2**64: 1, 2**64 + 1 and -(2**64) + 1
    # drew the same noise under three labels
    @pytest.mark.parametrize("seed", [str(2**64 + 1), str(-(2**64) + 1), str(2**53 + 1), "1.5"])
    @pytest.mark.parametrize(
        "command", [GAUSSIAN, GAMMA, INEQUALITY, LEMMA, NOISE], ids=lambda c: "-".join(c[:2])
    )
    def test_seed_outside_the_config_range_exit_1_writes_nothing(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        assert run_cli([*command, "--seed", seed, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: argument --seed: '{seed}' is not an integer in [-2**53, 2**53]" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [2**53, -(2**53)])
    def test_seed_at_the_limit_draws(self, tmp_path, seed):
        out = tmp_path / "s.csv"
        assert run_cli([*self.NOISE, "--seed", str(seed), "--out", str(out)]) == 0
        assert f'"seed": {seed}' in out.read_text()

    def test_gaussian_negative_sigma_exit_1_writes_nothing(self, tmp_path, capsys):
        # sigma enters the shrinkage as sigma**2, so -1 would run the sigma = 1
        # experiment under a config echo that says -1
        out = tmp_path / "r.json"
        assert run_cli([*self.GAUSSIAN, "--sigma", "-1", "--out", str(out)]) == 1
        assert "error: sigma must be positive, got -1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("command", [GAUSSIAN, GAMMA, INEQUALITY, LEMMA], ids=lambda c: c[1])
    def test_non_positive_k_exit_1_writes_nothing(self, tmp_path, capsys, command, k):
        # a threshold of k <= 0 standard errors can call a worse estimator
        # dominant, and makes the lemma fail whatever the draws
        out = tmp_path / "out.json"
        assert run_cli([*command, "--k", k, "--out", str(out)]) == 1
        assert f"error: argument --k: '{k}' is not a positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_sigma_zero_exit_1_writes_nothing(self, tmp_path, capsys):
        # James-Stein equals the MLE at sigma = 0, so no verdict is reported
        out = tmp_path / "r.json"
        assert run_cli([*self.GAUSSIAN, "--sigma", "0", "--out", str(out)]) == 1
        assert "error: variance_scale must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaussian", "--p", "8", "--theta-norm", "1e300"],
            ["inequality", "--p", "8", "--theta-norm", "1e200"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_theta_norm_overflow_exit_1_writes_nothing(self, tmp_path, capsys, argv):
        # theta . theta is inf: gaussian wrote a vacuous Dominates with zero
        # risks, inequality an estimate of NaN
        out = tmp_path / "r.json"
        assert run_cli(["risk", *argv, "--trials", "200", "--seed", "1", "--out", str(out)]) == 1
        assert "error: theta's squared norm must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaussian", "--p", "8", "--theta-norm", "1e154"],
            ["inequality", "--p", "3", "--theta-norm", "1e150"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_theta_too_large_for_the_draws_exit_1_writes_nothing(self, tmp_path, capsys, argv):
        # theta + draw rounds every draw away: gaussian wrote risks of 0 and
        # Dominates at a margin of inf se, inequality a se of 0
        out = tmp_path / "r.json"
        assert run_cli(["risk", *argv, "--trials", "50", "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: theta's entry ")
        assert not out.exists()

    @pytest.mark.parametrize("mu, sigmas, code", [("1e15", "1", 1), ("1e17", "1", 1), ("1e15", "2e5", 0)])
    def test_mu_too_large_for_the_draws_refused(self, tmp_path, capsys, mu, sigmas, code):
        # mu + draw rounds the draws: at 1e15 to steps of 0.125, where the report
        # read Dominates at 21.18 se against 22.59 at mu 0, and at 1e17 the error
        # named the geometric mean; the refusal moves with min(sigmas_x)
        out = tmp_path / "r.json"
        assert run_cli([*self.GAMMA, "--mu", mu, "--sigmas-x", sigmas, "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err.startswith(f"error: mu={float(mu):g} rounds draws ")
        assert out.exists() == (code == 0)

    def test_gamma_sigmas_x_not_matching_p_exit_1_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(["risk", "gamma", "--p", "8", "--n", "5", "--sigmas-x", "1,2,3",
                        "--trials", "200", "--seed", "1", "--out", str(out)]) == 1
        assert "error: --sigmas-x gives 3 scales; need 1 or --p=8" in capsys.readouterr().err
        assert not out.exists()

    def test_risk_flags_keep_each_checks_default_k(self):
        parse = _build_parser().parse_args
        for command in (self.GAUSSIAN, self.GAMMA, self.INEQUALITY):
            assert parse([*command, "--out", "x"]).k == 3.0
        assert parse([*self.LEMMA, "--out", "x"]).k == 4.0

    @pytest.mark.parametrize("p", ["0", "-3"])
    @pytest.mark.parametrize("command", [GAUSSIAN, GAMMA, INEQUALITY], ids=lambda c: c[1])
    def test_non_positive_p_exit_1_names_p(self, tmp_path, capsys, command, p):
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*command, "--p", p, "--out", str(out)]) == 1
        assert f"error: argument --p: '{p}' is not a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["gaussian", "--p", "8", "--theta-norm", "1", "--eps", "0.3", "--trials", "4000"],
             "3716ef13c2cafb3caec0eea642c40581451d3c78863917f3e629b67096ce2fa3"),
            (["gamma", "--p", "4", "--n", "6", "--sigmas-x", "2,1,0.5,1.5", "--eps", "0.1",
              "--trials", "3000"],
             "d688689c588b449d528b8697287cdcd2c866e22cc76f6f068ecb96fb0b7f8e4b"),
            (["inequality", "--p", "10", "--theta-norm", "1", "--eps", "0.1", "--trials", "4000"],
             "fc39381487cde86f6bc85146b2955f44607cb82f2a7b994c69c61186e1c021b5"),
            (["lemma", "--alpha", "4.5", "--beta", "0.4", "--h", "square", "--trials", "4000"],
             "8cdbea9869317aa6297f23feb750dc9181a1ea8984163334697ac6ec3e2cce4a"),
        ],
        ids=["gaussian", "gamma", "inequality", "lemma"],
    )
    def test_golden_risk_report(self, tmp_path, argv, digest):
        # sha256 of the whole JSON report, config echo and version included,
        # recorded when the risk lab still wrote out its own shrinkage formulas
        out = tmp_path / "r.json"
        assert run_cli(["risk", *argv, "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTrainEvalReport:
    def test_train_writes_results_and_checkpoints(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "rows.csv"
        ckdir = tmp_path / "ckpts"
        code = run_cli(["train", "--config", str(cfg_path), "--out", str(out),
                        "--checkpoint-dir", str(ckdir)])
        assert code == 0
        rows = rows_from_csv(out.read_text())
        assert {r.noise_pct for r in rows} == {0.0, 10.0}
        ckpt_path = ckdir / "stein_s1.ckpt"
        assert ckpt_path.exists()
        ckpt = Checkpoint.load(ckpt_path)
        assert ckpt.config.bn_variant == "stein"

    def test_eval_roundtrip(self, tmp_path):
        cfg_path = write_config(tmp_path)
        rows_csv = tmp_path / "rows.csv"
        ckdir = tmp_path / "ckpts"
        run_cli(["train", "--config", str(cfg_path), "--out", str(rows_csv),
                 "--checkpoint-dir", str(ckdir)])
        out = tmp_path / "eval.csv"
        code = run_cli(["eval", "--checkpoint", str(ckdir / "stein_s1.ckpt"),
                        "--levels", "0,10", "--out", str(out)])
        assert code == 0
        # eval of the saved checkpoint reproduces the training-run rows
        assert rows_from_csv(out.read_text()) == rows_from_csv(rows_csv.read_text())

    def test_seeds_at_the_limit_survive_the_checkpoint(self, tmp_path):
        seeds = [2**53, -(2**53)]
        cfg_path = write_config(tmp_path, seeds=seeds, max_epochs=1)
        rows_csv = tmp_path / "rows.csv"
        ckdir = tmp_path / "ckpts"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(rows_csv),
                        "--checkpoint-dir", str(ckdir)]) == 0
        trained = rows_from_csv(rows_csv.read_text())
        for seed in seeds:
            out = tmp_path / f"eval_{seed}.csv"
            assert run_cli(["eval", "--checkpoint", str(ckdir / f"stein_s{seed}.ckpt"),
                            "--out", str(out)]) == 0
            rows = rows_from_csv(out.read_text())
            assert {r.seed for r in rows} == {seed}
            assert rows == [r for r in trained if r.seed == seed]

    @pytest.mark.parametrize(
        "levels, message",
        [
            *((f"0,{level}", f"noise level {float(level)!r} is not a number in [0, 100]")
              for level in ("-10", "150", "nan", "inf")),
            # these two exited 1 with a bare "could not convert string to float"
            ("0,abc", "--levels entry 'abc' is not a number"),
            ("0,,10", "--levels entry '' is not a number"),
            # an empty --levels exited 0 and scored the checkpoint's own levels
            ("", "--levels is empty"),
        ],
        ids=["-10", "150", "nan", "inf", "abc", "empty", "no-levels"],
    )
    def test_eval_bad_level_exit_1_writes_nothing(self, tmp_path, capsys, levels, message):
        cfg_path = write_config(tmp_path)
        ckdir = tmp_path / "ckpts"
        run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                 "--checkpoint-dir", str(ckdir)])
        capsys.readouterr()
        out = tmp_path / "eval.csv"
        code = run_cli(["eval", "--checkpoint", str(ckdir / "stein_s1.ckpt"),
                        "--levels", levels, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_eval_levels_sharing_a_stream_exit_1_writes_nothing(self, tmp_path, capsys):
        # 10 and 10.004 both keyed their noise as 1000 and drew the same unit noise
        cfg_path = write_config(tmp_path)
        ckdir = tmp_path / "ckpts"
        run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                 "--checkpoint-dir", str(ckdir)])
        capsys.readouterr()
        out = tmp_path / "eval.csv"
        code = run_cli(["eval", "--checkpoint", str(ckdir / "stein_s1.ckpt"),
                        "--levels", "0,10,10.004", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: noise levels 10.0 and 10.004 would draw the same noise"
        )
        assert not out.exists()
        # a repeated level is the same level, and levels 0.01 apart have their own streams
        assert run_cli(["eval", "--checkpoint", str(ckdir / "stein_s1.ckpt"),
                        "--levels", "10,10.0,10.01", "--out", str(out)]) == 0
        values = [r.value for r in rows_from_csv(out.read_text())]
        assert values[0] == values[1]

    @pytest.mark.parametrize(
        "feature_noise, digest",
        [
            (False, "20323eb98db95230291c5e91d8d7a037a065c0ddd4dc48ca70d720e7439ae117"),
            (True, "8c4cf909d00ddfb99071abc52e59f44166f450d0882e275cd7b7f084fe39569b"),
        ],
    )
    def test_golden_eval_csv(self, tmp_path, feature_noise, digest):
        # sha256 of the whole eval CSV, config echo and version included. The
        # input-noise digest was recorded when eval still regenerated the full
        # dataset and ran every layer at every level; the feature-noise one
        # when both placements came to score as 100 * correct / n (it had
        # pinned 100 * mean(correct), which is one bit off for 23 of 24).
        out = self._eval_golden_model(tmp_path, feature_noise, "0,25,50,75,100")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("feature_noise", [False, True])
    def test_both_placements_write_the_same_value_for_a_count(self, tmp_path, feature_noise):
        # the golden model gets 23 of its 24 test images right at level 0,
        # where input and feature noise score the same clean logits
        out = self._eval_golden_model(tmp_path, feature_noise, "0")
        (row,) = rows_from_csv(out.read_text())
        assert f"accuracy,{row.value!r}," in out.read_text()
        assert repr(row.value) == repr(100.0 * 23 / 24) == "95.83333333333333"

    @staticmethod
    def _eval_golden_model(tmp_path, feature_noise, levels):
        cfg_path = write_config(tmp_path, model="TinyCNN", n_per_class=80, hw=4, sep=1.0,
                                noise_family="gaussian", feature_noise=feature_noise)
        ckdir = tmp_path / "ckpts"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                        "--checkpoint-dir", str(ckdir)]) == 0
        out = tmp_path / "eval.csv"
        assert run_cli(["eval", "--checkpoint", str(ckdir / "stein_s1.ckpt"),
                        "--levels", levels, "--out", str(out)]) == 0
        return out

    def test_diverging_train_keeps_rows_and_flags_checkpoint(self, tmp_path):
        cfg_path = write_config(tmp_path, model="TinyCNN", learning_rate=1e6, n_per_class=50,
                                hw=4, max_epochs=5)
        out = tmp_path / "rows.csv"
        ckdir = tmp_path / "ckpts"
        with pytest.warns(UserWarning, match="diverged"):
            code = run_cli(["train", "--config", str(cfg_path), "--out", str(out),
                            "--checkpoint-dir", str(ckdir)])
        assert code == 0
        assert {r.noise_pct for r in rows_from_csv(out.read_text())} == {0.0, 10.0}
        assert load_arrays(ckdir / "stein_s1.ckpt")["__meta__"][3] == 1.0
        assert Checkpoint.load(ckdir / "stein_s1.ckpt").diverged

    def test_eval_truncated_checkpoint_exit_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        ckdir = tmp_path / "ckpts"
        run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                 "--checkpoint-dir", str(ckdir)])
        ckpt = ckdir / "stein_s1.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:20])
        capsys.readouterr()
        code = run_cli(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: truncated checkpoint")
        assert not (tmp_path / "e.csv").exists()

    def test_eval_non_utf8_array_name_exit_1(self, tmp_path, capsys):
        # the decode error of a flipped name byte named no file and no offset
        cfg_path = write_config(tmp_path)
        ckdir = tmp_path / "ckpts"
        run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                 "--checkpoint-dir", str(ckdir)])
        ckpt = ckdir / "stein_s1.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[10] ^= 0xC0  # the third byte of the first array name, which starts at offset 8
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        code = run_cli(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: corrupt checkpoint {ckpt}: array name at offset 8 is not UTF-8\n"
        assert not (tmp_path / "e.csv").exists()

    def test_eval_non_finite_checkpoint_exit_1(self, tmp_path, capsys):
        # a NaN weight under a matching checkpoint_crc32: the sidecar vouches
        # for the bytes, so only the finiteness check can refuse them
        cfg_path = write_config(tmp_path)
        ckdir = tmp_path / "ckpts"
        run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                 "--checkpoint-dir", str(ckdir)])
        ckpt_path = ckdir / "stein_s1.ckpt"
        ckpt = Checkpoint.load(ckpt_path)
        ckpt.arrays = dict(ckpt.arrays)
        ckpt.arrays["layer3.w"] = ckpt.arrays["layer3.w"].copy()
        ckpt.arrays["layer3.w"][-1, -1] = np.nan
        ckpt.save(ckpt_path)
        capsys.readouterr()
        code = run_cli(["eval", "--checkpoint", str(ckpt_path), "--out", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and "non-finite entries in layer3.w" in err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("layer1.running_mean", np.zeros(1), "'layer1.running_mean' is (1,), the model's (8,)"),
            ("layer0.b", np.zeros(1), "'layer0.b' is (1,), the model's (8,)"),
            ("layer7.b", None, "checkpoint has no array 'layer7.b'"),
            ("layer1.running_var", -np.ones(8), "'layer1.running_var' has negative entries"),
            ("bogus", np.ones(8), "array 'bogus' belongs to no layer of the model"),
        ],
        ids=["short-running-mean", "short-bias", "missing-bias", "negative-running-var", "stray-array"],
    )
    def test_eval_checkpoint_not_fitting_the_model_exit_1(self, tmp_path, capsys, key, value, message):
        # a wrong-sized, missing, invalid or stray array under a matching
        # checkpoint_crc32: only the load into the model can refuse it
        cfg_path = write_config(tmp_path, model="TinyCNN")
        ckdir = tmp_path / "ckpts"
        run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                 "--checkpoint-dir", str(ckdir)])
        ckpt_path = ckdir / "stein_s1.ckpt"
        ckpt = Checkpoint.load(ckpt_path)
        ckpt.arrays = dict(ckpt.arrays)
        if value is None:
            del ckpt.arrays[key]
        else:
            ckpt.arrays[key] = value
        ckpt.save(ckpt_path)
        capsys.readouterr()
        out = tmp_path / "e.csv"
        code = run_cli(["eval", "--checkpoint", str(ckpt_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and message in err
        assert not out.exists()

    def test_eval_unknown_family_at_level_0_exit_1(self, tmp_path, capsys):
        # level 0 draws no noise; the family is checked all the same
        cfg_path = write_config(tmp_path)
        ckdir = tmp_path / "ckpts"
        run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                 "--checkpoint-dir", str(ckdir)])
        capsys.readouterr()
        out = tmp_path / "e.csv"
        code = run_cli(["eval", "--checkpoint", str(ckdir / "stein_s1.ckpt"), "--levels", "0",
                        "--family", "bogus", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: unknown noise family 'bogus'")
        assert not out.exists()

    def test_eval_mismatched_checkpoint_pair_exit_1(self, tmp_path, capsys):
        # a .ckpt beside the .json sidecar of another save
        for seed in (1, 2):
            cfg_path = write_config(tmp_path, seeds=[seed])
            run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                     "--checkpoint-dir", str(tmp_path / f"ck{seed}")])
        ckpt = tmp_path / "ck1" / "stein_s1.ckpt"
        ckpt.write_bytes((tmp_path / "ck2" / "stein_s2.ckpt").read_bytes())
        capsys.readouterr()
        code = run_cli(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and "does not match" in err
        assert not (tmp_path / "e.csv").exists()

    def test_report_merges_and_aggregates(self, tmp_path):
        a = write_config(tmp_path, seeds=[1])
        rows_a = tmp_path / "a.csv"
        run_cli(["train", "--config", str(a), "--out", str(rows_a)])
        b = write_config(tmp_path, seeds=[2])
        rows_b = tmp_path / "b.csv"
        run_cli(["train", "--config", str(b), "--out", str(rows_b)])
        out = tmp_path / "summary.csv"
        gp = tmp_path / "summary.dat"
        code = run_cli(["report", str(rows_a), str(rows_b), "--out", str(out),
                        "--gnuplot", str(gp)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "method,batch_size,noise_pct,metric,mean,sd,n_seeds"
        assert all(l.split(",")[6] == "2" for l in lines[1:])
        assert gp.read_text().splitlines()[0].startswith("method batch_size")

    def test_report_empty_inputs_exit_1(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("method,batch_size,noise_pct,seed,metric,value,epochs\n")
        assert run_cli(["report", str(empty), "--out", str(tmp_path / "s.csv")]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n", "line 1: results header has no column method"),
            ("# a comment\n" + RESULTS_HEADER + "\nstein,32,0\n",
             "line 3: its field count differs from the header's"),
            (RESULTS_HEADER + "\nstein,32,0,1,accuracy,50,3\nstein,abc,0,1,accuracy,50,3\n",
             "line 3: invalid literal for int() with base 10: 'abc'"),
            (RESULTS_HEADER + "\n# a comment\nstein,32,0,1,accuracy,150,3\n",
             "line 3: metric value 150.0 is not a percentage in [0, 100]"),
            # rows no run can write: the two nan rows landed in two cells (nan
            # != nan), each written as a single-seed warning with exit 0, and
            # the last row was accepted
            (RESULTS_HEADER + "\nstein,32,nan,1,accuracy,60,3\nstein,32,nan,2,accuracy,70,3\n",
             "line 2: noise level nan is not a number in [0, 100]"),
            (RESULTS_HEADER + "\nstein,32,0,1,accuracy,60,3\nstein,-5,inf,3,accuracy,60,-2\n",
             "line 3: batch_size -5 is not an integer >= 2"),
            (RESULTS_HEADER + "\nstein,32,inf,3,accuracy,60,3\n",
             "line 2: noise level inf is not a number in [0, 100]"),
            (RESULTS_HEADER + "\nstein,32,10,3,accuracy,60,-2\n",
             "line 2: epochs -2 is not an integer >= 0"),
            # these two rows made the cell bogus,32,0.0,accuracy,65,7.07107,2
            # with exit 0
            (RESULTS_HEADER + "\nbogus,32,0,99999999999999999999,accuracy,60,3\n"
             "bogus,32,0,2,accuracy,70,3\n",
             "line 2: method 'bogus' is not one of 'standard', 'stein'"),
            (RESULTS_HEADER + "\nstein,32,0,99999999999999999999,accuracy,60,3\n",
             "line 2: seed 99999999999999999999 is outside [-2**53, 2**53]"),
            # these two rows made the cell stein,32,0.0,bogus metric,65,7.07107,2
            # with exit 0
            (RESULTS_HEADER + "\nstein,32,0,1,bogus metric,60,3\nstein,32,0,2,bogus metric,70,3\n",
             "line 2: metric 'bogus metric' is not one of 'accuracy'"),
        ],
    )
    def test_report_malformed_csv_exit_1(self, tmp_path, capsys, text, message):
        rows = tmp_path / "rows.csv"
        rows.write_text(text)
        out = tmp_path / "s.csv"
        assert run_cli(["report", str(rows), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rows}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "out, message",
        [("missing/rows.csv", "its directory does not exist"), ("results", "it is a directory")],
    )
    def test_out_not_writable_exit_1_before_any_work(self, tmp_path, capsys, out, message):
        # train used to train and checkpoint every seed, then fail naming a
        # temp file and lose the rows
        cfg_path = write_config(tmp_path)
        (tmp_path / "results").mkdir()
        out = tmp_path / out
        ckdir = tmp_path / "ckpts"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(out),
                        "--checkpoint-dir", str(ckdir)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: {message}\n"
        assert not ckdir.exists()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "results"]

    def test_checkpoint_dir_naming_a_file_exit_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        # this exited 1 with a bare "[Errno 17] File exists" from os.makedirs
        cfg_path = write_config(tmp_path)
        ckdir = tmp_path / "ckpts"
        ckdir.write_text("not a directory\n")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*")}
        monkeypatch.setattr("steinbn.harness.train_model", None)  # no training may start
        out = tmp_path / "rows.csv"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(out),
                        "--checkpoint-dir", str(ckdir)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot save checkpoints in {ckdir}: it exists and is not a directory\n"
        )
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")} == before

    def test_report_gnuplot_in_a_missing_directory_exit_1_writes_nothing(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text(RESULTS_HEADER + "\nstein,32,0.0,1,accuracy,50.0,3\n")
        out, gp = tmp_path / "s.csv", tmp_path / "missing" / "s.dat"
        assert run_cli(["report", str(rows), "--out", str(out), "--gnuplot", str(gp)]) == 1
        assert f"error: cannot write {gp}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_1(self, tmp_path):
        assert run_cli(["train", "--config", str(tmp_path / "none.json"),
                        "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("config, message", BAD_CONFIGS)
    def test_bad_config_exit_1(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        bad_ckdir = tmp_path / "bad_ckpts"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(out),
                        "--checkpoint-dir", str(bad_ckdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()
        assert not bad_ckdir.exists()
        # eval reads the same config from a checkpoint's .json sidecar
        cfg_ok = write_config(tmp_path)
        ckdir = tmp_path / "ckpts"
        assert run_cli(["train", "--config", str(cfg_ok), "--out", str(out),
                        "--checkpoint-dir", str(ckdir)]) == 0
        (ckdir / "stein_s1.ckpt.json").write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli(["eval", "--checkpoint", str(ckdir / "stein_s1.ckpt"),
                        "--out", str(tmp_path / "e.csv")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", BAD_FIELDS)
    def test_bad_config_built_in_code_gives_the_json_message(self, config, message):
        # only the JSON path checked types: ExperimentConfig(hw=2.5) was
        # built, and train_model failed with a TypeError traceback
        with pytest.raises(InvalidInputError) as from_json:
            ExperimentConfig.from_json(json.dumps(config))
        with pytest.raises(InvalidInputError) as in_code:
            ExperimentConfig(**config)
        assert str(in_code.value) == str(from_json.value)
        assert message in str(in_code.value)

    @pytest.mark.parametrize("feature_noise", [False, True])
    def test_train_rows_equal_eval_of_each_checkpoint(self, tmp_path, feature_noise):
        # train and eval score through one path on the split that the config
        # and seed imply, so eval of every saved checkpoint at the config's
        # levels and family writes the rows that train wrote, byte for byte
        seeds = [1, 2]
        cfg_path = write_config(tmp_path, model="TinyCNN", hw=4, seeds=seeds, sep=1.0,
                                noise_levels=[0, 10, 30], feature_noise=feature_noise)
        rows_csv, ckdir = tmp_path / "rows.csv", tmp_path / "ckpts"
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(rows_csv),
                        "--checkpoint-dir", str(ckdir)]) == 0
        evaluated = [RESULTS_HEADER]
        for seed in seeds:
            out = tmp_path / f"eval_{seed}.csv"
            assert run_cli(["eval", "--checkpoint", str(ckdir / f"stein_s{seed}.ckpt"),
                            "--out", str(out)]) == 0
            evaluated += out.read_text().splitlines()[1:-1]  # the header, then the config echo
        trained = [ln for ln in rows_csv.read_text().splitlines() if not ln.startswith("#")]
        assert len(trained) == 1 + 3 * len(seeds)
        assert evaluated == trained

    @staticmethod
    def _trained_sweep(tmp_path):
        """A config, the rows and checkpoints its train wrote, and every file's bytes."""
        cfg_path = write_config(tmp_path, seeds=[1, 2], max_epochs=1)
        assert run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                        "--checkpoint-dir", str(tmp_path / "ck")]) == 0
        (tmp_path / "link.json").symlink_to(cfg_path)
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["train", "--config", "config.json", "--out", "config.json"], "config.json"),
            (["train", "--config", "config.json", "--out", "link.json"], "link.json"),
            (["train", "--config", "config.json", "--out", "ck/stein_s2.ckpt",
              "--checkpoint-dir", "ck"], "ck/stein_s2.ckpt"),
            (["train", "--config", "config.json", "--out", "ck/stein_s1.ckpt.json",
              "--checkpoint-dir", "ck/../ck"], "ck/stein_s1.ckpt.json"),
            (["eval", "--checkpoint", "ck/stein_s1.ckpt", "--out", "ck/stein_s1.ckpt"],
             "ck/stein_s1.ckpt"),
            (["eval", "--checkpoint", "ck/stein_s1.ckpt", "--out", "ck/../ck/stein_s1.ckpt.json"],
             "ck/../ck/stein_s1.ckpt.json"),
            (["report", "rows.csv", "--out", "rows.csv"], "rows.csv"),
            (["report", "config.json", "rows.csv", "--out", "s.csv", "--gnuplot", "rows.csv"],
             "rows.csv"),
            (["report", "rows.csv", "--out", "s.csv", "--gnuplot", "./s.csv"], "./s.csv"),
        ],
        ids=["train-config", "train-config-symlink", "train-checkpoint", "train-sidecar",
             "eval-checkpoint", "eval-sidecar", "report-out", "report-gnuplot", "report-both"],
    )
    def test_output_replacing_an_input_or_output_exit_1_changes_nothing(
        self, tmp_path, capsys, monkeypatch, argv, path
    ):
        # each of these exited 0 and wrote over what it read, or train
        # trained and saved checkpoints, then wrote its rows over one
        before = self._trained_sweep(tmp_path)
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("steinbn.harness.train_model", None)  # no training may start
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: this command ")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["train", "--config", "config.json", "--out", ""], "--out"),
            (["train", "--config", "config.json", "--out", "r.csv", "--checkpoint-dir", ""],
             "--checkpoint-dir"),
            (["eval", "--checkpoint", "ck/stein_s1.ckpt", "--out", ""], "--out"),
            (["eval", "--checkpoint", "ck/stein_s1.ckpt", "--out", "e.csv", "--family", ""],
             "--family"),
            (["eval", "--checkpoint", "", "--out", "e.csv"], "--checkpoint"),
            (["report", "rows.csv", "--out", "s.csv", "--gnuplot", ""], "--gnuplot"),
            (["noise", "sample", "--n", "3", "--seed", "1", "--out", ""], "--out"),
            (["risk", "lemma", "--alpha", "2", "--beta", "1", "--trials", "10", "--seed", "1",
              "--out", ""], "--out"),
        ],
        ids=["train-out", "train-checkpoint-dir", "eval-out", "eval-family", "eval-checkpoint",
             "report-gnuplot", "noise-out", "risk-out"],
    )
    def test_empty_flag_value_exit_1_before_any_work(self, tmp_path, capsys, monkeypatch, argv, flag):
        # --out '' trained, then failed renaming a temp file to ''; an empty
        # --checkpoint-dir, --gnuplot or --family read as not given and exited 0
        before = self._trained_sweep(tmp_path)
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("steinbn.harness.train_model", None)  # no training may start
        monkeypatch.setattr("steinbn.cli.evaluate_under_noise", None)  # nor any scoring
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {flag} is empty\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_report_counts_a_run_repeated_across_inputs_once(self, tmp_path):
        # the same file given twice read as two seeds with sd 0
        rows = tmp_path / "rows.csv"
        rows.write_text(RESULTS_HEADER + "\nstein,32,0.0,1,accuracy,50.0,3\n"
                        "stein,32,0.0,2,accuracy,60.0,3\nstein,32,10.0,1,accuracy,40.0,3\n")
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the 10% cell holds one seed
            assert run_cli(["report", str(rows), "--out", str(once)]) == 0
            assert run_cli(["report", str(rows), str(rows), "--out", str(twice)]) == 0
        body = [ln for ln in twice.read_text().splitlines() if not ln.startswith("# config")]
        assert body == [ln for ln in once.read_text().splitlines() if not ln.startswith("# config")]
        assert "stein,32,0.0,accuracy,55,7.07107,2" in body

    def test_report_two_values_for_a_seed_exit_1_writes_nothing(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(RESULTS_HEADER + "\nstein,32,0.0,1,accuracy,50.0,3\nstein,32,0.0,2,accuracy,60.0,3\n")
        b.write_text(RESULTS_HEADER + "\nstein,32,0.0,1,accuracy,55.0,3\n")
        out = tmp_path / "s.csv"
        assert run_cli(["report", str(a), str(b), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: cell ('stein', 32, 0.0, 'accuracy') has two values for seed 1: 50.0 and 55.0\n"
        )
        assert not out.exists()

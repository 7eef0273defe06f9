"""Command-line entry point for the shrinkage laboratory.

Subcommands:
  risk gaussian|gamma|inequality|lemma   Monte Carlo dominance and identity checks
  noise sample                           draw perturbations to CSV
  train                                  run a training sweep from a JSON config
  eval                                   re-evaluate a saved checkpoint under noise
  report                                 merge result CSVs into a summary table

Exit codes: 0 success, 1 invalid input, 2 dominance verdict Violated. All
artifacts are written atomically (temp file + rename) and echo the resolved
configuration plus the tool version.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .harness import (
    Checkpoint,
    ExperimentConfig,
    aggregate_results,
    atomic_write_bytes,
    check_seed,
    checkpoint_path,
    evaluate_under_noise,
    rows_from_csv,
    rows_to_csv,
    run_sweep,
)
from .noise import NoiseSpec, sample_noise_flat, truncated_levy_gauss
from .rng import CounterRng
from .risk import (
    VERDICT_VIOLATED,
    GammaTrialSpec,
    mc_key_inequality,
    mc_risk_gamma,
    mc_risk_gaussian,
    mc_stein_gamma_lemma,
)
from .tensor import InvalidInputError


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# namespace keys that route a call or name its artifact; _echo leaves them out
_NOT_CONFIG = ("command", "risk_command", "noise_command", "run", "out", "gnuplot")


def _atomic_write(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _finite(text: str) -> float:
    """A float flag's value; nan and inf are refused at the parser."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive(text: str) -> float:
    """A flag that must be a finite number above 0, such as a threshold in se."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _positive_int(text: str) -> int:
    """A dimension flag, which must be an integer above 0."""
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")


def _seed(text: str) -> int:
    """A --seed flag: an integer in ExperimentConfig's seed range. CounterRng
    reduces seeds modulo 2**64, so a seed outside it could draw another
    seed's stream under its own label."""
    try:
        seed = int(text)
        check_seed(seed)
        return seed
    except ValueError:  # an InvalidInputError is one
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [-2**53, 2**53]")


def _levels(text: str) -> list[float]:
    """eval's --levels: a comma list of numbers. An entry float() cannot read
    is refused by name here; evaluate_under_noise refuses a number out of range."""
    levels = []
    for entry in text.split(","):
        try:
            levels.append(float(entry))
        except ValueError:
            raise InvalidInputError(f"--levels entry {entry!r} is not a number") from None
    return levels


def _finite_list(text: str) -> np.ndarray:
    return np.array([_finite(s) for s in text.split(",")])


def _theta(p: int, norm: float) -> np.ndarray:
    """Deterministic direction: theta = norm/sqrt(p) * (1,...,1)."""
    return np.full(p, norm / np.sqrt(p))


def _csv_with_config(body: str, config: dict) -> str:
    """Append the resolved config as trailing comment lines."""
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    return body + "\n".join(lines) + "\n"


def _risk_flags(k: float = 3.0) -> argparse.ArgumentParser:
    """Parent parser of the flags every risk check takes, with k the check's
    default threshold in standard errors. Each check gets its own: subparsers
    share their parents' actions, so a set_defaults(k=...) on one check would
    set the default of all four."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--trials", type=int, required=True)
    flags.add_argument("--seed", type=_seed, required=True)
    flags.add_argument("--k", type=_positive, default=k)
    flags.add_argument("--out", required=True)
    return flags


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing keeps no state
    in it, as every call parses into a fresh namespace."""
    parser = _Parser(prog="steinbn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"steinbn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    risk = sub.add_parser("risk", help="Monte Carlo risk and identity checks")
    rsub = risk.add_subparsers(dest="risk_command", required=True)

    g = rsub.add_parser("gaussian", parents=[_risk_flags()], help="James-Stein vs MLE mean risk")
    g.add_argument("--p", type=_positive_int, required=True)
    g.add_argument("--theta-norm", type=_finite, required=True)
    g.add_argument("--sigma", type=_finite, default=1.0)
    g.add_argument("--eps", type=_finite, default=0.0, help="truncation bound of the mixture noise")
    g.set_defaults(run=_cmd_gaussian)

    gm = rsub.add_parser("gamma", parents=[_risk_flags()], help="geometric-mean shrinkage vs naive variance risk")
    gm.add_argument("--p", type=_positive_int, required=True)
    gm.add_argument("--n", type=int, required=True)
    gm.add_argument("--mu", type=_finite, default=0.0)
    gm.add_argument("--sigmas-x", type=_finite_list, default="1", help="comma list of scales; a single value is broadcast")
    gm.add_argument("--c", type=_finite, default=None, help="shrinkage constant; default midpoint of the classical interval")
    gm.add_argument("--eps", type=_finite, default=0.0)
    gm.set_defaults(run=_cmd_gamma)

    iq = rsub.add_parser("inequality", parents=[_risk_flags()], help="key expectation inequality check")
    iq.add_argument("--p", type=_positive_int, required=True)
    iq.add_argument("--theta-norm", type=_finite, required=True)
    iq.add_argument("--eps", type=_finite, default=0.0)
    iq.set_defaults(run=_cmd_inequality)

    lm = rsub.add_parser("lemma", parents=[_risk_flags(k=4.0)], help="Gamma Stein identity on the catalog")
    lm.add_argument("--alpha", type=_finite, required=True)
    lm.add_argument("--beta", type=_finite, required=True)
    lm.add_argument("--h", default="square", help="catalog function name")
    lm.set_defaults(run=_cmd_lemma)

    noise = sub.add_parser("noise", help="perturbation sampling")
    nsub = noise.add_subparsers(dest="noise_command", required=True)
    ns = nsub.add_parser("sample", help="draw i.i.d. perturbations to CSV")
    ns.add_argument("--family", default="levy-gauss")
    ns.add_argument("--sigma", type=_finite, default=1.0)
    ns.add_argument("--eps", type=_finite, default=0.0)
    ns.add_argument("--n", type=int, required=True)
    ns.add_argument("--seed", type=_seed, required=True)
    ns.add_argument("--out", required=True)
    ns.set_defaults(run=_cmd_noise)

    tr = sub.add_parser("train", help="training sweep from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True, help="results CSV path")
    tr.add_argument("--checkpoint-dir", default=None)
    tr.set_defaults(run=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint under a noise sweep")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--levels", default=None, help="comma list; default from checkpoint config")
    ev.add_argument("--family", default=None)
    ev.add_argument("--out", required=True)
    ev.set_defaults(run=_cmd_eval)

    rp = sub.add_parser("report", help="merge result CSVs into a summary table")
    rp.add_argument("inputs", nargs="+")
    rp.add_argument("--out", required=True)
    rp.add_argument("--gnuplot", default=None, help="optional whitespace-separated data file")
    rp.set_defaults(run=_cmd_report)

    return parser


def _echo(args) -> dict:
    """The parsed arguments that configure the run, plus the tool version."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    config["version"] = __version__
    return config


def _cmd_lemma(args) -> int:
    ((lhs, rhs, gap),) = mc_stein_gamma_lemma(args.alpha, args.beta, [args.h], args.trials, args.seed)
    payload = {"lhs": lhs, "rhs": rhs, "gap_in_se": gap, "holds": abs(gap) < args.k}
    payload["config"] = _echo(args)
    _atomic_write(args.out, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_inequality(args) -> int:
    noise = truncated_levy_gauss(args.eps)
    ((est, se, holds),) = mc_key_inequality(
        [_theta(args.p, args.theta_norm)], noise, args.trials, args.seed, k=args.k
    )
    payload = {"estimate": est, "se": se, "holds": holds, "config": _echo(args)}
    _atomic_write(args.out, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _write_verdict(args, report) -> int:
    report.config["version"] = __version__
    _atomic_write(args.out, report.to_json())
    print(f"{report.verdict} (margin {report.margin_se:.2f} se)")
    return 2 if report.verdict == VERDICT_VIOLATED else 0


def _cmd_gaussian(args) -> int:
    noise = truncated_levy_gauss(args.eps)
    (report,) = mc_risk_gaussian(
        [_theta(args.p, args.theta_norm)], args.sigma, noise, args.trials, args.seed, k=args.k
    )
    return _write_verdict(args, report)


def _cmd_gamma(args) -> int:
    noise = truncated_levy_gauss(args.eps)
    sigmas = args.sigmas_x
    if sigmas.size == 1:
        sigmas = np.full(args.p, sigmas[0])
    if sigmas.size != args.p:
        raise InvalidInputError(f"--sigmas-x gives {sigmas.size} scales; need 1 or --p={args.p}")
    spec = GammaTrialSpec(n=args.n, mu=args.mu, sigmas_x=sigmas, noise=noise, c=args.c)
    (report,) = mc_risk_gamma([spec], args.trials, args.seed, k=args.k)
    return _write_verdict(args, report)


def _cmd_noise(args) -> int:
    spec = NoiseSpec(family=args.family, sigma=args.sigma, epsilon_bound=args.eps)
    draws = sample_noise_flat(spec, args.n, CounterRng(args.seed), 1)
    body = "index,value\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(draws))
    _atomic_write(args.out, _csv_with_config(body, _echo(args)))
    return 0


def _cmd_train(args) -> int:
    with open(args.config) as f:
        config = ExperimentConfig.from_json(f.read())
    if args.checkpoint_dir:
        if os.path.exists(args.checkpoint_dir) and not os.path.isdir(args.checkpoint_dir):
            raise InvalidInputError(
                f"cannot save checkpoints in {args.checkpoint_dir}: it exists and is not a directory"
            )
        ckpts = [checkpoint_path(args.checkpoint_dir, config, seed) for seed in config.seeds]
        _check_distinct([*ckpts, *(p + ".json" for p in ckpts), args.out], [args.config])
    rows = run_sweep(config, args.checkpoint_dir)
    echo = config.to_dict()
    echo["version"] = __version__
    _atomic_write(args.out, _csv_with_config(rows_to_csv(rows), echo))
    return 0


def _cmd_eval(args) -> int:
    ckpt = Checkpoint.load(args.checkpoint)
    config = ckpt.config
    levels = _levels(args.levels) if args.levels else config.noise_levels
    family = args.family or config.noise_family
    rows = evaluate_under_noise(ckpt, levels, family)
    echo = config.to_dict()
    echo.update({"levels": levels, "family": family, "version": __version__})
    _atomic_write(args.out, _csv_with_config(rows_to_csv(rows), echo))
    return 0


def _cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        with open(path) as f:
            try:
                rows.extend(rows_from_csv(f.read()))
            except InvalidInputError as exc:
                raise InvalidInputError(f"{path}: {exc}") from None
    if not rows:
        raise InvalidInputError("no result rows found in the given inputs")
    summary = aggregate_results(rows)
    _atomic_write(args.out, _csv_with_config(summary, _echo(args)))
    if args.gnuplot:
        data = summary.splitlines()
        body = "\n".join(line.replace(",", " ") for line in data if not line.startswith("#"))
        _atomic_write(args.gnuplot, body + "\n")
    return 0


def _inputs(args) -> list[str]:
    """The files the command reads."""
    if args.command == "train":
        return [args.config]
    if args.command == "eval":
        return [args.checkpoint, args.checkpoint + ".json"]
    return vars(args).get("inputs", [])


def _check_distinct(outputs, inputs) -> None:
    """Refuse an output that resolves to an input or to an earlier output,
    which writing it would replace."""
    taken = {os.path.realpath(path): "reads" for path in inputs}
    for path in outputs:
        real = os.path.realpath(path)
        if real in taken:
            raise InvalidInputError(f"cannot write {path}: this command {taken[real]} it")
        taken[real] = "also writes"


def _check_given(args) -> None:
    """Refuse a flag given an empty value, which would otherwise read as not
    given (``--checkpoint-dir``, ``--gnuplot``, ``--levels``, ``--family``)
    or fail once the work is done (``--out``)."""
    for name, value in vars(args).items():
        if isinstance(value, str) and not value:
            raise InvalidInputError(f"--{name.replace('_', '-')} is empty")


def _check_out_paths(args) -> None:
    """Refuse an output path that names a directory, lies in none, or would
    replace an input or the other output, before any work."""
    outputs = list(filter(None, (args.out, vars(args).get("gnuplot"))))
    for path in outputs:
        if os.path.isdir(path):
            raise InvalidInputError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise InvalidInputError(f"cannot write {path}: its directory does not exist")
    _check_distinct(outputs, _inputs(args))


def run_cli(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_given(args)
        _check_out_paths(args)
        return args.run(args)
    except (InvalidInputError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Monte Carlo risk laboratory.

Estimates mean-squared risks of shrinkage estimators against their naive
counterparts under additive perturbations, checks the key expectation
inequality behind the Gaussian dominance result, and verifies the Gamma
Stein identity on a small catalog of test functions.

Dominance verdicts are decided on the PAIRED per-trial risk difference: both
estimators see the same draws, so the difference has a far smaller standard
error than either risk alone. Per-estimator risks and standard errors are
still reported.

Theorems 1 and 2 and the key inequality are each a score over one grid loop,
``_score_grid``, the only reader of the clean-normal and noise draws; it and
the Gamma-identity check run on one blocked driver, ``_run_trials``, which
cuts the trials into blocks of about ``_BLOCK`` draws, so a block's memory
does not grow with the trial count or with the draws per trial. A trial's
values depend only on its own counter-stream entries and every reduction runs
over the full per-trial columns, so results do not depend on the block size.
Draws and scores run with numpy's floating-point warnings off; a check whose
draws overflow float64 is refused where it reports, as a mean or standard
error that is not finite (``_finite``), or, for the key inequality, an
infinite Z'Z.

Each check takes a grid of the one parameter that does not enter its draws
(theta vectors for Theorem 1 and the key inequality, specs that differ only
in scales, mean and c for Theorem 2, catalog names for the lemma), draws
once, scores every entry on the same draws and returns a list of results,
one per entry, each ``==`` to the result of a grid of that entry alone.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimators import classical_c_bound, gamma_scale_shrink, js_mean_classical, variance_gamma_params
from .noise import NoiseSpec, sample_noise_flat
from .rng import CounterRng
from .tensor import InvalidInputError, check_domains, is_real

# stream tags keep draw families disjoint within one seed
_TAG_CLEAN = 1
_TAG_NOISE = 2
_TAG_GAMMA = 3

# draws per block, whatever the draws per trial: each array a block allocates
# holds about this many floats (512 KiB), and a trial larger than a block
# runs as a block of its own
_BLOCK = 1 << 16

# the largest float64 spacing of theta's entries (or of mu), as a share of the
# draws' scale, that a check accepts. Z = theta + draw rounds each draw to
# that spacing; at 1e-6 of the scale the rounding moves a squared error by
# about 1e-6 of itself, which only some 1e12 trials could resolve. Far beyond
# it, the draws are lost and every error reads 0
_THETA_SPACING_SHARE = 1e-6

VERDICT_DOMINATES = "Dominates"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_VIOLATED = "Violated"


@dataclass
class RiskReport:
    """Risk estimates with standard errors plus the dominance verdict."""

    estimator_risks: dict[str, tuple[float, float]]
    n_trials: int
    config: dict
    verdict: str
    margin_se: float
    k: float = 3.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _finite(*values: float) -> tuple[float, ...]:
    """values, refused unless every one is finite: a NaN or infinite mean or
    standard error comes from values that overflowed float64."""
    if not all(map(math.isfinite, values)):
        shown = ", ".join(map(str, values))
        raise InvalidInputError(f"a Monte Carlo mean or standard error is not finite ({shown}): "
                                "the checked values overflow float64")
    return values


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    with np.errstate(all="ignore"):
        return _finite(float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size)))


def _verdict(diff: np.ndarray, k: float) -> tuple[str, float]:
    """Classify the paired difference (shrunk minus baseline)."""
    mean, se = _mean_se(diff)
    # exact per-trial equality (e.g. c = 0) counts as weak dominance
    if se == 0 and mean == 0:
        return VERDICT_DOMINATES, float("inf")
    margin = -mean / se if se > 0 else float(np.inf * np.sign(-mean))
    if mean + k * se < 0:
        return VERDICT_DOMINATES, float(margin)
    if mean - k * se > 0:
        return VERDICT_VIOLATED, float(margin)
    return VERDICT_INCONCLUSIVE, float(margin)


def _run_trials(n_trials: int, draws_per_trial: int, trial) -> list[np.ndarray]:
    """Per-trial columns of ``trial(lo, hi)`` run over consecutive blocks of
    about ``_BLOCK`` draws, and of at least one trial.

    ``trial`` returns one array of hi - lo values per column.
    """
    if n_trials < 2:
        raise InvalidInputError("need at least 2 trials")
    block = max(1, _BLOCK // draws_per_trial)
    columns = None
    for lo in range(0, n_trials, block):
        hi = min(lo + block, n_trials)
        with np.errstate(all="ignore"):
            values = trial(lo, hi)
        if columns is None:
            columns = [np.empty(n_trials) for _ in values]
        for column, v in zip(columns, values):
            column[lo:hi] = v
    return columns


def _score_grid(grid, noise: NoiseSpec, shape, n_trials: int, seed: int, score) -> list[list[np.ndarray]]:
    """Per-trial columns of ``score(entry, unit, y)``, one list per entry of
    ``grid``, all on the same draws: per block of trials, unit normals N and
    noise Y, each shaped (trials, *shape), from which a score forms
    Z = (loc + scale * N) + Y, writing neither, and returns its columns."""
    rng = CounterRng(seed)
    per = math.prod(shape)

    def trial(lo, hi):
        cnt = (hi - lo) * per
        unit = rng.normal(cnt, _TAG_CLEAN, offset=lo * per).reshape(-1, *shape)
        y = sample_noise_flat(noise, cnt, rng, _TAG_NOISE, offset=lo * per).reshape(-1, *shape)
        return [column for entry in grid for column in score(entry, unit, y)]

    columns = _run_trials(n_trials, per, trial)
    width = len(columns) // len(grid)
    return [columns[i:i + width] for i in range(0, len(columns), width)]


def _thetas(theta, sigma: float) -> np.ndarray:
    """The grid theta as (m, p) rows, one per vector.

    A theta whose squared norm overflows is refused, as no risk of it is
    finite, and so is one whose largest entry rounds off draws of scale sigma
    (see _check_spacing); a sigma <= 0 is left to the caller.
    """
    thetas = np.asarray(theta, dtype=np.float64)
    if thetas.ndim != 2 or thetas.size == 0:
        raise InvalidInputError(f"theta must be a sequence of vectors, got shape {thetas.shape}")
    norm_sq = np.einsum("ij,ij->i", thetas, thetas)
    if not np.all(np.isfinite(norm_sq)):
        raise InvalidInputError(f"theta's squared norm must be finite, got {norm_sq.max()}")
    top = np.abs(thetas).max()
    _check_spacing(f"theta's entry {top:g}", top, "sigma", sigma)
    return thetas


def _check_spacing(what: str, offset: float, scale_name: str, scale: float) -> None:
    """Refuse an offset whose float64 spacing, the step that adding draws to it
    rounds them to, exceeds _THETA_SPACING_SHARE of their scale when it is > 0."""
    step = np.spacing(abs(offset))
    if step > _THETA_SPACING_SHARE * scale > 0:
        raise InvalidInputError(f"{what} rounds draws of scale {scale_name}={scale:g} to steps of "
                                f"{step:g}, above {_THETA_SPACING_SHARE:g} of that scale")


def _paired_report(errors: dict[str, np.ndarray], k: float, config: dict) -> RiskReport:
    """Risk per estimator, and the verdict on the paired difference of the
    shrunk estimator's per-trial errors (second entry) minus the naive one's."""
    naive, shrunk = errors.values()
    verdict, margin = _verdict(shrunk - naive, k)
    return RiskReport(
        estimator_risks={name: _mean_se(err) for name, err in errors.items()},
        n_trials=naive.size,
        config=config,
        verdict=verdict,
        margin_se=margin,
        k=k,
    )


def mc_risk_gaussian(
    theta,
    sigma: float,
    noise: NoiseSpec,
    n_trials: int,
    seed: int,
    k: float = 3.0,
) -> list[RiskReport]:
    """Risks of the James-Stein mean estimator vs the MLE on Z = X + Y, one
    report per vector of the sequence ``theta``, all scored on the same draws."""
    # sigma**2 would lose a negative sign, and at sigma = 0 James-Stein is the MLE
    if not (is_real(sigma) and 0 < sigma < math.inf):
        raise InvalidInputError(f"sigma must be a finite number > 0, got {sigma!r}")
    if sigma >= 2.0**512:  # the least float whose square overflows
        raise InvalidInputError(f"sigma={sigma:g} squared overflows float64")
    thetas = _thetas(theta, sigma)
    p = thetas.shape[1]

    def score(t, unit, y):
        z = sigma * unit
        z += t
        z += y
        d = js_mean_classical(z, sigma**2)
        d -= t
        z -= t
        return np.einsum("ij,ij->i", z, z), np.einsum("ij,ij->i", d, d)

    reports = []
    for t, (err_mle, err_js) in zip(thetas, _score_grid(thetas, noise, (p,), n_trials, seed, score)):
        config = {
            "model": "gaussian",
            "p": p,
            "theta_norm": float(np.linalg.norm(t)),
            "sigma": sigma,
            "noise": asdict(noise),
            "seed": seed,
            "k": k,
        }
        reports.append(_paired_report({"mle": err_mle, "js": err_js}, k, config))
    return reports


# (what it must be, test) per GammaTrialSpec field it checks; variance_gamma_params checks n
_SPEC_DOMAINS = {
    "mu": ("a finite number", lambda v: is_real(v) and math.isfinite(v)),
    "sigmas_x": ("a vector of p >= 2 finite positive scales",
                 lambda v: v.ndim == 1 and v.size >= 2 and bool(np.all(np.isfinite(v) & (v > 0)))),
    "c": ("null or a finite number", lambda v: v is None or is_real(v) and math.isfinite(v)),
}


@dataclass(frozen=True)
class GammaTrialSpec:
    """One perturbed empirical-variance experiment on p = len(sigmas_x)
    coordinates; c=None picks the classical midpoint."""

    n: int
    mu: float
    sigmas_x: np.ndarray
    noise: NoiseSpec
    c: float | None = None
    alpha: float = field(init=False)
    betas: np.ndarray = field(init=False, repr=False)

    @property
    def p(self) -> int:
        return self.sigmas_x.size

    def __post_init__(self):
        sig = np.asarray(self.sigmas_x, dtype=np.float64)
        check_domains([("mu", self.mu), ("sigmas_x", sig), ("c", self.c)], _SPEC_DOMAINS)
        _check_spacing(f"mu={self.mu:g}", self.mu, "min(sigmas_x)", sig.min())  # Z = sigma_x * N + mu
        gamma = variance_gamma_params(sig**2, self.n)
        if self.c is None:
            object.__setattr__(self, "c", classical_c_bound(gamma.alpha, sig.size) / 2.0)
        object.__setattr__(self, "sigmas_x", sig)
        object.__setattr__(self, "alpha", gamma.alpha)
        object.__setattr__(self, "betas", gamma.betas)


def mc_risk_gamma(
    specs: Sequence[GammaTrialSpec], n_trials: int, seed: int, k: float = 3.0
) -> list[RiskReport]:
    """Risks of the geometric-mean shrinkage vs the naive Gamma-scale estimator.

    Per trial, n samples per coordinate of Z = X + Y are drawn, empirical
    variances (population convention) are formed, and both estimators of the
    CLEAN scale parameters beta_i = 2*sigma_x_i^2/n are scored.

    One report per spec of ``specs``, all scored on the same draws; the specs
    must agree on p, n and noise.
    """
    specs = list(specs)
    if not specs:
        raise InvalidInputError("need at least one spec")
    p, n, noise = specs[0].p, specs[0].n, specs[0].noise
    if any((s.p, s.n, s.noise) != (p, n, noise) for s in specs):
        raise InvalidInputError("specs scored on shared draws must agree on p, n and noise")

    def score(s, unit, y):
        z = s.sigmas_x[:, None] * unit
        z += s.mu
        z += y
        var_z = z.var(axis=2)  # population convention, divide by n
        naive = gamma_scale_shrink(var_z, s.alpha, 0.0)
        js = gamma_scale_shrink(var_z, s.alpha, s.c)
        return ((naive - s.betas) ** 2).sum(axis=1), ((js - s.betas) ** 2).sum(axis=1)

    reports = []
    for s, (err_naive, err_js) in zip(specs, _score_grid(specs, noise, (p, n), n_trials, seed, score)):
        config = {
            "model": "gamma",
            "p": p,
            "n": n,
            "mu": s.mu,
            "sigmas_x": s.sigmas_x.tolist(),
            "alpha": s.alpha,
            "c": s.c,
            "noise": asdict(noise),
            "seed": seed,
            "k": k,
        }
        reports.append(_paired_report({"naive": err_naive, "js": err_js}, k, config))
    return reports


def mc_key_inequality(
    theta,
    noise: NoiseSpec,
    n_trials: int,
    seed: int,
    k: float = 3.0,
) -> list[tuple[float, float, bool]]:
    """Monte Carlo estimate of E[(2 Z'theta + p - 2) / Z'Z] and whether it is < 2,
    one result per vector of the sequence ``theta``, all scored on the same draws."""
    thetas = _thetas(theta, 1.0)
    p = thetas.shape[1]
    if p < 3:
        raise InvalidInputError("need p >= 3")

    def score(t, unit, y):
        z = t + unit
        z += y
        zz = np.einsum("ij,ij->i", z, z)
        if not np.all(np.isfinite(zz)):  # every ratio would read 0 or NaN
            raise InvalidInputError("Z'Z overflows float64: the draws are too large to check")
        return ((2.0 * np.einsum("ij,j->i", z, t) + p - 2) / zz,)

    results = []
    for (vals,) in _score_grid(thetas, noise, (p,), n_trials, seed, score):
        est, se = _mean_se(vals)
        results.append((est, se, est + k * se < 2.0))
    return results


# Gamma Stein-identity catalog: name -> (h, x*h', minimum admissible alpha)
STEIN_CATALOG = {
    "identity": (lambda x: x, lambda x: x, 0.0),
    "square": (lambda x: x**2, lambda x: 2.0 * x**2, 0.0),
    "log": (np.log, lambda x: np.ones_like(x), 0.01),
    "root2": (lambda x: x ** (1 / 2), lambda x: 0.5 * x ** (1 / 2), 0.0),
    "root3": (lambda x: x ** (1 / 3), lambda x: (1 / 3) * x ** (1 / 3), 0.0),
    "root5": (lambda x: x ** (1 / 5), lambda x: (1 / 5) * x ** (1 / 5), 0.0),
}


def mc_stein_gamma_lemma(
    alpha: float,
    beta: float,
    h: Sequence[str],
    n_trials: int,
    seed: int,
) -> list[tuple[float, float, float]]:
    """Both sides of E[(X - a*b) h(X)] = b E[X h'(X)] for X ~ Gamma(a, b).

    Returns (lhs, rhs, gap_in_se) per catalog name of the sequence ``h``, all
    scored on the same draws, where the gap is paired over draws; the caller
    judges whether the gap is small enough for the identity to hold.
    """
    if isinstance(h, str):  # a bare name would be read as a sequence of letters
        raise InvalidInputError(f"h must be a sequence of catalog names, got the string {h!r}")
    names = list(h)
    if not names:
        raise InvalidInputError("need at least one catalog function")
    if alpha <= 0 or beta <= 0:
        raise InvalidInputError("alpha and beta must be positive")
    for name in names:
        if name not in STEIN_CATALOG:
            raise InvalidInputError(f"unknown catalog function {name!r}")
        floor = STEIN_CATALOG[name][2]
        if alpha <= floor:
            raise InvalidInputError(f"{name!r} needs alpha > {floor} for integrable moments")
    rng = CounterRng(seed)

    def trial(lo, hi):
        return (beta * rng.gamma(hi - lo, alpha, _TAG_GAMMA, offset=lo),)

    # a trial draws one value, so the draws column is no larger than a
    # per-trial column; each function is scored on it whole, which keeps the
    # columns of one function live at a time instead of those of all
    (x,) = _run_trials(n_trials, 1, trial)
    results = []
    for name in names:
        fn, x_dfn, _ = STEIN_CATALOG[name]
        with np.errstate(all="ignore"):
            lhs = x - alpha * beta
            lhs *= fn(x)
            rhs = beta * x_dfn(x)
            means = _finite(float(lhs.mean()), float(rhs.mean()))
            gap_mean, gap_se = _mean_se(np.subtract(lhs, rhs, out=rhs))
        gap_in_se = gap_mean / gap_se if gap_se > 0 else 0.0
        results.append((*means, float(gap_in_se)))
    return results

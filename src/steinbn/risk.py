"""Monte Carlo risk laboratory.

Estimates mean-squared risks of shrinkage estimators against their naive
counterparts under additive perturbations, checks the key expectation
inequality behind the Gaussian dominance result, and verifies the Gamma
Stein identity on a small catalog of test functions.

Dominance verdicts are decided on the PAIRED per-trial risk difference: both
estimators see the same draws, so the difference has a far smaller standard
error than either risk alone. Per-estimator risks and standard errors are
still reported.

Every check is a per-block trial function run by one blocked driver,
``_run_trials``. A trial's values depend only on its own counter-stream
entries and every reduction runs over the full per-trial columns, so results
do not depend on the block size.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimators import ShrinkageConstant, gamma_scale_shrink, js_mean_classical, variance_gamma_params
from .noise import NoiseSpec, sample_noise_flat
from .rng import CounterRng
from .tensor import InvalidInputError

# stream tags keep draw families disjoint within one seed
_TAG_CLEAN = 1
_TAG_NOISE = 2
_TAG_GAMMA = 3

_BLOCK = 1 << 15  # trials per block; bounds the memory of one block's draws

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

    @classmethod
    def from_json(cls, text: str) -> "RiskReport":
        raw = json.loads(text)
        raw["estimator_risks"] = {
            k: tuple(v) for k, v in raw["estimator_risks"].items()
        }
        return cls(**raw)


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    n = x.size
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(n))


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


def _run_trials(n_trials: int, block: int, trial) -> list[np.ndarray]:
    """Per-trial columns of ``trial(lo, hi)`` run over consecutive blocks.

    ``trial`` returns one array of hi - lo values per column.
    """
    if n_trials < 2:
        raise InvalidInputError("need at least 2 trials")
    columns = None
    for lo in range(0, n_trials, block):
        hi = min(lo + block, n_trials)
        values = trial(lo, hi)
        if columns is None:
            columns = [np.empty(n_trials) for _ in values]
        for column, v in zip(columns, values):
            column[lo:hi] = v
    return columns


def _perturbed(rng: CounterRng, loc, scale, noise: NoiseSpec, lo: int, hi: int, shape):
    """Z = X + Y for trials lo..hi, shaped (hi - lo, *shape): X = loc + scale *
    N(0, 1) entrywise and Y drawn from the noise spec."""
    per = math.prod(shape)
    cnt = (hi - lo) * per
    x = loc + scale * rng.normal(cnt, _TAG_CLEAN, offset=lo * per).reshape(-1, *shape)
    y = sample_noise_flat(noise, cnt, rng, _TAG_NOISE, offset=lo * per).reshape(-1, *shape)
    return x + y


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
    p: int,
    theta: np.ndarray,
    sigma: float,
    noise: NoiseSpec,
    n_trials: int,
    seed: int,
    k: float = 3.0,
) -> RiskReport:
    """Risks of the James-Stein mean estimator vs the MLE on Z = X + Y."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (p,):
        raise InvalidInputError(f"theta must have length p={p}")
    rng = CounterRng(seed)

    def trial(lo, hi):
        z = _perturbed(rng, theta, sigma, noise, lo, hi, (p,))
        d = js_mean_classical(z, sigma**2) - theta
        return np.einsum("ij,ij->i", z - theta, z - theta), np.einsum("ij,ij->i", d, d)

    err_mle, err_js = _run_trials(n_trials, _BLOCK, trial)
    config = {
        "model": "gaussian",
        "p": p,
        "theta_norm": float(np.linalg.norm(theta)),
        "sigma": sigma,
        "noise": asdict(noise),
        "seed": seed,
        "k": k,
    }
    return _paired_report({"mle": err_mle, "js": err_js}, k, config)


@dataclass(frozen=True)
class GammaTrialSpec:
    """One perturbed empirical-variance experiment; c=None picks the classical midpoint."""

    p: int
    n: int
    mu: float
    sigmas_x: np.ndarray
    noise: NoiseSpec
    c: float | None = None
    alpha: float = field(init=False)
    betas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sig = np.asarray(self.sigmas_x, dtype=np.float64)
        if self.p < 2:
            raise InvalidInputError("need p >= 2")
        if sig.shape != (self.p,) or np.any(sig <= 0):
            raise InvalidInputError("sigmas_x must be a length-p vector of positive scales")
        gamma = variance_gamma_params(sig**2, self.n)
        if self.c is None:
            object.__setattr__(self, "c", ShrinkageConstant.midpoint(gamma.alpha, self.p).c_tilde)
        object.__setattr__(self, "sigmas_x", sig)
        object.__setattr__(self, "alpha", gamma.alpha)
        object.__setattr__(self, "betas", gamma.betas)


def mc_risk_gamma(
    spec: GammaTrialSpec, n_trials: int, seed: int, k: float = 3.0
) -> RiskReport:
    """Risks of the geometric-mean shrinkage vs the naive Gamma-scale estimator.

    Per trial, n samples per coordinate of Z = X + Y are drawn, empirical
    variances (population convention) are formed, and both estimators of the
    CLEAN scale parameters beta_i = 2*sigma_x_i^2/n are scored.
    """
    rng = CounterRng(seed)
    p, n, alpha, c = spec.p, spec.n, spec.alpha, spec.c
    betas = spec.betas

    def trial(lo, hi):
        z = _perturbed(rng, spec.mu, spec.sigmas_x[:, None], spec.noise, lo, hi, (p, n))
        var_z = z.var(axis=2)  # population convention, divide by n
        naive = gamma_scale_shrink(var_z, alpha, 0.0)
        js = gamma_scale_shrink(var_z, alpha, c)
        return ((naive - betas) ** 2).sum(axis=1), ((js - betas) ** 2).sum(axis=1)

    block = max(1, _BLOCK // max(1, (p * n) // 8))
    err_naive, err_js = _run_trials(n_trials, block, trial)
    config = {
        "model": "gamma",
        "p": p,
        "n": n,
        "mu": spec.mu,
        "sigmas_x": spec.sigmas_x.tolist(),
        "alpha": alpha,
        "c": c,
        "noise": asdict(spec.noise),
        "seed": seed,
        "k": k,
    }
    return _paired_report({"naive": err_naive, "js": err_js}, k, config)


def mc_key_inequality(
    p: int,
    theta: np.ndarray,
    noise: NoiseSpec,
    n_trials: int,
    seed: int,
    k: float = 3.0,
) -> tuple[float, float, bool]:
    """Monte Carlo estimate of E[(2 Z'theta + p - 2) / Z'Z] and whether it is < 2."""
    theta = np.asarray(theta, dtype=np.float64)
    if p < 3:
        raise InvalidInputError("need p >= 3")
    rng = CounterRng(seed)

    def trial(lo, hi):
        z = _perturbed(rng, theta, 1.0, noise, lo, hi, (p,))
        return ((2.0 * np.einsum("ij,j->i", z, theta) + p - 2) / np.einsum("ij,ij->i", z, z),)

    (vals,) = _run_trials(n_trials, _BLOCK, trial)
    est, se = _mean_se(vals)
    return est, se, est + k * se < 2.0


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
    h: str,
    n_trials: int,
    seed: int,
    k: float = 4.0,
) -> tuple[float, float, float]:
    """Both sides of E[(X - a*b) h(X)] = b E[X h'(X)] for X ~ Gamma(a, b).

    Returns (lhs, rhs, gap_in_se) where the gap is paired over draws; the
    identity is taken to hold when |gap_in_se| < k.
    """
    if h not in STEIN_CATALOG:
        raise InvalidInputError(f"unknown catalog function {h!r}")
    if alpha <= 0 or beta <= 0:
        raise InvalidInputError("alpha and beta must be positive")
    fn, x_dfn, floor = STEIN_CATALOG[h]
    if alpha <= floor:
        raise InvalidInputError(f"{h!r} needs alpha > {floor} for integrable moments")
    rng = CounterRng(seed)

    def trial(lo, hi):
        x = beta * rng.gamma(hi - lo, alpha, _TAG_GAMMA, offset=lo)
        return (x - alpha * beta) * fn(x), beta * x_dfn(x)

    lhs, rhs = _run_trials(n_trials, _BLOCK, trial)
    gap_mean, gap_se = _mean_se(lhs - rhs)
    gap_in_se = gap_mean / gap_se if gap_se > 0 else 0.0
    return float(lhs.mean()), float(rhs.mean()), float(gap_in_se)

"""Per-layer tracing of steinbn from outside the package.

The tracer replaces the public functions and methods of each steinbn module
with timing wrappers while it is installed, and restores them afterwards; no
file under ``src/`` is edited. A module-level function is replaced at every
module that imported it by name (``sample_noise_flat`` lives in ``noise``,
``risk``, ``harness`` and ``cli``), because a missed import site would
silently report zero for its layer; a method is replaced on its class, so
every caller sees the wrapper.

Spans nest: a span's self time is its duration minus the duration of the
spans it encloses. Spans are aggregated by name in memory (calls, total time,
self time) rather than stored one by one, since ``_mix`` alone is called
tens of thousands of times per round. Counts are recorded at the same
boundaries, so ratios such as the sampler's accept ratio are measured where
the work happens.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import steinbn.batchnorm
import steinbn.cli
import steinbn.data
import steinbn.harness
import steinbn.nn
import steinbn.noise
import steinbn.risk
import steinbn.rng
import steinbn.tensor


class _Frame:
    __slots__ = ("name", "child", "uniform_calls", "evals", "levy")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0  # time covered by enclosed spans
        self.uniform_calls = 0  # noise spans: uniform draws made for this call
        self.evals = 0  # harness.train spans: validation passes
        self.levy = False  # noise spans: levy-gauss family (retries possible)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Aggregated spans and counters over whatever runs while installed."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level = 0.0  # duration of spans opened with an empty stack
        self.sites: dict[str, list[str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            if before is not None:
                before(frame, args, kwargs)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dt
                else:
                    self.top_level += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame.child
            if after is not None:
                after(frame, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, hook):
        """Wrapper that only counts; its time stays with the enclosing span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch_function(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "steinbn" or mod_name.startswith("steinbn.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    sites.append(f"{mod_name.rsplit('.', 1)[-1]}.{key}")
        if not sites:
            raise RuntimeError(f"{module.__name__}.{attr} has no import site to patch")
        self.sites[f"{module.__name__}.{attr}"] = sorted(sites)

    def _patch_method(self, cls, attr: str, make) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            wrapper = classmethod(make(raw.__func__))
        else:
            wrapper = make(raw)
        self._set(cls, attr, wrapper)
        self.sites[f"{cls.__module__}.{cls.__name__}.{attr}"] = [f"{cls.__name__}.{attr}"]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        rng, noise, risk = steinbn.rng, steinbn.noise, steinbn.risk
        nn, bn, tensor = steinbn.nn, steinbn.batchnorm, steinbn.tensor
        harness, data, cli = steinbn.harness, steinbn.data, steinbn.cli
        counts, stack = self.counts, self.stack
        span = self._span

        # rng
        def on_uniform(frame, args, kwargs):
            count = _arg(args, kwargs, 1, "count")
            counts["rng.uniform.draws"] += count
            for outer in reversed(stack):
                if outer.name == "noise":
                    outer.uniform_calls += 1
                    counts["noise.uniforms"] += count
                    break

        def on_draws(key):
            def hook(frame, args, kwargs):
                counts[key] += _arg(args, kwargs, 1, "count")
            return hook

        self._patch_method(rng.CounterRng, "uniform", lambda f: span("rng.uniform", f, on_uniform))
        self._patch_method(rng.CounterRng, "normal", lambda f: span("rng.normal", f, on_draws("rng.normal.draws")))
        self._patch_method(rng.CounterRng, "gamma", lambda f: span("rng.gamma", f, on_draws("rng.gamma.draws")))
        self._patch_function(rng, "_mix", lambda f: span("rng.mix", f))

        # noise
        def on_noise(frame, args, kwargs):
            spec = _arg(args, kwargs, 0, "spec")
            frame.levy = spec.family == "levy-gauss"
            counts["noise.draws"] += _arg(args, kwargs, 1, "count")

        def after_noise(frame, args, kwargs, result):
            if frame.levy:
                counts["noise.retries"] += max(0, frame.uniform_calls - 1)

        self._patch_function(noise, "sample_noise_flat", lambda f: span("noise", f, on_noise, after_noise))

        # risk: one span per Monte Carlo cell
        for attr, name in (
            ("mc_risk_gaussian", "risk.gaussian"),
            ("mc_risk_gamma", "risk.gamma"),
            ("mc_key_inequality", "risk.inequality"),
            ("mc_stein_gamma_lemma", "risk.lemma"),
        ):
            def make(f, name=name):
                signature = inspect.signature(f)

                def on_cell(frame, args, kwargs):
                    counts["risk.cells"] += 1
                    counts["risk.trials"] += signature.bind(*args, **kwargs).arguments["n_trials"]

                return span(name, f, on_cell)

            self._patch_function(risk, attr, make)

        # nn: conv operation counts and bytes are computed from shapes
        def on_conv_fwd(frame, args, kwargs):
            layer, x = args[0], _arg(args, kwargs, 1, "x")
            n, c, h, w = x.shape
            o, f, p = layer.w.shape[0], c * 9, h * w
            counts["nn.conv.flops"] += 2.0 * n * o * f * p
            counts["nn.conv.bytes"] += 8.0 * (o * f + n * f * p + n * o * p)

        def on_conv_bwd(frame, args, kwargs):
            layer, grad = args[0], _arg(args, kwargs, 1, "grad")
            n, o, h, w = grad.shape
            f, p = layer.w.shape[1], h * w
            # dw = g . cols^T and dcols = w^T . g
            counts["nn.conv.flops"] += 4.0 * n * o * f * p
            counts["nn.conv.bytes"] += 8.0 * (2 * n * o * p + 2 * n * f * p + 2 * o * f)

        self._patch_method(nn.Conv3x3, "forward", lambda f: span("nn.conv.fwd", f, on_conv_fwd))
        self._patch_method(nn.Conv3x3, "backward", lambda f: span("nn.conv.bwd", f, on_conv_bwd))
        self._patch_method(nn.Dense, "forward", lambda f: span("nn.dense.fwd", f))
        self._patch_method(nn.Dense, "backward", lambda f: span("nn.dense.bwd", f))
        self._patch_function(nn, "softmax_cross_entropy", lambda f: span("nn.loss", f))

        def on_step(frame, args, kwargs):
            if any(outer.name == "harness.train" for outer in stack):
                counts["harness.steps"] += 1

        self._patch_method(nn.SGDNesterov, "step", lambda f: span("nn.opt", f, on_step))

        # np.einsum gets a span only inside a conv span, so other callers
        # (risk uses it too) keep their time as self time
        einsum = np.einsum
        einsum_span = span("nn.conv.einsum", einsum)

        @functools.wraps(einsum)
        def conv_einsum(*args, **kwargs):
            if stack and stack[-1].name in ("nn.conv.fwd", "nn.conv.bwd"):
                return einsum_span(*args, **kwargs)
            return einsum(*args, **kwargs)

        self._set(np, "einsum", conv_einsum)
        self.sites["numpy.einsum"] = ["numpy.einsum"]

        # batchnorm
        def on_bn_fwd(frame, args, kwargs):
            mode = _arg(args, kwargs, 0, "layer").mode.value
            counts["bn.fwd_train.calls" if mode == "train" else "bn.fwd_eval.calls"] += 1

        self._patch_function(bn, "bn_forward", lambda f: span("bn.fwd", f, on_bn_fwd))
        self._patch_function(bn, "bn_backward", lambda f: span("bn.bwd", f))
        self._patch_function(bn, "correction_coefficients", lambda f: span("bn.correct", f))

        # tensor: Tensor4 is patched on the class, so isinstance checks hold
        def after_t4(frame, args, kwargs, result):
            counts["tensor.t4.bytes"] += args[0].data.nbytes

        self._patch_method(tensor.Tensor4, "__init__", lambda f: span("tensor.t4", f, None, after_t4))
        self._patch_function(tensor, "channel_moments", lambda f: span("tensor.moments", f))

        # harness and data
        def after_train(frame, args, kwargs, result):
            counts["harness.epochs"] += max(0, frame.evals - 1)  # first pass is pre-training

        def on_validate(args, kwargs):
            if stack and stack[-1].name == "harness.train":
                stack[-1].evals += 1

        def after_save(frame, args, kwargs, result):
            path = str(_arg(args, kwargs, 1, "path"))
            counts["harness.ckpt.bytes"] += os.path.getsize(path) + os.path.getsize(path + ".json")

        self._patch_function(harness, "train_model", lambda f: span("harness.train", f, None, after_train))
        self._patch_function(harness, "_evaluate", lambda f: self._counter(f, on_validate))
        self._patch_function(harness, "evaluate_under_noise", lambda f: span("harness.eval", f))
        self._patch_method(harness.Checkpoint, "save", lambda f: span("harness.ckpt.save", f, None, after_save))
        self._patch_method(harness.Checkpoint, "load", lambda f: span("harness.ckpt.load", f))
        self._patch_function(data, "make_synthetic_blobs", lambda f: span("data.blobs", f))

        # cli
        def on_write(args, kwargs):
            counts["cli.bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))

        self._patch_function(cli, "run_cli", lambda f: span("cli", f))
        self._patch_function(cli, "_atomic_write", lambda f: self._counter(f, on_write))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every raw aggregate, for differences between points."""
        raw = {"top_level": self.top_level}
        for name, value in self.calls.items():
            raw[f"calls:{name}"] = value
        for name, value in self.total.items():
            raw[f"total:{name}"] = value
        for name, value in self.self_time.items():
            raw[f"self:{name}"] = value
        for name, value in self.counts.items():
            raw[f"count:{name}"] = value
        return raw


def self_time_sum(raw: dict[str, float]) -> float:
    return sum(v for k, v in raw.items() if k.startswith("self:"))


def layer_metrics(raw: dict[str, float], scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from raw aggregates, each divided by ``scale``.

    ``scale`` is the number of rounds the aggregates cover, so every metric
    is per round. Ratios are not scaled.
    """

    def get(kind, name):
        return raw.get(f"{kind}:{name}", 0.0) / scale

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    conv_s = get("total", "nn.conv.fwd") + get("total", "nn.conv.bwd")
    risk_spans = ("risk.gaussian", "risk.gamma", "risk.inequality", "risk.lemma")
    m = {
        "rng.uniform.calls": (get("calls", "rng.uniform"), "count"),
        "rng.uniform.draws": (get("count", "rng.uniform.draws"), "count"),
        "rng.uniform.self_s": (get("self", "rng.uniform"), "s"),
        "rng.normal.draws": (get("count", "rng.normal.draws"), "count"),
        "rng.normal.self_s": (get("self", "rng.normal"), "s"),
        "rng.gamma.draws": (get("count", "rng.gamma.draws"), "count"),
        "rng.gamma.self_s": (get("self", "rng.gamma"), "s"),
        "rng.mix.calls": (get("calls", "rng.mix"), "count"),
        "rng.mix.s": (get("total", "rng.mix"), "s"),
        "noise.calls": (get("calls", "noise"), "count"),
        "noise.draws": (get("count", "noise.draws"), "count"),
        "noise.uniforms": (get("count", "noise.uniforms"), "count"),
        "noise.accept_ratio": (
            ratio(raw.get("count:noise.draws", 0.0), raw.get("count:noise.uniforms", 0.0)),
            "ratio",
        ),
        "noise.retries": (get("count", "noise.retries"), "count"),
        "noise.self_s": (get("self", "noise"), "s"),
        "risk.cells": (get("count", "risk.cells"), "count"),
        "risk.trials": (get("count", "risk.trials"), "count"),
        "risk.gaussian.s": (get("total", "risk.gaussian"), "s"),
        "risk.gamma.s": (get("total", "risk.gamma"), "s"),
        "risk.inequality.s": (get("total", "risk.inequality"), "s"),
        "risk.lemma.s": (get("total", "risk.lemma"), "s"),
        "risk.self_s": (sum(get("self", name) for name in risk_spans), "s"),
        "nn.conv.fwd.calls": (get("calls", "nn.conv.fwd"), "count"),
        "nn.conv.fwd.s": (get("total", "nn.conv.fwd"), "s"),
        "nn.conv.bwd.s": (get("total", "nn.conv.bwd"), "s"),
        "nn.conv.flops": (get("count", "nn.conv.flops"), "flop"),
        "nn.conv.bytes": (get("count", "nn.conv.bytes"), "B"),
        "nn.conv.gflops_per_s": (ratio(get("count", "nn.conv.flops"), conv_s) / 1e9, "GFLOP/s"),
        "nn.conv.einsum_share": (ratio(get("total", "nn.conv.einsum"), conv_s), "ratio"),
        "nn.dense.fwd.s": (get("total", "nn.dense.fwd"), "s"),
        "nn.dense.bwd.s": (get("total", "nn.dense.bwd"), "s"),
        "nn.loss.s": (get("total", "nn.loss"), "s"),
        "nn.opt.steps": (get("calls", "nn.opt"), "count"),
        "nn.opt.s": (get("total", "nn.opt"), "s"),
        "bn.fwd_train.calls": (get("count", "bn.fwd_train.calls"), "count"),
        "bn.fwd_eval.calls": (get("count", "bn.fwd_eval.calls"), "count"),
        "bn.fwd.self_s": (get("self", "bn.fwd"), "s"),
        "bn.bwd.self_s": (get("self", "bn.bwd"), "s"),
        "bn.correct.calls": (get("calls", "bn.correct"), "count"),
        "bn.correct.s": (get("total", "bn.correct"), "s"),
        "tensor.t4.count": (get("calls", "tensor.t4"), "count"),
        "tensor.t4.s": (get("total", "tensor.t4"), "s"),
        "tensor.t4.bytes": (get("count", "tensor.t4.bytes"), "B"),
        "tensor.moments.s": (get("total", "tensor.moments"), "s"),
        "harness.train.runs": (get("calls", "harness.train"), "count"),
        "harness.epochs": (get("count", "harness.epochs"), "count"),
        "harness.steps": (get("count", "harness.steps"), "count"),
        "harness.train.s": (get("total", "harness.train"), "s"),
        "harness.eval.s": (get("total", "harness.eval"), "s"),
        "harness.ckpt.save_s": (get("total", "harness.ckpt.save"), "s"),
        "harness.ckpt.load_s": (get("total", "harness.ckpt.load"), "s"),
        "harness.ckpt.bytes": (get("count", "harness.ckpt.bytes"), "B"),
        "data.blobs.s": (get("total", "data.blobs"), "s"),
        "cli.calls": (get("calls", "cli"), "count"),
        "cli.self_s": (get("self", "cli"), "s"),
        "cli.bytes_written": (get("count", "cli.bytes_written"), "B"),
    }
    return m

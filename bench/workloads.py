"""The benchmark's workloads, each a fixed list of ``steinbn`` CLI calls.

A workload turns the workload seed into inputs (configs, checkpoints) in
``prepare``, lists the CLI calls of one round as ``Item``s, and checks the
artifacts those calls wrote. Every round repeats the same calls, so rounds do
identical work and their artifacts must be byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from steinbn.cli import run_cli
from steinbn.harness import load_arrays

DEFAULT_SEED = 1  # the seed bench/reference.json was recorded with


@dataclass(frozen=True)
class Item:
    """One CLI call of a round."""

    name: str
    argv: list
    outs: tuple  # artifacts the call writes
    work: float  # nominal work units, for the workload's rate
    warm: bool = False  # also run once during set-up


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)


def _result_rows(blob: bytes) -> list[dict]:
    text = blob.decode("utf-8")
    clean = "\n".join(ln for ln in text.splitlines() if ln and not ln.startswith("#"))
    return list(csv.DictReader(io.StringIO(clean)))


def _split_sizes(n_total: int) -> tuple[int, int]:
    """Train and test set sizes of the harness's 80/10/10 split."""
    n_train, n_val = int(0.8 * n_total), int(0.1 * n_total)
    return n_train, n_total - n_train - n_val


def _steps_per_epoch(n_train: int, batch: int) -> int:
    """Optimizer steps per epoch; the harness skips batches of fewer than 2."""
    return sum(1 for lo in range(0, n_train - 1, batch) if min(batch, n_train - lo) >= 2)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class Workload:
    """Interface of a workload; ``check_round`` checks across calls."""

    name: str
    rate: tuple  # (name, unit) of the workload's own throughput

    def check_round(self, items: list[Item], summaries: dict) -> dict[str, str]:
        return {}


class TrainTable1(Workload):
    """Criterion 7 (the Table-1 trend) through ``steinbn train``.

    TinyCNN on SyntheticBlobs at hw=4 with the criterion-7 variants, batch
    sizes, levels and seeds (14-23). Early stopping's patience equals the
    epoch cap, so every run takes the same number of steps whatever the
    seed; otherwise the work, and so ``wall_s``, would depend on the seed.
    """

    name = "train-table1"
    rate = ("train_steps_per_s", "1/s")
    variants = ("standard", "stein", "mean-only")
    batches = (32, 64)
    levels = [0, 10, 20, 30]

    def __init__(self, tiny: bool = False):
        self.epochs = 4 if tiny else 3
        self.n_per_class = 100 if tiny else 250

    def prepare(self, work_dir: str, seed: int) -> list[Item]:
        train_seed = 14 + seed % 10
        n_train, _ = _split_sizes(4 * self.n_per_class)
        items = []
        for variant in self.variants:
            for batch in self.batches:
                tag = f"{variant}-b{batch}"
                config = os.path.join(work_dir, f"{tag}.json")
                _write_json(config, {
                    "dataset": "SyntheticBlobs", "model": "TinyCNN", "bn_variant": variant,
                    "batch_size": batch, "max_epochs": self.epochs,
                    "early_stop_patience": self.epochs, "noise_levels": self.levels,
                    "noise_family": "levy-gauss", "seeds": [train_seed], "n_classes": 4,
                    "n_per_class": self.n_per_class, "channels": 3, "hw": 4, "sep": 3.0,
                })
                out = os.path.join(work_dir, f"{tag}.csv")
                ckpt_dir = os.path.join(work_dir, tag)
                ckpt = os.path.join(ckpt_dir, f"{variant}_s{train_seed}.ckpt")
                items.append(Item(
                    name=tag,
                    argv=["train", "--config", config, "--out", out, "--checkpoint-dir", ckpt_dir],
                    outs=(out, ckpt, ckpt + ".json"),
                    work=self.epochs * _steps_per_epoch(n_train, batch),
                    warm=not items,
                ))
        return items

    def check(self, item: Item, blobs: list[bytes]) -> str | None:
        rows = _result_rows(blobs[0])
        levels = [float(r["noise_pct"]) for r in rows]
        if levels != [float(lv) for lv in self.levels]:
            return f"expected one row per level {self.levels}, got {levels}"
        if load_arrays(item.outs[1])["__meta__"][3] != 0.0:  # Checkpoint.diverged
            return "run diverged"
        clean = float(rows[0]["value"])
        # chance is 25%; every criterion-7 run at sep=3 classifies the clean
        # test set almost perfectly, so a clean accuracy under 60% is a fault
        if clean < 60.0:
            return f"clean accuracy {clean} below 60%"
        return None

    def summary(self, item: Item, blobs: list[bytes]) -> dict:
        arrays = load_arrays(item.outs[1])
        return {
            "accuracy": [float(r["value"]) for r in _result_rows(blobs[0])],
            "array_norms": [float(np.linalg.norm(arrays[k])) for k in sorted(arrays)],
        }

    def matches_reference(self, got: dict, ref: dict) -> str | None:
        # a test image is 1 pp (100 test images). Round-off changes that the
        # roadmap allows in numeric kernels (einsum -> matmul) can flip a few
        # near-tie predictions over three epochs, most under heavy noise;
        # 5 pp lets five images per level flip.
        acc, ref_acc = got["accuracy"], ref["accuracy"]
        if len(acc) != len(ref_acc):
            return f"{len(acc)} levels, reference has {len(ref_acc)}"
        worst = max(abs(a - b) for a, b in zip(acc, ref_acc))
        if worst > 5.0:
            return f"accuracy differs from reference by {worst} pp"
        # accuracy barely moves when a training step changes (shrinking the
        # BN mean by 10% left it within 5 pp); the trained weights do.
        # Round-off over a few hundred steps stays far below a relative 1e-6.
        # The absolute 1e-9 covers the conv biases in front of BN, which get
        # no gradient and hold only round-off (norms near 1e-18).
        norms, ref_norms = got["array_norms"], ref["array_norms"]
        if len(norms) != len(ref_norms) or not all(
                abs(a - b) <= 1e-6 * max(a, b) + 1e-9 for a, b in zip(norms, ref_norms)):
            return "checkpoint arrays differ from reference beyond round-off"
        return None


class RiskMC(Workload):
    """The paper's Monte Carlo checks through ``steinbn risk``.

    Theorem 1 at p in {8, 64} x eps in {0, 0.3}: each eps pair separates
    sampling from truncation retries. One Theorem-2 cell, one key-inequality
    cell, and two Gamma Stein-identity cases, the only callers of
    ``CounterRng.gamma``.

    A truncated cell (eps > 0) redraws its whole noise block until no entry
    is out of bounds, so the number of passes depends on the draws, and with
    it the cell's work: up to 20% between seeds. Such a cell therefore runs
    as ``splits`` calls of a quarter of the trials each, under the seeds
    seed, seed + 1, ..., which averages that variation over independent
    draws without changing the work of a round.
    """

    name = "risk-mc"
    rate = ("mc_draws_per_s", "1/s")
    splits = 4

    def __init__(self, tiny: bool = False):
        div = 20 if tiny else 1
        self.trials_gaussian = 20000 // div
        self.trials_gamma = 10000 // div
        self.trials_inequality = 50000 // div
        self.trials_lemma = 100000 // div

    def prepare(self, work_dir: str, seed: int) -> list[Item]:
        items = []

        def cell(name, argv, trials, coords, warm=False, split=False):
            parts = self.splits if split else 1
            for i in range(parts):
                part = f"{name}-s{i}" if split else name
                out = os.path.join(work_dir, f"{part}.json")
                n = trials // parts
                items.append(Item(
                    part,
                    ["risk", *argv, "--trials", str(n), "--seed", str(seed + i), "--out", out],
                    (out,), float(n * coords), warm and i == 0,
                ))

        for p in (8, 64):
            for eps in ("0", "0.3"):
                argv = ["gaussian", "--p", str(p), "--theta-norm", "1", "--eps", eps]
                cell(f"t1-p{p}-eps{eps}", argv, self.trials_gaussian, p,
                     warm=not items, split=eps != "0")
        sigmas = ",".join(repr(float(s)) for s in np.linspace(2.0, 0.5, 8))
        cell(
            "t2-p8-hetero-eps0.1",
            ["gamma", "--p", "8", "--n", "10", "--sigmas-x", sigmas, "--eps", "0.1"],
            self.trials_gamma, 8 * 10, split=True,
        )
        cell(
            "inequality-p10",
            ["inequality", "--p", "10", "--theta-norm", "1", "--eps", "0.1"],
            self.trials_inequality, 10, warm=True, split=True,
        )
        cell(
            "lemma-square", ["lemma", "--alpha", "4.5", "--beta", "0.4", "--h", "square"],
            self.trials_lemma, 1, warm=True,
        )
        cell(
            "lemma-log", ["lemma", "--alpha", "1", "--beta", "1", "--h", "log"],
            self.trials_lemma, 1,
        )
        return items

    def check(self, item: Item, blobs: list[bytes]) -> str | None:
        out = json.loads(blobs[0])
        if "verdict" in out:
            if out["verdict"] != "Dominates" or out["margin_se"] < 3.0:
                return f"verdict {out['verdict']} with margin {out['margin_se']} se"
        elif not out["holds"]:
            return f"identity or inequality does not hold: {out}"
        return None

    def summary(self, item: Item, blobs: list[bytes]) -> list[float]:
        out = json.loads(blobs[0])
        if "estimator_risks" in out:
            risks = out["estimator_risks"]
            return [v for key in sorted(risks) for v in risks[key]] + [out["margin_se"]]
        if "estimate" in out:
            return [out["estimate"], out["se"]]
        return [out["lhs"], out["rhs"], out["gap_in_se"]]

    def matches_reference(self, got: list[float], ref: list[float]) -> str | None:
        # RNG and sampler changes must stay bit-identical; 1e-9 leaves room
        # only for summation-order round-off in the estimators
        if len(got) != len(ref) or not all(_close(a, b, 1e-9) for a, b in zip(got, ref)):
            return f"risk report {got} differs from reference {ref}"
        return None


class EvalSweep(Workload):
    """Checkpoint re-evaluation through ``steinbn eval``.

    Set-up trains two three-epoch TinyCNN checkpoints at hw=8, one with input noise
    and one with ``feature_noise`` (noise after the first BN). Each round
    evaluates both at levels 0-100 for three families: untruncated
    levy-gauss, gaussian (Box-Muller) and bounded-uniform. The test split is
    256 images, one forward batch, so this is inference at batch 256 plus a
    checkpoint load and a dataset regeneration per call.
    """

    name = "eval-sweep"
    rate = ("eval_images_per_s", "1/s")
    families = ("levy-gauss", "gaussian", "bounded-uniform")
    levels = list(range(0, 101, 10))
    models = (("standard", False), ("stein", True))

    def __init__(self, tiny: bool = False):
        self.n_per_class = 100 if tiny else 640
        # one epoch leaves some seeds' models under-trained (clean accuracy
        # 52% on one of 30 seeds, although a nearest-mean rule gets 100%);
        # after three the worst of those 30 seeds was 97%
        self.epochs = 5 if tiny else 3
        self.levels = [0, 50, 100] if tiny else self.levels

    def prepare(self, work_dir: str, seed: int) -> list[Item]:
        _, n_test = _split_sizes(4 * self.n_per_class)
        levels = ",".join(str(lv) for lv in self.levels)
        items = []
        for variant, feature_noise in self.models:
            tag = f"{variant}-{'feature' if feature_noise else 'input'}"
            config = os.path.join(work_dir, f"{tag}.json")
            _write_json(config, {
                "dataset": "SyntheticBlobs", "model": "TinyCNN", "bn_variant": variant,
                "batch_size": 64, "max_epochs": self.epochs,
                "early_stop_patience": self.epochs,
                "noise_levels": [0], "seeds": [seed], "n_classes": 4,
                "n_per_class": self.n_per_class, "channels": 3, "hw": 8, "sep": 3.0,
                "feature_noise": feature_noise,
            })
            ckpt_dir = os.path.join(work_dir, tag)
            code = run_cli([
                "train", "--config", config, "--out", os.path.join(work_dir, f"{tag}.csv"),
                "--checkpoint-dir", ckpt_dir,
            ])
            if code != 0:
                raise RuntimeError(f"training checkpoint {tag} exited with {code}")
            ckpt = os.path.join(ckpt_dir, f"{variant}_s{seed}.ckpt")
            for family in self.families:
                out = os.path.join(work_dir, f"{tag}-{family}.csv")
                items.append(Item(
                    name=f"{tag}-{family}",
                    argv=["eval", "--checkpoint", ckpt, "--levels", levels,
                          "--family", family, "--out", out],
                    outs=(out,),
                    work=float(n_test * len(self.levels)),
                    warm=not items,
                ))
        return items

    def check(self, item: Item, blobs: list[bytes]) -> str | None:
        rows = _result_rows(blobs[0])
        levels = [float(r["noise_pct"]) for r in rows]
        if levels != [float(lv) for lv in self.levels]:
            return f"expected one row per level {self.levels}, got {levels}"
        clean = float(rows[0]["value"])
        if clean < 60.0:  # chance is 25%; see TrainTable1.check
            return f"clean accuracy {clean} below 60%"
        return None

    def summary(self, item: Item, blobs: list[bytes]) -> list[float]:
        return [float(r["value"]) for r in _result_rows(blobs[0])]

    def matches_reference(self, got: list[float], ref: list[float]) -> str | None:
        # the noise draws are bit-identical, so only round-off in the model
        # (which the roadmap permits in numeric kernels) can move a
        # prediction; allow one test image (100/256 pp) per level. The clean
        # level alone is 100% for almost any working model, so the noisy
        # levels are what catch a broken layer.
        if len(got) != len(ref):
            return f"{len(got)} levels, reference has {len(ref)}"
        worst = max(abs(a - b) for a, b in zip(got, ref))
        return None if worst <= 100.0 / 256 + 1e-9 else f"accuracy differs from reference by {worst} pp"

    def check_round(self, items: list[Item], summaries: dict[str, list[float]]) -> dict[str, str]:
        """The clean level draws no noise, so all families must agree on it."""
        errors = {}
        for variant, feature_noise in self.models:
            tag = f"{variant}-{'feature' if feature_noise else 'input'}"
            clean = {f: summaries[f"{tag}-{f}"][0] for f in self.families if f"{tag}-{f}" in summaries}
            if len(set(clean.values())) > 1:
                for family in clean:
                    errors[f"{tag}-{family}"] = f"clean accuracy differs between families: {clean}"
        return errors


WORKLOADS = {w.name: w for w in (TrainTable1, RiskMC, EvalSweep)}

"""Desk-scale training harness comparing the BN variants.

Protocol: train on clean data with SGD + Nesterov and early stopping on
clean validation accuracy, then sweep additive noise levels at test time
and record accuracy per (method, batch size, noise level, seed) cell.

A config and a result row check every field when built, in code or from a
file, by walking one domain table each (``_DOMAINS``, ``_ROW_DOMAINS``,
sharing ``BatchNorm.domains``'s entries) with ``tensor.check_domains``; a
config also refuses any value that its own ``to_json`` cannot write.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import tempfile
import typing
import warnings
import zlib
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .data import Dataset, make_synthetic_blobs, split_indices, split_sizes
from .nn import (
    BatchNorm,
    SGDNesterov,
    Sequential,
    build_mlp2,
    build_tiny_cnn,
    softmax_cross_entropy,
)
from .noise import NoiseSpec, sample_noise_flat
from .rng import CounterRng
from .tensor import InvalidInputError, NonFiniteError, check_domains, is_int, is_real

CHECKPOINT_MAGIC = b"SBN1"
# key of the .ckpt's CRC-32 in its .json sidecar, next to the config fields.
# CRC-32 catches a pair from two different saves as well as a hash would;
# zlib is loaded with numpy, while hashlib would map OpenSSL (~3.7 MiB RSS).
CHECKPOINT_DIGEST_KEY = "checkpoint_crc32"

# unit-scale test-time noise per family, scaled per channel by _noisy_inputs;
# levy-gauss is left untruncated so the heavy tail of the mixture density
# reaches the classifier: it is then a Cauchy law of scale sigma/sqrt(2), with
# no variance, so a noise level sets its scale, not a standard deviation
_UNIT_NOISE = {
    "levy-gauss": NoiseSpec(family="levy-gauss", sigma=1.0),
    "gaussian": NoiseSpec(family="gaussian", sigma=1.0),
    "bounded-uniform": NoiseSpec(family="bounded-uniform", epsilon_bound=1.0),
}

# a checkpoint stores its seed in a float64, which holds every integer of this
# size; every seed of the program lies in [-SEED_LIMIT, SEED_LIMIT]
SEED_LIMIT = 2**53

# the metrics a run writes into its result rows
METRICS = ("accuracy",)

# domain of every ExperimentConfig field, as (what it must be, test), named
# in refusals as the config key
_DOMAINS = {
    "dataset": ("'SyntheticBlobs'", lambda v: v == "SyntheticBlobs"),
    "model": ("one of 'MLP2', 'TinyCNN'", lambda v: v in ("MLP2", "TinyCNN")),
    "bn_variant": BatchNorm.domains["variant"],
    "batch_size": ("an integer >= 2", lambda v: is_int(v) and v >= 2),  # BN needs 2 samples
    "n_classes": ("an integer >= 2", lambda v: is_int(v) and v >= 2),
    "n_per_class": ("a positive integer", lambda v: is_int(v) and v > 0),
    "channels": ("a positive integer", lambda v: is_int(v) and v > 0),
    "hw": ("a positive integer", lambda v: is_int(v) and v > 0),
    "hidden": ("a positive integer", lambda v: is_int(v) and v > 0),
    "max_epochs": ("an integer >= 0", lambda v: is_int(v) and v >= 0),
    "early_stop_patience": ("an integer >= 0", lambda v: is_int(v) and v >= 0),
    "learning_rate": ("a finite number > 0", lambda v: is_real(v) and 0 < v < math.inf),
    "momentum_sgd": ("a number in [0, 1)", lambda v: is_real(v) and 0 <= v < 1),
    "lam": BatchNorm.domains["lam"],
    "sep": ("a finite number >= 0", lambda v: is_real(v) and 0 <= v < math.inf),
    "c_tilde": BatchNorm.domains["c_tilde"],
    "nesterov": ("true or false", lambda v: isinstance(v, bool)),
    "feature_noise": ("true or false", lambda v: isinstance(v, bool)),
    "noise_family": ("one of " + ", ".join(map(repr, _UNIT_NOISE)), lambda v: v in tuple(_UNIT_NOISE)),
    # each entry's rule is check_seed's or check_noise_levels'
    "seeds": ("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0),
    "noise_levels": ("a list", lambda v: isinstance(v, list)),
}
_CONFIG_REFUSAL = "config key {name!r} must be {domain}, got {value!r}"


def check_seed(seed) -> None:
    """Refuse a seed that is not an integer in [-SEED_LIMIT, SEED_LIMIT]."""
    # a seed of 1.5 or true would train as CounterRng(1) under its own label
    if not is_int(seed):
        raise InvalidInputError(f"seed {seed!r} is not an integer")
    if not -SEED_LIMIT <= seed <= SEED_LIMIT:
        raise InvalidInputError(
            f"seed {seed} is outside [-2**53, 2**53], the seeds a checkpoint stores exactly"
        )


def _level_key(level_pct: float) -> int:
    """Stream-key part of a noise level's draws: the level in hundredths of a percent."""
    return int(round(level_pct * 100))


def check_noise_levels(levels) -> None:
    """Refuse any noise level that is not a finite number of percent in [0, 100],
    and two different levels that would draw their noise from one stream."""
    by_key = {}
    for level in levels:
        # a level of true would run as 1%
        if not (is_real(level) and 0 <= level <= 100):
            raise InvalidInputError(f"noise level {level!r} is not a number in [0, 100]")
        other = by_key.setdefault(_level_key(level), level)
        if other != level:
            raise InvalidInputError(
                f"noise levels {other!r} and {level!r} would draw the same noise; "
                "levels that round to the same 0.01 share one stream"
            )


@dataclass
class ExperimentConfig:
    """Knobs of one training/evaluation sweep; JSON keys mirror field names
    ("lambda" maps to the lam attribute), and each field's domain is in ``_DOMAINS``."""

    dataset: str = "SyntheticBlobs"
    model: str = "MLP2"
    bn_variant: str = "stein"
    batch_size: int = 32
    learning_rate: float = 0.01
    max_epochs: int = 20
    early_stop_patience: int = 5
    noise_levels: list = field(default_factory=lambda: [0, 10, 20, 30])
    seeds: list = field(default_factory=lambda: [1])
    c_tilde: float | None = None
    lam: float = 0.0
    momentum_sgd: float = 0.9
    nesterov: bool = True
    # dataset knobs (SyntheticBlobs)
    n_classes: int = 4
    n_per_class: int = 250
    channels: int = 3
    hw: int = 8
    sep: float = 3.0
    hidden: int = 128
    noise_family: str = "levy-gauss"
    feature_noise: bool = False

    def __post_init__(self):
        pairs = [(f.name, getattr(self, f.name)) for f in fields(self)]
        check_domains(pairs, _DOMAINS, _CONFIG_REFUSAL)
        # the config's own rule: to_json writes back every value, such as no numpy scalar
        for name, value in pairs:
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                raise InvalidInputError(f"config key {name!r} holds {value!r}, which JSON cannot write") from None
        n = self.n_classes * self.n_per_class
        sizes = split_sizes(n)
        if not all(sizes):
            raise InvalidInputError(
                f"{n} samples split into {sizes[0]} train, {sizes[1]} validation and "
                f"{sizes[2]} test; need at least one of each"
            )
        for seed in self.seeds:
            check_seed(seed)
        if len(set(self.seeds)) != len(self.seeds):
            raise InvalidInputError(f"seeds must be distinct, got {self.seeds}")
        check_noise_levels(self.noise_levels)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InvalidInputError(f"config must be a JSON object, got {type(d).__name__}")
        if "lambda" in d and "lam" in d:
            raise InvalidInputError("config gives both 'lambda' and 'lam'; give one")
        kwargs = {}
        for key, value in d.items():
            name = "lam" if key == "lambda" else key
            if name not in _DOMAINS:
                raise InvalidInputError(f"unknown config key {key!r}")
            kwargs[name] = value
        # __post_init__ checks every field, but names the field, not the key
        if "lambda" in d:
            check_domains([("lambda", d["lambda"])], {"lambda": _DOMAINS["lam"]}, _CONFIG_REFUSAL)
        return cls(**kwargs)


@dataclass
class ResultRow:
    method: str
    batch_size: int
    noise_pct: float
    seed: int
    metric: str
    value: float
    epochs: int

    def __post_init__(self):
        # a 32.5 or a True in an int column, or a row outside the rules of the
        # config and levels it names, would be written as no run writes it
        check_domains(((f.name, getattr(self, f.name)) for f in fields(self)), _ROW_DOMAINS,
                      "{name} {value!r} is not {domain}")
        check_noise_levels([self.noise_pct])
        check_seed(self.seed)


# domain of every ResultRow column, as (what it must be, test); noise_pct and
# seed then follow the config's noise-level and seed rules
_ROW_DOMAINS = {
    "method": _DOMAINS["bn_variant"],
    "batch_size": _DOMAINS["batch_size"],
    "noise_pct": ("a number", is_real),
    "seed": ("an integer", is_int),
    "metric": ("one of " + ", ".join(map(repr, METRICS)), lambda v: v in METRICS),
    "value": ("a percentage in [0, 100]", lambda v: is_real(v) and 0 <= v <= 100),
    "epochs": _DOMAINS["max_epochs"],
}
# the results CSV's columns are ResultRow's fields, in order, each read back by its type
_RESULT_COLUMNS = typing.get_type_hints(ResultRow)
RESULTS_HEADER = ",".join(_RESULT_COLUMNS)


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    buf.write(RESULTS_HEADER + "\n")
    for r in rows:
        buf.write(",".join(f"{getattr(r, col)}" for col in _RESULT_COLUMNS) + "\n")
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ResultRow]:
    """The rows of a results CSV. A header without one of ``RESULTS_HEADER``'s
    columns or naming a column twice, a row whose field count differs from the
    header's, a field that does not parse and a value outside [0, 100] are
    refused, naming the line."""
    kept = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln and not ln.startswith("#")]
    reader = csv.DictReader(ln for _, ln in kept)
    header = reader.fieldnames or []
    missing = [col for col in _RESULT_COLUMNS if col not in header]
    if kept and missing:
        raise InvalidInputError(f"line {kept[0][0]}: results header has no column {', '.join(missing)}")
    # a row would read only the last of two same-named columns
    repeated = [col for i, col in enumerate(header) if col in header[:i]]
    if repeated:
        raise InvalidInputError(f"line {kept[0][0]}: results header names column {repeated[0]} twice")
    rows = []
    for r in reader:
        line_no = kept[reader.line_num - 1][0]
        # a short row's missing fields read None; a long row's extras sit under the key None
        if None in r or None in r.values():
            raise InvalidInputError(f"line {line_no}: its field count differs from the header's")
        try:
            rows.append(ResultRow(**{col: parse(r[col]) for col, parse in _RESULT_COLUMNS.items()}))
        except ValueError as exc:  # a field int() or float() cannot read, or ResultRow's refusal
            raise InvalidInputError(f"line {line_no}: {exc}") from None
    return rows


def atomic_write_bytes(path, data: bytes) -> None:
    """Write data to a temp file in path's directory, then rename it over path,
    so path holds either its previous content or all of data."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# checkpoint format: magic "SBN1", then per array
#   u32 name length | name utf-8 | u32 ndim | ndim x u32 dims | f64 LE payload


def save_arrays(path, arrays: dict[str, np.ndarray]) -> bytes:
    """Write arrays to path atomically; returns the bytes written."""
    parts = [CHECKPOINT_MAGIC]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        parts += [
            struct.pack("<I", len(encoded)),
            encoded,
            struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape),
            arr.astype("<f8").tobytes(),
        ]
    blob = b"".join(parts)
    atomic_write_bytes(path, blob)
    return blob


def load_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        return _decode_arrays(f.read(), path)


def _decode_arrays(blob: bytes, path) -> dict[str, np.ndarray]:
    """The arrays of ``blob``, read from ``path``, which each refusal names."""
    if blob[:4] != CHECKPOINT_MAGIC:
        raise InvalidInputError(f"{path} is not a checkpoint file (bad magic)")
    out, pos = {}, 4

    def take(size: int, what: str) -> int:
        """Offset of the next `size` bytes; a cut file names where it ends."""
        nonlocal pos
        if size > len(blob) - pos:
            raise InvalidInputError(
                f"truncated checkpoint {path}: {what} at offset {pos} needs {size} bytes, "
                f"{len(blob) - pos} left"
            )
        pos += size
        return pos - size

    while pos < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, take(4, "name length"))
        start = take(name_len, "array name")
        try:
            name = blob[start:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise InvalidInputError(
                f"corrupt checkpoint {path}: array name at offset {start} is not UTF-8"
            ) from None
        (ndim,) = struct.unpack_from("<I", blob, take(4, f"ndim of {name!r}"))
        dims = struct.unpack_from(f"<{ndim}I", blob, take(4 * ndim, f"dims of {name!r}"))
        count = math.prod(dims)
        offset = take(8 * count, f"payload of {name!r}")
        if name in out:  # a dict would keep only the last of the two
            raise InvalidInputError(
                f"corrupt checkpoint {path}: array {name!r} at offset {start} appears twice"
            )
        out[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(dims)
    return out


def _crc32(blob: bytes) -> str:
    return f"{zlib.crc32(blob):08x}"


@dataclass
class Checkpoint:
    config: ExperimentConfig
    seed: int
    arrays: dict[str, np.ndarray]
    epochs_trained: int
    best_val_acc: float
    diverged: bool = False

    def save(self, path) -> None:
        arrays = dict(self.arrays)
        arrays["__meta__"] = np.array(
            [self.seed, self.epochs_trained, self.best_val_acc, float(self.diverged)]
        )
        # the sidecar is written second and names the .ckpt bytes it belongs
        # to, so a save cut between the two renames is caught by load
        sidecar = self.config.to_dict()
        sidecar[CHECKPOINT_DIGEST_KEY] = _crc32(save_arrays(path, arrays))
        text = json.dumps(sidecar, indent=2, sort_keys=True)
        atomic_write_bytes(str(path) + ".json", text.encode("utf-8"))

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "rb") as f:
            blob = f.read()
        arrays = _decode_arrays(blob, path)
        meta = arrays.pop("__meta__", None)
        if meta is None or meta.shape != (4,):
            raise InvalidInputError(f"checkpoint {path} has no 4-entry __meta__ array")
        with open(str(path) + ".json") as f:
            sidecar = json.load(f)
        digest = sidecar.pop(CHECKPOINT_DIGEST_KEY, None) if isinstance(sidecar, dict) else None
        config = ExperimentConfig.from_dict(sidecar)
        if digest != _crc32(blob):
            raise InvalidInputError(
                f"checkpoint {path} does not match the {CHECKPOINT_DIGEST_KEY} of its .json "
                "sidecar (an interrupted save, or one of the two files replaced)"
            )
        bad = [k for k, v in {"__meta__": meta, **arrays}.items() if not np.isfinite(v).all()]
        if bad:
            raise NonFiniteError(f"checkpoint {path} has non-finite entries in {', '.join(bad)}")
        return cls(
            config=config,
            seed=int(meta[0]),
            arrays=arrays,
            epochs_trained=int(meta[1]),
            best_val_acc=float(meta[2]),
            diverged=bool(meta[3]),
        )


def build_model(config: ExperimentConfig, seed: int) -> Sequential:
    """The config's model for (channels, hw, hw) inputs and n_classes outputs."""
    rng = CounterRng(seed)
    dims, n_classes = (config.channels, config.hw, config.hw), config.n_classes
    kwargs = dict(c_tilde=config.c_tilde, lam=config.lam)
    if config.model == "MLP2":
        return build_mlp2(dims, n_classes, config.bn_variant, rng, hidden=config.hidden, **kwargs)
    return build_tiny_cnn(dims, n_classes, config.bn_variant, rng, **kwargs)


def make_dataset(config: ExperimentConfig, seed: int, rows: np.ndarray | None = None) -> Dataset:
    """The config's dataset (SyntheticBlobs), or with ``rows`` only those samples of it."""
    return make_synthetic_blobs(
        config.n_classes, config.n_per_class, config.channels, config.hw, config.sep, seed,
        rows=rows,
    )


def make_test_split(config: ExperimentConfig, seed: int) -> Dataset:
    """The test split of ``make_dataset(config, seed)``, drawing only its rows."""
    _, _, te = split_indices(config.n_classes * config.n_per_class, seed)
    return make_dataset(config, seed, rows=te)


def _evaluate(model: Sequential, images: np.ndarray, labels: np.ndarray) -> float:
    """Percent of images whose logits rank their label first, as 100 * correct / n,
    from one eval-mode forward over the whole split."""
    model.eval()
    logits = model.forward(images)
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits")
    correct = int(np.sum(logits.reshape(logits.shape[0], -1).argmax(axis=1) == labels))
    return 100.0 * correct / images.shape[0]


def train_model(config: ExperimentConfig, seed: int) -> Checkpoint:
    """Train one model on the data that (config, seed) draws; early stopping
    on clean validation accuracy.

    The seed's training rows are drawn once (``make_dataset(..., rows=tr)``)
    and each validation pass draws the validation rows and drops them, so no
    full dataset and no test row is drawn here. Each epoch steps through the
    training rows in a fresh order, in batches of ``batch_size``. The batch
    starts stop two short of the split's end, so every batch holds at least
    the 2 samples BN needs: a last remainder of one sample is left out of
    that epoch."""
    tr, va, _ = split_indices(config.n_classes * config.n_per_class, seed)
    train = make_dataset(config, seed, rows=tr)
    model = build_model(config, seed)
    opt = SGDNesterov(model, config.learning_rate, config.momentum_sgd, config.nesterov)
    shuffle_rng = CounterRng(seed)

    def validate() -> float:
        val = make_dataset(config, seed, rows=va)
        return _evaluate(model, val.images, val.labels)

    best_val = validate()
    best_state = {k: v.copy() for k, v in model.state_arrays().items()}
    best_epoch, stale = 0, 0

    # activations are not checked on the step path; a diverging run surfaces
    # as a non-finite model output, either the training loss or the logits of
    # the validation pass (the last step of an epoch can break the weights
    # with a finite loss), and ends the run with one warning; numpy's
    # floating-point warnings on the way there would only repeat it
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for epoch in range(1, config.max_epochs + 1):
                model.train()
                order = np.argsort(shuffle_rng.uniform(tr.size, 104, epoch), kind="stable")
                for lo in range(0, tr.size - 1, config.batch_size):
                    idx = order[lo : lo + config.batch_size]
                    logits = model.forward(train.images[idx])
                    loss, grad = softmax_cross_entropy(logits, train.labels[idx])
                    if not np.isfinite(loss):
                        raise NonFiniteError(f"loss={loss}")
                    model.backward(grad)
                    opt.step()
                val_acc = validate()
                if val_acc > best_val:
                    best_val = val_acc
                    best_state = {k: v.copy() for k, v in model.state_arrays().items()}
                    best_epoch, stale = epoch, 0
                else:
                    stale += 1
                    if stale >= config.early_stop_patience:
                        break
    except NonFiniteError as exc:
        warnings.warn(f"diverged at epoch {epoch} ({exc}); run marked failed")
        return Checkpoint(config, seed, best_state, epoch, best_val, diverged=True)

    return Checkpoint(config, seed, best_state, best_epoch, best_val)


def _noisy_inputs(
    clean: np.ndarray, ch_std: np.ndarray, level_pct: float, unit_spec: NoiseSpec, seed: int
) -> np.ndarray:
    """Add zero-mean noise with per-channel sigma = (level/100) * ch_std."""
    if level_pct == 0:
        return clean
    rng = CounterRng(seed)
    unit = sample_noise_flat(unit_spec, clean.size, rng, 105, _level_key(level_pct)).reshape(
        clean.shape
    )
    sigma = (level_pct / 100.0) * ch_std
    unit *= sigma[None, :, None, None]
    unit += clean
    return unit


def evaluate_under_noise(
    checkpoint: Checkpoint, noise_levels: list, noise_family: str
) -> list[ResultRow]:
    """Test accuracy per noise level on the test split that the checkpoint's
    config and seed held out from its training (``make_test_split``). The seed
    is read only from the checkpoint: it keys the split and the noise streams
    and labels every row. Bad levels (``check_noise_levels``) and an unknown
    family are refused before any data is drawn or the model is built.

    Noise enters at the model's input, or with ``feature_noise`` after its
    first BN layer. The clean activations at that point, and the per-channel
    std that scales the noise, are the same at every level, so they are
    computed once per sweep; the layers before the first BN run in eval mode,
    where each sample's output depends on that sample alone. Both placements
    score each level with ``_evaluate``, so a count of correct samples gives
    the same value either way.
    """
    check_noise_levels(noise_levels)
    check_domains([("noise_family", noise_family)], _DOMAINS,
                  "unknown noise family {value!r}; expected {domain}")
    unit_spec = _UNIT_NOISE[noise_family]
    config, seed = checkpoint.config, checkpoint.seed
    test = make_test_split(config, seed)
    model = build_model(config, seed)
    model.load_state_arrays(checkpoint.arrays)
    model.eval()
    clean, tail = test.images, model
    if config.feature_noise:
        first_bn = next(i for i, l in enumerate(model.layers) if isinstance(l, BatchNorm))
        clean = Sequential(model.layers[: first_bn + 1]).forward(test.images)
        tail = Sequential(model.layers[first_bn + 1 :])
    ch_std = clean.transpose(1, 0, 2, 3).reshape(clean.shape[1], -1).std(axis=1)
    rows = []
    for level in noise_levels:
        x = _noisy_inputs(clean, ch_std, level, unit_spec, seed)
        rows.append(
            ResultRow(
                method=config.bn_variant,
                batch_size=config.batch_size,
                noise_pct=float(level),
                seed=seed,
                metric=METRICS[0],
                value=_evaluate(tail, x, test.labels),
                epochs=checkpoint.epochs_trained,
            )
        )
    return rows


def checkpoint_path(checkpoint_dir, config: ExperimentConfig, seed: int) -> str:
    """Where ``run_sweep`` saves a seed's checkpoint; its sidecar is this path + ".json"."""
    return os.path.join(checkpoint_dir, f"{config.bn_variant}_s{seed}.ckpt")


def run_sweep(config: ExperimentConfig, checkpoint_dir=None) -> list[ResultRow]:
    """Train and evaluate over every seed of the config; one variant per call.

    With a checkpoint_dir, each seed's checkpoint is saved there, at
    ``checkpoint_path``.
    """
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    rows = []
    for seed in config.seeds:
        ckpt = train_model(config, seed)
        if checkpoint_dir:
            ckpt.save(checkpoint_path(checkpoint_dir, config, seed))
        rows.extend(evaluate_under_noise(ckpt, config.noise_levels, config.noise_family))
    return rows


def aggregate_results(rows: list[ResultRow]) -> str:
    """Mean and sample sd per (method, batch_size, noise, metric) cell over
    its seeds, as CSV. Rows that repeat a seed's value in a cell are one run;
    two different values for one seed in a cell are refused."""
    cells: dict[tuple, dict[int, float]] = {}
    for r in rows:
        key = (r.method, r.batch_size, r.noise_pct, r.metric)
        by_seed = cells.setdefault(key, {})
        if by_seed.setdefault(r.seed, r.value) != r.value:
            raise InvalidInputError(
                f"cell {key} has two values for seed {r.seed}: {by_seed[r.seed]!r} and {r.value!r}"
            )
    buf = io.StringIO()
    buf.write("method,batch_size,noise_pct,metric,mean,sd,n_seeds\n")
    for key in sorted(cells):
        vals = np.asarray(list(cells[key].values()))
        if vals.size < 2:
            warnings.warn(f"cell {key} has fewer than 2 seeds; omitted from summary")
            buf.write(f"# warning: cell {key} omitted (single seed)\n")
            continue
        method, bs, noise, metric = key
        buf.write(
            f"{method},{bs},{noise},{metric},{vals.mean():.6g},{vals.std(ddof=1):.6g},{vals.size}\n"
        )
    return buf.getvalue()

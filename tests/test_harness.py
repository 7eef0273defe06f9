"""Training-harness tests: datasets, training, evaluation, checkpoints, CSV."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbn import harness, rng
from steinbn.data import Dataset, make_synthetic_blobs, split_indices, split_sizes
from steinbn.harness import (
    RESULTS_HEADER,
    Checkpoint,
    ExperimentConfig,
    ResultRow,
    aggregate_results,
    build_model,
    evaluate_under_noise,
    load_arrays,
    make_dataset,
    make_test_split,
    noise_sweep,
    rows_from_csv,
    rows_to_csv,
    run_sweep,
    save_arrays,
    train_model,
)
from steinbn.nn import Sequential
from steinbn.rng import CounterRng
from steinbn.tensor import InvalidInputError, NonFiniteError, Tensor4

FAST = dict(
    n_classes=4,
    n_per_class=50,
    channels=3,
    hw=2,
    hidden=16,
    max_epochs=3,
    seeds=[1],
)
# a learning rate this large drives the activations to inf within five epochs
DIVERGING = dict(model="TinyCNN", learning_rate=1e6, n_per_class=50, hw=4, max_epochs=5, seeds=[1])


class TestData:
    def test_blobs_shape_and_labels(self):
        ds = make_synthetic_blobs(4, 25, 3, 2, sep=3.0, seed=0)
        assert ds.images.shape == (100, 3, 2, 2)
        assert np.bincount(ds.labels).tolist() == [25, 25, 25, 25]

    def test_blobs_deterministic(self):
        a = make_synthetic_blobs(3, 10, 2, 2, sep=1.0, seed=7)
        b = make_synthetic_blobs(3, 10, 2, 2, sep=1.0, seed=7)
        np.testing.assert_array_equal(a.images, b.images)

    def test_blobs_separation_scaling(self):
        # class centers grow with sep while within-class spread stays unit
        ds = make_synthetic_blobs(4, 200, 2, 2, sep=10.0, seed=1)
        for cls in range(4):
            cut = ds.images[ds.labels == cls]
            assert cut.std(axis=0).mean() == pytest.approx(1.0, abs=0.1)

    def test_blobs_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            make_synthetic_blobs(1, 10, 2, 2, sep=1.0, seed=0)
        with pytest.raises(InvalidInputError):
            make_synthetic_blobs(3, 10, 2, 2, sep=-1.0, seed=0)
        for rows in (np.array([0, -1]), np.array([30]), np.array([0.0]), np.zeros((1, 1), int)):
            with pytest.raises(InvalidInputError, match="rows must be"):
                make_synthetic_blobs(3, 10, 2, 2, sep=1.0, seed=0, rows=rows)

    @settings(max_examples=60, deadline=None)
    @given(
        n_classes=st.integers(2, 4),
        # (channels, hw): small samples, samples of 64-192 pixels whose rows
        # span several of the RNG's 2**14-entry blocks, and samples of 16875
        # pixels, more than a block, each drawn as a block of its own
        shape=st.one_of(
            st.tuples(st.integers(1, 3), st.integers(1, 3)), st.sampled_from([(1, 8), (3, 8), (3, 75)])
        ),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_row_subset_draw_equals_full_rows(self, n_classes, shape, seed, data):
        channels, hw = shape
        # at most 2**16 entries in the full draw
        n_per_class = data.draw(st.integers(1, max(1, 2**16 // (n_classes * channels * hw * hw))))
        args = (n_classes, n_per_class, channels, hw, 2.0, seed)
        full = make_synthetic_blobs(*args)
        n = n_classes * n_per_class
        pick = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        subset = pick.permutation(n)[: data.draw(st.integers(1, n))]
        repeated = pick.integers(0, n, size=data.draw(st.integers(1, 2 * n)))  # unsorted, repeats
        for rows in (subset, repeated, split_indices(n, seed)[2]):
            part = make_synthetic_blobs(*args, rows=rows)
            assert part.images.tobytes() == full.images[rows].tobytes()
            assert part.labels.dtype == full.labels.dtype
            assert part.labels.tobytes() == full.labels[rows].tobytes()

    def test_blobs_memory_is_the_images_and_a_few_draw_blocks(self):
        make_synthetic_blobs(4, 10, 3, 8, sep=3.0, seed=1)  # first-call caches
        tracemalloc.start()
        try:
            ds = make_synthetic_blobs(4, 640, 3, 8, sep=3.0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.images.shape == (2560, 3, 8, 8)
        # the images, a byte per entry for the finite check, and at most four
        # arrays of one draw block, whatever the number of draws
        bound = ds.images.nbytes * 9 // 8 + 4 * 8 * rng._BLOCK
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"

    def test_row_draw_memory_is_its_images_and_one_block(self):
        # 2048 rows at hw=8 are 3.15 MB of pixels; building an entry index
        # per pixel peaked at 6.83 MB
        rows = split_indices(2560, seed=1)[0]
        make_synthetic_blobs(4, 10, 3, 8, sep=3.0, seed=1, rows=np.arange(10))  # first-call caches
        tracemalloc.start()
        try:
            ds = make_synthetic_blobs(4, 640, 3, 8, sep=3.0, seed=1, rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = ds.images.nbytes + 2**20
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"
        # 25 blocks of 85 samples each
        full = make_synthetic_blobs(4, 640, 3, 8, sep=3.0, seed=1)
        assert ds.images.tobytes() == full.images[rows].tobytes()

    def test_test_split_equals_the_full_datasets_test_rows(self):
        cfg = ExperimentConfig(**FAST)
        full = make_dataset(cfg, seed=5)
        _, _, te = split_indices(full.images.shape[0], seed=5)
        test = make_test_split(cfg, seed=5)
        assert test.images.tobytes() == full.images[te].tobytes()
        assert test.labels.tobytes() == full.labels[te].tobytes()

    def test_dataset_validates_images_once(self):
        labels = np.array([0, 1])
        ds = Dataset(images=np.ones((2, 1, 2, 2), dtype=np.float32), labels=labels)
        assert ds.images.dtype == np.float64 and not ds.images.flags.writeable
        nan_images = np.ones((2, 1, 2, 2))
        nan_images[1, 0, 1, 1] = np.nan
        with pytest.raises(NonFiniteError):
            Dataset(images=nan_images, labels=labels)
        with pytest.raises(InvalidInputError):
            Dataset(images=np.ones((2, 4)), labels=labels)
        with pytest.raises(InvalidInputError):
            Dataset(images=np.ones((3, 1, 2, 2)), labels=labels)

    def test_split_is_80_10_10_partition(self):
        tr, va, te = split_indices(100, seed=3)
        assert len(tr) == 80 and len(va) == 10 and len(te) == 10
        assert sorted(np.concatenate([tr, va, te]).tolist()) == list(range(100))

    def test_split_deterministic(self):
        a = split_indices(50, seed=4)
        b = split_indices(50, seed=4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestConfig:
    def test_json_roundtrip_with_lambda_key(self):
        cfg = ExperimentConfig(bn_variant="lasso", lam=0.05, seeds=[1, 2])
        text = cfg.to_json()
        assert json.loads(text)["lambda"] == 0.05
        assert "lam" not in json.loads(text)
        back = ExperimentConfig.from_json(text)
        assert back == cfg

    def test_from_dict_leaves_the_callers_dict_unchanged(self):
        d = {"bn_variant": "lasso", "lambda": 0.05}
        assert ExperimentConfig.from_dict(d).lam == 0.05
        assert d == {"bn_variant": "lasso", "lambda": 0.05}

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(batch_size=1)
        with pytest.raises(InvalidInputError):
            ExperimentConfig(seeds=[])
        for level in (120, -10, float("nan"), float("inf"), "10"):
            with pytest.raises(InvalidInputError, match=f"noise level {level!r} is not a number"):
                ExperimentConfig(noise_levels=[0, level])
        with pytest.raises(ValueError):
            ExperimentConfig(bn_variant="bogus")
        with pytest.raises(InvalidInputError, match="unknown noise family 'gausian'"):
            ExperimentConfig(noise_family="gausian")


class TestResultsCsv:
    def test_header_is_bit_exact(self):
        assert RESULTS_HEADER == "method,batch_size,noise_pct,seed,metric,value,epochs"

    def test_roundtrip(self):
        rows = [
            ResultRow("stein", 32, 10.0, 1, "accuracy", 87.5, 12),
            ResultRow("standard", 64, 0.0, 2, "accuracy", 99.0, 7),
        ]
        assert rows_from_csv(rows_to_csv(rows)) == rows

    def test_roundtrip_skips_comment_lines(self):
        rows = [ResultRow("stein", 32, 0.0, 1, "accuracy", 50.0, 1)]
        text = rows_to_csv(rows) + "# config: {}\n"
        assert rows_from_csv(text) == rows

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                ResultRow,
                method=st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1),
                batch_size=st.integers(),
                noise_pct=st.floats(allow_nan=False),
                seed=st.integers(),
                metric=st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1),
                value=st.floats(0.0, 100.0),
                epochs=st.integers(),
            ),
            max_size=5,
        )
    )
    def test_columns_are_the_seven_written_out(self, rows):
        # the writer the columns were spelled out in, field by field
        reference = "method,batch_size,noise_pct,seed,metric,value,epochs\n" + "".join(
            f"{r.method},{r.batch_size},{r.noise_pct},{r.seed},{r.metric},{r.value},{r.epochs}\n"
            for r in rows
        )
        assert rows_to_csv(rows) == reference
        assert rows_from_csv(reference) == rows

    def test_value_range_enforced(self):
        with pytest.raises(InvalidInputError):
            ResultRow("stein", 32, 0.0, 1, "accuracy", 101.0, 1)


class TestCheckpointFormat:
    def test_array_blob_roundtrip(self, tmp_path):
        arrays = {
            "w": np.arange(6.0).reshape(2, 3),
            "b": np.array([1.5]),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "a.ckpt"
        save_arrays(path, arrays)
        assert path.read_bytes()[:4] == b"SBN1"
        back = load_arrays(path)
        for k, v in arrays.items():
            np.testing.assert_array_equal(back[k], v)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InvalidInputError):
            load_arrays(path)

    def test_every_truncation_is_a_clean_error(self, tmp_path):
        cfg = ExperimentConfig(**{**FAST, "max_epochs": 0})
        ckpt = train_model(cfg, seed=1)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        (tmp_path / "cut.ckpt.json").write_text(cfg.to_json())
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(InvalidInputError):
                Checkpoint.load(cut)
        # the error names the field and the offset where the file ends early
        for size, field in ((6, "name length at offset 4"), (20, "dims of 'layer0.w' at offset 20")):
            cut.write_bytes(blob[:size])
            with pytest.raises(InvalidInputError, match=field):
                load_arrays(cut)

    @pytest.mark.parametrize("failing_write", [1, 2])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, failing_write):
        cfg = ExperimentConfig(**{**FAST, "max_epochs": 0})
        path = tmp_path / "model.ckpt"
        old = train_model(cfg, seed=1)
        old.save(path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        new = train_model(ExperimentConfig(**{**FAST, "max_epochs": 1, "seeds": [2]}), seed=2)
        # the temp file is written in full, then the rename onto the
        # checkpoint (1) or its .json sidecar (2) fails
        calls, replace = [], os.replace

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == failing_write:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            new.save(path)
        monkeypatch.setattr(os, "replace", replace)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
        if failing_write == 1:
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
            back = Checkpoint.load(path)
            assert back.config == old.config
            assert back.seed == 1
        else:
            # seed 2's arrays beside seed 1's sidecar: the pair is refused
            with pytest.raises(InvalidInputError, match="does not match the checkpoint_crc32"):
                Checkpoint.load(path)

    def test_checkpoint_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        ckpt = train_model(cfg, seed=1)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        back = Checkpoint.load(path)
        assert back.config == cfg
        assert back.seed == ckpt.seed
        assert back.epochs_trained == ckpt.epochs_trained
        assert back.best_val_acc == pytest.approx(ckpt.best_val_acc)
        for k in ckpt.arrays:
            np.testing.assert_array_equal(back.arrays[k], ckpt.arrays[k])


class TestTraining:
    def test_zero_epochs_returns_initialization_at_chance(self):
        # larger test split so "near chance" is statistically meaningful
        cfg = ExperimentConfig(**{**FAST, "max_epochs": 0, "n_per_class": 250})
        ckpt = train_model(cfg, seed=1)
        assert ckpt.epochs_trained == 0
        rows = evaluate_under_noise(ckpt, [0], cfg.noise_family)
        assert abs(rows[0].value - 25.0) < 20.0  # 4 classes, near chance

    def test_strong_signal_reaches_95(self):
        cfg = ExperimentConfig(**{**FAST, "sep": 10.0, "max_epochs": 20})
        ckpt = train_model(cfg, seed=1)
        rows = evaluate_under_noise(ckpt, [0], cfg.noise_family)
        assert rows[0].value >= 95.0

    def test_determinism_of_full_runs(self):
        cfg = ExperimentConfig(**FAST)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a == b

    @pytest.mark.parametrize("variant", ["standard", "stein", "mean-only", "khoshsirat", "lasso", "ridge"])
    def test_all_variants_train(self, variant):
        cfg = ExperimentConfig(**{**FAST, "bn_variant": variant, "lam": 0.01})
        rows = run_sweep(cfg)
        assert all(0.0 <= r.value <= 100.0 for r in rows)

    def test_tiny_cnn_trains(self):
        cfg = ExperimentConfig(**{**FAST, "model": "TinyCNN", "max_epochs": 2})
        rows = run_sweep(cfg)
        assert all(0.0 <= r.value <= 100.0 for r in rows)

    @pytest.mark.parametrize("model", ["TinyCNN", "MLP2"])
    def test_divergence_returns_flagged_checkpoint(self, model):
        cfg = ExperimentConfig(**{**DIVERGING, "model": model})
        with pytest.warns(UserWarning, match="diverged at epoch"):
            ckpt = train_model(cfg, seed=1)
        assert ckpt.diverged and ckpt.epochs_trained >= 1
        # the best state before divergence is restored and still evaluates
        assert all(np.isfinite(v).all() for v in ckpt.arrays.values())
        rows = evaluate_under_noise(ckpt, [0], cfg.noise_family)
        assert 0.0 <= rows[0].value <= 100.0

    def test_training_builds_only_the_dataset_tensor4(self, monkeypatch):
        # images are validated where they are drawn: the training rows once,
        # the validation rows once per validation pass; the step path (BN
        # included) runs on plain arrays
        built = []
        init = Tensor4.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0].shape[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor4, "__init__", counting_init)
        cfg = ExperimentConfig(**{**FAST, "model": "TinyCNN", "max_epochs": 2})
        ckpt = train_model(cfg, seed=1)
        assert not ckpt.diverged
        n_train, n_val, _ = split_sizes(cfg.n_classes * cfg.n_per_class)
        assert built == [n_train] + [n_val] * (1 + cfg.max_epochs)

    def test_training_draws_only_its_training_and_validation_rows(self, monkeypatch):
        cfg = ExperimentConfig(**{**FAST, "max_epochs": 2})
        draw, drawn = harness.make_dataset, []

        def spy(config, seed, rows=None):
            drawn.append(rows)
            return draw(config, seed, rows=rows)

        monkeypatch.setattr(harness, "make_dataset", spy)
        train_model(cfg, seed=1)
        assert drawn and all(rows is not None for rows in drawn), "a call drew the whole dataset"
        tr, va, te = split_indices(cfg.n_classes * cfg.n_per_class, seed=1)
        together = np.unique(np.concatenate(drawn))
        assert together.tolist() == np.union1d(tr, va).tolist()
        assert np.intersect1d(together, te).size == 0

    def test_divergence_in_last_step_of_epoch_is_flagged(self):
        # at seed 4 the last step of epoch 3 breaks the weights while its loss
        # is still finite, so the validation pass is the first to see it
        cfg = ExperimentConfig(
            **{**DIVERGING, "learning_rate": 1e3, "max_epochs": 3, "seeds": [4], "channels": 3}
        )
        with pytest.warns(UserWarning, match="diverged at epoch 3 [(]non-finite logits[)]"):
            ckpt = train_model(cfg, seed=4)
        assert ckpt.diverged and ckpt.epochs_trained == 3

    def test_golden_tiny_cnn_checkpoint(self):
        # sha256 of the trained arrays of a short TinyCNN run (80 training
        # images: two batches of 32 and a ragged one of 16), recorded with
        # nine-step strided im2col/col2im loops; any change to a training bit
        # fails here
        cfg = ExperimentConfig(
            model="TinyCNN", bn_variant="stein", batch_size=32, hw=4, n_per_class=25,
            max_epochs=2, learning_rate=0.05, seeds=[3],
        )
        ckpt = train_model(cfg, seed=3)
        assert (ckpt.epochs_trained, ckpt.best_val_acc) == (2, 70.0)
        digest = hashlib.sha256()
        for key in sorted(ckpt.arrays):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(ckpt.arrays[key]).tobytes())
        assert digest.hexdigest() == "074ee4ed222dfdad58ab41984ab401e34164ad5e2466bf4e190262d124ae1fee"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_golden_tiny_cnn_checkpoint_for_any_blas_thread_count(self, threads):
        # OpenBLAS reads its thread count once, at import, so each count
        # trains the run above in a fresh interpreter
        script = (
            "import hashlib\n"
            "from steinbn.harness import ExperimentConfig, train_model\n"
            "cfg = ExperimentConfig(model='TinyCNN', bn_variant='stein', batch_size=32, hw=4,\n"
            "    n_per_class=25, max_epochs=2, learning_rate=0.05, seeds=[3])\n"
            "arrays = train_model(cfg, seed=3).arrays\n"
            "digest = hashlib.sha256()\n"
            "for key in sorted(arrays):\n"
            "    digest.update(key.encode())\n"
            "    digest.update(arrays[key].tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(harness.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "074ee4ed222dfdad58ab41984ab401e34164ad5e2466bf4e190262d124ae1fee"

    def test_golden_tiny_cnn_checkpoint_file(self, tmp_path):
        # sha256 of the saved .ckpt file of the run above, so the order in
        # which the model lists its arrays (w, b per affine layer; gamma,
        # beta, running_mean, running_var per BN) is pinned too
        cfg = ExperimentConfig(
            model="TinyCNN", bn_variant="stein", batch_size=32, hw=4, n_per_class=25,
            max_epochs=2, learning_rate=0.05, seeds=[3],
        )
        train_model(cfg, seed=3).save(tmp_path / "m.ckpt")
        digest = hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest()
        assert digest == "69b4e35dfadd78bb9c7c6fed19527edf66479762e467ffb92cda8af37d5add5b"

    @pytest.mark.parametrize("model", ["MLP2", "TinyCNN"])
    def test_validation_passes_leave_the_training_bits_alone(self, monkeypatch, model):
        # each epoch's validation pass runs the model in eval mode, which
        # releases the layers' backward state; the same steps with it skipped
        # must give the same parameters and running statistics, bit for bit
        cfg = ExperimentConfig(**{**FAST, "model": model, "max_epochs": 3})
        evaluate = harness._evaluate

        def train(validate):
            scores = iter(range(10))  # every epoch improves, so the last state is kept

            def validation(*args):
                if validate:
                    evaluate(*args)
                return float(next(scores))

            monkeypatch.setattr(harness, "_evaluate", validation)
            return train_model(cfg, seed=1)

        validated, skipped = train(True), train(False)
        assert validated.epochs_trained == skipped.epochs_trained == 3
        assert list(validated.arrays) == list(skipped.arrays)
        for key, arr in validated.arrays.items():
            assert arr.tobytes() == skipped.arrays[key].tobytes(), key

    @pytest.mark.parametrize("model", ["MLP2", "TinyCNN"])
    def test_each_validation_pass_gathers_its_rows_and_drops_them(self, monkeypatch, model):
        # train_model held one copy of the validation split through every step
        cfg = ExperimentConfig(**{**FAST, "model": model, "max_epochs": 3, "early_stop_patience": 3})
        evaluate, passes = harness._evaluate, []

        def validation(net, images, labels):
            assert all(ref() is None for ref in passes), "an earlier pass's images are still live"
            passes.append(weakref.ref(images))
            return evaluate(net, images, labels)

        monkeypatch.setattr(harness, "_evaluate", validation)
        train_model(cfg, seed=1)
        assert len(passes) == 1 + cfg.max_epochs
        assert all(ref() is None for ref in passes)

    def test_plain_momentum_config_trains_another_finite_checkpoint(self):
        nesterov = train_model(ExperimentConfig(**FAST), seed=1)
        plain = train_model(ExperimentConfig(**{**FAST, "nesterov": False}), seed=1)
        assert not plain.diverged
        assert all(np.isfinite(v).all() for v in plain.arrays.values())
        assert list(plain.arrays) == list(nesterov.arrays)
        assert any(v.tobytes() != nesterov.arrays[k].tobytes() for k, v in plain.arrays.items())

    def test_lasso_ridge_zero_lambda_match_standard_trajectories(self):
        base = ExperimentConfig(**{**FAST, "bn_variant": "standard"})
        ref = run_sweep(base)
        for variant in ("lasso", "ridge"):
            cfg = ExperimentConfig(**{**FAST, "bn_variant": variant, "lam": 0.0})
            rows = run_sweep(cfg)
            assert [r.value for r in rows] == [r.value for r in ref]


class TestEvaluation:
    def _trained(self):
        cfg = ExperimentConfig(**FAST)
        return cfg, train_model(cfg, seed=1)

    def test_level_zero_equals_clean_accuracy(self):
        cfg, ckpt = self._trained()
        rows = evaluate_under_noise(ckpt, [0, 0], cfg.noise_family)
        assert rows[0].value == rows[1].value

    def test_rows_carry_config_fields(self):
        cfg, ckpt = self._trained()
        rows = evaluate_under_noise(ckpt, [0, 10], cfg.noise_family)
        assert [r.noise_pct for r in rows] == [0.0, 10.0]
        assert all(r.method == cfg.bn_variant for r in rows)
        assert all(r.batch_size == cfg.batch_size for r in rows)

    def test_noise_draws_deterministic_per_level(self):
        cfg, ckpt = self._trained()
        a = evaluate_under_noise(ckpt, [20], cfg.noise_family)
        b = evaluate_under_noise(ckpt, [20], cfg.noise_family)
        assert a == b

    def test_feature_noise_flag(self):
        cfg = ExperimentConfig(**{**FAST, "feature_noise": True})
        ckpt = train_model(cfg, seed=1)
        rows = evaluate_under_noise(ckpt, [0, 20], cfg.noise_family)
        assert all(0.0 <= r.value <= 100.0 for r in rows)

    @pytest.mark.parametrize("feature_noise", [False, True])
    def test_sweep_equals_each_level_on_its_own(self, feature_noise):
        # the clean prefix and the noise scale are shared across the levels
        # of a sweep; no level may see another level's noise
        cfg = ExperimentConfig(**{**FAST, "feature_noise": feature_noise, "sep": 1.0})
        ckpt = train_model(cfg, seed=1)
        levels = [0, 20, 50, 20, 0]
        rows = evaluate_under_noise(ckpt, levels, "levy-gauss")
        alone = [evaluate_under_noise(ckpt, [lv], "levy-gauss")[0] for lv in levels]
        assert rows == alone
        assert len({r.value for r in rows}) > 1

    @pytest.mark.parametrize("model", ["MLP2", "TinyCNN"])
    @pytest.mark.parametrize("n", [2, 256, 257])
    def test_evaluate_scores_a_split_in_one_forward(self, monkeypatch, model, n):
        # a 257-image split was scored in chunks of 256, its last image alone;
        # a 1-row Dense forward takes numpy's GEMV path and can give that
        # image other logits than the full batch gives it
        cfg = ExperimentConfig(**{**FAST, "model": model})
        net = build_model(cfg, seed=1)
        net.eval()
        images = CounterRng(2).normal(n * 12, 1).reshape(n, 3, 2, 2)
        labels = np.arange(n) % cfg.n_classes
        full = net.forward(images)
        calls = []
        forward = Sequential.forward

        def recording(model, x):
            calls.append(forward(model, x))
            return calls[-1]

        monkeypatch.setattr(Sequential, "forward", recording)
        acc = harness._evaluate(net, images, labels)
        assert len(calls) == 1
        assert calls[0].tobytes() == full.tobytes()
        correct = int(np.sum(full.reshape(n, -1).argmax(axis=1) == labels))
        assert acc == 100.0 * correct / n

    # sha256 of every array a model forward returns during a noise sweep of
    # the golden TinyCNN run's model over its whole dataset (100 images): the
    # clean activations up to the first BN for feature noise, then the logits
    # at each level. Recorded while eval-mode layers still kept their
    # backward state, so the eval forward must reproduce those bits.
    @pytest.mark.parametrize(
        "feature_noise, family, digest",
        [
            (False, "levy-gauss", "4c3e313dfa882510b013a7ebcd850941fdd8a853f30079fd634bbf59583d2643"),
            (False, "gaussian", "ad230b00ce07f44e72f5f05423c997d3b364652b04d33d96fccc3e389f8651f1"),
            (True, "levy-gauss", "09b4de8e0af4c7ed524c8caa17673a7f8cf3612d5dfdff2352dcd47467e76599"),
            (True, "gaussian", "56e31e00a90a95b8dd34d58a13014175cb5ad3a2a2152bd9e10ce43b206b597f"),
        ],
    )
    def test_golden_eval_logits(self, monkeypatch, feature_noise, family, digest):
        cfg = ExperimentConfig(
            model="TinyCNN", bn_variant="stein", batch_size=32, hw=4, n_per_class=25,
            max_epochs=2, learning_rate=0.05, seeds=[3],
        )
        ds = make_dataset(cfg, seed=3)
        ckpt = train_model(cfg, seed=3)
        ckpt.config = replace(cfg, feature_noise=feature_noise)
        outputs = []
        forward = Sequential.forward

        def recording(model, x):
            out = forward(model, x)
            outputs.append(out.copy())
            return out

        monkeypatch.setattr(Sequential, "forward", recording)
        noise_sweep(ckpt, ds.images, ds.labels, [0, 10, 50, 100], family)
        assert len(outputs) == (5 if feature_noise else 4)
        sha = hashlib.sha256()
        for out in outputs:
            sha.update(out.tobytes())
        assert sha.hexdigest() == digest


class TestAggregate:
    def test_mean_and_sd(self):
        rows = [
            ResultRow("stein", 32, 0.0, s, "accuracy", v, 5)
            for s, v in [(1, 1.0), (2, 3.0)]
        ]
        out = aggregate_results(rows)
        lines = out.splitlines()
        assert lines[0] == "method,batch_size,noise_pct,metric,mean,sd,n_seeds"
        cells = lines[1].split(",")
        assert float(cells[4]) == 2.0
        assert float(cells[5]) == pytest.approx(np.sqrt(2.0), rel=1e-5)
        assert cells[6] == "2"

    def test_duplicate_value_zero_sd(self):
        rows = [ResultRow("stein", 32, 0.0, s, "accuracy", 7.0, 5) for s in (1, 2)]
        assert float(aggregate_results(rows).splitlines()[1].split(",")[5]) == 0.0

    def test_single_seed_cell_warned_and_omitted(self):
        rows = [ResultRow("stein", 32, 0.0, 1, "accuracy", 7.0, 5)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = aggregate_results(rows)
        assert any("single seed" in str(w.message) or "fewer than 2" in str(w.message) for w in caught)
        assert any(line.startswith("# warning") for line in out.splitlines())

    def test_a_run_repeated_in_the_rows_counts_once(self):
        # rows given twice (one file read twice, or eval --levels 10,10.0)
        # read as two seeds with sd 0
        rows = [ResultRow("stein", 32, 0.0, s, "accuracy", v, 5) for s, v in [(1, 1.0), (2, 3.0)]]
        assert aggregate_results(rows + rows) == aggregate_results(rows)
        with pytest.warns(UserWarning, match="fewer than 2 seeds"):
            out = aggregate_results(rows[:1] * 2)
        assert out.splitlines()[1:] == [
            "# warning: cell ('stein', 32, 0.0, 'accuracy') omitted (single seed)"
        ]

    def test_two_values_for_one_seed_in_a_cell_refused(self):
        rows = [ResultRow("stein", 32, 0.0, 1, "accuracy", v, 5) for v in (1.0, 1.0, 2.0)]
        message = r"cell \('stein', 32, 0.0, 'accuracy'\) has two values for seed 1: 1.0 and 2.0"
        with pytest.raises(InvalidInputError, match=message):
            aggregate_results(rows)
        # the same seed in another cell is another run
        other = replace(rows[0], metric="fgsm-accuracy", value=2.0)
        aggregate_results([rows[0], other, replace(rows[0], seed=2), replace(other, seed=2)])

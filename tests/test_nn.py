"""Gradient, reference and state tests for the layers.

The gradient oracle is a central finite difference of the scalar
L = sum(forward(x) * r) for a fixed random r, so dL/d(output) = r is what
backward receives. The conv kernels are also compared with a plain einsum
contraction of the same im2col matrix, and the conv's gather and scatter
byte for byte with nine-step strided loops.
"""

import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbn import nn
from steinbn.batchnorm import BNVariant
from steinbn.nn import (
    BatchNorm,
    Conv3x3,
    Dense,
    GlobalAvgPool,
    ReLU,
    build_mlp2,
    build_tiny_cnn,
    softmax_cross_entropy,
)
from steinbn.rng import CounterRng
from steinbn.tensor import InvalidInputError

N, C, O, H, W = 3, 2, 5, 3, 5  # non-square, odd, every axis distinct


def _fd_grad(f, arr, h=1e-6):
    """Central finite difference of the scalar f() w.r.t. every entry of arr."""
    grad = np.zeros_like(arr)
    for i in np.ndindex(arr.shape):
        keep = arr[i]
        arr[i] = keep + h
        up = f()
        arr[i] = keep - h
        down = f()
        arr[i] = keep
        grad[i] = (up - down) / (2 * h)
    return grad


def _check_gradients(layer, x, out_shape):
    rng = np.random.default_rng(3)
    layer.b[:] = rng.normal(size=layer.b.shape)
    r = rng.normal(size=out_shape)
    loss = lambda: float(np.sum(layer.forward(x) * r))
    assert layer.forward(x).shape == out_shape
    dx = layer.backward(r)
    for name, analytic, numeric in (
        ("dx", dx, _fd_grad(loss, x)),
        ("dw", layer.dw, _fd_grad(loss, layer.w)),
        ("db", layer.db, _fd_grad(loss, layer.b)),
    ):
        assert analytic.shape == numeric.shape, name
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-7, err_msg=name)


def test_conv_finite_difference_gradients():
    layer = Conv3x3(C, O, CounterRng(1), 21)
    assert layer.w.shape == (O, C * 9)
    x = np.random.default_rng(0).normal(size=(N, C, H, W))
    _check_gradients(layer, x, (N, O, H, W))


def test_dense_finite_difference_gradients():
    layer = Dense(C * H * W, O, CounterRng(1), 11)
    x = np.random.default_rng(0).normal(size=(N, C, H, W))
    _check_gradients(layer, x, (N, O, 1, 1))


@pytest.mark.parametrize("dims", [(N, C, O, H, W), (32, 8, 16, 4, 4), (4, 3, 8, 8, 8)])
def test_conv_matches_einsum_reference(dims):
    n, c, o, h, w = dims
    rng = np.random.default_rng(7)
    layer = Conv3x3(c, o, CounterRng(2), 22)
    layer.b[:] = rng.normal(size=o)
    x = rng.normal(size=(n, c, h, w))
    grad = rng.normal(size=(n, o, h, w))
    out = layer.forward(x)
    dx = layer.backward(grad)

    # reference: explicit zero padding, im2col, then einsum contractions
    padded = np.zeros((n, c, h + 2, w + 2))
    padded[:, :, 1:-1, 1:-1] = x
    cols = np.stack(
        [padded[:, :, dh : dh + h, dw : dw + w] for dh in range(3) for dw in range(3)], axis=2
    ).reshape(n, c * 9, h * w)
    g = grad.reshape(n, o, h * w)
    ref_out = np.einsum("of,nfp->nop", layer.w, cols) + layer.b[None, :, None]
    ref_dw = np.einsum("nop,nfp->of", g, cols)
    dcols = np.einsum("of,nop->nfp", layer.w, g).reshape(n, c, 3, 3, h, w)
    ref_dx = np.zeros((n, c, h + 2, w + 2))
    for dh in range(3):
        for dw in range(3):
            ref_dx[:, :, dh : dh + h, dw : dw + w] += dcols[:, :, dh, dw]

    np.testing.assert_allclose(out, ref_out.reshape(n, o, h, w), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(layer.dw, ref_dw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(layer.db, g.sum(axis=(0, 2)), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dx, ref_dx[:, :, 1:-1, 1:-1], rtol=1e-12, atol=1e-12)


def _loop_im2col(x):
    """The nine strided copies of a zero-padded input, tap k = dh*3 + dw."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2, w + 2))
    padded[:, :, 1:-1, 1:-1] = x
    cols = np.empty((n, c, 9, h, w))
    for k in range(9):
        dh, dw = divmod(k, 3)
        cols[:, :, k] = padded[:, :, dh : dh + h, dw : dw + w]
    return cols.reshape(n, c * 9, h * w)


def _loop_col2im(dcols, shape):
    """The nine strided adds onto the padded grid, in tap order from +0.0."""
    n, c, h, w = shape
    dcols = dcols.reshape(n, c, 9, h, w)
    dx = np.zeros((n, c, h + 2, w + 2))
    for k in range(9):
        dh, dw = divmod(k, 3)
        dx[:, :, dh : dh + h, dw : dw + w] += dcols[:, :, k]
    return dx[:, :, 1:-1, 1:-1]


dim = st.integers(1, 6)


@given(n=dim, c=dim, h=dim, w=dim, o=dim, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_conv_data_movement_equals_nine_step_loops(n, c, h, w, o, seed):
    # byte for byte, so signed zeros count; zeroed inputs and gradients are
    # common on the training path (relu)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w)) * (rng.random((n, c, h, w)) < 0.7)  # +0.0 and -0.0
    cols = Conv3x3._im2col(x)
    assert cols.flags.c_contiguous
    assert cols.tobytes() == _loop_im2col(x).tobytes()

    layer = Conv3x3(c, o, CounterRng(seed), 22)
    grad = rng.normal(size=(n, o, h, w)) * (rng.random((n, o, h, w)) < 0.7)
    layer.forward(x)
    dx = layer.backward(grad)
    dcols = np.matmul(layer.w.T, grad.reshape(n, o, h * w))
    assert dx.shape == x.shape
    assert dx.tobytes() == _loop_col2im(dcols, x.shape).tobytes()


def _column_path_backward(w, x, grad):
    """dw, db and dx of a conv whose forward kept its sample-major columns:
    dw is a GEMM with a transposed copy of them, dx is col2im of w.T @ grad."""
    n, c, h, wd = x.shape
    o, f = w.shape
    cols = _loop_im2col(x)
    g = grad.reshape(n, o, h * wd)
    dw = g.transpose(1, 0, 2).reshape(o, -1) @ cols.transpose(1, 0, 2).reshape(f, -1).T
    return dw, g.sum(axis=(0, 2)), _loop_col2im(np.matmul(w.T, g), x.shape)


@given(n=dim, c=dim, h=dim, w=dim, o=dim, per_block=dim, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_conv_backward_from_its_input_equals_the_column_path(n, c, h, w, o, per_block, seed):
    # the backward gathers its columns from the kept input; its gradients
    # equal those of a layer that kept the forward's columns, byte for byte,
    # and a train forward cut into column blocks equals one whole-batch block.
    # The backward folds its input gradient in blocks of per_block samples
    # too, the last one shorter when per_block does not divide n
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w)) * (rng.random((n, c, h, w)) < 0.7)  # +0.0 and -0.0
    grad = rng.normal(size=(n, o, h, w)) * (rng.random((n, o, h, w)) < 0.7)
    layer = Conv3x3(c, o, CounterRng(seed), 22)
    layer.b[:] = rng.normal(size=o)
    whole = layer.forward(x)
    budget = per_block * c * 9 * h * w
    with mock.patch.object(nn, "_COL_BLOCK", budget), mock.patch.object(nn, "_FOLD_BLOCK", budget):
        blocked = layer.forward(x)
        dx = layer.backward(grad)
    assert blocked.tobytes() == whole.tobytes()
    want_dw, want_db, want_dx = _column_path_backward(layer.w, x, grad)
    assert layer.dw.tobytes() == want_dw.tobytes()
    assert layer.db.tobytes() == want_db.tobytes()
    assert dx.tobytes() == want_dx.tobytes()


def test_conv_gradients_follow_the_batch_shape():
    # 64, 32, then 64 again: the cached scatter targets follow the input shape
    rng = np.random.default_rng(4)
    xs = [rng.normal(size=(n, 8, 4, 4)) for n in (64, 32, 64)]
    gs = [rng.normal(size=(n, 16, 4, 4)) for n in (64, 32, 64)]
    reused = Conv3x3(8, 16, CounterRng(9), 22)
    for x, g in zip(xs, gs):
        fresh = Conv3x3(8, 16, CounterRng(9), 22)
        fresh.forward(x)
        reused.forward(x)
        want, got = fresh.backward(g), reused.backward(g)
        assert got.tobytes() == want.tobytes()
        assert reused.dw.tobytes() == fresh.dw.tobytes()
        assert reused.db.tobytes() == fresh.db.tobytes()


@pytest.mark.parametrize("build", [build_tiny_cnn, build_mlp2])
def test_sequential_backward_skips_only_the_input_gradient(build):
    # every parameter gradient equals that of a backward pass that also
    # computes the gradient w.r.t. the model input, bit for bit. A backward
    # takes its forward's state, so the second pass runs the forward again:
    # the same x through the same weights keeps the same state
    model = build((3, 4, 4), 4, BNVariant.STEIN, CounterRng(5))
    x = np.random.default_rng(1).normal(size=(6, 3, 4, 4))
    grad = np.random.default_rng(2).normal(size=model.forward(x).shape)
    assert model.backward(grad) is None
    skipped = {key: dp.copy() for key, _, dp in model.named_params()}
    model.forward(x)
    g = grad
    for layer in reversed(model.layers):
        g = layer.backward(g)
    assert g.shape == x.shape
    for key, _, dp in model.named_params():
        assert dp.tobytes() == skipped[key].tobytes(), key


@pytest.mark.parametrize("nesterov", [False, True])
def test_optimizer_step_is_plain_or_nesterov_momentum(nesterov):
    # plain momentum: v = m·v + g, w -= lr·v; Nesterov: the same v, then
    # w -= lr·(g + m·v); bit for bit, over two steps so that the second
    # starts from a nonzero velocity
    lr, m = 0.05, 0.9
    model = build_mlp2((3, 2, 2), 4, BNVariant.STEIN, CounterRng(5), hidden=8)
    opt = nn.SGDNesterov(model, lr, m, nesterov)
    rng = np.random.default_rng(1)
    x, labels = rng.normal(size=(6, 3, 2, 2)), rng.integers(0, 4, 6)
    velocity = {key: np.zeros_like(arr) for key, arr, _ in model.named_params()}
    for _ in range(2):
        model.backward(softmax_cross_entropy(model.forward(x), labels)[1])
        before = {key: (arr.copy(), g.copy()) for key, arr, g in model.named_params()}
        opt.step()
        for key, arr, _ in model.named_params():
            w, g = before[key]
            velocity[key] = m * velocity[key] + g
            want = w - lr * (g + m * velocity[key] if nesterov else velocity[key])
            assert opt.velocity[key].tobytes() == velocity[key].tobytes(), key
            assert arr.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("build", [build_tiny_cnn, build_mlp2])
def test_every_layer_is_hashable_and_equal_only_to_itself(build):
    # BN compared its fields and could not be hashed; a twin built from the
    # same seed holds equal arrays, so only identity tells its layers apart
    model = build((3, 4, 4), 4, BNVariant.STEIN, CounterRng(5))
    twin = build((3, 4, 4), 4, BNVariant.STEIN, CounterRng(5))
    assert len({*model.layers, *twin.layers}) == 2 * len(model.layers)
    for layer, other in zip(model.layers, twin.layers):
        assert layer == layer and layer != other


@pytest.mark.parametrize(
    "cls, param_names, stat_names",
    [
        (Dense, ("w", "b"), ()),
        (Conv3x3, ("w", "b"), ()),
        (BatchNorm, ("gamma", "beta"), ("running_mean", "running_var")),
        (ReLU, (), ()),
        (GlobalAvgPool, (), ()),
    ],
)
def test_each_layer_class_names_its_parameters_and_statistics(cls, param_names, stat_names):
    # the names fix a layer's checkpoint keys and their order
    assert cls.param_names == param_names
    assert cls.stat_names == stat_names


@pytest.mark.parametrize("build", [build_tiny_cnn, build_mlp2])
def test_grads_and_state_arrays_follow_the_declared_names(build):
    model = build((3, 4, 4), 4, BNVariant.STEIN, CounterRng(5))
    x = np.random.default_rng(1).normal(size=(6, 3, 4, 4))
    model.backward(np.random.default_rng(2).normal(size=model.forward(x).shape))
    params = model.named_params()
    for i, layer in enumerate(model.layers):
        for name in layer.param_names:
            key, arr, g = next(params)
            assert key == f"layer{i}.{name}"
            assert arr is getattr(layer, name) and g is getattr(layer, "d" + name)
            assert g.shape == arr.shape and g.dtype == arr.dtype, key
        state = layer.state_arrays()
        assert list(state) == [*layer.param_names, *layer.stat_names]
        for name, arr in state.items():
            assert arr is getattr(layer, name)
    assert next(params, None) is None


def test_state_loads_in_place_and_round_trips():
    # the state of one model loaded into another of the same shape gives
    # the same arrays in the same order, written into the model's own arrays
    src = build_tiny_cnn((3, 4, 4), 4, BNVariant.STEIN, CounterRng(5))
    src.train()
    src.forward(np.random.default_rng(1).normal(size=(6, 3, 4, 4)))  # moves the running stats
    dst = build_tiny_cnn((3, 4, 4), 4, BNVariant.STEIN, CounterRng(6))
    own = dst.state_arrays()
    dst.load_state_arrays({k: v.copy() for k, v in src.state_arrays().items()})
    assert list(dst.state_arrays()) == list(src.state_arrays()) == list(own)
    for key, arr in dst.state_arrays().items():
        assert arr is own[key]
        assert arr.tobytes() == src.state_arrays()[key].tobytes(), key
    assert isinstance(dst.layers[1], BatchNorm)
    assert list(own)[:6] == [
        "layer0.w", "layer0.b",
        "layer1.gamma", "layer1.beta", "layer1.running_mean", "layer1.running_var",
    ]


@pytest.mark.parametrize(
    "key, value",
    [
        ("layer1.running_var", np.ones(3)),
        ("layer3.w", None),
        ("layer1.running_var", -np.ones(8)),
        ("bogus", np.ones(8)),
    ],
)
def test_state_not_fitting_the_model_is_refused(key, value):
    model = build_mlp2((3, 2, 2), 4, BNVariant.STEIN, CounterRng(5), hidden=8)
    arrays = dict(model.state_arrays())
    if value is None:
        del arrays[key]
    else:
        arrays[key] = value
    with pytest.raises(InvalidInputError, match=repr(key)):
        model.load_state_arrays(arrays)


def test_stray_array_is_refused_before_any_array_loads():
    # an array no layer reads was silently ignored; it is refused, and the
    # arrays that do fit the model are left unloaded
    model = build_mlp2((3, 2, 2), 4, BNVariant.STEIN, CounterRng(5), hidden=8)
    before = {k: v.copy() for k, v in model.state_arrays().items()}
    arrays = {k: v + 1.0 for k, v in before.items()}
    arrays["layer9.w"] = np.ones(1)
    message = "checkpoint array 'layer9.w' belongs to no layer of the model"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        model.load_state_arrays(arrays)
    for key, arr in model.state_arrays().items():
        assert arr.tobytes() == before[key].tobytes(), key


def _batch_arrays(obj, n, path):
    """Paths of the arrays in obj with a leading batch axis of n, or a flat
    one whose length is a multiple of n (such as conv's scatter targets),
    looking inside the tuples and dataclasses (such as a BN cache) it holds."""
    if isinstance(obj, np.ndarray):
        return [path] if obj.ndim and (obj.shape[0] == n or obj.size % n == 0) else []
    if isinstance(obj, tuple):
        items = enumerate(obj)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = vars(obj).items()
    else:
        return []
    return [p for key, value in items for p in _batch_arrays(value, n, f"{path}.{key}")]


def _held_batch_arrays(layer, n):
    return [p for key, value in vars(layer).items() for p in _batch_arrays(value, n, key)]


@pytest.mark.parametrize("build", [build_tiny_cnn, build_mlp2])
def test_eval_forward_leaves_no_activation_in_any_layer(build):
    # a train forward fills every layer's backward state and the backward
    # takes all of it; switching to eval mode releases the state of a train
    # forward no backward took, and an eval forward keeps none, so a
    # validation pass starts clean and inference holds only what it returns
    n = 37  # no parameter's length or leading axis is a multiple of 37
    model = build((3, 4, 4), 4, BNVariant.STEIN, CounterRng(5))
    x = np.random.default_rng(1).normal(size=(n, 3, 4, 4))
    y = model.forward(x)
    keeping = [layer for layer in model.layers if not isinstance(layer, nn.GlobalAvgPool)]
    assert all(_held_batch_arrays(layer, n) for layer in keeping)  # pooling keeps a shape
    model.backward(np.ones(y.shape))
    for i, layer in enumerate(model.layers):
        assert _held_batch_arrays(layer, n) == [], f"layer{i} {type(layer).__name__}"
    model.forward(x)
    assert any(_held_batch_arrays(layer, n) for layer in model.layers)
    model.eval()
    for i, layer in enumerate(model.layers):
        assert _held_batch_arrays(layer, n) == [], f"layer{i} {type(layer).__name__}"
    assert model.forward(x).shape[0] == n
    for i, layer in enumerate(model.layers):
        assert layer.mode.value == "eval"
        assert _held_batch_arrays(layer, n) == [], f"layer{i} {type(layer).__name__}"


@pytest.mark.parametrize(
    "make",
    [
        lambda: Conv3x3(C, O, CounterRng(1), 21),
        lambda: Dense(C * H * W, O, CounterRng(1), 11),
        ReLU,
        lambda: BatchNorm(C, BNVariant.STEIN),
    ],
    ids=["conv", "dense", "relu", "bn"],
)
def test_backward_needs_a_train_mode_forward(make):
    x = np.random.default_rng(4).normal(size=(N, C, H, W))
    layer = make().eval()
    y = layer.forward(x)
    for unready in (make(), layer):  # no forward yet, or an eval-mode one
        with pytest.raises(InvalidInputError, match="backward needs a train-mode forward"):
            unready.backward(np.ones(y.shape))
    # back in train mode the layer runs its backward, once per forward
    train_y = layer.train().forward(x)
    if not isinstance(layer, BatchNorm):  # BN trains on the batch statistics
        assert train_y.tobytes() == y.tobytes()
    layer.backward(np.ones(y.shape))
    with pytest.raises(InvalidInputError, match="backward needs a train-mode forward"):
        layer.backward(np.ones(y.shape))


def test_eval_forward_in_column_blocks_equals_whole_and_per_sample_forwards():
    # conv #2 of TinyCNN at hw=8 takes 28 samples per column block, so a batch
    # of 60 runs as blocks of 28, 28 and 4
    n, c, hw = 60, 8, 8
    assert n % (nn._COL_BLOCK // (c * 9 * hw * hw)) != 0
    layer = Conv3x3(c, 16, CounterRng(2), 22)
    layer.b[:] = np.linspace(-1.0, 1.0, 16)
    x = np.random.default_rng(6).normal(size=(n, c, hw, hw))
    # train mode builds its columns in the same blocks; the single-block
    # comparison is in test_conv_backward_from_its_input_equals_the_column_path
    whole = layer.forward(x)
    blocked = layer.eval().forward(x)
    assert blocked.tobytes() == whole.tobytes()
    per_sample = np.concatenate([layer.forward(x[i : i + 1]) for i in range(n)])
    assert blocked.tobytes() == per_sample.tobytes()


def _eval_model(build, dims, variant, seed):
    """An eval-mode model whose BN layers hold random running statistics."""
    rng = np.random.default_rng(seed)
    model = build(dims, 4, variant, CounterRng(seed))
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            layer.running_mean = rng.normal(size=layer.num_channels)
            layer.running_var = rng.uniform(0.1, 3.0, size=layer.num_channels)
    model.eval()
    return model


def _whole_batch_forward(model, x):
    """The layers applied to all of x at once, without Sequential's blocks."""
    for layer in model.layers:
        x = layer.forward(x)
    return x


@given(
    build=st.sampled_from([build_tiny_cnn, build_mlp2]),
    dims=st.sampled_from([(3, 4, 4), (3, 8, 8)]),
    variant=st.sampled_from(list(BNVariant)),
    n=st.integers(4, 400),
    cuts=st.lists(st.integers(2, 398), max_size=8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_eval_logits_do_not_depend_on_how_a_split_is_cut(build, dims, variant, n, cuts, seed):
    # in eval mode each sample's logits depend on that sample alone, to the
    # bit, for chunks of two or more rows; a 1-row chunk takes Dense's GEMV
    # path, whose round-off differs from the batched product's. At (3, 8, 8)
    # MLP2's first Dense has k = 192. The whole-batch pass is the reference
    # for one eval forward over more samples than a block, and for the chunks
    model = _eval_model(build, dims, variant, seed)
    x = np.random.default_rng(seed + 1).normal(size=(n, *dims))
    bounds = [0]
    for cut in sorted(cuts):
        if cut - bounds[-1] >= 2 and n - cut >= 2:
            bounds.append(cut)
    bounds.append(n)
    whole = _whole_batch_forward(model, x).tobytes()
    chunks = [model.forward(x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert np.concatenate(chunks).tobytes() == whole
    assert model.forward(x).tobytes() == whole


@pytest.mark.parametrize("budget, n, blocks", [
    (32 * 48, 1, [1]), (32 * 48, 2, [2]), (32 * 48, 33, [33]), (32 * 48, 34, [32, 2]),
    (32 * 48, 65, [32, 33]), (32 * 48, 257, [32] * 7 + [33]), (47, 7, [2, 2, 3]),
])
def test_eval_forward_runs_blocks_of_two_or_more_samples(budget, n, blocks):
    # a split is cut into blocks of _EVAL_BLOCK floats (a sample is 48 here),
    # or of two samples; a last block of one sample (a Dense GEMV) joins the
    # block before it, unless it is the whole split
    model = _eval_model(build_mlp2, (3, 4, 4), BNVariant.STEIN, 3)
    x = np.random.default_rng(2).normal(size=(n, 3, 4, 4))
    seen, first = [], model.layers[0]

    def recording(block):
        seen.append(len(block))
        return Dense.forward(first, block)

    with mock.patch.object(nn, "_EVAL_BLOCK", budget), mock.patch.object(first, "forward", recording):
        out = model.forward(x)
    assert seen == blocks
    assert out.tobytes() == _whole_batch_forward(model, x).tobytes()


def test_eval_forward_memory_is_bounded_by_activations_and_a_column_block():
    # an eval forward runs blocks of at most _EVAL_BLOCK floats of input (42
    # samples here) plus one sample, so its peak does not grow with the split:
    # one bound holds at 256 and 1024 samples. A block's widest activation
    # (conv #2's output, 16 * hw * hw floats a sample) is live about
    # twice at once: BN's input and the centred copy that becomes its output,
    # or ReLU's input, mask and output; the bound allows three copies. The
    # columns add at most a column block and its padded input, and the logits
    # (32 KB at 1024 samples) fit in what is left. A whole-batch forward of
    # 256 samples peaked at 4.3 MiB, 1.4 times this bound
    hw = 8
    model = build_tiny_cnn((3, hw, hw), 4, BNVariant.STEIN, CounterRng(5))
    model.eval()
    widest = 8 * (nn._EVAL_BLOCK // (3 * hw * hw) + 1) * 16 * hw * hw
    bound = 3 * widest + 2 * 8 * nn._COL_BLOCK
    for n in (256, 1024):
        x = np.random.default_rng(1).normal(size=(n, 3, hw, hw))
        model.forward(x[:2])  # first-call caches are not the forward's
        tracemalloc.start()
        try:
            model.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"n={n}: peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


def test_train_step_and_validation_memory_hold_inputs_not_columns():
    # TinyCNN at hw=8 and batch 64, the shape whose training sets eval-sweep's
    # peak: conv #2's im2col matrix of the batch is 2.4 MB, nine times its
    # input. Tracing runs from before a first step, so whatever a layer holds
    # across steps counts. A train forward keeps the input, the backward
    # gathers the columns once (no transposed copy), drops them before the
    # input gradient and folds that gradient a column block at a time, and
    # each layer's backward takes and releases its state, so the validation
    # pass after a step starts clean and runs a block of samples at a time.
    # The peaks were 4.0 MiB (backward) and 1.7 MiB (validation); each bound
    # adds about 0.4 MiB. Layers that held their state until the next forward
    # peaked at 4.5 MiB in the backward, whole-batch folds and validation
    # passes at 6.5 and 4.3 MiB, and layers that kept their columns at about
    # 11 MiB in each
    hw, batch = 8, 64
    rng = np.random.default_rng(1)
    x, labels = rng.normal(size=(batch, 3, hw, hw)), rng.integers(0, 4, batch)
    x_val = rng.normal(size=(256, 3, hw, hw))

    def forward_loss(model):
        model.train()
        return softmax_cross_entropy(model.forward(x), labels)[1]

    def validate(model):
        model.eval()
        model.forward(x_val)

    def epoch(model):
        model.backward(forward_loss(model))
        validate(model)

    mib = 2**20
    epoch(build_tiny_cnn((3, hw, hw), 4, BNVariant.STEIN, CounterRng(4)))  # first-call caches
    model = build_tiny_cnn((3, hw, hw), 4, BNVariant.STEIN, CounterRng(5))
    tracemalloc.start()
    try:
        epoch(model)
        grad = forward_loss(model)
        tracemalloc.reset_peak()
        model.backward(grad)
        del grad
        backward = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        validate(model)
        validation = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert backward <= 4.4 * mib, f"backward peak {backward / mib:.1f} MiB"
    assert validation <= 2.1 * mib, f"validation peak {validation / mib:.1f} MiB"

"""Gradient and reference tests for the Conv3x3 and Dense layers.

The gradient oracle is a central finite difference of the scalar
L = sum(forward(x) * r) for a fixed random r, so dL/d(output) = r is what
backward receives. The conv kernels are also compared with a plain einsum
contraction of the same im2col matrix.
"""

import numpy as np
import pytest

from steinbn.batchnorm import BNVariant
from steinbn.nn import Conv3x3, Dense, build_mlp2, build_tiny_cnn
from steinbn.rng import CounterRng

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


@pytest.mark.parametrize("build", [build_tiny_cnn, build_mlp2])
def test_sequential_backward_skips_only_the_input_gradient(build):
    # every parameter gradient equals that of a backward pass that also
    # computes the gradient w.r.t. the model input, bit for bit
    model = build((3, 4, 4), 4, BNVariant.STEIN, CounterRng(5))
    x = np.random.default_rng(1).normal(size=(6, 3, 4, 4))
    grad = np.random.default_rng(2).normal(size=model.forward(x).shape)
    assert model.backward(grad) is None
    skipped = [{k: v.copy() for k, v in layer.grads().items()} for layer in model.layers]
    g = grad
    for layer in reversed(model.layers):
        g = layer.backward(g)
    assert g.shape == x.shape
    for layer, before in zip(model.layers, skipped):
        for name, arr in layer.grads().items():
            assert arr.tobytes() == before[name].tobytes(), name

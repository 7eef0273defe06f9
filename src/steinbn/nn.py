"""Small neural-net layers with manual backpropagation.

Just enough machinery for the desk-scale BN comparison: dense and 3x3
convolution layers, relu, global average pooling, softmax cross-entropy,
and SGD with Nesterov momentum. ``BatchNorm`` is a ``batchnorm.BNLayer``
that runs the BN core as a layer. Activations travel as (N, C, H, W) float64
arrays, through the BN core too; only a dataset's images are validated
(see ``tensor``). Dense and Conv3x3 (via an im2col matrix) do their
arithmetic as BLAS matrix products; Conv3x3 moves its data around those
products with numpy gathers and one ordered scatter, and in both modes
builds its forward's im2col matrix a block of samples at a time.

A model's state is each layer's ``state_arrays()`` (its parameters, plus the
running statistics for BN). Each layer loads its own in place, refusing a
missing or misshapen array and, for BN, a negative running variance.

Every layer has a ``mode``, set by ``train()`` and ``eval()`` (BN's is its
BNLayer mode). A forward keeps what its backward reads, in one attribute per
layer, only in train mode: Conv3x3 and Dense keep their input, ReLU its mask
and BN its input and per-channel vectors. In eval mode a forward keeps
nothing, and a backward after it is refused; ``eval()`` itself releases what
the last train step kept (Conv3x3 also its scatter targets), so inference
starts clean. The forward arithmetic is the same in both modes, so eval
outputs are bit-identical to those of a train-mode pass with the same
statistics.
"""

from __future__ import annotations

import functools

import numpy as np

from .batchnorm import BNLayer, BNMode, BNVariant, bn_backward, bn_forward
from .rng import CounterRng
from .tensor import InvalidInputError


class Layer:
    mode = BNMode.TRAIN
    _saved = None  # what the last train-mode forward kept for the backward

    def _keep(self, saved) -> None:
        """Hold saved for the backward in train mode; hold nothing in eval mode."""
        self._saved = saved if self.mode is BNMode.TRAIN else None

    def _kept(self):
        """What a train-mode forward kept for the backward; refused if there is none."""
        if self._saved is None:
            raise InvalidInputError("backward needs a train-mode forward")
        return self._saved

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """What a checkpoint stores of the layer: its parameters, by default."""
        return self.params()

    def load_state_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy each ``arrays[prefix + name]`` in place; a missing or misshapen one is refused."""
        for name, arr in self.state_arrays().items():
            key = prefix + name
            src = arrays.get(key)
            if src is None:
                raise InvalidInputError(f"checkpoint has no array {key!r}")
            if src.shape != arr.shape:
                raise InvalidInputError(f"checkpoint array {key!r} is {src.shape}, the model's {arr.shape}")
            arr[...] = src

    def train(self):
        self.mode = BNMode.TRAIN
        return self

    def eval(self):
        """Eval mode, releasing what the last train-mode forward kept."""
        self.mode = BNMode.EVAL
        self._saved = None
        return self


class Dense(Layer):
    """Affine map on flattened inputs; output shaped (N, units, 1, 1)."""

    def __init__(self, in_features: int, units: int, rng: CounterRng, tag: int):
        scale = np.sqrt(2.0 / in_features)
        self.w = scale * rng.normal(in_features * units, tag, 0).reshape(in_features, units)
        self.b = np.zeros(units)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        self._keep(x)
        out = x.reshape(n, -1) @ self.w
        out += self.b
        return out.reshape(n, -1, 1, 1)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x = self._kept()
        n = grad.shape[0]
        g = grad.reshape(n, -1)
        self.dw = x.reshape(n, -1).T @ g
        self.db = g.sum(axis=0)
        if not input_grad:
            return None
        return (g @ self.w.T).reshape(x.shape)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.dw, "b": self.db}


# floats of im2col columns a Conv3x3 forward builds at a time
_COL_BLOCK = 1 << 17


@functools.lru_cache(maxsize=16)
def _tap_index(c: int, h: int, w: int) -> np.ndarray:
    """Flat (c, dh*3+dw, h, w) index of each tap into one zero-padded sample."""
    ci, dh, dw, i, j = np.ix_(np.arange(c), np.arange(3), np.arange(3), np.arange(h), np.arange(w))
    idx = ((ci * (h + 2) + dh + i) * (w + 2) + dw + j).ravel()
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=8)
def _plane_tap_index(n: int, h: int, w: int) -> np.ndarray:
    """Flat (dh*3+dw, s, h, w) index of each tap into n zero-padded planes laid
    end to end: ``_tap_index(1, h, w)`` offset to each sample s's plane."""
    planes = np.arange(n)[:, None] * ((h + 2) * (w + 2))
    idx = (_tap_index(1, h, w).reshape(9, 1, h * w) + planes).ravel()
    idx.setflags(write=False)
    return idx


class Conv3x3(Layer):
    """3x3 convolution with padding 1 and stride 1, as im2col + GEMM.

    ``w`` is (out, in*9), its columns ordered (channel, dh, dw); that is the
    shape checkpoints store. ``_im2col`` gathers the nine shifted windows of
    the zero-padded input into cols, shaped (N, in*9, H*W), so that

    - forward is ``w @ cols[n]`` for every n (batched matmuls),
    - the input gradient is ``w.T @ grad[n]``, folded back onto the
      padded grid (col2im); ``backward(..., input_grad=False)`` skips it,
    - the weight gradient is a single 2-D GEMM of grad and cols over the
      flattened N*H*W axis.

    Both data movements index the padded input through ``_tap_index``.
    im2col is one ``take(axis=1)``, which returns a C-ordered array (fancy
    indexing returns an F-ordered one, on which the forward matmul runs
    2.5-6x slower). col2im is one ``np.bincount`` of the gradient columns,
    which ravel in (n, channel, k, h, w) order: each padded cell sums its
    taps in increasing k from +0.0, as nine strided adds would, so the
    result is bit-identical to theirs. The scatter targets depend on N, so
    the layer holds them for the input shape of its last backward only, and
    ``eval()`` drops them with the rest of the backward state.

    No columns outlive a forward. In either mode it builds them for a block
    of samples at a time, at most ``_COL_BLOCK`` floats or one sample's, and
    multiplies each block into its rows of one preallocated output; each
    sample's product is the same GEMM in any block, so the output is
    bit-identical to that of one whole-batch block. A train-mode forward
    keeps its input instead, nine times smaller than its columns, and the
    backward gathers the columns of the whole batch from it once, already
    in the (in*9, N*H*W) layout of the weight-gradient GEMM
    (``_channel_cols``, through the cached ``_plane_tap_index``), and drops
    them before the input gradient.
    """

    def __init__(self, in_channels: int, out_channels: int, rng: CounterRng, tag: int):
        fan_in = in_channels * 9
        scale = np.sqrt(2.0 / fan_in)
        self.w = scale * rng.normal(out_channels * fan_in, tag, 0).reshape(out_channels, fan_in)
        self.b = np.zeros(out_channels)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._targets = None  # col2im scatter targets for _targets_shape
        self._targets_shape = None

    @staticmethod
    def _im2col(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        padded = np.zeros((n, c, h + 2, w + 2))
        padded[:, :, 1:-1, 1:-1] = x
        return padded.reshape(n, -1).take(_tap_index(c, h, w), axis=1).reshape(n, c * 9, h * w)

    @staticmethod
    def _channel_cols(x: np.ndarray) -> np.ndarray:
        """The whole batch's columns as one (c*9, n*h*w) matrix, rows (channel,
        tap) and columns (sample, pixel): ``_im2col(x)`` transposed to (1, 0, 2)."""
        n, c, h, w = x.shape
        padded = np.zeros((c, n, h + 2, w + 2))
        padded[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
        return padded.reshape(c, -1).take(_plane_tap_index(n, h, w), axis=1).reshape(c * 9, n * h * w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        self._keep(x)
        block = max(1, _COL_BLOCK // (c * 9 * h * w))
        out = np.empty((n, self.w.shape[0], h * w))
        for lo in range(0, n, block):
            np.matmul(self.w, self._im2col(x[lo : lo + block]), out=out[lo : lo + block])
        out += self.b[:, None]
        return out.reshape(n, -1, h, w)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x = self._kept()
        n, c, h, w = x.shape
        o = self.w.shape[0]
        g = grad.reshape(n, o, h * w)
        self.db = g.sum(axis=(0, 2))
        cols = self._channel_cols(x)
        if h * w == 1:
            # _im2col's columns transposed to (c*9, n) are an F-ordered view
            # here, and with o = 1 the GEMM below is a gemv whose round-off
            # follows its operand's order: take that order, so dw stays
            # bit-identical to the sample-major column path
            cols = np.asfortranarray(cols)
        # one GEMM over the flattened n*h*w axis; the columns die with it
        self.dw = g.transpose(1, 0, 2).reshape(o, -1) @ cols.T
        del cols
        if not input_grad:
            return None
        cells = c * (h + 2) * (w + 2)  # of one padded sample
        if self._targets_shape != x.shape:
            self._targets = (np.arange(n)[:, None] * cells + _tap_index(c, h, w)).ravel()
            self._targets_shape = x.shape
        dcols = np.matmul(self.w.T, g)
        dx = np.bincount(self._targets, weights=dcols.ravel(), minlength=n * cells)
        return dx.reshape(n, c, h + 2, w + 2)[:, :, 1:-1, 1:-1]

    def eval(self):
        self._targets = self._targets_shape = None
        return super().eval()

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.dw, "b": self.db}


class ReLU(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._keep(mask)
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._kept()


class GlobalAvgPool(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._keep(x.shape)
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        shape = self._kept()
        _, _, h, w = shape
        return np.broadcast_to(grad / (h * w), shape).copy()


class BatchNorm(BNLayer, Layer):
    """A BNLayer in the layer stack: its state, mode and checkpoint arrays are
    the BNLayer's; forward and backward run the BN core on it."""

    def __post_init__(self):
        super().__post_init__()
        self.dgamma = np.zeros(self.num_channels)
        self.dbeta = np.zeros(self.num_channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, cache = bn_forward(self, x)
        self._keep(cache)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        gx, self.dgamma, self.dbeta = bn_backward(self, self._kept(), grad)
        return gx

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self):
        return {"gamma": self.dgamma, "beta": self.dbeta}

    def load_state_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        super().load_state_arrays(arrays, prefix)
        if np.any(self.running_var < 0):
            raise InvalidInputError(f"checkpoint array {prefix + 'running_var'!r} has negative entries")


class Sequential:
    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> None:
        """Fill every layer's parameter gradients from the loss gradient.

        Nothing reads the gradient w.r.t. the model's input, so the first
        layer (a Dense or Conv3x3 in every builder) skips computing it.
        """
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        first.backward(grad, input_grad=False)

    def train(self):
        for layer in self.layers:
            layer.train()

    def eval(self):
        for layer in self.layers:
            layer.eval()

    def named_params(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                yield f"layer{i}.{name}", layer, name, arr

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every layer's state arrays, keyed ``layer<i>.<name>`` in layer order."""
        return {
            f"layer{i}.{name}": arr
            for i, layer in enumerate(self.layers)
            for name, arr in layer.state_arrays().items()
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            layer.load_state_arrays(arrays, f"layer{i}.")


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and gradient w.r.t. logits, shaped like logits."""
    n = logits.shape[0]
    flat = logits.reshape(n, -1)
    shifted = flat - flat.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    sums = probs.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(sums[:, 0]) - shifted[np.arange(n), labels]))
    probs /= sums
    probs[np.arange(n), labels] -= 1.0
    return loss, (probs / n).reshape(logits.shape)


class SGDNesterov:
    """SGD with Nesterov acceleration, momentum 0.9 by default."""

    def __init__(self, model: Sequential, lr: float, momentum: float = 0.9, nesterov: bool = True):
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.nesterov = nesterov
        self.velocity = {key: np.zeros_like(arr) for key, _, _, arr in model.named_params()}

    def step(self) -> None:
        for key, layer, name, arr in self.model.named_params():
            g = layer.grads()[name]
            v = self.velocity[key]
            v *= self.momentum
            v += g
            update = g + self.momentum * v if self.nesterov else v
            arr -= self.lr * update


def build_mlp2(
    input_dims: tuple[int, int, int],
    n_classes: int,
    variant: BNVariant,
    rng: CounterRng,
    hidden: int = 128,
    c_tilde=None,
    lam: float = 0.0,
) -> Sequential:
    """flatten -> dense(hidden) -> BN (features as channels) -> relu -> dense."""
    c, h, w = input_dims
    return Sequential(
        [
            Dense(c * h * w, hidden, rng, 11),
            BatchNorm(hidden, variant, c_tilde=c_tilde, lam=lam),
            ReLU(),
            Dense(hidden, n_classes, rng, 12),
        ]
    )


def build_tiny_cnn(
    input_dims: tuple[int, int, int],
    n_classes: int,
    variant: BNVariant,
    rng: CounterRng,
    c_tilde=None,
    lam: float = 0.0,
) -> Sequential:
    """Two conv3x3+BN+relu blocks of 8 and 16 channels, then global average
    pooling and a dense head."""
    c, h, w = input_dims
    return Sequential(
        [
            Conv3x3(c, 8, rng, 21),
            BatchNorm(8, variant, c_tilde=c_tilde, lam=lam),
            ReLU(),
            Conv3x3(8, 16, rng, 22),
            BatchNorm(16, variant, c_tilde=c_tilde, lam=lam),
            ReLU(),
            GlobalAvgPool(),
            Dense(16, n_classes, rng, 23),
        ]
    )

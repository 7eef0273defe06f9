"""Small neural-net layers with manual backpropagation.

Just enough machinery for the desk-scale BN comparison: dense and 3x3
convolution layers, relu, global average pooling, softmax cross-entropy,
and SGD with Nesterov momentum. ``BatchNorm`` is the one BN layer class: it
holds the layer's state and runs the BN core (``batchnorm``) on it.
Activations travel as (N, C, H, W) float64 arrays, through the BN core too;
only a dataset's images are validated (see ``tensor``). Dense and Conv3x3
(via an im2col matrix) do their arithmetic as BLAS matrix products; Conv3x3
moves its data around those products with numpy gathers and one ordered
scatter. It builds its forward's im2col matrix, and its backward's input
gradient, a block of samples at a time, and an eval-mode ``Sequential``
runs a batch through its layers a block of samples at a time, so inference
holds the activations of one block, not of the whole batch.

A model's state is each layer's ``state_arrays()``: its parameters, then
(for BN) its running statistics. A layer names them once, in the class
attributes ``param_names`` and ``stat_names``, from which ``Layer`` builds
``state_arrays()`` and ``Sequential`` its ``named_params()``; a parameter
``p``'s gradient is the attribute ``d<p>``, and ``named_params`` is its one
reader. A layer's constructor builds its state, BN's from ``num_channels``
alone, after checking BN's constants against ``BatchNorm.domains``, the one
table of their rules, which the experiment config shares. After that only
training and ``load_state_arrays`` change the state. Each layer loads its
own in place, refusing a missing or misshapen array and, for BN, a negative
running variance; a model refuses first an array that no layer reads.

Every layer has a ``mode``, train when built and set only by ``train()`` and
``eval()``. A forward keeps what its backward reads, in one attribute per
layer, only in train mode: Conv3x3 and Dense keep their input, ReLU its mask
and BN its input and per-channel vectors. The backward takes that state and
the layer lets go of it (as autograd frees saved tensors after a backward),
so a layer holds it only from its forward to its backward, and a second
backward without a new forward is refused. In eval mode a forward keeps
nothing, and a backward after it is refused; ``eval()`` itself releases what
a train forward kept that no backward took, so inference starts clean. The
forward arithmetic is the same in both modes, so eval outputs are
bit-identical to those of a train-mode pass with the same statistics.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .batchnorm import BNMode, BNVariant, bn_backward, bn_forward
from .rng import CounterRng
from .tensor import InvalidInputError


class Layer:
    mode = BNMode.TRAIN
    param_names: tuple[str, ...] = ()  # parameter p's gradient is the attribute d<p>
    stat_names: tuple[str, ...] = ()  # what a checkpoint stores after the parameters
    _saved = None  # what the last train-mode forward kept, until the backward takes it

    def _keep(self, saved) -> None:
        """Hold saved for the backward in train mode; hold nothing in eval mode."""
        self._saved = saved if self.mode is BNMode.TRAIN else None

    def _kept(self):
        """Hand the backward what a train-mode forward kept, and let go of it;
        refused if there is none, as after an eval forward or a backward."""
        saved, self._saved = self._saved, None
        if saved is None:
            raise InvalidInputError("backward needs a train-mode forward")
        return saved

    def state_arrays(self) -> dict[str, np.ndarray]:
        """What a checkpoint stores of the layer: its parameters, then its statistics."""
        return {name: getattr(self, name) for name in (*self.param_names, *self.stat_names)}

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
        """Eval mode, releasing what a train-mode forward kept that no backward took."""
        self.mode = BNMode.EVAL
        self._saved = None
        return self


class Dense(Layer):
    """Affine map on flattened inputs; output shaped (N, units, 1, 1)."""

    param_names = ("w", "b")

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


# floats of im2col columns a Conv3x3 forward builds at a time
_COL_BLOCK = 1 << 17

# entries of the column gradient a Conv3x3 backward folds at a time, a quarter
# of the forward's block: the cached scatter targets of one fold block are as
# many int64s (256 KB), and a fold's temporaries stay as small
_FOLD_BLOCK = 1 << 15

# floats of input an eval-mode Sequential runs through its layers at a time
_EVAL_BLOCK = 1 << 13


def _block_samples(budget: int, c: int, h: int, w: int) -> int:
    """Samples of (c, h, w) whose columns fit in budget floats, at least one."""
    return max(1, budget // (c * 9 * h * w))


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


@functools.lru_cache(maxsize=8)
def _fold_targets(n: int, c: int, h: int, w: int) -> np.ndarray:
    """col2im's scatter targets: the flat cell, in n zero-padded samples laid end
    to end, of each (s, channel, dh*3+dw, h, w) entry of their column gradient.
    The targets of fewer samples are a prefix of these."""
    cells = c * (h + 2) * (w + 2)  # of one padded sample
    idx = (np.arange(n)[:, None] * cells + _tap_index(c, h, w)).ravel()
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
    result is bit-identical to theirs.

    No columns outlive a forward. In either mode it builds them for a block
    of samples at a time, at most ``_COL_BLOCK`` floats or one sample's, and
    multiplies each block into its rows of one preallocated output; each
    sample's product is the same GEMM in any block, so the output is
    bit-identical to that of one whole-batch block. A train-mode forward
    keeps its input instead, nine times smaller than its columns, and the
    backward gathers the columns of the whole batch from it once, already
    in the (in*9, N*H*W) layout of the weight-gradient GEMM
    (``_channel_cols``, through the cached ``_plane_tap_index``). It lets go
    of the input once the columns are gathered, before that GEMM, and drops
    the columns before the input gradient. That gradient is built a block of
    samples at a time too, at most ``_FOLD_BLOCK`` column-gradient entries or
    one sample's: each block's ``w.T @ grad[n]`` is folded into its rows of
    one preallocated padded gradient. Samples share no padded cells, so the
    result is bit-identical to one whole-batch fold. The layer holds no
    scatter targets: those of one block, shaped by (block, in, H, W), live
    in the module's cache ``_fold_targets``, and a shorter last block folds
    with their prefix.
    """

    param_names = ("w", "b")

    def __init__(self, in_channels: int, out_channels: int, rng: CounterRng, tag: int):
        fan_in = in_channels * 9
        scale = np.sqrt(2.0 / fan_in)
        self.w = scale * rng.normal(out_channels * fan_in, tag, 0).reshape(out_channels, fan_in)
        self.b = np.zeros(out_channels)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

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
        block = _block_samples(_COL_BLOCK, c, h, w)
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
        del x  # the columns hold all that the backward reads of it
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
        # w.T @ g and its fold onto the padded grid, a block of samples at a time
        block = min(n, _block_samples(_FOLD_BLOCK, c, h, w))
        targets = _fold_targets(block, c, h, w)
        cells = c * (h + 2) * (w + 2)  # of one padded sample
        dx = np.empty((n, cells))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            dcols = np.matmul(self.w.T, g[lo:hi]).ravel()
            dx[lo:hi] = np.bincount(
                targets[: dcols.size], weights=dcols, minlength=(hi - lo) * cells
            ).reshape(-1, cells)
            del dcols  # before the next block's product is allocated
        return dx.reshape(n, c, h + 2, w + 2)[:, :, 1:-1, 1:-1]


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


@dataclass(eq=False)
class BatchNorm(Layer):
    """One batch-norm layer: its constants, affine parameters and running
    statistics, with forward and backward through the BN core.

    The constructor takes only the constants and builds the state from
    ``num_channels``: gamma and the running variance ones, beta and the
    running mean zeros. c_tilde=None selects the midpoint of the classical
    admissible interval for the current (n, C) at every forward call. lam
    is the shared Lasso/Ridge penalty. Running statistics store the
    CORRECTED statistics so eval mode inherits the shrinkage. After
    construction only a train-mode ``bn_forward``, the optimizer and
    ``load_state_arrays`` change the state. Like every layer it is built in
    train mode, and compares and hashes by identity.
    """

    num_channels: int
    variant: BNVariant = BNVariant.STANDARD
    momentum: float = 0.1
    eps: float = 1e-5
    c_tilde: float | None = None
    lam: float = 0.0
    # unannotated, so class attributes rather than dataclass fields
    param_names = ("gamma", "beta")
    stat_names = ("running_mean", "running_var")
    # each constant's domain, as (what it must be, test), which the experiment
    # config shares; each test refuses a non-number, and NaN fails its comparisons
    domains = {
        "num_channels": ("an integer >= 1", lambda v: isinstance(v, numbers.Integral) and v >= 1),
        "variant": ("one of " + ", ".join(repr(b.value) for b in BNVariant),
                    lambda v: v in tuple(BNVariant)),
        "momentum": ("a number in (0, 1]", lambda v: isinstance(v, numbers.Real) and 0 < v <= 1),
        "eps": ("a finite number > 0", lambda v: isinstance(v, numbers.Real) and 0 < v < np.inf),
        "c_tilde": ("null or a finite number >= 0",
                    lambda v: v is None or isinstance(v, numbers.Real) and 0 <= v < np.inf),
        "lam": ("a finite number >= 0", lambda v: isinstance(v, numbers.Real) and 0 <= v < np.inf),
    }

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            domain, ok = self.domains[f.name]
            # bool is a numbers.Integral: True would run as 1, and c_tilde=False as 0
            if isinstance(value, bool) or not ok(value):
                raise InvalidInputError(f"{f.name} must be {domain}, got {value!r}")
        self.variant = BNVariant(self.variant)
        c = self.num_channels
        self.gamma = np.ones(c)
        self.beta = np.zeros(c)
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)
        self.dgamma = np.zeros(c)
        self.dbeta = np.zeros(c)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, cache = bn_forward(self, x)
        self._keep(cache)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        gx, self.dgamma, self.dbeta = bn_backward(self, self._kept(), grad)
        return gx

    def load_state_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        super().load_state_arrays(arrays, prefix)
        if np.any(self.running_var < 0):
            raise InvalidInputError(f"checkpoint array {prefix + 'running_var'!r} has negative entries")


class Sequential:
    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The layers' output; in eval mode, computed a block of samples at a time.

        A block holds at most ``_EVAL_BLOCK`` floats of x, or two samples. An
        eval-mode layer maps each sample on its own, so the blocks' outputs
        are bit-identical to one whole-batch pass. No block holds a single
        sample unless x does: Dense's product of one row is a GEMV, whose
        round-off differs from the GEMM's, so a last single sample joins the
        block before it."""
        n = x.shape[0]
        block = max(2, _EVAL_BLOCK // max(1, x[:1].size))
        stops = [*range(block, n - 1, block), n]
        if len(stops) == 1 or any(layer.mode is not BNMode.EVAL for layer in self.layers):
            return self._forward(x)
        first = self._forward(x[: stops[0]])
        out = np.empty((n, *first.shape[1:]))
        out[: stops[0]] = first
        for lo, hi in zip(stops, stops[1:]):
            out[lo:hi] = self._forward(x[lo:hi])
        return out

    def _forward(self, x: np.ndarray) -> np.ndarray:
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
        """(key, parameter, gradient ``d<p>``) of each layer's parameters, in layer order."""
        for i, layer in enumerate(self.layers):
            for name in layer.param_names:
                yield f"layer{i}.{name}", getattr(layer, name), getattr(layer, "d" + name)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every layer's state arrays, keyed ``layer<i>.<name>`` in layer order."""
        return {
            f"layer{i}.{name}": arr
            for i, layer in enumerate(self.layers)
            for name, arr in layer.state_arrays().items()
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        own = self.state_arrays()
        for key in arrays:
            if key not in own:
                raise InvalidInputError(f"checkpoint array {key!r} belongs to no layer of the model")
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
        self.velocity = {key: np.zeros_like(arr) for key, arr, _ in model.named_params()}

    def step(self) -> None:
        for key, arr, g in self.model.named_params():
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

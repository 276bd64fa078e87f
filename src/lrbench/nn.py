"""Minimal deterministic neural-network substrate.

Dense and small convolutional layers with hand-derived gradients, softmax
cross-entropy (plus an MSE mode for quadratic fixtures), and SGD with momentum
and coupled L2 weight decay. The convolution runs on a flat padded grid of its
input, where every kernel offset reads one contiguous shifted slice (Conv2d).
build_cnn pools before its ReLUs, so pooling ties are among raw conv
outputs. MaxPool2 finds its winners in backward and ReLU takes its mask from
its output, so a forward-only pass builds no mask. Everything runs on numpy
in float32 or float64: float64 layers exist so the finite-difference
gradient checks have headroom, while the CLI and the benchmark build float32
models.

A Model instance is single-owner while training: forward/backward/sgd_step
mutate its gradient and parameter buffers in place.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "Dense",
    "Conv2d",
    "ReLU",
    "MaxPool2",
    "Flatten",
    "Model",
    "ShapeError",
    "NonFiniteLossError",
    "forward",
    "predict",
    "backward",
    "sgd_step",
    "train_step",
    "softmax_cross_entropy",
    "build_mlp",
    "build_cnn",
]


class ShapeError(ValueError):
    """Input or parameter shapes do not line up."""


class NonFiniteLossError(FloatingPointError):
    """Loss evaluated to nan or inf; carries the offending value."""

    def __init__(self, value: float):
        super().__init__(f"non-finite loss value {value}")
        self.value = float(value)


class Layer:
    """Base layer. Parameterized subclasses set parallel lists of
    parameter, gradient, and velocity arrays, and their backward takes
    ``need_input_grad``: False skips the input gradient and returns None."""

    name: str = ""
    params = grads = vel = ()

    def forward(self, x: np.ndarray):
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, cache):
        raise NotImplementedError


class Dense(Layer):
    """Affine layer, input (n, in_dim) -> output (n, out_dim)."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True,
                 dtype=np.float32, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        scale = math.sqrt(2.0 / in_dim)
        self.W = (rng.standard_normal((in_dim, out_dim)) * scale).astype(dtype)
        self.b = np.zeros(out_dim, dtype=dtype) if bias else None
        self.params = [self.W] if self.b is None else [self.W, self.b]
        self.grads = [np.zeros_like(p) for p in self.params]
        self.vel = [np.zeros_like(p) for p in self.params]

    def forward(self, x):
        if x.ndim != 2:
            raise ShapeError(f"{self.name or 'dense'}: expected 2-D input, got shape {x.shape}")
        if x.shape[1] != self.W.shape[0]:
            raise ShapeError(
                f"{self.name or 'dense'}: input width {x.shape[1]} != {self.W.shape[0]}"
            )
        y = x @ self.W
        if self.b is not None:
            y = y + self.b
        return y, x

    def backward(self, grad_out, cache, need_input_grad=True):
        x = cache
        self.grads[0][...] = x.T @ grad_out
        if self.b is not None:
            self.grads[1][...] = grad_out.sum(axis=0)
        return grad_out @ self.W.T if need_input_grad else None


# Rows per forward call in predict and input rows per GEMM block in
# Conv2d.forward (whose columns are k*k times the input): inference then
# holds no more than a training step at batch 16 does.
_BLOCK_ROWS = 16


def _window_shifts(k: int, width: int) -> list[int]:
    """Where a k x k window reads on a flat padded grid whose rows are
    ``width`` cells wide: for each kernel offset (di, dj), row-major, the
    distance di*width + dj from the window's first cell."""
    return [di * width + dj for di in range(k) for dj in range(k)]


class Conv2d(Layer):
    """Square convolution with an odd kernel, stride 1, zero padding that
    preserves H and W.

    Works on a channel-major flat padded grid: (c, n*(h+2p)*(w+2p)) cells
    plus a tail that the last windows read past the end. Outputs are
    computed at every grid cell, and the cells whose window leaves the image
    are dropped, so the input a kernel offset meets is one contiguous slice
    of the grid (see _window_shifts). Forward is im2col plus one GEMM per
    _BLOCK_ROWS input rows. Only the grid is cached: backward takes
    the weight gradient as one GEMM per kernel offset and does col2im as
    k*k shifted adds.
    """

    def __init__(self, in_ch: int, out_ch: int, ksize: int = 3,
                 dtype=np.float32, rng: np.random.Generator | None = None):
        if ksize < 1 or ksize % 2 == 0:
            raise ValueError(f"ksize must be odd and at least 1 for same "
                             f"padding, got {ksize}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.ksize = ksize
        self.pad = ksize // 2
        scale = math.sqrt(2.0 / (in_ch * ksize * ksize))
        self.W = (rng.standard_normal((out_ch, in_ch, ksize, ksize)) * scale).astype(dtype)
        self.b = np.zeros(out_ch, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self.vel = [np.zeros_like(self.W), np.zeros_like(self.b)]

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"{self.name or 'conv'}: expected 4-D input, got shape {x.shape}")
        if x.shape[1] != self.W.shape[1]:
            raise ShapeError(
                f"{self.name or 'conv'}: {x.shape[1]} channels != expected {self.W.shape[1]}"
            )
        n, c, h, w = x.shape
        o, k, p = self.W.shape[0], self.ksize, self.pad
        hp, wp = h + 2 * p, w + 2 * p
        cells = n * hp * wp
        shifts = _window_shifts(k, wp)
        xf = np.zeros((c, cells + shifts[-1]), dtype=x.dtype)
        xf[:, :cells].reshape(c, n, hp, wp)[:, :, p:p + h, p:p + w] = \
            x.transpose(1, 0, 2, 3)
        wm = self.W.reshape(o, -1)
        y = np.empty((o, cells), dtype=x.dtype)
        block = _BLOCK_ROWS * hp * wp
        for start in range(0, cells, block):
            length = min(block, cells - start)
            cols = np.empty((c, k * k, length), dtype=x.dtype)
            for i, shift in enumerate(shifts):
                cols[:, i] = xf[:, start + shift:start + shift + length]
            np.matmul(wm, cols.reshape(c * k * k, length),
                      out=y[:, start:start + length])
        y += self.b[:, None]
        return y.reshape(o, n, hp, wp)[:, :, :h, :w].transpose(1, 0, 2, 3), xf

    def backward(self, grad_out, cache, need_input_grad=True):
        xf = cache
        n, o, h, w = grad_out.shape
        c, k, p = xf.shape[0], self.ksize, self.pad
        hp, wp = h + 2 * p, w + 2 * p
        cells = n * hp * wp
        shifts = _window_shifts(k, wp)
        # the output gradient on the grid, zero at the dropped cells
        g = np.zeros((o, n, hp, wp), dtype=grad_out.dtype)
        g[:, :, :h, :w] = grad_out.transpose(1, 0, 2, 3)
        g2 = g.reshape(o, cells)
        # one GEMM per kernel offset, straight from the shifted grid, so no
        # columns are built; xf-slice @ g2.T is the operand order OpenBLAS
        # runs faster at these shapes
        gw = np.empty((c, k * k, o), dtype=grad_out.dtype)
        for i, shift in enumerate(shifts):
            np.matmul(xf[:, shift:shift + cells], g2.T, out=gw[:, i])
        self.grads[0][...] = gw.reshape(c * k * k, o).T.reshape(self.W.shape)
        self.grads[1][...] = g2.sum(axis=1)
        if not need_input_grad:
            return None
        # col2im: each kernel offset adds its rows of the column gradient
        # into the grid gradient, shifted as forward read them
        gcols = (self.W.reshape(o, -1).T @ g2).reshape(c, k * k, cells)
        gxf = np.zeros_like(xf)
        for i, shift in enumerate(shifts):
            gxf[:, shift:shift + cells] += gcols[:, i]
        return gxf[:, :cells].reshape(c, n, hp, wp)[
            :, :, p:p + h, p:p + w].transpose(1, 0, 2, 3)


class ReLU(Layer):
    """max(x, 0) in one pass. Only the output is cached: the gradient passes
    where it is positive."""

    def forward(self, x):
        y = np.maximum(x, 0)
        return y, y

    def backward(self, grad_out, cache):
        return grad_out * (cache > 0)


# the four positions of a 2x2 pooling window, in row-major order
_POOL_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


class MaxPool2(Layer):
    """2x2 max pooling with stride 2. Requires even spatial dims.

    Forward computes only the maxima. Backward finds each window's winner,
    the first maximum in row-major window order as argmax breaks ties, and
    sends the window's gradient to that one element.
    """

    def forward(self, x):
        if x.ndim != 4:
            raise ShapeError(f"{self.name or 'pool'}: expected 4-D input, got shape {x.shape}")
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"{self.name or 'pool'}: spatial dims must be even, got {h}x{w}")
        quads = [x[:, :, i::2, j::2] for i, j in _POOL_WINDOW]
        y = np.maximum(np.maximum(quads[0], quads[1]),
                       np.maximum(quads[2], quads[3]))
        return y, (x, y)

    def backward(self, grad_out, cache):
        x, y = cache
        quads = [x[:, :, i::2, j::2] for i, j in _POOL_WINDOW]
        first = quads[0] == y
        second = (quads[1] == y) & ~first
        taken = first | second
        third = (quads[2] == y) & ~taken
        # laid out in memory as x is (a conv's output is channel-major), so
        # the strided writes below and the layer under read it in order
        g = np.empty_like(x, dtype=grad_out.dtype)
        for (i, j), mask in zip(_POOL_WINDOW,
                                (first, second, third, ~(taken | third))):
            # a slot that lost gets grad * 0, a zero with grad's sign
            np.multiply(grad_out, mask, out=g[:, :, i::2, j::2])
        return g


class Flatten(Layer):
    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, grad_out, cache):
        return grad_out.reshape(cache)


class Model:
    """Ordered layer stack with a loss attached.

    ``loss`` is "softmax_ce" for classification (integer labels) or "mse" for
    regression-style fixtures (float targets of the logits' shape).

    The parameterized layers fall into three contiguous groups, lowest
    first (see param_groups): the classifier head alone is ``final`` and the
    layers below it split in half between ``initial`` and ``mid``.
    """

    def __init__(self, layers: Sequence[Layer], dtype=np.float32,
                 loss: str = "softmax_ce"):
        if loss not in ("softmax_ce", "mse"):
            raise ValueError(f"unknown loss {loss!r}")
        self.layers = list(layers)
        self.dtype = np.dtype(dtype)
        self.loss = loss
        for i, layer in enumerate(self.layers):
            if not layer.name:
                layer.name = f"{type(layer).__name__.lower()}{i}"

    def param_layers(self) -> list[Layer]:
        return [l for l in self.layers if l.params]

    def param_groups(self) -> tuple[list[Layer], list[Layer], list[Layer]]:
        """The (initial, mid, final) parameterized layers: the last one alone
        is final, and initial takes the smaller half of the layers below it.
        Raises ShapeError for fewer than 3 parameterized layers."""
        layers = self.param_layers()
        n = len(layers)
        if n < 3:
            raise ShapeError(
                f"layer groups need at least 3 parameterized layers, model has {n}")
        b1 = (n - 1) // 2
        return layers[:b1], layers[b1:n - 1], layers[n - 1:]

    def zero_velocity(self) -> None:
        for layer in self.param_layers():
            for v in layer.vel:
                v[...] = 0.0


def forward(model: Model, batch: np.ndarray):
    """Run the batch through all layers; returns (logits, caches) where the
    caches hold whatever each layer needs for its backward pass."""
    x = np.asarray(batch, dtype=model.dtype)
    caches = []
    for layer in model.layers:
        x, cache = layer.forward(x)
        caches.append(cache)
    return x, caches


def predict(model: Model, x: np.ndarray) -> np.ndarray:
    """The model's outputs for every row of ``x``, computed by forward over
    _BLOCK_ROWS rows at a time."""
    return np.concatenate([forward(model, x[start:start + _BLOCK_ROWS])[0]
                           for start in range(0, len(x), _BLOCK_ROWS)])


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Check integer labels against the logits; returns (labels, log-softmax,
    mean cross-entropy)."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"logits {logits.shape} and labels {labels.shape} do not match"
        )
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ShapeError("label ids out of range for the logits width")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return labels, logp, float(-logp[np.arange(len(labels)), labels].mean())


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer labels under softmax(logits)."""
    return _cross_entropy(logits, labels)[2]


def _loss_and_grad(model: Model, logits: np.ndarray, labels: np.ndarray):
    n = logits.shape[0]
    if model.loss == "softmax_ce":
        labels, logp, loss = _cross_entropy(logits, labels)
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
        grad /= n
    else:
        targets = np.asarray(labels, dtype=logits.dtype)
        if targets.shape != logits.shape:
            raise ShapeError(
                f"mse targets {targets.shape} must match logits {logits.shape}"
            )
        diff = logits - targets
        loss = float(0.5 * np.sum(diff * diff) / n)
        grad = diff / n
    return loss, grad.astype(model.dtype, copy=False)


def backward(model: Model, logits: np.ndarray, labels: np.ndarray,
             caches) -> float:
    """Write each parameterized layer's gradients once, with the exact
    gradient of the mean loss; returns that loss. Weight decay enters in
    sgd_step. Every parameter trains: to keep layers fixed, pass a model
    that leaves them out, as the head phase does with the head view from
    groups.split_head.

    Nothing below the lowest parameterized layer's weights is computed: that
    layer returns no input gradient and the layers under it are not called.
    """
    loss, grad = _loss_and_grad(model, logits, labels)
    if not math.isfinite(loss):
        raise NonFiniteLossError(loss)

    lowest = next((i for i, layer in enumerate(model.layers) if layer.params),
                  None)
    if lowest is not None:
        for i in range(len(model.layers) - 1, lowest, -1):
            grad = model.layers[i].backward(grad, caches[i])
        model.layers[lowest].backward(grad, caches[lowest],
                                      need_input_grad=False)
    return loss


def sgd_step(model: Model, lr, momentum: float = 0.0,
             weight_decay: float = 0.0) -> None:
    """One SGD-with-momentum update of every parameterized layer:
    v <- momentum*v + (g + weight_decay*p), p <- p - lr*v.

    ``lr`` is a scalar for every layer or an (initial, mid, final) tuple
    applied over model.param_groups(); anything else raises ValueError.
    Weight decay is coupled (added to the gradient).
    """
    if isinstance(lr, (int, float, np.floating)):
        steps = [(float(lr), model.param_layers())]
    elif isinstance(lr, tuple) and len(lr) == 3:
        steps = zip([float(r) for r in lr], model.param_groups())
    else:
        raise ValueError(
            f"lr must be a scalar or an (initial, mid, final) tuple, got {lr!r}"
        )
    # rates stay Python floats: an np.float64 rate would promote the float32
    # update to float64 before it is cast back
    for step_lr, layers in steps:
        for layer in layers:
            for p, g, v in zip(layer.params, layer.grads, layer.vel):
                eff = g + weight_decay * p if weight_decay else g
                v *= momentum
                v += eff
                p -= step_lr * v


def train_step(model: Model, xb: np.ndarray, yb: np.ndarray, lr,
               momentum: float = 0.0, weight_decay: float = 0.0) -> float:
    """forward + backward + sgd_step on one mini-batch; returns the data loss."""
    logits, caches = forward(model, xb)
    loss = backward(model, logits, yb, caches)
    sgd_step(model, lr, momentum=momentum, weight_decay=weight_decay)
    return loss


def build_mlp(input_shape, n_classes: int, hidden=(64, 64),
              dtype=np.float32, seed: int = 0) -> Model:
    """Flatten -> (Dense+ReLU)* -> Dense classifier head."""
    rng = np.random.default_rng(seed)
    in_dim = int(np.prod(input_shape))
    layers: list[Layer] = [Flatten()]
    width = in_dim
    for h in hidden:
        layers.append(Dense(width, h, dtype=dtype, rng=rng))
        layers.append(ReLU())
        width = h
    head = Dense(width, n_classes, dtype=dtype, rng=rng)
    head.W *= 0.1  # small head keeps the initial loss near ln(n_classes)
    layers.append(head)
    return Model(layers, dtype=dtype)


def build_cnn(input_shape, n_classes: int, dtype=np.float32, seed: int = 0) -> Model:
    """Two conv blocks of conv, pool, ReLU (the outputs and gradients of
    conv, ReLU, pool at a quarter of the ReLU's cells), then two dense
    layers."""
    c, h, w = input_shape
    if h % 4 or w % 4:
        raise ShapeError(f"cnn input dims must be divisible by 4, got {h}x{w}")
    rng = np.random.default_rng(seed)
    flat = 16 * (h // 4) * (w // 4)
    layers: list[Layer] = [
        Conv2d(c, 8, 3, dtype=dtype, rng=rng),
        MaxPool2(),
        ReLU(),
        Conv2d(8, 16, 3, dtype=dtype, rng=rng),
        MaxPool2(),
        ReLU(),
        Flatten(),
        Dense(flat, 32, dtype=dtype, rng=rng),
        ReLU(),
        Dense(32, n_classes, dtype=dtype, rng=rng),
    ]
    layers[-1].W *= 0.1  # small head keeps the initial loss near ln(n_classes)
    return Model(layers, dtype=dtype)

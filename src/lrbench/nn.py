"""Minimal deterministic neural-network substrate.

Dense and small convolutional layers with hand-derived gradients, softmax
cross-entropy for integer labels (squared error for float targets), and SGD
with momentum and coupled L2 weight decay. The convolution runs on a flat
padded grid of its input, where every kernel offset reads one contiguous
shifted slice (Conv2d).
build_cnn pools before its ReLUs, so pooling ties are among raw conv
outputs. MaxPool2 finds its winners in backward and ReLU takes its mask from
its output, so a forward-only pass builds no mask. Everything runs on numpy
in float32 or float64, and a model's precision is its parameters' dtype:
float64 layers exist so the finite-difference gradient checks have headroom,
while the CLI and the benchmark build float32 models.

A Model instance is single-owner while training: forward/backward/sgd_step
mutate its gradient and parameter buffers in place, and sgd_step leaves the
gradient buffers holding its scratch, not the gradients.
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


class Dense(Layer):
    """Affine layer, input (n, ...) -> output (n, out_dim). Each sample's
    trailing axes are read as its row of in_dim values (a copy when the
    input is not laid out row by row), and the input gradient comes back in
    the input's shape."""

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
        if x.ndim < 2:
            raise ShapeError(f"{self.name or 'dense'}: expected input of rank >= 2, got shape {x.shape}")
        rows = x.reshape(len(x), math.prod(x.shape[1:]))
        if rows.shape[1] != self.W.shape[0]:
            raise ShapeError(
                f"{self.name or 'dense'}: input width {rows.shape[1]} != {self.W.shape[0]}"
            )
        y = rows @ self.W
        if self.b is not None:
            y = y + self.b
        return y, (rows, x.shape)

    def backward(self, grad_out, cache, need_input_grad=True):
        rows, shape = cache
        np.matmul(rows.T, grad_out, out=self.grads[0])
        if self.b is not None:
            grad_out.sum(axis=0, out=self.grads[1])
        return (grad_out @ self.W.T).reshape(shape) if need_input_grad else None


# Rows per forward call in predict for a model that holds a Conv2d, whose
# grid grows with the rows: inference then holds no more than a training
# step at batch 16 does, and the CNN keeps its bits (its Dense(1024, 32)
# rounds 40 rows differently from 16). A conv-free model takes one call.
_BLOCK_ROWS = 16

# Multiply-adds per conv forward GEMM. Up to about 10^6 OpenBLAS (one
# thread) takes its unpacked small-matrix sgemm path: at conv1's shape (8x27
# weights) 4,629 cells took 22 us, 5,000 cells 51 us and all 18,496 cells of
# a 16-row batch about 300 us in one GEMM.
_CONV_GEMM_MADDS = 10**6


def _window_shifts(k: int, width: int) -> list[int]:
    """Where a k x k window reads on a flat padded grid whose rows are
    ``width`` cells wide: for each kernel offset (di, dj), row-major, the
    distance di*width + dj from the window's first cell. On Conv2d's grid
    a window that runs off an image's edge lands on the zero columns and
    rows the image shares with its neighbours."""
    return [di * width + dj for di in range(k) for dj in range(k)]


class Conv2d(Layer):
    """Square convolution with an odd kernel, stride 1, zero padding that
    preserves H and W.

    Works on a channel-major flat padded grid whose neighbouring images
    share their zero padding. With p = k // 2, each grid row holds w image
    cells and p zero columns, each image h rows and p zero rows, and
    p*(w+p)+p zero cells stand before the first image: a window that runs
    off an image's edge reads those zero columns (its own row's or the row
    before's) or zero rows (its own image's or the image before's). That is
    (c, n*(h+p)*(w+p)) cells plus 2p*(w+p+1) zero cells in front and behind.
    Outputs are computed at every cell of the n*(h+p) rows, and the cells
    whose window leaves the image are dropped, so the input a kernel offset
    meets is one contiguous slice of the grid (see _window_shifts). Forward
    is im2col plus GEMMs over blocks of cells (see _CONV_GEMM_MADDS); the
    blocks start on multiples of 16 cells, so an image's outputs are the
    same bits in any batch. Only the grid is cached: backward takes the
    weight gradient and the input gradient as one GEMM per kernel offset
    each, on shifted grid slices.
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
        hp, wp = h + p, w + p
        cells = n * hp * wp
        shifts = _window_shifts(k, wp)
        xf = np.zeros((c, cells + shifts[-1]), dtype=x.dtype)
        front = p * (wp + 1)
        xf[:, front:front + cells].reshape(c, n, hp, wp)[:, :, :h, :w] = \
            x.transpose(1, 0, 2, 3)
        y = np.empty((o, cells), dtype=x.dtype)
        w2 = self.W.reshape(o, c * k * k)
        step = max(16, _CONV_GEMM_MADDS // self.W.size // 16 * 16)
        buf = np.empty(c * k * k * min(step, cells), dtype=x.dtype)
        for start in range(0, cells, step):
            m = min(step, cells - start)
            cols = buf[:c * k * k * m].reshape(c, k * k, m)
            for i, shift in enumerate(shifts):
                cols[:, i] = xf[:, start + shift:start + shift + m]
            np.matmul(w2, cols.reshape(c * k * k, m), out=y[:, start:start + m])
        y += self.b[:, None]
        return y.reshape(o, n, hp, wp)[:, :, :h, :w].transpose(1, 0, 2, 3), xf

    def backward(self, grad_out, cache, need_input_grad=True):
        xf = cache
        n, o, h, w = grad_out.shape
        c, k, p = xf.shape[0], self.ksize, self.pad
        hp, wp = h + p, w + p
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
        # each kernel offset's input gradient, added into the grid gradient
        # shifted as forward read it
        w3 = self.W.reshape(o, c, k * k)
        gi = np.empty((c, cells), dtype=grad_out.dtype)
        gxf = np.zeros_like(xf)
        for i, shift in enumerate(shifts):
            np.matmul(w3[:, :, i].T, g2, out=gi)
            gxf[:, shift:shift + cells] += gi
        front = p * (wp + 1)
        return gxf[:, front:front + cells].reshape(c, n, hp, wp)[
            :, :, :h, :w].transpose(1, 0, 2, 3)


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


class Model:
    """Ordered layer stack; the targets given to backward pick the loss.

    Its precision is its parameters' dtype, to which forward casts each
    batch; a model without parameters keeps its input's dtype.

    The parameterized layers fall into three contiguous groups, lowest
    first (see param_groups): the classifier head alone is ``final`` and the
    layers below it split in half between ``initial`` and ``mid``.
    """

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)
        self.dtype = next((l.params[0].dtype for l in self.layers if l.params), None)
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
    x = np.asarray(batch, model.dtype)
    caches = []
    for layer in model.layers:
        x, cache = layer.forward(x)
        caches.append(cache)
    return x, caches


def predict(model: Model, x: np.ndarray) -> np.ndarray:
    """The model's outputs for every row of ``x``: one forward call for a
    conv-free model, _BLOCK_ROWS rows at a time for one that holds a
    Conv2d."""
    if not any(isinstance(layer, Conv2d) for layer in model.layers):
        return forward(model, x)[0]
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


def _loss_and_grad(logits: np.ndarray, labels: np.ndarray):
    n = logits.shape[0]
    labels = np.asarray(labels)
    if labels.dtype.kind in "iu":
        labels, logp, loss = _cross_entropy(logits, labels)
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
        grad /= n
    else:
        targets = labels.astype(logits.dtype, copy=False)
        if targets.shape != logits.shape:
            raise ShapeError(
                f"targets {targets.shape} for logits {logits.shape}: need integer"
                f" class labels of shape ({n},) or float targets of the logits' shape")
        diff = logits - targets
        loss = float(0.5 * np.sum(diff * diff) / n)
        grad = diff / n
    return loss, grad


def backward(model: Model, logits: np.ndarray, labels: np.ndarray,
             caches) -> float:
    """Write each parameterized layer's gradients once, with the exact
    gradient of the mean loss; returns that loss. Integer ``labels`` (class
    ids) give softmax cross-entropy, and float targets of the logits' shape
    0.5 * sum((logits - targets)**2) / rows. Weight decay enters in sgd_step.
    Every parameter trains: to keep layers fixed, pass a model that leaves
    them out, as the head phase does with the head view from
    groups.split_head.

    Nothing below the lowest parameterized layer's weights is computed: that
    layer returns no input gradient and the layers under it are not called.
    """
    loss, grad = _loss_and_grad(logits, labels)
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

    The gradient buffers are its scratch (decay added, then lr*v), so no
    parameter-sized temporary is allocated and no gradient survives a step.
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
                if weight_decay:
                    g += weight_decay * p
                v *= momentum
                v += g
                np.multiply(v, step_lr, out=g)
                p -= g


def train_step(model: Model, xb: np.ndarray, yb: np.ndarray, lr,
               momentum: float = 0.0, weight_decay: float = 0.0) -> float:
    """forward + backward + sgd_step on one mini-batch; returns the data loss."""
    logits, caches = forward(model, xb)
    loss = backward(model, logits, yb, caches)
    sgd_step(model, lr, momentum=momentum, weight_decay=weight_decay)
    return loss


def build_mlp(input_shape, n_classes: int, hidden=(64, 64),
              dtype=np.float32, seed: int = 0) -> Model:
    """(Dense+ReLU)* -> Dense classifier head; the first Dense reads each
    sample of ``input_shape`` as one row."""
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    width = int(np.prod(input_shape))
    for h in hidden:
        layers.append(Dense(width, h, dtype=dtype, rng=rng))
        layers.append(ReLU())
        width = h
    head = Dense(width, n_classes, dtype=dtype, rng=rng)
    head.W *= 0.1  # small head keeps the initial loss near ln(n_classes)
    layers.append(head)
    return Model(layers)


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
        Dense(flat, 32, dtype=dtype, rng=rng),
        ReLU(),
        Dense(32, n_classes, dtype=dtype, rng=rng),
    ]
    layers[-1].W *= 0.1  # small head keeps the initial loss near ln(n_classes)
    return Model(layers)

import math

import numpy as np
import pytest

import lrbench.train
from lrbench.nn import Dense, Model, backward, forward, sgd_step


QUAD_CURVATURE = 20.0


def quadratic_problem():
    """Two-sample least-squares bowl with curvature 20 in each coordinate.

    Samples (a, 0) and (0, a) with zero targets give, for weights (w1, w2),
    loss = (a^2/4)(w1^2 + w2^2), so each coordinate sees curvature a^2/2.
    Gradient descent on it contracts by |1 - lr * L| per step and diverges
    for lr > 2/L, which makes the best fixed rate and the stability cliff
    known in closed form.
    """
    a = math.sqrt(2.0 * QUAD_CURVATURE)
    x = np.array([[a, 0.0], [0.0, a]])
    y = np.zeros((2, 1))
    return x, y


def quadratic_model(seed=0):
    layer = Dense(2, 1, bias=False, dtype=np.float64,
                  rng=np.random.default_rng(seed))
    return Model([layer], dtype=np.float64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def epoch_seeds(monkeypatch):
    """The SeedSequence entropy of every epoch train_phase runs, in order:
    the generator it hands to iterate_minibatches once per epoch."""
    seeds = []
    real = lrbench.train.iterate_minibatches

    def recorded(n_samples, batch_size, rng):
        seeds.append(list(rng.bit_generator.seed_seq.entropy))
        return real(n_samples, batch_size, rng)

    monkeypatch.setattr(lrbench.train, "iterate_minibatches", recorded)
    return seeds


def penalized_loss(model, x, y, weight_decay=0.0):
    """Mean data loss + (weight_decay/2) * ||params||^2, in float64."""
    logits, caches = forward(model, x)
    loss = backward(model, logits, y, caches)
    for layer in model.param_layers():
        for p in layer.params:
            loss += 0.5 * weight_decay * float(np.sum(p.astype(np.float64) ** 2))
    return loss


def finite_diff_grads(model, x, y, h=1e-5, weight_decay=0.0):
    """Central-difference gradients of penalized_loss for every parameter,
    one list per parameter array, in the same order as the analytic ones."""
    out = []
    for layer in model.param_layers():
        for p in layer.params:
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                saved = p[i]
                p[i] = saved + h
                up = penalized_loss(model, x, y, weight_decay)
                p[i] = saved - h
                down = penalized_loss(model, x, y, weight_decay)
                p[i] = saved
                g[i] = (up - down) / (2.0 * h)
            out.append(g)
    return out


def sgd_update(model, x, y, weight_decay=0.0):
    """The step sgd_step(lr=1.0, momentum=0.0, weight_decay=...) takes from
    zero velocity, one array per parameter (before minus after); the
    parameters and velocities are restored afterwards."""
    params = [p for layer in model.param_layers() for p in layer.params]
    before = [p.copy() for p in params]
    model.zero_velocity()
    logits, caches = forward(model, x)
    backward(model, logits, y, caches)
    sgd_step(model, lr=1.0, momentum=0.0, weight_decay=weight_decay)
    update = [b - p for b, p in zip(before, params)]
    for p, b in zip(params, before):
        p[...] = b
    model.zero_velocity()
    return update


def max_grad_rel_error(model, x, y, weight_decay=0.0):
    """Worst relative disagreement between the analytic update and the
    numeric gradient of the penalized loss."""
    analytic = sgd_update(model, x, y, weight_decay)
    numeric = finite_diff_grads(model, x, y, weight_decay=weight_decay)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst

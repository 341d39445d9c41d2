"""Small parameter-owning layer containers shared by the encoders and the
transducer.  Initialization is uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for
weights and zero for biases unless stated otherwise.

A layer holds every array in the dtype of its init source's draws: float64
from a generator, or the model's dtype when `model.TransducerModel` builds
it.  Biases, batch-norm gamma and beta and running statistics take their
weights' dtype, and only float64 parameters require grad.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def param(data: np.ndarray) -> Tensor:
    """A parameter; only a float64 one requires grad, as the tape is float64."""
    return Tensor(data, requires_grad=data.dtype == np.float64)


def uniform_init(rng: np.random.Generator, shape, fan_in: int, gain: float = 1.0) -> Tensor:
    bound = gain / np.sqrt(fan_in)
    return param(rng.uniform(-bound, bound, size=shape))


# ReLU conv stacks need unit-variance propagation or the audio signal decays
# geometrically with depth (He-style bound: uniform variance 2/fan_in).
RELU_CONV_GAIN = 6.0 ** 0.5

# The audio encoder's Swish projections: a unit-gain bound (sqrt 3) doubled
# for Swish's slope of 1/2 at 0, variance 4/fan_in.  At gain 1 the desk model
# learned its corpus on some seeds only.
SWISH_PROJ_GAIN = 2.0 * 3.0 ** 0.5


def zeros_param(shape, dtype) -> Tensor:
    return param(np.zeros(shape, dtype))


def accumulate(p: Tensor, g: np.ndarray) -> None:
    """Add g to the gradient of a parameter that requires one."""
    if p.requires_grad:
        p.accumulate_grad(g)


class Linear:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, gain: float = 1.0):
        self.weight = uniform_init(rng, (n_in, n_out), n_in, gain)
        self.bias = zeros_param(n_out, self.weight.data.dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv1dLayer:
    """The weight [C_out, C_in / groups, k] and bias of a 1-D convolution."""

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 groups: int = 1):
        self.weight = uniform_init(
            rng, (c_out, c_in // groups, kernel), (c_in // groups) * kernel, gain=RELU_CONV_GAIN
        )
        self.bias = zeros_param(c_out, self.weight.data.dtype)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv2dLayer:
    def __init__(self, c_in: int, c_out: int, k_t: int, k_f: int, rng: np.random.Generator):
        self.weight = uniform_init(rng, (c_out, c_in, k_t, k_f), c_in * k_t * k_f, gain=RELU_CONV_GAIN)
        self.bias = zeros_param(c_out, self.weight.data.dtype)

    def __call__(self, x: Tensor, lengths) -> Tensor:
        """ReLU of the causal conv of packed [C_in, N, F] utterances, as [C_out, N, F]."""
        return T.conv2d(x, self.weight, self.bias, lengths)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


# Variance floor and running-statistics momentum of every batch-norm.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class BatchNormTime:
    """Batch-norm of each channel of [C, N] rows over its N frames (Ioffe &
    Szegedy, arXiv:1502.03167): gamma, beta and the running statistics that
    eval normalizes with, in one dtype.  `backward` takes what `normalize` returned."""

    def __init__(self, channels: int, dtype):
        self.gamma = param(np.ones(channels, dtype))
        self.beta = zeros_param(channels, dtype)
        self.running_mean = np.zeros(channels, dtype)
        self.running_var = np.ones(channels, dtype)

    def normalize(self, x: np.ndarray, training: bool, out: np.ndarray | None = None):
        """`xhat = (x - mean) * inv_std` per channel; returns (xhat, inv_std).
        The statistics are x's in training, folded into the running ones, and
        the running ones in eval.  `out=x` normalizes in place."""
        if training:
            mu = x.mean(axis=1)
            var = x.var(axis=1)
            self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mu
            self.running_var = (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:
            mu, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = np.subtract(x, mu[:, None], out=out)
        xhat *= inv_std[:, None]
        return xhat, inv_std

    def affine(self, xhat: np.ndarray) -> np.ndarray:
        """gamma * xhat + beta per channel, into a new array."""
        out = self.gamma.data[:, None] * xhat
        out += self.beta.data[:, None]
        return out

    def backward(self, g, xhat, inv_std, training: bool) -> np.ndarray:
        """Add the gamma and beta gradients of `affine(xhat)` for its output
        gradient g, where they require grad; returns x's gradient."""
        dxhat = g * self.gamma.data[:, None]
        if training:
            # Batch statistics are functions of x: full normalization grad.
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            dx = inv_std[:, None] * (dxhat - m1 - xhat * m2)
        else:
            dx = dxhat * inv_std[:, None]
        accumulate(self.gamma, (g * xhat).sum(axis=1))
        accumulate(self.beta, g.sum(axis=1))
        return dx

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class Embedding:
    def __init__(self, n_rows: int, dim: int, rng: np.random.Generator):
        self.table = uniform_init(rng, (n_rows, dim), dim)

    def __call__(self, ids) -> Tensor:
        return T.gather_rows(self.table, ids)

    def params(self):
        return [("table", self.table)]


def collect_params(children):
    """Flatten [(prefix, layer), ...] into [(dotted_name, Tensor), ...]."""
    out = []
    for prefix, layer in children:
        for name, p in layer.params():
            out.append((f"{prefix}.{name}", p))
    return out

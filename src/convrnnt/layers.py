"""Small parameter-owning layer containers shared by the encoders and the
transducer.  Initialization is uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for
weights and zero for biases unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import RunningStats, Tensor


def uniform_init(rng: np.random.Generator, shape, fan_in: int, gain: float = 1.0) -> Tensor:
    bound = gain / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


# ReLU conv stacks need unit-variance propagation or the audio signal decays
# geometrically with depth (He-style bound: uniform variance 2/fan_in).
RELU_CONV_GAIN = 6.0 ** 0.5

# The audio encoder's Swish projections: a unit-gain bound (sqrt 3) doubled
# for Swish's slope of 1/2 at 0, variance 4/fan_in.  At gain 1 the desk model
# learned its corpus on some seeds only.
SWISH_PROJ_GAIN = 2.0 * 3.0 ** 0.5


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class Linear:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, gain: float = 1.0):
        self.weight = uniform_init(rng, (n_in, n_out), n_in, gain)
        self.bias = zeros_param(n_out)

    def __call__(self, x: Tensor, lengths=None) -> Tensor:
        return T.linear(x, self.weight, self.bias, lengths)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv1dLayer:
    """The weight [C_out, C_in / groups, k] and bias of a 1-D convolution."""

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 groups: int = 1):
        self.weight = uniform_init(
            rng, (c_out, c_in // groups, kernel), (c_in // groups) * kernel, gain=RELU_CONV_GAIN
        )
        self.bias = zeros_param(c_out)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv2dLayer:
    def __init__(self, c_in: int, c_out: int, k_t: int, k_f: int, rng: np.random.Generator):
        self.weight = uniform_init(rng, (c_out, c_in, k_t, k_f), c_in * k_t * k_f, gain=RELU_CONV_GAIN)
        self.bias = zeros_param(c_out)

    def __call__(self, x: Tensor, lengths) -> Tensor:
        """ReLU of the causal conv of packed [C_in, N, F] utterances, as [C_out, N, F]."""
        return T.conv2d(x, self.weight, self.bias, lengths)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNormTime:
    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = zeros_param(channels)
        self.stats = RunningStats(channels)

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

"""Adam with decoupled-by-injection L2 and the warmup/decay schedule."""

from __future__ import annotations

import math

import numpy as np

from .config import OptimizerConfig
from .errors import ConfigError, TrainingError

SLICE = 1 << 14  # elements per span of the Adam update; bounds its temporaries


def lr_at(step: int, schedule: OptimizerConfig) -> float:
    """Linear warmup to the peak at `warmup_steps`, then inverse-sqrt decay.

    Defined for `step >= 1` (`ConfigError` otherwise). With peak `p` and
    warmup `w` it returns exactly `min((p * step) / w, p * sqrt(w / step))`
    in float64, evaluated in that order: `p * step / w` while `step <= w`
    (so step 1 gives `p / w`), then `p * sqrt(w / step)`.
    """
    if step < 1:
        raise ConfigError(f"schedule is defined for steps >= 1, got {step}")
    w = schedule.warmup_steps
    p = schedule.peak_lr
    return min(p * step / w, p * math.sqrt(w / step))


class Adam:
    """Standard bias-corrected Adam over a named parameter list.

    The L2 term enters as an exact 2*l2*w gradient contribution, applied at
    the update so the data gradient in `.grad` stays inspectable.

    The parameters and their gradients live in two contiguous float64
    buffers, `data` and `grad`: building the optimizer copies each
    parameter into its span and rebinds its `.data` and `.grad` to views of
    them, so an optimized parameter's values and gradient are from then on
    written in place, never rebound (backward adds into `.grad`, which is
    never `None`; `zero_grad` clears the buffer).  The moments are flat
    buffers of the same layout; `m` and `v` map each name to its view.  Each
    step runs the update over fixed `SLICE`-element spans: its temporaries
    stay a few spans in size however large the model.  The update is
    elementwise, so the spans give the bits of a per-parameter loop.

    A step first checks that each parameter's `.data` and `.grad` are still
    the views it bound: `Tensor.zero_grad` or an assignment to `.grad` would
    otherwise leave backward writing where no step reads.  A rebound
    parameter raises `TrainingError` naming it, before anything is updated.
    """

    def __init__(self, params, cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.t = 0
        n = sum(p.data.size for _, p in self.params)
        self.data = np.empty(n)
        self.grad = np.zeros(n)
        self._m = np.zeros(n)
        self._v = np.zeros(n)
        self.m, self.v = {}, {}
        self._views = []
        start = 0
        for name, p in self.params:
            span, shape = slice(start, start + p.data.size), p.data.shape
            self.data[span] = p.data.reshape(-1)
            p.data = self.data[span].reshape(shape)
            p.grad = self.grad[span].reshape(shape)
            self._views.append((p.data, p.grad))
            self.m[name] = self._m[span].reshape(shape)
            self.v[name] = self._v[span].reshape(shape)
            start = span.stop

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self, lr: float) -> None:
        for (name, p), (data, grad) in zip(self.params, self._views):
            if p.data is not data or p.grad is not grad:
                raise TrainingError(
                    f"parameter {name}: its .data or .grad is no longer a view of the "
                    "optimizer's buffers (rebound by zero_grad or an assignment), so "
                    "its gradient would not reach the update"
                )
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for start in range(0, self.data.size, SLICE):
            span = slice(start, start + SLICE)
            w = self.data[span]
            g = self.grad[span]
            if c.l2:
                g = g + 2.0 * c.l2 * w
            m = self._m[span]
            v = self._v[span]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            w -= lr * (m / bc1) / (np.sqrt(v / bc2) + c.epsilon)

"""Adam with decoupled-by-injection L2 and the warmup/decay schedule."""

from __future__ import annotations

import math

import numpy as np

from .config import OptimizerConfig
from .errors import ConfigError


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
    """

    def __init__(self, params, cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr: float) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if c.l2:
                g = g + 2.0 * c.l2 * p.data
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + c.epsilon)

    def state_arrays(self):
        """Moment buffers and the step counter, for checkpointing."""
        out = [("adam.t", np.asarray([float(self.t)]))]
        for name, _ in self.params:
            out.append((f"adam.m.{name}", self.m[name]))
            out.append((f"adam.v.{name}", self.v[name]))
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        self.t = int(arrays["adam.t"][0])
        for name, _ in self.params:
            self.m[name] = arrays[f"adam.m.{name}"].copy()
            self.v[name] = arrays[f"adam.v.{name}"].copy()

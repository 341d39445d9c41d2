"""Machine-speed reference for the end-to-end timings.

A shared host's speed drifts: on a shared 2-vCPU virtual machine, the same
operation took from 1.57 s to 2.26 s in runs a minute apart, and a plain
Python loop varied by 20 % between 2 s windows.  A run therefore also times a
fixed reference unit between its operations, and end-to-end times are
reported in seconds at a nominal reference speed:

    t_reported = t_measured * UNIT_S[kind] / median(unit times of the run)

Each unit is a miniature of the work it normalizes, written with Python and
numpy only, nothing from the package:

- `alloc`: fill a fresh 4 MB array from a counter-based generator, like the
  parameter initialization that dominates set-up;
- `tape`: a chain of small matrix products and gates recorded as closures and
  walked back in reverse, like the autodiff tape of `desk-train`;
- `stream`: a product with a weight matrix larger than cache, then row-by-row
  recurrent steps, like the encoders of `paper-stream`;
- `loss`: a joint-sized product, a log-softmax over its output and the
  gradient product, like `paper-loss`.

A change to the package moves t_measured and leaves the unit alone, so it
shows in full; a slower or busier host moves both.  The full report keeps the
measured seconds and the factors.
"""

from __future__ import annotations

import time

import numpy as np

UNIT_S = {"alloc": 0.007, "tape": 0.003, "stream": 0.012, "loss": 0.05}  # nominal seconds
REFERENCE_SHARE = 0.1  # reference time spent per second of measured work
MIN_SAMPLES = 2        # units after each measured piece of work

clock = time.perf_counter


class _Node:
    __slots__ = ("value", "backward")

    def __init__(self, value, backward):
        self.value = value
        self.backward = backward


class SpeedReference:
    def __init__(self, kind: str):
        self.kind = kind
        self._rng = np.random.Generator(np.random.Philox(key=0))
        normal = self._rng.standard_normal
        if kind == "tape":
            self._w, self._x = normal((64, 256)), normal((1, 64))
        elif kind == "stream":
            self._w, self._x = normal((2048, 2048)), normal((64, 2048))
            self._u = 0.05 * normal((640, 2560))
        elif kind == "loss":
            self._x, self._w = normal((600, 512)), 0.05 * normal((512, 2501))
        elif kind != "alloc":
            raise ValueError(f"unknown reference kind {kind!r}")
        self._unit = getattr(self, f"_{kind}")
        self.samples = []

    def _alloc(self) -> float:
        return float(self._rng.uniform(-1.0, 1.0, size=500_000)[0])

    def _tape(self) -> float:
        nodes, h = [], self._x
        for _ in range(300):
            z = h @ self._w
            gate = 1.0 / (1.0 + np.exp(-z[:, :64]))
            h = gate * np.tanh(z[:, 64:128])
            nodes.append(_Node(h, lambda g, gate=gate: g * gate))
        g = np.ones_like(h)
        for node in reversed(nodes):
            g = node.backward(g)
        return float(g.sum())

    def _stream(self) -> float:
        acc = float((self._x @ self._w)[0, 0])
        h = np.zeros((1, 640))
        for _ in range(20):
            z = h @ self._u
            h = np.tanh(z[:, :640]) / (1.0 + np.exp(-z[:, 640:1280]))
        return acc + float(h.sum())

    def _loss(self) -> float:
        z = self._x @ self._w
        z -= z.max(axis=1, keepdims=True)
        log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float((np.exp(log_p).T @ self._x)[0, 0])

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = clock()
            self._unit()
            self.samples.append(clock() - t0)

    def after(self, work_s: float) -> None:
        """Spend about REFERENCE_SHARE of the work just measured on units."""
        self.sample(max(MIN_SAMPLES, round(REFERENCE_SHARE * work_s / UNIT_S[self.kind])))

    @property
    def factor(self) -> float:
        return UNIT_S[self.kind] / float(np.median(self.samples))

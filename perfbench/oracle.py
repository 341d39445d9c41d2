"""Independent reference for the transducer loss.

The plain alpha recursion over the T x (U+1) alignment lattice, one cell at a
time, written without any code from `convrnnt.rnnt_loss`:

    alpha[0, 0] = 0
    alpha[t, u] = logaddexp(alpha[t-1, u] + blank[t-1, u],
                            alpha[t, u-1] + emit[t, u-1])
    nll = -(alpha[T-1, U] + blank[T-1, U])
"""

from __future__ import annotations

import math

import numpy as np


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi = max(a, b)
    return hi + math.log1p(math.exp(-abs(a - b)))


def transducer_nll(logits: np.ndarray, labels) -> float:
    """Negative log-likelihood of `labels` under raw joint logits [T, U+1, V+1]."""
    log_probs = log_softmax(np.asarray(logits, dtype=np.float64))
    labels = [int(k) for k in labels]
    t_len, u_rows, _ = log_probs.shape
    if u_rows != len(labels) + 1:
        raise ValueError(f"{u_rows} label rows for {len(labels)} labels")
    blank = log_probs[:, :, 0].tolist()
    emit = log_probs[:, np.arange(len(labels)), labels].tolist()
    alpha = [[-math.inf] * u_rows for _ in range(t_len)]
    alpha[0][0] = 0.0
    for t in range(t_len):
        for u in range(u_rows):
            if t == 0 and u == 0:
                continue
            a = -math.inf
            if t > 0:
                a = alpha[t - 1][u] + blank[t - 1][u]
            if u > 0:
                a = _logaddexp(a, alpha[t][u - 1] + emit[t][u - 1])
            alpha[t][u] = a
    return -(alpha[t_len - 1][u_rows - 1] + blank[t_len - 1][u_rows - 1])

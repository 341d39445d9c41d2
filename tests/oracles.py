"""Independent reference implementations used as test oracles.

Everything here is written the dumb, obviously-correct way (explicit loops,
exhaustive enumeration, central finite differences) and must stay decoupled
from the library code it checks.
"""

import itertools
import math

import numpy as np


def fd_gradient(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-4):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def conv1d_naive(x, w, dilation=1, groups=1):
    """Triple-loop valid 1-D cross-correlation."""
    c_in, t = x.shape
    c_out, c_in_g, k = w.shape
    t_out = t - (k - 1) * dilation
    out = np.zeros((c_out, t_out))
    out_per_group = c_out // groups
    for co in range(c_out):
        g = co // out_per_group
        for tt in range(t_out):
            acc = 0.0
            for ci in range(c_in_g):
                for j in range(k):
                    acc += w[co, ci, j] * x[g * c_in_g + ci, tt + j * dilation]
            out[co, tt] = acc
    return out


def conv2d_naive(x, w):
    """Quadruple-loop valid 2-D cross-correlation."""
    c_in, t, f = x.shape
    c_out, _, kt, kf = w.shape
    t_out, f_out = t - kt + 1, f - kf + 1
    out = np.zeros((c_out, t_out, f_out))
    for co in range(c_out):
        for tt in range(t_out):
            for ff in range(f_out):
                acc = 0.0
                for ci in range(c_in):
                    for i in range(kt):
                        for j in range(kf):
                            acc += w[co, ci, i, j] * x[ci, tt + i, ff + j]
                out[co, tt, ff] = acc
    return out


def prefix_mean_naive(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        out[i] = x[: i + 1].sum(axis=0) / (i + 1)
    return out


def transducer_nll_enumeration(log_probs, labels, blank=0):
    """Negative log-likelihood by explicit path enumeration.

    A valid alignment interleaves U label emissions with T frame advances
    (blanks), ending with the blank that consumes the final frame.  The
    label-move positions among the first T+U-1 moves determine the path.
    """
    t_len, u_plus_1, _ = log_probs.shape
    u_len = len(labels)
    assert u_plus_1 == u_len + 1
    n_moves = t_len + u_len
    total = -math.inf
    for label_slots in itertools.combinations(range(n_moves - 1), u_len):
        slots = set(label_slots)
        t, u = 0, 0
        logp = 0.0
        for m in range(n_moves):
            if m in slots:
                logp += log_probs[t, u, labels[u]]
                u += 1
            else:
                logp += log_probs[t, u, blank]
                t += 1
        total = np.logaddexp(total, logp)
    return -total


def stft_band_energies_naive(frame, n_bands, n_fft=512):
    """Windowed DFT magnitudes pooled into equal-width bands, by summation."""
    n = len(frame)
    win = np.hamming(n)
    x = frame * win
    n_bins = n_fft // 2 + 1
    mags = np.zeros(n_bins)
    for b in range(n_bins):
        re = sum(x[i] * math.cos(-2.0 * math.pi * b * i / n_fft) for i in range(n))
        im = sum(x[i] * math.sin(-2.0 * math.pi * b * i / n_fft) for i in range(n))
        mags[b] = math.hypot(re, im)
    edges = np.floor(np.linspace(0, n_bins, n_bands + 1)).astype(int)
    return np.array([mags[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])


def levenshtein(ref, hyp):
    """Plain dynamic-programming edit distance over token lists."""
    m, n = len(ref), len(hyp)
    d = np.zeros((m + 1, n + 1), dtype=int)
    d[:, 0] = np.arange(m + 1)
    d[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1, d[i - 1, j - 1] + cost)
    return int(d[m, n])


def sigmoid_masked(z):
    """Logistic sigmoid with separate overflow-safe forms for z >= 0 and z < 0."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out

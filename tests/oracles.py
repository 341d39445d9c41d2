"""Independent reference implementations used as test oracles.

Everything here is written the dumb, obviously-correct way (explicit loops,
exhaustive enumeration, central finite differences) and must stay decoupled
from the library code it checks.  The op-by-op global block at the end is
built from the library's own small tape ops, the way the block was written
before it became one fused node; it checks the fused node, not those ops.
"""

import itertools
import math

import numpy as np

from convrnnt import tensor as T
from convrnnt.errors import ShapeError


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


# ---------------------------------------------------------------------------
# The global block op by op.  Each step is its own tape op, as the block was
# built before `GlobalBlock.forward_batch` fused it into one node; the fused
# node must reproduce these forward bits and gradients.


def conv1d(x, w, bias=None, dilation=1, groups=1):
    """Valid 1-D cross-correlation tape op, input [C_in, T], weight [C_out, C_in/groups, k].

    Pointwise mixing is the k=1, groups=1 case; depthwise temporal filtering
    is groups == C_in == C_out.  Output time length is T - (k-1)*dilation.
    """
    x, w = T._as_tensor(x), T._as_tensor(w)
    if x.ndim != 2 or w.ndim != 3:
        raise ShapeError(f"conv1d: expected 2-D input and 3-D weight, got {x.shape}, {w.shape}")
    c_in, t = x.shape
    c_out, c_in_g, k = w.shape
    if c_in % groups != 0 or c_out % groups != 0 or c_in_g != c_in // groups:
        raise ShapeError(
            f"conv1d: channel/group mismatch: input {x.shape}, weight {w.shape}, groups {groups}"
        )
    span = 1 + (k - 1) * dilation
    if t < span:
        raise ShapeError(f"conv1d: input length {t} < effective kernel span {span}")
    t_out = t - (k - 1) * dilation

    if k == 1 and groups == 1:
        out_data = w.data[:, :, 0] @ x.data

        def backward_pw(g):
            if w.requires_grad:
                w.accumulate_grad((g @ x.data.T)[:, :, None])
            if x.requires_grad:
                x.accumulate_grad(w.data[:, :, 0].T @ g)

        out = T.from_op(out_data, (x, w), backward_pw)
    elif groups == c_in and c_in == c_out and c_in_g == 1:
        # Depthwise: one temporal filter per channel.
        out_data = np.zeros((c_out, t_out))
        for j in range(k):
            out_data += w.data[:, 0, j:j + 1] * x.data[:, j * dilation:j * dilation + t_out]

        def backward_dw(g):
            if w.requires_grad:
                gw = np.empty_like(w.data)
                for j in range(k):
                    gw[:, 0, j] = (g * x.data[:, j * dilation:j * dilation + t_out]).sum(axis=1)
                w.accumulate_grad(gw)
            if x.requires_grad:
                gx = np.zeros_like(x.data)
                for j in range(k):
                    gx[:, j * dilation:j * dilation + t_out] += w.data[:, 0, j:j + 1] * g
                x.accumulate_grad(gx)

        out = T.from_op(out_data, (x, w), backward_dw)
    else:
        # General grouped case via per-group im2col.  Column row c*k + j holds
        # channel c at tap j, matching the flattened weight layout.
        cols = np.empty((groups, c_in_g * k, t_out))
        xg = x.data.reshape(groups, c_in_g, t)
        for j in range(k):
            cols[:, j::k, :] = xg[:, :, j * dilation:j * dilation + t_out]
        wmat = w.data.reshape(groups, c_out // groups, c_in_g * k)
        out_data = np.einsum("gop,gpt->got", wmat, cols).reshape(c_out, t_out)

        def backward_grouped(g):
            gg = g.reshape(groups, c_out // groups, t_out)
            if w.requires_grad:
                gw = np.einsum("got,gpt->gop", gg, cols)
                w.accumulate_grad(gw.reshape(w.data.shape))
            if x.requires_grad:
                dcols = np.einsum("gop,got->gpt", wmat, gg)
                gx = np.zeros_like(xg)
                for j in range(k):
                    gx[:, :, j * dilation:j * dilation + t_out] += dcols[:, j::k, :]
                x.accumulate_grad(gx.reshape(c_in, t))

        out = T.from_op(out_data, (x, w), backward_grouped)

    if bias is not None:
        bias = T._as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"conv1d: bias shape {bias.shape} != ({c_out},)")
        out = T._add_channel_bias(out, bias)
    return out


def prefix_mean(x):
    """Tape op: row i of the output is the mean of input rows 0..i (inclusive)."""
    x = T._as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"prefix_mean: expected [T, D], got {x.shape}")
    counts = np.arange(1, x.shape[0] + 1, dtype=np.float64)[:, None]
    out_data = np.cumsum(x.data, axis=0) / counts

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.cumsum((g / counts)[::-1], axis=0)[::-1])

    return T.from_op(out_data, (x,), backward)


def squeeze_excite(z, reduce, expand):
    """Gate each step of [T, D] by sigmoid(expand(relu(reduce(prefix mean))))."""
    gate = T.sigmoid(expand(T.relu(reduce(prefix_mean(z)))))
    return T.mul(z, gate)


def _norm_batch(norm, hs, training):
    """Batch-norm over the time-concatenated batch, split back per utterance."""
    def bn(x):
        return T.batchnorm_time(x, norm.gamma, norm.beta, norm.stats, training)

    if len(hs) == 1:
        return [bn(hs[0])]
    normed = bn(T.concat(hs, axis=1))
    out, offset = [], 0
    for h in hs:
        n = h.shape[1]
        out.append(T.slice_axis(normed, 1, offset, offset + n))
        offset += n
    return out


def global_block_per_op(block, xs, training=False, rng=None):
    """`GlobalBlock.forward_batch` as a composition of about 20 tape ops per utterance."""
    cfg = block.cfg

    def conv(layer, x):
        return conv1d(x, layer.weight, layer.bias, dilation=layer.dilation, groups=layer.groups)

    hs = [T.relu(conv(block.pw_in, T.transpose2d(x))) for x in xs]  # [E, T_i]
    hs = _norm_batch(block.norm_in, hs, training)
    hs = [
        T.relu(conv(block.dw, T.pad_left_time(h, (cfg.dw_kernel - 1) * block.dilation)))
        for h in hs
    ]
    hs = _norm_batch(block.norm_dw, hs, training)
    out = []
    for x, h in zip(xs, hs):
        z = T.transpose2d(conv(block.pw_out, h))  # [T, D]
        if cfg.se_enabled:
            z = squeeze_excite(z, block.se_reduce, block.se_expand)
        z = T.dropout(z, cfg.dropout_p, training, rng)
        out.append(T.add(x, z))
    return out


def global_encoder_per_op(enc, xs, training=False, rng=None):
    hs = list(xs)
    for block in enc.blocks:
        hs = global_block_per_op(block, hs, training, rng)
    return hs

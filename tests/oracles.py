"""Independent reference implementations used as test oracles.

Everything here is written the dumb, obviously-correct way (explicit loops,
exhaustive enumeration, central finite differences) and must stay decoupled
from the library code it checks.  The per-op reference autodiff lives here
too: one small tape op per primitive (`matmul`, `add`, `mul`, `scale`,
`relu`, `sigmoid`, `tanh`, `sum_all`, `slice_axis`, `batchnorm_time`,
`outer_sum`) on the library's `Tensor` and `from_op`.  The fused nodes of the
library are checked against compositions of them.  Two oracles are built
from them plus the per-utterance ops defined here, the way the code was
written before it became fused, packed nodes: the op-by-op global block and
the per-utterance model loss.  The per-parameter Adam step and the per-frame
loss passes at the end are the loops the flat optimizer buffers and the
blocked, batch-vectorised loss passes replaced, kept as bitwise references.
So are the allocating LSTM cell, which `tensor.lstm_cell` replaced with one
that steps in place, and the greedy decoder step that ran the whole joint on
one [1, 1] cell per symbol before `Joint` gained its streaming half.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from convrnnt import tensor as T
from convrnnt.decoding import DecoderState
from convrnnt.errors import ShapeError
from convrnnt.model import TransducerModel
from convrnnt.rnnt_loss import NEG_INF, _cells, _checked, _lattice, rnnt_loss


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


@dataclass
class FrameLattice:
    """One utterance's lattice as [T, U+1] arrays ([T, U] for the labels)."""
    log_probs_blank: np.ndarray
    log_probs_label: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def log_likelihood(self) -> float:
        t_last, u_last = self.alpha.shape[0] - 1, self.alpha.shape[1] - 1
        return float(self.alpha[t_last, u_last] + self.log_probs_blank[t_last, u_last])


def frame_lattice(lat, t_len):
    """The loss's per-cell lattice of one utterance as a `FrameLattice`."""
    rows = lat.alpha.size // t_len
    return FrameLattice(lat.log_probs_blank.reshape(t_len, rows),
                        lat.log_probs_label.reshape(t_len, rows - 1),
                        lat.alpha.reshape(t_len, rows), lat.beta.reshape(t_len, rows))


def build_lattice(log_probs, labels):
    """The loss's forward and backward recursions over log-softmax-normalized
    [T, U+1, V+1] input (a zero normaliser), as a `FrameLattice`; its negated
    `log_likelihood` is the nll.  `labels` go through the loss's own checks."""
    z, ids, t_lens = _checked(log_probs, labels, None)
    zero = np.zeros(z.shape[0])
    return frame_lattice(_lattice(z, zero, zero, _cells(ids, t_lens)), t_lens[0])


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
# The per-op reference autodiff: one small tape op per primitive, built on
# `tensor.from_op`.  The fused nodes of `convrnnt.tensor` (`linear`,
# `joint`, `lstm`, `conv2d`) and the global block are checked
# against compositions of these.


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return T.from_op(out_data, (a, b), backward)


def add(a, b):
    """Elementwise add; also accepts a trailing-axis bias vector for `b`."""
    if a.shape == b.shape:
        def backward(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(g)

        return T.from_op(a.data + b.data, (a, b), backward)
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def backward_bias(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                axes = tuple(range(g.ndim - 1))
                b.accumulate_grad(g.sum(axis=axes) if axes else g)

        return T.from_op(a.data + b.data, (a, b), backward_bias)
    raise ShapeError(f"add: unsupported shapes {a.shape} + {b.shape}")


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return T.from_op(a.data * b.data, (a, b), backward)


def scale(a, s):
    s = float(s)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return T.from_op(a.data * s, (a,), backward)


def relu(x):
    out = x.data.copy()
    T.relu_(out)
    mask = out > 0.0

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return T.from_op(out, (x,), backward)


def sigmoid(x):
    s = T._sigmoid(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * s * (1.0 - s))

    return T.from_op(s, (x,), backward)


def tanh(x):
    t = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - t * t))

    return T.from_op(t, (x,), backward)


def sum_all(x):

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, float(g)))

    return T.from_op(np.asarray(x.data.sum()), (x,), backward)


def slice_axis(x, axis, start, stop):
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def backward(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[sl] += g

    return T.from_op(np.ascontiguousarray(x.data[sl]), (x,), backward)


def batchnorm_time(x, gamma, beta, norm, training):
    """`gamma * xhat + beta` for the rows xhat that the `layers.BatchNormTime`
    `norm` normalizes [C, T] into (training folds the batch statistics into
    its running ones).  The backward is written out here, not the norm's:
    in training xhat depends on x through the batch mean and variance too,
    so dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std, each
    mean over time.  It rounds as the norm's does, which the fused global
    block's 1e-12 gradient match needs."""
    c, _ = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm_time: gamma/beta shapes {gamma.shape}/{beta.shape} != ({c},)")
    xhat, inv_std = norm.normalize(x.data, training)
    out_data = gamma.data[:, None] * xhat + beta.data[:, None]

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=1))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=1))
        if x.requires_grad:
            dxhat = g * gamma.data[:, None]
            if training:
                dxhat = (dxhat - dxhat.mean(axis=1, keepdims=True)
                         - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
            x.accumulate_grad(dxhat * inv_std[:, None])

    return T.from_op(out_data, (x, gamma, beta), backward)


def outer_sum(a, b):
    """Broadcast-add [T, J] and [U, J] into [T, U, J] (the joint combiner)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"outer_sum: incompatible shapes {a.shape}, {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.sum(axis=1))
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return T.from_op(a.data[:, None, :] + b.data[None, :, :], (a, b), backward)


# ---------------------------------------------------------------------------
# Per-utterance tape ops: the shape plumbing, convolution and LSTM the model
# used before the local encoder and the LSTM stacks ran on packed rows.


def transpose2d(x):
    return T.permute(x, (1, 0))


def pad_zeros(x, pads):
    """Zero-pad with per-axis (before, after) counts; gradient is the crop."""
    pads = tuple((int(a), int(b)) for a, b in pads)
    sl = tuple(slice(a, a + s) for (a, _), s in zip(pads, x.shape))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g[sl])

    return T.from_op(np.pad(x.data, pads), (x,), backward)


def pad_left_time(x, n, time_axis=-1):
    """Left-pad the time axis with zeros (the causal-convolution shim)."""
    axis = time_axis % x.ndim
    pads = [(0, 0)] * x.ndim
    pads[axis] = (int(n), 0)
    return pad_zeros(x, pads)


def add_channel_bias(x, bias):
    """Add a per-channel bias along the leading axis of [C, ...]."""
    expand = (slice(None),) + (None,) * (x.ndim - 1)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=tuple(range(1, g.ndim))))

    return T.from_op(x.data + bias.data[expand], (x, bias), backward)


def conv2d(x, w, bias=None):
    """Valid 2-D cross-correlation tape op by im2col, input [C_in, T, F], weight
    [C_out, C_in, kt, kf]; stride 1, no padding."""
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected 3-D input and 4-D weight, got {x.shape}, {w.shape}")
    c_in, t, f = x.shape
    c_out, c_in_w, kt, kf = w.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv2d: input channels {c_in} != weight channels {c_in_w}")
    if t < kt or f < kf:
        raise ShapeError(f"conv2d: input {t}x{f} smaller than kernel {kt}x{kf}")
    t_out, f_out = t - kt + 1, f - kf + 1

    cols = np.empty((c_in, kt, kf, t_out, f_out))
    for i in range(kt):
        for j in range(kf):
            cols[:, i, j] = x.data[:, i:i + t_out, j:j + f_out]
    cols_mat = cols.reshape(c_in * kt * kf, t_out * f_out)
    wmat = w.data.reshape(c_out, c_in * kt * kf)
    out_data = (wmat @ cols_mat).reshape(c_out, t_out, f_out)

    def backward(g):
        gmat = g.reshape(c_out, t_out * f_out)
        if w.requires_grad:
            w.accumulate_grad((gmat @ cols_mat.T).reshape(w.data.shape))
        if x.requires_grad:
            dcols = (wmat.T @ gmat).reshape(c_in, kt, kf, t_out, f_out)
            gx = np.zeros_like(x.data)
            for i in range(kt):
                for j in range(kf):
                    gx[:, i:i + t_out, j:j + f_out] += dcols[:, i, j]
            x.accumulate_grad(gx)

    out = T.from_op(out_data, (x, w), backward)
    if bias is not None:
        if bias.shape != (c_out,):
            raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
        out = add_channel_bias(out, bias)
    return out


def lstm_cell_allocating(pre, h, c, u):
    """One LSTM step that allocates every result, as `tensor.lstm_cell` was
    written before it stepped in place: returns the new [b, H] `(h, c)` and
    the [b, 4H] gate activations (sigmoid i, f, o; tanh g)."""
    hid = h.shape[1]
    s = pre + h @ u
    gates = sigmoid_masked(s)
    gates[:, 2 * hid:3 * hid] = np.tanh(s[:, 2 * hid:3 * hid])
    i, f, g, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
    c2 = f * c + i * g
    h2 = o * np.tanh(c2)
    return h2, c2, gates


def lstm_frames_allocating(x, w, u, b, lengths):
    """Hidden states [N, H] of one LSTM layer over packed utterances x
    [N, n_in], each from a zero state, with `lstm_cell_allocating`: one step
    per frame over the rows of the utterances still running at it, longest
    utterance first, as `tensor.lstm` groups them.  It computes in x's dtype
    when the weights share it."""
    lengths = list(lengths)
    starts = np.cumsum(lengths) - np.asarray(lengths)
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    pre = x @ w + b
    out = np.empty((x.shape[0], u.shape[0]), x.dtype)
    h = c = np.zeros((len(lengths), u.shape[0]), x.dtype)
    for t in range(max(lengths)):
        rows = [starts[i] + t for i in order if lengths[i] > t]
        h, c, _ = lstm_cell_allocating(pre[rows], h[:len(rows)], c[:len(rows)], u)
        out[rows] = h
    return out


def step_frame_one_cell(model, state, pred_row, enc_t, max_symbols_per_frame):
    """`decoding.step_frame` as written before the joint had a streaming half:
    every symbol step runs `model.joint` on one [1, 1] (frame, label) cell.
    Reads and updates the state's tokens, score and lstm_states, and takes
    the current [label_proj] label row, from `LabelEncoder.start` or `step`,
    beside them.  Returns the state and the label row after the frame."""
    enc_row = T.Tensor(enc_t[None, :])
    emitted = 0
    while True:
        with T.no_grad():
            z = model.joint(enc_row, T.Tensor(pred_row[None, :])).data[0, 0]
        k = int(np.argmax(z))
        state.score -= float(np.log(np.exp(z - z[k]).sum()))
        if k == 0:
            return state, pred_row
        state.tokens.append(k)
        state.lstm_states, pred_row = model.label_encoder.step(state.lstm_states, k)
        emitted += 1
        if emitted >= max_symbols_per_frame:
            return state, pred_row


def greedy_decode_one_cell(model, enc_frames, max_symbols_per_frame):
    """Greedy decoding of [T, proj_dim] frames with `step_frame_one_cell`."""
    states, pred = model.label_encoder.start()
    state = DecoderState(lstm_states=states)
    for enc_t in enc_frames:
        state, pred = step_frame_one_cell(model, state, pred, enc_t, max_symbols_per_frame)
    return state


def lstm(x, w, u, b):
    """Hidden states [T, H] of one LSTM layer over one utterance x [T, n_in],
    from a zero state: one tape node that steps `lstm_cell` frame by frame
    and runs its backward through time one frame row at a time."""
    hid = u.shape[0]
    t_len = x.shape[0]
    gates = x.data @ w.data + b.data
    hs = np.empty((t_len, hid))
    cs = np.empty((t_len, hid))
    hu = np.empty((1, 4 * hid))
    h = c = np.zeros((1, hid))
    for t in range(t_len):
        T.lstm_cell(gates[t:t + 1], h, c, u.data, hu, hs[t:t + 1], cs[t:t + 1])
        h, c = hs[t:t + 1], cs[t:t + 1]

    def backward(g):
        i, f, cand, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
        tc = np.tanh(cs)
        c_prev = np.zeros_like(cs)
        c_prev[1:] = cs[:-1]
        factor = np.concatenate(
            [cand * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - cand * cand),
             tc * o * (1.0 - o)], axis=1,
        ).reshape(t_len, 4, hid)
        dc_dh = o * (1.0 - tc * tc)
        ds = np.empty((t_len, 4, hid))
        dh_next = np.zeros(hid)
        dc_next = np.zeros(hid)
        for t in range(t_len - 1, -1, -1):
            dh = g[t] + dh_next
            dc = dc_next + dh * dc_dh[t]
            ds[t, :3] = dc * factor[t, :3]
            ds[t, 3] = dh * factor[t, 3]
            dc_next = dc * f[t]
            dh_next = ds[t].reshape(-1) @ u.data.T
        ds = ds.reshape(t_len, 4 * hid)
        if x.requires_grad:
            x.accumulate_grad(ds @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ ds)
        if u.requires_grad:
            u.accumulate_grad(hs[:-1].T @ ds[1:])
        if b.requires_grad:
            b.accumulate_grad(ds.sum(axis=0))

    return T.from_op(hs, (x, w, u, b), backward)


def _spans(lengths):
    ends = np.cumsum(lengths).tolist()
    return [(end - n, end) for n, end in zip(lengths, ends)]


def causal_conv2d_per_utterance(x, w, bias, lengths):
    """`tensor.conv2d` on packed [C_in, N, F] rows, one utterance at a time:
    pad, valid conv, bias and ReLU, each its own tape op."""
    _, _, kt, kf = w.shape
    pf = (kf - 1) // 2
    outs = []
    for a, b in _spans(lengths):
        h = pad_zeros(slice_axis(x, 1, a, b), ((0, 0), (kt - 1, 0), (pf, pf)))
        outs.append(relu(conv2d(h, w, bias)))
    return T.concat(outs, axis=1)


def lstm_per_utterance(x, w, u, b, lengths):
    """`tensor.lstm` on packed [N, n_in] rows, one utterance at a time."""
    return T.concat([lstm(slice_axis(x, 0, a, e), w, u, b) for a, e in _spans(lengths)])


def _lstm_stack(layers, h, p, rng):
    for layer in layers:
        h = T.dropout(layer.project(lstm(h, layer.w, layer.u, layer.b)), p, rng)
    return h


def local_encoder_per_utterance(enc, x):
    """`LocalEncoder.__call__` on one [T, in_channels * n_freq] utterance."""
    t_len = x.shape[0]
    h = T.permute(T.reshape(x, (t_len, enc.in_channels, enc.n_freq)), (1, 0, 2))
    for conv in enc.convs:
        h = causal_conv2d_per_utterance(h, conv.weight, conv.bias, [t_len])
    return T.reshape(T.permute(h, (1, 0, 2)), (t_len, enc.output_dim))


def label_rows_per_utterance(enc, tokens, rng=None):
    """`LabelEncoder.__call__` on one token list: a zero start row, then the embeddings."""
    h = T.Tensor(np.zeros((1, enc.m.label_embed)))
    if len(tokens):
        h = T.concat([h, enc.embed(tokens)])
    return _lstm_stack(enc.layers, h, enc.m.dropout_p, rng)


def batch_loss_per_utterance(model, features_list, tokens_list, rng=None):
    """`TransducerModel.batch_loss` one utterance at a time: the local encoder,
    fusion, LSTM stacks, joint and loss of each utterance in turn (the global
    encoder takes the batch's packed features, and each utterance its rows of
    the output; with no frontend the LSTMs read the features), then the sum
    of the losses and its scale by 1/B.
    The dropout draws come in another order than the packed path's, so the
    two agree only where dropout is off."""
    xs = [T.Tensor(f) for f in features_list]
    local = [local_encoder_per_utterance(model.local, x) for x in xs] if model.local else None
    glob = None
    if model.global_enc:
        lengths = [x.shape[0] for x in xs]
        packed = model.global_enc.forward_batch(T.concat(xs), lengths, rng)
        glob = [slice_axis(packed, 0, a, e) for a, e in _spans(lengths)]
    losses = []
    for i, tokens in enumerate(tokens_list):
        parts = [p[i] for p in (local, glob) if p is not None]
        fused = model.fuse(T.concat(parts, axis=1)) if parts else xs[i]
        enc = _lstm_stack(model.encoder.layers, fused, model.encoder.m.dropout_p, rng)
        pred = label_rows_per_utterance(model.label_encoder, tokens, rng)
        losses.append(rnnt_loss(model.joint(enc, pred), tokens))
    return mean_of(losses), [float(l.data) for l in losses]


def mean_of(losses):
    """The mean of scalar loss nodes: `add` them in order, then `scale` by 1/B."""
    total = losses[0]
    for extra in losses[1:]:
        total = add(total, extra)
    return scale(total, 1.0 / len(losses))


# ---------------------------------------------------------------------------
# The global block op by op.  Each step is its own tape op, as the block was
# built before `GlobalBlock.forward_batch` fused it into one node; the fused
# node must reproduce these forward bits and gradients.


def conv1d(x, w, bias=None, dilation=1, groups=1):
    """Valid 1-D cross-correlation tape op, input [C_in, T], weight [C_out, C_in/groups, k].

    Pointwise mixing is the k=1, groups=1 case; depthwise temporal filtering
    is groups == C_in == C_out.  Output time length is T - (k-1)*dilation.
    """
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
        if bias.shape != (c_out,):
            raise ShapeError(f"conv1d: bias shape {bias.shape} != ({c_out},)")
        out = add_channel_bias(out, bias)
    return out


def prefix_mean(x):
    """Tape op: row i of the output is the mean of input rows 0..i (inclusive)."""
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
    gate = sigmoid(expand(relu(reduce(prefix_mean(z)))))
    return mul(z, gate)


def _norm_batch(norm, hs, training):
    """Batch-norm over the time-concatenated batch, split back per utterance."""
    def bn(x):
        return batchnorm_time(x, norm.gamma, norm.beta, norm, training)

    if len(hs) == 1:
        return [bn(hs[0])]
    normed = bn(T.concat(hs, axis=1))
    out, offset = [], 0
    for h in hs:
        n = h.shape[1]
        out.append(slice_axis(normed, 1, offset, offset + n))
        offset += n
    return out


def global_block_per_op(block, xs, rng=None):
    """`GlobalBlock.forward_batch` as a composition of about 20 tape ops per
    utterance; a generator makes it train, as it does the block."""
    cfg = block.m
    training = rng is not None

    def conv(layer, x, dilation=1, groups=1):
        return conv1d(x, layer.weight, layer.bias, dilation=dilation, groups=groups)

    hs = [relu(conv(block.pw_in, transpose2d(x))) for x in xs]  # [E, T_i]
    hs = _norm_batch(block.norm_in, hs, training)
    width = block.dw.weight.shape[0]  # depthwise: one group per channel
    hs = [
        relu(conv(block.dw, pad_left_time(h, (cfg.dw_kernel - 1) * block.dilation),
                  block.dilation, width))
        for h in hs
    ]
    hs = _norm_batch(block.norm_dw, hs, training)
    out = []
    for x, h in zip(xs, hs):
        z = transpose2d(conv(block.pw_out, h))  # [T, D]
        z = squeeze_excite(z, block.se_reduce, block.se_expand)
        z = T.dropout(z, cfg.dropout_p, rng)
        out.append(add(x, z))
    return out


def global_encoder_per_op(enc, x, lengths, rng=None):
    """`GlobalEncoder.forward_batch` on packed [N, D] rows: each utterance's
    rows sliced out, the blocks op by op, and the outputs joined back."""
    hs = [slice_axis(x, 0, a, e) for a, e in _spans(lengths)]
    for block in enc.blocks:
        hs = global_block_per_op(block, hs, rng)
    return T.concat(hs)


# ---------------------------------------------------------------------------
# Per-parameter Adam and the per-frame loss passes: the loops that the flat
# optimizer buffers and the frame-blocked loss replaced, which must give the
# same bits.


def adam_step_per_parameter(opt, lr):
    """`Adam.step` as a loop over the parameters, updating each `.data` and
    moment in place (through the optimizer's views)."""
    c = opt.cfg
    opt.t += 1
    bc1 = 1.0 - c.beta1 ** opt.t
    bc2 = 1.0 - c.beta2 ** opt.t
    for name, p in opt.params:
        g = p.grad
        if c.l2:
            g = g + 2.0 * c.l2 * p.data
        m = opt.m[name]
        v = opt.v[name]
        m *= c.beta1
        m += (1.0 - c.beta1) * g
        v *= c.beta2
        v += (1.0 - c.beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + c.epsilon)


def _scan_forward(base, chain):
    """Solve r[u] = logaddexp(base[u], r[u-1] + chain[u-1]) in one vector pass."""
    c = np.concatenate(([0.0], np.cumsum(chain)))
    return np.logaddexp.accumulate(base - c) + c


def _scan_backward(base, chain):
    """Solve r[u] = logaddexp(base[u], r[u+1] + chain[u]), scanning right to left."""
    c = np.concatenate((np.cumsum(chain[::-1])[::-1], [0.0]))
    return (np.logaddexp.accumulate((base - c)[::-1]) + c[::-1])[::-1]


def normalisers_per_frame(z):
    """Per-row max and log-normaliser of [T, U+1, V+1] logits, one frame at a time."""
    m = z.max(axis=-1)
    lse = np.empty_like(m)
    for t in range(z.shape[0]):
        lse[t] = np.log(np.exp(z[t] - m[t][:, None]).sum(axis=-1))
    return m, lse


def lattice_per_frame(z, m, lse, labels):
    """Blank and label log-probs and the alpha/beta recursions, each row's
    prefix sums taken inside its own scan."""
    t_len, u_rows, _ = z.shape
    u_len = u_rows - 1
    blank_lp = (z[:, :, 0] - m) - lse
    label_lp = (z[:, np.arange(u_len), labels] - m[:, :-1]) - lse[:, :-1]

    alpha = np.full((t_len, u_rows), NEG_INF)
    alpha[0, 0] = 0.0
    if u_len:
        alpha[0, 1:] = np.cumsum(label_lp[0])
    for t in range(1, t_len):
        alpha[t] = _scan_forward(alpha[t - 1] + blank_lp[t - 1], label_lp[t])

    beta = np.full((t_len, u_rows), NEG_INF)
    beta[t_len - 1] = _scan_backward(
        np.concatenate((np.full(u_len, NEG_INF), [blank_lp[t_len - 1, u_len]])),
        label_lp[t_len - 1],
    )
    for t in range(t_len - 2, -1, -1):
        beta[t] = _scan_backward(beta[t + 1] + blank_lp[t], label_lp[t])

    return FrameLattice(blank_lp, label_lp, alpha, beta)


def occupancies_per_frame(lat):
    """Posterior occupancies of each blank [T, U+1], each label [T, U] and
    each node of one utterance's `FrameLattice`."""
    t_len, u_rows = lat.alpha.shape
    log_z = lat.log_likelihood
    # A blank at (t, u) continues at (t+1, u); the final blank at (T-1, U)
    # terminates with no continuation cost.
    beta_next_t = np.full((t_len, u_rows), NEG_INF)
    beta_next_t[:-1] = lat.beta[1:]
    beta_next_t[t_len - 1, u_rows - 1] = 0.0
    occ_blank = np.exp(lat.alpha + lat.log_probs_blank + beta_next_t - log_z)
    occ_label = np.exp(lat.alpha[:, :-1] + lat.log_probs_label + lat.beta[:, 1:] - log_z)
    occ_total = occ_blank.copy()
    occ_total[:, :-1] += occ_label
    return occ_blank, occ_label, occ_total


def logit_grad_per_frame(z, m, lse, labels, lat, g):
    """g times the nll gradient w.r.t. the logits, one frame at a time, from
    the occupancies of a `FrameLattice`."""
    occ_blank, occ_label, occ_total = occupancies_per_frame(lat)
    rows = np.arange(labels.size)
    grad = np.empty(z.shape)
    for t in range(z.shape[0]):
        gt = grad[t]
        np.subtract(z[t], m[t][:, None], out=gt)
        gt -= lse[t][:, None]
        np.exp(gt, out=gt)
        gt *= occ_total[t][:, None]
        gt[:, 0] -= occ_blank[t]
        gt[rows, labels] -= occ_label[t]
        gt *= g
        gt += 0.0
    return grad


# ---------------------------------------------------------------------------
# float32 inference


# Bound on max |enc32 - enc64| / max |enc64| between the `encode_audio` of a
# float32 model and of the float64 model of the same weights.  Measured:
# 2.1e-6 and 2.9e-6 on the paper preset's 10 s benchmark input at seeds 1
# and 7.
F32_ENCODER_REL_TOL = 1e-5


def models_at_both_dtypes(cfg, seed):
    """The float64 and the float32 model of `cfg`, built from one seed."""
    return (TransducerModel(cfg, seed, dtype=np.float64),
            TransducerModel(cfg, seed, dtype=np.float32))


def float32_twin(model):
    """A float32 model holding the float64 `model`'s parameters and running
    statistics rounded to float32, for a model that was trained or edited
    after its build."""
    twin = TransducerModel(model.cfg, 0, dtype=np.float32)
    for (_, p), (_, q) in zip(twin.parameters(), model.parameters()):
        p.data[...] = q.data
    for (_, a), (_, b) in zip(twin.norm_layers(), model.norm_layers()):
        a.running_mean[...] = b.running_mean
        a.running_var[...] = b.running_var
    return twin


def encodings_at_both_dtypes(models, *xs):
    """Untaped `encode_audio` of the feature arrays xs by each of a float64
    and a float32 model: a pair from `models_at_both_dtypes`, or a model and
    its `float32_twin`."""
    out = []
    for model in models:
        with T.no_grad():
            out.append(model.encode_audio(*(T.Tensor(x) for x in xs)).data)
    return out


def max_rel_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())

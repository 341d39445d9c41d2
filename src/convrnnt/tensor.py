"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every value flowing through the model is a `Tensor` wrapping a row-major
numpy float64 array.  Operations record their inputs and a backward closure
on a dynamic tape (the graph is rebuilt on every forward pass, so variable
sequence lengths need no special handling).  `Tensor.backward()` walks the
reachable tape once, in reverse creation order, which is a valid topological
order because inputs are always created before their consumers.

Only the operations the transducer model actually needs are provided, and
broadcasting is restricted to the two cases the model uses (trailing-axis
bias add and same-shape elementwise products).  That keeps every gradient
rule short enough to audit by eye.

Two ops are fused, each one tape node:

- `lstm` runs a whole LSTM layer over a sequence, so the tape does not grow
  with the frame count.  Its forward steps the shared numpy cell `lstm_cell`
  and stores every frame's gate activations and cell state; its backward
  runs through time over them and forms the weight and input gradients as
  whole-sequence GEMMs.
- `linear` is `x @ w + b` over the last axis of an input of rank 2 or more.  It
  keeps one output array (the bias is added in place) and forms the three
  gradients straight from the incoming one, so a wide output such as the
  joint's logits is not copied on the way back.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError, ShapeError

_ids = itertools.count()

# When False, newly created tensors record no parents/backward closures.
# Toggled by `no_grad()` for evaluation and decoding.
_grad_enabled = True


class no_grad:
    """Context manager that disables tape recording inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # The same bits and layout as zeros + g (adding 0.0 turns -0.0
            # into +0.0), without first filling a buffer with zeros.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad=None) -> None:
        """Reverse-mode pass seeding this tensor's gradient.

        Defaults to ones (the usual scalar-loss case).  Gradients accumulate
        into `.grad` of every reachable tensor with `requires_grad`.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )
        # Iterative reachability walk; creation id order is topological.
        nodes = {}
        stack = [self]
        while stack:
            t = stack.pop()
            if t._id in nodes:
                continue
            nodes[t._id] = t
            stack.extend(t._parents)
        self.accumulate_grad(grad)
        for tid in sorted(nodes, reverse=True):
            t = nodes[tid]
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    # Arithmetic sugar for the common cases.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def from_op(data: np.ndarray, parents, backward) -> Tensor:
    """Create a tape node.  `backward(g)` must accumulate into the parents.

    The node only records its provenance when grad mode is on and some
    parent requires grad; otherwise it is a plain constant tensor.
    """
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return from_op(out_data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` over the last axis of x [..., n_in], with w [n_in, n_out].

    One tape node with the bits of `add(matmul(x2d, w), b)`: the forward adds
    the bias in place into the GEMM output, and the backward forms
    `g @ w.T`, `x.T @ g` and the bias sum from the incoming gradient rows.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: incompatible shapes x {x.shape}, w {w.shape}, b {b.shape}")
    x2d = x.data.reshape(-1, w.shape[0])
    out = x2d @ w.data
    out += b.data

    def backward(g):
        g2d = g.reshape(out.shape)
        if x.requires_grad:
            x.accumulate_grad((g2d @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w.accumulate_grad(x2d.T @ g2d)
        if b.requires_grad:
            b.accumulate_grad(g2d.sum(axis=0))

    return from_op(out.reshape(x.shape[:-1] + (w.shape[1],)), (x, w, b), backward)


def add(a: Tensor, b) -> Tensor:
    """Elementwise add; also accepts a trailing-axis bias vector for `b`."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        c = float(b)

        def backward_s(g):
            if a.requires_grad:
                a.accumulate_grad(g)

        return from_op(a.data + c, (a,), backward_s)
    b = _as_tensor(b)
    if a.shape == b.shape:
        def backward(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(g)

        return from_op(a.data + b.data, (a, b), backward)
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def backward_bias(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                axes = tuple(range(g.ndim - 1))
                b.accumulate_grad(g.sum(axis=axes) if axes else g)

        return from_op(a.data + b.data, (a, b), backward_bias)
    raise ShapeError(f"add: unsupported shapes {a.shape} + {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return from_op(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return from_op(a.data * s, (a,), backward)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0.0

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return from_op(np.where(mask, x.data, 0.0), (x,), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    # overflows; one exp over -|z| serves both halves without masks.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    s = _sigmoid(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * s * (1.0 - s))

    return from_op(s, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    t = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - t * t))

    return from_op(t, (x,), backward)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    x = _as_tensor(x)
    s = _sigmoid(x.data)
    out_data = x.data * s

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (s + out_data * (1.0 - s)))

    return from_op(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.data.shape))

    return from_op(x.data.reshape(shape), (x,), backward)


def permute(x: Tensor, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.transpose(inv))

    return from_op(np.ascontiguousarray(x.data.transpose(axes)), (x,), backward)


def transpose2d(x: Tensor) -> Tensor:
    return permute(x, (1, 0))


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                p.accumulate_grad(g[tuple(sl)])

    return from_op(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def backward(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[sl] = g
            x.accumulate_grad(buf)

    return from_op(np.ascontiguousarray(x.data[sl]), (x,), backward)


def pad_zeros(x: Tensor, pads) -> Tensor:
    """Zero-pad with per-axis (before, after) counts; gradient is the crop."""
    x = _as_tensor(x)
    pads = tuple((int(a), int(b)) for a, b in pads)
    sl = tuple(slice(a, a + s) for (a, _), s in zip(pads, x.shape))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g[sl])

    return from_op(np.pad(x.data, pads), (x,), backward)


def pad_left_time(x: Tensor, n: int, time_axis: int = -1) -> Tensor:
    """Left-pad the time axis with zeros (the causal-convolution shim)."""
    x = _as_tensor(x)
    axis = time_axis % x.ndim
    pads = [(0, 0)] * x.ndim
    pads[axis] = (int(n), 0)
    return pad_zeros(x, pads)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup (embedding); gradient scatter-adds into the table."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)

    def backward(g):
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, ids, g)
            table.accumulate_grad(buf)

    return from_op(table.data[ids], (table,), backward)


# ---------------------------------------------------------------------------
# reductions and normalizations


def mean_over_axis(x: Tensor, axis: int) -> Tensor:
    x = _as_tensor(x)
    n = x.shape[axis]

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return from_op(x.data.mean(axis=axis), (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, float(g)))

    return from_op(np.asarray(x.data.sum()), (x,), backward)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    out_data = np.squeeze(m, axis=axis) + np.log(
        np.exp(x.data - m).sum(axis=axis)
    )

    def backward(g):
        if x.requires_grad:
            p = np.exp(x.data - np.expand_dims(out_data, axis))
            x.accumulate_grad(np.expand_dims(g, axis) * p)

    return from_op(out_data, (x,), backward)


def softmax_last_axis(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * p).sum(axis=-1, keepdims=True)
            x.accumulate_grad(p * (g - dot))

    return from_op(p, (x,), backward)


def log_softmax_last_axis(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    z = x.data - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out_data = z - lse

    def backward(g):
        if x.requires_grad:
            p = np.exp(out_data)
            x.accumulate_grad(g - p * g.sum(axis=-1, keepdims=True))

    return from_op(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with prob p, scale survivors by 1/(1-p).

    Identity in eval mode and at p == 0 (neither consumes the RNG stream,
    so checkpointed RNG state stays aligned across configurations).
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    x = _as_tensor(x)
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode requires an RNG")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * keep)

    return from_op(x.data * keep, (x,), backward)


# ---------------------------------------------------------------------------
# convolutions


def conv1d(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    dilation: int = 1,
    groups: int = 1,
) -> Tensor:
    """Valid 1-D cross-correlation, input [C_in, T], weight [C_out, C_in/groups, k].

    Pointwise mixing is the k=1, groups=1 case; depthwise temporal filtering
    is groups == C_in == C_out.  Output time length is T - (k-1)*dilation.
    """
    x, w = _as_tensor(x), _as_tensor(w)
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

        out = from_op(out_data, (x, w), backward_pw)
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

        out = from_op(out_data, (x, w), backward_dw)
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

        out = from_op(out_data, (x, w), backward_grouped)

    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"conv1d: bias shape {bias.shape} != ({c_out},)")
        out = _add_channel_bias(out, bias)
    return out


def _add_channel_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias along the leading axis of [C, ...]."""
    expand = (slice(None),) + (None,) * (x.ndim - 1)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=tuple(range(1, g.ndim))))

    return from_op(x.data + bias.data[expand], (x, bias), backward)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Valid 2-D cross-correlation, input [C_in, T, F], weight [C_out, C_in, kt, kf].

    Stride is fixed at 1; callers are responsible for any padding.
    """
    x, w = _as_tensor(x), _as_tensor(w)
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

    out = from_op(out_data, (x, w), backward)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
        out = _add_channel_bias(out, bias)
    return out


# ---------------------------------------------------------------------------
# batch normalization over the time axis


class RunningStats:
    """Per-channel running mean/variance for batchnorm_time (eval mode)."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)

    def update(self, mean: np.ndarray, var: np.ndarray, momentum: float) -> None:
        self.mean = (1.0 - momentum) * self.mean + momentum * mean
        self.var = (1.0 - momentum) * self.var + momentum * var


def batchnorm_time(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    training: bool,
    eps: float = 1e-5,
    momentum: float = 0.1,
    update_stats: bool | None = None,
) -> Tensor:
    """Normalize each channel of [C, T] over the time axis.

    Training mode uses the statistics of the current input (and, unless
    `update_stats` is False, folds them into the running stats with the
    given momentum).  Eval mode uses the frozen running stats only, which
    keeps inference causal frame by frame.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c, t = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm_time: gamma/beta shapes {gamma.shape}/{beta.shape} != ({c},)")
    if update_stats is None:
        update_stats = training

    if training:
        mu = x.data.mean(axis=1)
        var = x.data.var(axis=1)
        if update_stats:
            stats.update(mu, var, momentum)
    else:
        mu, var = stats.mean, stats.var

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[:, None]) * inv_std[:, None]
    out_data = gamma.data[:, None] * xhat + beta.data[:, None]

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=1))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=1))
        if x.requires_grad:
            dxhat = g * gamma.data[:, None]
            if training:
                # Batch statistics are functions of x: full normalization grad.
                m1 = dxhat.mean(axis=1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
                x.accumulate_grad(inv_std[:, None] * (dxhat - m1 - xhat * m2))
            else:
                x.accumulate_grad(dxhat * inv_std[:, None])

    return from_op(out_data, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# sequence-specific ops


def prefix_mean(x: Tensor) -> Tensor:
    """Row i of the output is the mean of input rows 0..i (inclusive)."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"prefix_mean: expected [T, D], got {x.shape}")
    counts = np.arange(1, x.shape[0] + 1, dtype=np.float64)[:, None]
    out_data = np.cumsum(x.data, axis=0) / counts

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.cumsum((g / counts)[::-1], axis=0)[::-1])

    return from_op(out_data, (x,), backward)


def outer_sum(a: Tensor, b: Tensor) -> Tensor:
    """Broadcast-add [T, J] and [U, J] into [T, U, J] (the joint combiner)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"outer_sum: incompatible shapes {a.shape}, {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.sum(axis=1))
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return from_op(a.data[:, None, :] + b.data[None, :, :], (a, b), backward)


def lstm_cell(pre: np.ndarray, h: np.ndarray, c: np.ndarray, u: np.ndarray):
    """One LSTM step in plain numpy, gate order input, forget, candidate, output.

    `pre` is the frame's input projection `x @ w + b` as a [1, 4H] row, `h`
    and `c` the [1, H] state, `u` the [H, 4H] recurrent weight.  Returns the
    new `(h, c)` and the [1, 4H] gate activations (sigmoid i, f, o; tanh g).
    """
    hid = h.shape[1]
    s = pre + h @ u
    gates = _sigmoid(s)
    gates[:, 2 * hid:3 * hid] = np.tanh(s[:, 2 * hid:3 * hid])
    i, f, g, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
    c2 = f * c + i * g
    h2 = o * np.tanh(c2)
    return h2, c2, gates


def lstm(x: Tensor, w: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """Hidden states [T, H] of one LSTM layer run over x [T, n_in] from a zero state.

    One tape node for the whole sequence.  The forward makes one `x @ w + b`
    GEMM, then steps `lstm_cell` frame by frame and keeps each frame's gate
    activations [T, 4H] and cell state [T, H].  The backward runs through
    time over those, then forms the gradients of x, w, u and b as
    whole-sequence GEMMs.
    """
    x, w, u, b = (_as_tensor(v) for v in (x, w, u, b))
    hid = u.shape[0]
    if (x.ndim != 2 or w.shape != (x.shape[1], 4 * hid) or u.shape != (hid, 4 * hid)
            or b.shape != (4 * hid,)):
        raise ShapeError(
            f"lstm: incompatible shapes x {x.shape}, w {w.shape}, u {u.shape}, b {b.shape}"
        )
    t_len = x.shape[0]
    # Row t holds frame t's input projection until the step overwrites it
    # with that frame's gate activations.
    gates = x.data @ w.data + b.data
    hs = np.empty((t_len, hid))
    cs = np.empty((t_len, hid))
    h = c = np.zeros((1, hid))
    for t in range(t_len):
        h, c, gates[t:t + 1] = lstm_cell(gates[t:t + 1], h, c, u.data)
        hs[t], cs[t] = h[0], c[0]

    def backward(g):
        i, f, cand, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
        tc = np.tanh(cs)
        c_prev = np.zeros_like(cs)
        c_prev[1:] = cs[:-1]
        # ds = dL/d(pre-activations); per gate block it is dc (i, f, g) or dh
        # (o) times a factor that does not depend on the recurrence.
        factor = np.concatenate(
            [cand * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - cand * cand),
             tc * o * (1.0 - o)], axis=1,
        ).reshape(t_len, 4, hid)
        dc_dh = o * (1.0 - tc * tc)
        ds = np.empty((t_len, 4, hid))
        u_t = u.data.T
        dh_next = np.zeros(hid)
        dc_next = np.zeros(hid)
        for t in range(t_len - 1, -1, -1):
            dh = g[t] + dh_next
            dc = dc_next + dh * dc_dh[t]
            ds[t, :3] = dc * factor[t, :3]
            ds[t, 3] = dh * factor[t, 3]
            dc_next = dc * f[t]
            dh_next = ds[t].reshape(-1) @ u_t
        ds = ds.reshape(t_len, 4 * hid)
        if x.requires_grad:
            x.accumulate_grad(ds @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ ds)
        if u.requires_grad:
            u.accumulate_grad(hs[:-1].T @ ds[1:])
        if b.requires_grad:
            b.accumulate_grad(ds.sum(axis=0))

    return from_op(hs, (x, w, u, b), backward)

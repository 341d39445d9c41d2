"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every value flowing through the model is a `Tensor` wrapping a row-major
numpy float64 array.  Operations record their inputs and a backward closure
on a dynamic tape (the graph is rebuilt on every forward pass, so variable
sequence lengths need no special handling).  `Tensor.backward()` walks the
reachable tape once, in reverse creation order, which is a valid topological
order because inputs are always created before their consumers.  Each node
propagates its gradient once: a second backward that reaches it raises
`TrainingError` (sum several outputs into one scalar to seed them together).

Only the operations the model and the test oracles use are provided, and
broadcasting is restricted to the two cases the model uses (trailing-axis
bias add and same-shape elementwise products).  That keeps every gradient
rule short enough to audit by eye.  Batch-norm uses the fixed `BN_EPS` and
`BN_MOMENTUM`.

These ops are fused, each one tape node:

- `lstm` runs a whole LSTM layer over a sequence, so the tape does not grow
  with the frame count.  Its forward steps the shared numpy cell `lstm_cell`
  and stores every frame's gate activations and cell state; its backward
  runs through time over them and forms the weight and input gradients as
  whole-sequence GEMMs.
- `linear` is `x @ w + b` over the last axis of an input of rank 2 or more.  It
  keeps one output array (the bias is added in place) and forms the three
  gradients straight from the incoming one, so a wide output such as the
  joint's logits is not copied on the way back.
- `outer_tanh` is the joint's `tanh((a @ wa)[:, None] + (b @ wb)[None] + bias)`
  over [T, U, J]; it keeps only the tanh output and forms `g * (1 - t * t)`
  once in backward.
- `global_encoder.GlobalBlock.forward_batch` is one node per global block for
  the whole batch (pointwise, depthwise, batch-norm, squeeze-excite, dropout
  and residual).  It builds on `batchnorm_normalize`, `batchnorm_backward` and
  `dropout_mask`, which `batchnorm_time` and `dropout` share.

Each fused node's output has the bits of the composition of small ops it
replaces; so do the gradients of all but `lstm`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError, ShapeError, TrainingError

_ids = itertools.count()

# Stands in for the backward closure of a node whose gradient has been propagated.
_SPENT = object()

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
        into `.grad` of every reachable tensor with `requires_grad`.  A node
        propagates once: a later pass that reaches it raises `TrainingError`
        before touching any gradient, since it would add the node's whole
        accumulated gradient to its inputs again.
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
            if t._backward is _SPENT:
                raise TrainingError("backward reached a node an earlier backward propagated")
            nodes[t._id] = t
            stack.extend(t._parents)
        self.accumulate_grad(grad)
        for tid in sorted(nodes, reverse=True):
            t = nodes[tid]
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
                t._backward = _SPENT

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
    if records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def records(parents) -> bool:
    """Whether `from_op` on these parents records a node (and so a backward)."""
    return _grad_enabled and any(p.requires_grad for p in parents)


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


def relu_(a: np.ndarray) -> np.ndarray:
    """ReLU of an array in place with the bits of `np.where(a > 0, a, 0.0)`; returns `a > 0`.

    fmax maps NaN to 0, and adding 0.0 turns a -0.0 into +0.0.
    """
    np.fmax(a, 0.0, out=a)
    a += 0.0
    return a > 0.0


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = x.data.copy()
    mask = relu_(out)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return from_op(out, (x,), backward)


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
        # Only the slice's part of the parent's gradient is touched; values
        # equal those of accumulating a zero-filled full-size buffer.
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[sl] += g

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


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, float(g)))

    return from_op(np.asarray(x.data.sum()), (x,), backward)


def dropout_mask(shape, p: float, training: bool, rng: np.random.Generator | None):
    """The inverted-dropout factors (0 or 1/(1-p)) for `shape`, or None for identity."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ConfigError("dropout in training mode requires an RNG")
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with prob p, scale survivors by 1/(1-p).

    Identity in eval mode and at p == 0 (neither consumes the RNG stream,
    so checkpointed RNG state stays aligned across configurations).
    """
    x = _as_tensor(x)
    keep = dropout_mask(x.shape, p, training, rng)
    if keep is None:
        return x

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * keep)

    return from_op(x.data * keep, (x,), backward)


# ---------------------------------------------------------------------------
# convolutions


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


# Variance floor and running-statistics momentum of every batch-norm.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class RunningStats:
    """Per-channel running mean/variance for batchnorm_time (eval mode)."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)

    def update(self, mean: np.ndarray, var: np.ndarray) -> None:
        self.mean = (1.0 - BN_MOMENTUM) * self.mean + BN_MOMENTUM * mean
        self.var = (1.0 - BN_MOMENTUM) * self.var + BN_MOMENTUM * var


def batchnorm_normalize(x: np.ndarray, stats: RunningStats, training: bool,
                        out: np.ndarray | None = None):
    """`xhat = (x - mean) * inv_std` per channel of [C, T]; returns (xhat, inv_std).

    The statistics are those of `x` in training mode (and are folded into
    `stats`) and the running ones in eval mode.  `out=x` normalizes in place.
    """
    if training:
        mu = x.mean(axis=1)
        var = x.var(axis=1)
        stats.update(mu, var)
    else:
        mu, var = stats.mean, stats.var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = np.subtract(x, mu[:, None], out=out)
    xhat *= inv_std[:, None]
    return xhat, inv_std


def batchnorm_backward(g, xhat, inv_std, gamma, training: bool):
    """Gradients (dx, dgamma, dbeta) of `gamma * xhat + beta` for the output gradient g."""
    dxhat = g * gamma[:, None]
    if training:
        # Batch statistics are functions of x: full normalization grad.
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = inv_std[:, None] * (dxhat - m1 - xhat * m2)
    else:
        dx = dxhat * inv_std[:, None]
    return dx, (g * xhat).sum(axis=1), g.sum(axis=1)


def batchnorm_time(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    training: bool,
) -> Tensor:
    """Normalize each channel of [C, T] over the time axis.

    Training mode uses the statistics of the current input and folds them
    into the running stats.  Eval mode uses the frozen running stats only,
    which keeps inference causal frame by frame.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c, t = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm_time: gamma/beta shapes {gamma.shape}/{beta.shape} != ({c},)")
    xhat, inv_std = batchnorm_normalize(x.data, stats, training)
    out_data = gamma.data[:, None] * xhat + beta.data[:, None]

    def backward(g):
        dx, dgamma, dbeta = batchnorm_backward(g, xhat, inv_std, gamma.data, training)
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)
        if x.requires_grad:
            x.accumulate_grad(dx)

    return from_op(out_data, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# sequence-specific ops


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


def outer_tanh(a: Tensor, wa: Tensor, b: Tensor, wb: Tensor, bias: Tensor) -> Tensor:
    """`tanh(outer_sum(a @ wa, b @ wb) + bias)`: [T, J] and [U, J] rows into [T, U, J].

    One tape node with the bits of those five ops that keeps only the
    [T, U, J] tanh output: the sum, the bias add and the tanh run in place
    in one buffer, and the backward forms `g * (1 - t * t)` once and reduces
    it to the bias, row and weight gradients.
    """
    a, wa, b, wb, bias = (_as_tensor(v) for v in (a, wa, b, wb, bias))
    j = wa.shape[1] if wa.ndim == 2 else -1
    if (a.ndim != 2 or b.ndim != 2 or wa.shape != (a.shape[1], j) or wb.shape != (b.shape[1], j)
            or bias.shape != (j,)):
        raise ShapeError(
            f"outer_tanh: incompatible shapes a {a.shape}, wa {wa.shape}, b {b.shape}, "
            f"wb {wb.shape}, bias {bias.shape}"
        )
    pa = a.data @ wa.data
    pb = b.data @ wb.data
    t = pa[:, None, :] + pb[None, :, :]
    t += bias.data
    np.tanh(t, out=t)

    def backward(g):
        dz = t * t
        np.subtract(1.0, dz, out=dz)
        dz *= g
        if bias.requires_grad:
            bias.accumulate_grad(dz.sum(axis=(0, 1)))
        for x, w, dp in ((a, wa, dz.sum(axis=1)), (b, wb, dz.sum(axis=0))):
            if x.requires_grad:
                x.accumulate_grad(dp @ w.data.T)
            if w.requires_grad:
                w.accumulate_grad(x.data.T @ dp)

    return from_op(t, (a, wa, b, wb, bias), backward)


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

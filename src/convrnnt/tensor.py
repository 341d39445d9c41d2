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

The local encoder and the LSTM stacks carry a batch as packed rows: the
frames of every utterance concatenated in order, N = sum of T_i rows, with
the list of lengths T_i beside them.  The ops that mix frames over time
(`conv2d` and `lstm`) take those lengths, keep each utterance to its own
frames, and treat None as one utterance of all rows; every other op is
per row and needs no lengths.  `split_rows` cuts packed rows back into one
block per utterance for the per-utterance joint and loss.

These ops are fused, each one tape node for a whole batch:

- `conv2d` is a causal 2-D convolution plus bias and ReLU over packed
  [C, N, F] utterances, formed as GEMMs on shifted views of one padded
  buffer.
- `lstm` runs a whole LSTM layer over packed utterances, so the tape does
  not grow with the frame or utterance count.  Its forward steps the
  shared numpy cell `lstm_cell` over the utterances still running at each
  frame and stores every row's gate activations and cell state; its
  backward runs through time over them and forms the weight and input
  gradients as whole-batch GEMMs.
- `linear` is `x @ w + b` over the last axis of an input of rank 2 or more.  It
  keeps one output array (the bias is added in place) and forms the three
  gradients straight from the incoming one, so a wide output such as the
  joint's logits is not copied on the way back.
- `outer_tanh` is the joint's `tanh((a @ wa)[:, None] + (b @ wb)[None] + bias)`
  over [T, U, J]; it keeps only the tanh output and forms `g * (1 - t * t)`
  once in backward.
- `mean` averages the per-utterance losses of a batch.
- `global_encoder.GlobalBlock.forward_batch` is one node per global block for
  the whole batch (pointwise, depthwise, batch-norm, squeeze-excite, dropout
  and residual).  It builds on `batchnorm_normalize`, `batchnorm_backward` and
  `dropout_mask`, which `batchnorm_time` and `dropout` share.

`linear`, `outer_tanh` and `mean` have the bits of the composition of small
ops they replace, gradients included.  The global block has the forward
bits of its composition.  Its gradients, formed over the whole batch at
once, and `conv2d` and `lstm` agree with their per-utterance compositions
in `tests/oracles.py` to rounding: their GEMMs sum in another order.
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


def concat(parts, axis: int = 0) -> Tensor:
    """Join tensors along `axis`; a single part is returned as it is."""
    parts = [_as_tensor(p) for p in parts]
    if len(parts) == 1:
        return parts[0]
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


def _lengths(lengths, n: int, op: str) -> list:
    """Validated utterance lengths of n packed rows; None is one utterance of all n."""
    lengths = [n] if lengths is None else [int(t) for t in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != n:
        raise ShapeError(f"{op}: lengths {lengths} do not split {n} rows into utterances")
    return lengths


def split_rows(x: Tensor, lengths) -> list:
    """The row blocks of packed x [N, ...], one per length; one block is x itself."""
    if len(lengths) == 1:
        return [x]
    ends = np.cumsum(lengths).tolist()
    return [slice_axis(x, 0, end - n, end) for n, end in zip(lengths, ends)]


def place_rows(x: Tensor, rows, n: int) -> Tensor:
    """[n, D] zeros with row `rows[k]` set to x[k]; the gradient is `g[rows]`."""
    x = _as_tensor(x)
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros((n,) + x.shape[1:])
    out[rows] = x.data

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g[rows])

    return from_op(out, (x,), backward)


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


def mean(parts) -> Tensor:
    """Mean of scalar tensors as one node, with the bits of `scale(p0 + p1 + ..., 1/n)`."""
    parts = [_as_tensor(p) for p in parts]
    s = 1.0 / len(parts)
    total = parts[0].data
    for p in parts[1:]:
        total = total + p.data

    def backward(g):
        for p in parts:
            if p.requires_grad:
                p.accumulate_grad(g * s)

    return from_op(total * s, parts, backward)


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


def conv2d(x: Tensor, w: Tensor, bias: Tensor, lengths=None) -> Tensor:
    """ReLU of a causal 2-D convolution plus bias over packed utterances.

    x is [C_in, N, F]: channels, the frames of every utterance concatenated
    in order (N = sum of `lengths`; None is one utterance), and frequency.
    w is [C_out, C_in, kt, kf] with kf odd.  Output frame t of an utterance
    sees its own frames t-kt+1..t, with zeros before its first frame, and
    the frequency axis is zero-padded by (kf-1)/2 on each side, so the
    output is [C_out, N, F].  No utterance reads another's frames.

    One tape node.  The forward copies x into one zeroed buffer
    [C_in, sum(T_i + kt - 1) + 1, F + kf - 1] with kt-1 pad rows before each
    utterance.  Flattened, tap (i, j) of every output position reads the
    buffer at the offset i * (F + kf - 1) + j, so the conv is a sum of GEMMs
    on shifted, row-strided views of it, with no im2col buffer.  The kf
    frequency taps are stacked along the GEMM's inner dimension (kf shifted
    copies of the buffer), which leaves one GEMM per kernel row i; one per
    tap would spend more time adding partial sums than multiplying when
    C_in is small.  Positions on pad rows or pad columns are dropped, then
    the bias is added and ReLU applied in place.  The backward runs the
    same shifted GEMMs transposed, from a gradient that is zero at the
    dropped positions.
    """
    x, w, bias = _as_tensor(x), _as_tensor(w), _as_tensor(bias)
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected 3-D input and 4-D weight, got {x.shape}, {w.shape}")
    c_in, n, f = x.shape
    c_out, c_in_w, kt, kf = w.shape
    if c_in_w != c_in or kf % 2 != 1 or bias.shape != (c_out,):
        raise ShapeError(
            f"conv2d: incompatible shapes x {x.shape}, w {w.shape}, bias {bias.shape} "
            "(the frequency kernel must be odd)"
        )
    lengths = _lengths(lengths, n, "conv2d")
    pad, pf, fp = kt - 1, (kf - 1) // 2, f + kf - 1
    # Output row r of utterance k sits at base row r + k * pad; its input
    # frame sits pad rows further down.
    base_rows = np.arange(n) + pad * np.repeat(np.arange(len(lengths)), lengths)
    n_base = n + pad * (len(lengths) - 1)
    m = n_base * fp
    span = m + pad * fp
    buf = np.zeros((c_in, n_base + kt, fp))
    buf[:, base_rows + pad, pf:pf + f] = x.data
    flat = buf.reshape(c_in, -1)
    # stack[j * C_in + c, p] = flat[c, p + j]; the trailing buffer row keeps
    # the last shifted copy in bounds.
    stack = np.empty((kf, c_in, span))
    for j in range(kf):
        stack[j] = flat[:, j:j + span]
    stack = stack.reshape(kf * c_in, span)
    del buf, flat
    w_rows = np.ascontiguousarray(w.data.transpose(2, 0, 3, 1)).reshape(kt, c_out, kf * c_in)

    acc = np.empty((c_out, m))
    tmp = np.empty_like(acc)
    for i in range(kt):
        np.matmul(w_rows[i], stack[:, i * fp:i * fp + m], out=tmp if i else acc)
        if i:
            acc += tmp
    del tmp
    out = acc.reshape(c_out, n_base, fp)[:, base_rows, :f]
    del acc
    out += bias.data[:, None, None]
    mask = relu_(out)

    def backward(g):
        g = g * mask
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)))
        g_base = np.zeros((c_out, n_base, fp))
        g_base[:, base_rows, :f] = g
        g_flat = g_base.reshape(c_out, m)
        if w.requires_grad:
            gw = np.empty((kt, c_out, kf * c_in))
            for i in range(kt):
                np.matmul(g_flat, stack[:, i * fp:i * fp + m].T, out=gw[i])
            w.accumulate_grad(gw.reshape(kt, c_out, kf, c_in).transpose(1, 3, 0, 2))
        if x.requires_grad:
            g_stack = np.zeros_like(stack)
            back = np.empty((kf * c_in, m))
            for i in range(kt):
                np.matmul(w_rows[i].T, g_flat, out=back)
                g_stack[:, i * fp:i * fp + m] += back
            del back
            g_stack = g_stack.reshape(kf, c_in, span)
            g_buf = np.zeros((c_in, n_base + kt, fp))
            g_buf_flat = g_buf.reshape(c_in, -1)
            for j in range(kf):
                g_buf_flat[:, j:j + span] += g_stack[j]
            x.accumulate_grad(g_buf[:, base_rows + pad, pf:pf + f])

    return from_op(out, (x, w, bias), backward)


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


def lstm(x: Tensor, w: Tensor, u: Tensor, b: Tensor, lengths=None) -> Tensor:
    """Hidden states [N, H] of one LSTM layer over packed utterances x [N, n_in].

    The rows of x are the frames of every utterance concatenated in order
    (N = sum of `lengths`; None is one utterance), and each utterance starts
    from a zero state.  One tape node for the whole batch.  The forward makes
    one `x @ w + b` GEMM over all N rows, in a time-major order with the
    utterances sorted longest first: the b_t utterances still running at
    frame t are the first b_t, so each frame steps `lstm_cell` on one block
    of rows with no mask.  It keeps each row's gate activations and cell
    state.  The backward runs through time over the same blocks, then forms
    the gradients of x, w, u and b as whole-batch GEMMs.
    """
    x, w, u, b = (_as_tensor(v) for v in (x, w, u, b))
    hid = u.shape[0]
    if (x.ndim != 2 or w.shape != (x.shape[1], 4 * hid) or u.shape != (hid, 4 * hid)
            or b.shape != (4 * hid,)):
        raise ShapeError(
            f"lstm: incompatible shapes x {x.shape}, w {w.shape}, u {u.shape}, b {b.shape}"
        )
    n = x.shape[0]
    lengths = np.asarray(_lengths(lengths, n, "lstm"))
    # sizes[t] utterances run at frame t; their rows form the block
    # offs[t]:offs[t + 1] of the time-major order, longest utterance first.
    order = np.argsort(-lengths, kind="stable")
    sizes = len(lengths) - np.cumsum(np.bincount(lengths))[:lengths.max()]
    offs = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    frame = np.repeat(np.arange(sizes.size), sizes)
    slot = np.arange(n) - np.repeat(offs[:-1], sizes)
    perm = (np.cumsum(lengths) - lengths)[order][slot] + frame  # time-major row -> packed row
    blocks = list(zip(offs[:-1], sizes.tolist()))

    x_tm = x.data[perm]
    # Row r holds its input projection until the step overwrites it with
    # that frame's gate activations.
    gates = x_tm @ w.data + b.data
    hs = np.empty((n, hid))
    cs = np.empty((n, hid))
    h = c = np.zeros((sizes[0], hid))
    for a, bt in blocks:
        h, c, gates[a:a + bt] = lstm_cell(gates[a:a + bt], h[:bt], c[:bt], u.data)
        hs[a:a + bt], cs[a:a + bt] = h, c
    out = np.empty_like(hs)
    out[perm] = hs

    def backward(g):
        g = g[perm]
        i, f, cand, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
        tc = np.tanh(cs)
        # The rows of frames t > 0 and, row for row, their frame t-1 rows.
        later = np.arange(sizes[0], n)
        prev = later - np.repeat(sizes[:-1], sizes[1:])
        c_prev = np.zeros_like(cs)
        c_prev[later] = cs[prev]
        # ds = dL/d(pre-activations); per gate block it is dc (i, f, g) or dh
        # (o) times a factor that does not depend on the recurrence.
        factor = np.concatenate(
            [cand * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - cand * cand),
             tc * o * (1.0 - o)], axis=1,
        ).reshape(n, 4, hid)
        dc_dh = o * (1.0 - tc * tc)
        ds = np.empty((n, 4, hid))
        u_t = u.data.T
        dh_next = np.zeros((sizes[0], hid))
        dc_next = np.zeros((sizes[0], hid))
        for a, bt in reversed(blocks):
            blk = slice(a, a + bt)
            dh = g[blk] + dh_next[:bt]
            dc = dc_next[:bt] + dh * dc_dh[blk]
            ds[blk, :3] = dc[:, None, :] * factor[blk, :3]
            ds[blk, 3] = dh * factor[blk, 3]
            dc_next[:bt] = dc * f[blk]
            dh_next[:bt] = ds[blk].reshape(bt, 4 * hid) @ u_t
        ds = ds.reshape(n, 4 * hid)
        if x.requires_grad:
            gx = np.empty_like(x.data)
            gx[perm] = ds @ w.data.T
            x.accumulate_grad(gx)
        if w.requires_grad:
            w.accumulate_grad(x_tm.T @ ds)
        if u.requires_grad:
            u.accumulate_grad(hs[prev].T @ ds[later])
        if b.requires_grad:
            b.accumulate_grad(ds.sum(axis=0))

    return from_op(out, (x, w, u, b), backward)

"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every value flowing through the model is a `Tensor` wrapping a row-major
numpy float64 array.  Operations record their inputs and a backward closure
on a dynamic tape (the graph is rebuilt on every forward pass, so variable
sequence lengths need no special handling).  `Tensor.backward()` walks the
reachable tape once, in reverse creation order, which is a valid topological
order because inputs are always created before their consumers.  Each node
propagates its gradient once: a second backward that reaches it raises
`TrainingError` (sum several outputs into one scalar to seed them together).
The pass unlinks each node as it propagates, dropping its parents and
its closure, so an intermediate that only the tape holds (the joint's
logits, say) is freed during the pass rather than when it ends.  `conv2d`,
`lstm`, `linear`, `outer_tanh` and `rnnt_loss` hand the input gradients
their backward allocates over with `Tensor.adopt_grad` instead of copying
them.

Only the operations the model runs are provided, which keeps every gradient
rule short enough to audit by eye.  The per-op reference autodiff they are
checked against (`matmul`, `add`, `mul`, `scale`, `relu`, `sigmoid`, `tanh`,
`sum_all`, `slice_axis`, `batchnorm_time`, `outer_sum`) lives with the test
oracles in `tests/oracles.py`.  Batch-norm uses the fixed `BN_EPS` and `BN_MOMENTUM`.

The local and global encoders and the LSTM stacks carry a batch as packed
rows: the frames of every utterance concatenated in order, N = sum of T_i
rows, with the list of lengths T_i beside them.  The ops that mix frames
over time (`conv2d` and `lstm`) require those lengths (one utterance is
`[n]`) and keep each utterance to its own frames.  `linear` and
`outer_tanh` take lengths for the joint, whose batch runs packed too, only
to keep each utterance's GEMMs and sums on its own rows: a GEMM's bits
depend on how its rows are grouped.  Every other op is per row and needs
no lengths; no op cuts packed rows apart.  `dropout` is the identity
without a generator, as in eval and streaming.

These ops are fused, each one tape node for a whole batch:

- `conv2d` is a causal 2-D convolution plus bias and ReLU over packed
  [C, N, F] utterances, formed as GEMMs on shifted views of a zero-padded
  window.  It runs over blocks of consecutive frames whose working set stays
  under CONV_BLOCK_BYTES, so its memory above input and output does not grow
  with N; its backward rebuilds each block's window from the input.
- `lstm` runs a whole LSTM layer over packed utterances, so the tape does
  not grow with the frame or utterance count.  Its forward steps the
  shared numpy cell `lstm_cell` over the utterances still running at each
  frame and stores every row's gate activations and cell state; its
  backward runs through time over them and forms the weight and input
  gradients as whole-batch GEMMs.
- `linear` is `x @ w + b` over the last axis of an input of rank 2 or more.  It
  keeps one output array (the bias is added in place) and forms the three
  gradients straight from the incoming one, so a wide output such as the
  joint's logits is not copied on the way back; its backward keeps the
  output's shape, not the output.
- `outer_tanh` is the joint's `tanh((a @ wa)[:, None] + (b @ wb)[None] + bias)`
  over [T, U, J], or over the packed cells of a batch; it keeps only the
  tanh output and forms `g * (1 - t * t)` once in backward.
- `global_encoder.GlobalEncoder.forward_batch` is one node for all the
  global blocks and the whole batch (pointwise, depthwise, batch-norm,
  squeeze-excite, dropout and residual).  Its blocks build on
  `batchnorm_normalize` and `batchnorm_backward`, which the reference
  `batchnorm_time` shares, and on `dropout_mask`, which `dropout` shares.

`linear` and `outer_tanh` have the bits of the composition of the
reference ops they replace, gradients included.  With lengths, each
utterance keeps those bits.  The global block has the
forward bits of its composition.  Its gradients, formed over the whole batch at
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

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # The same bits and layout as zeros + g (adding 0.0 turns -0.0
            # into +0.0), without first filling a buffer with zeros.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def adopt_grad(self, g: np.ndarray) -> None:
        """`accumulate_grad` for an array the caller has just allocated and
        will not touch again: a first gradient becomes g itself, after
        `g += 0.0` in place, instead of a copy.  Never pass a view of another
        gradient or of data.  A g laid out unlike `data` is copied as before,
        so later reductions over `.grad` sum in the same order.
        """
        if self.grad is None and g.strides == self.data.strides and g.shape == self.data.shape:
            g += 0.0
            self.grad = g
        else:
            self.accumulate_grad(g)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad=None) -> None:
        """Reverse-mode pass seeding this tensor's gradient.

        Defaults to ones (the usual scalar-loss case).  Gradients accumulate
        into `.grad` of every reachable tensor with `requires_grad`.  A node
        propagates once: a later pass that reaches it raises `TrainingError`
        before touching any gradient, since it would add the node's whole
        accumulated gradient to its inputs again.

        The pass unlinks each node as it propagates: the node is marked spent
        and drops its parents and backward closure before the closure runs.
        So an intermediate that only the tape holds is freed, with its data,
        its gradient and whatever its closure kept, as soon as its own
        gradient has reached its inputs; a tensor the caller holds keeps its
        `.grad`.  A closure that raises leaves its node spent, so a graph
        whose pass failed half way cannot be propagated again.
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
            t = nodes.pop(tid)
            step, g = t._backward, t.grad
            if step is None or g is None:
                continue
            # Unlinked before the call: once `t` is dropped nothing but the
            # closure keeps its data, and nothing but `g` its gradient.
            t._backward, t._parents = _SPENT, ()
            del t
            step(g)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def from_op(data: np.ndarray, parents, backward) -> Tensor:
    """Create a tape node.  `backward(g)` must accumulate into the parents.

    The node only records its provenance when grad mode is on and some
    parent requires grad; otherwise it is a plain constant tensor.  That is
    all grad mode changes: an op computes the same arrays either way.
    """
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# linear algebra


def linear(x: Tensor, w: Tensor, b: Tensor, lengths=None) -> Tensor:
    """`x @ w + b` over the last axis of x [..., n_in], with w [n_in, n_out].

    One tape node with the bits of `add(matmul(x2d, w), b)`, composed of the
    reference ops in `tests/oracles.py`: the forward adds the bias in place
    into the GEMM output, and the backward forms `g @ w.T`, `x.T @ g` and the
    bias sum from the incoming gradient rows.  With `lengths`, the row counts
    of the utterances whose rows x2d packs, every GEMM and the bias sum run on
    one utterance's rows at a time, and the weight and bias gradients add up
    last utterance first: each utterance keeps the bits of a call on its rows
    alone, and the parameters those of one such call per utterance, made in
    order.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: incompatible shapes x {x.shape}, w {w.shape}, b {b.shape}")
    x2d = x.data.reshape(-1, w.shape[0])
    spans = _spans(lengths, x2d.shape[0], "linear")
    out = np.empty((x2d.shape[0], w.shape[1]))
    for a, e in spans:
        np.matmul(x2d[a:e], w.data, out=out[a:e])
    out += b.data
    # The backward keeps the shape, not the output (the joint's logits).
    shape2d = out.shape

    def backward(g):
        g2d = g.reshape(shape2d)
        if x.requires_grad:
            gx = np.empty(x2d.shape)
            for a, e in spans:
                np.matmul(g2d[a:e], w.data.T, out=gx[a:e])
            x.adopt_grad(gx.reshape(x.shape))
        for a, e in reversed(spans):
            if w.requires_grad:
                w.adopt_grad(x2d[a:e].T @ g2d[a:e])
            if b.requires_grad:
                b.accumulate_grad(g2d[a:e].sum(axis=0))

    return from_op(out.reshape(x.shape[:-1] + (w.shape[1],)), (x, w, b), backward)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu_(a: np.ndarray) -> np.ndarray:
    """ReLU of an array in place with the bits of `np.where(a > 0, a, 0.0)`; returns `a > 0`.

    fmax maps NaN to 0, and adding 0.0 turns a -0.0 into +0.0.
    """
    np.fmax(a, 0.0, out=a)
    a += 0.0
    return a > 0.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    # overflows; one exp over -|z| serves both halves without masks.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid(x.data)
    out_data = x.data * s

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (s + out_data * (1.0 - s)))

    return from_op(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.data.shape))

    return from_op(x.data.reshape(shape), (x,), backward)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.transpose(inv))

    return from_op(np.ascontiguousarray(x.data.transpose(axes)), (x,), backward)


def concat(parts, axis: int = 0) -> Tensor:
    """Join tensors along `axis`; a single part is returned as it is."""
    parts = list(parts)
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


def _lengths(lengths, n: int, op: str) -> list:
    """Validated utterance lengths of n packed rows."""
    lengths = [int(t) for t in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != n:
        raise ShapeError(f"{op}: lengths {lengths} do not split {n} rows into utterances")
    return lengths


def _spans(lengths, n: int, op: str) -> list:
    """The (start, stop) rows of each utterance of n packed rows; None is one of all n."""
    if lengths is None:
        return [(0, n)]
    ends = np.cumsum(_lengths(lengths, n, op)).tolist()
    return list(zip([0] + ends[:-1], ends))


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup (embedding); an id of -1 gives a zero row.  The gradient
    scatter-adds into the table; the -1 rows' gradient goes nowhere."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = ids >= 0
    out = np.zeros(ids.shape + table.shape[1:])
    out[rows] = table.data[ids[rows]]

    def backward(g):
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, ids[rows], g[rows])
            table.accumulate_grad(buf)

    return from_op(out, (table,), backward)


# ---------------------------------------------------------------------------
# dropout and normalizations


def dropout_mask(shape, p: float, rng: np.random.Generator | None):
    """The inverted-dropout factors (0 or 1/(1-p)) for `shape`, or None for identity."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return None
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with prob p, scale survivors by 1/(1-p).

    Identity without a generator (eval) and at p == 0: neither draws from
    it, so checkpointed RNG state stays aligned across configurations.
    """
    keep = dropout_mask(x.shape, p, rng)
    if keep is None:
        return x

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * keep)

    return from_op(x.data * keep, (x,), backward)


# ---------------------------------------------------------------------------
# convolutions


# Bytes one conv2d block may hold in either pass (see conv2d).  At paper
# width that is 25 to 141 frames a block; 8 and 32 MiB ran the paper-width
# convs slower on a 2-vCPU OpenBLAS host.
CONV_BLOCK_BYTES = 16 << 20


def _conv_block_rows(c_in: int, c_out: int, kt: int, kf: int, fp: int) -> int:
    """Base rows per conv2d block: as many as keep the larger pass's working
    set under CONV_BLOCK_BYTES (at least one).  Per base row the forward holds
    the padded window, the kf-shifted stack and two accumulators, the backward
    the stack (or its gradient), one row GEMM's product and the output
    gradient; the window and the stack reach up to kt rows past the block."""
    per_row = max(c_in * (1 + kf) + 2 * c_out, 2 * kf * c_in + c_out) * fp * 8
    reach = kt * (1 + kf) * c_in * fp * 8
    return max(1, (CONV_BLOCK_BYTES - reach) // per_row)


def _conv_blocks(base: np.ndarray, n_base: int, rows: int, pad: int) -> list:
    """Blocks of `rows` consecutive base rows.  Per block: its row count, the
    input rows its outputs read (a slice of x) with their rows in its window,
    and the output rows it writes (a slice of the output) with their rows in
    its accumulator.  `base` holds the base row of every output row."""
    blocks = []
    for b0 in range(0, n_base, rows):
        b1 = min(b0 + rows, n_base)
        xa, ya, xb = np.searchsorted(base, (b0 - pad, b0, b1)).tolist()
        blocks.append((b1 - b0, slice(xa, xb), base[xa:xb] - (b0 - pad),
                       slice(ya, xb), base[ya:xb] - b0))
    return blocks


def _tap_stack(x: np.ndarray, xs: slice, win_rows: np.ndarray, rows: int, kt: int, kf: int):
    """The kf-shifted stack [kf * C_in, (rows + kt - 1) * fp] of one block.

    Rows x[:, xs] go into a zeroed [C_in, rows + kt, fp] window at `win_rows`,
    frequency offset (kf-1)/2; then stack[j * C_in + c, p] = window_flat[c, p + j].
    The window's last row keeps the last shifted copy in bounds.
    """
    c_in, _, f = x.shape
    pf, fp = (kf - 1) // 2, f + kf - 1
    span = (rows + kt - 1) * fp
    win = np.zeros((c_in, rows + kt, fp))
    win[:, win_rows, pf:pf + f] = x[:, xs]
    flat = win.reshape(c_in, -1)
    stack = np.empty((kf, c_in, span))
    for j in range(kf):
        stack[j] = flat[:, j:j + span]
    return stack.reshape(kf * c_in, span)


def conv2d(x: Tensor, w: Tensor, bias: Tensor, lengths) -> Tensor:
    """ReLU of a causal 2-D convolution plus bias over packed utterances.

    x is [C_in, N, F]: channels, the frames of every utterance concatenated
    in order (N = sum of `lengths`), and frequency.
    w is [C_out, C_in, kt, kf] with kf odd.  Output frame t of an utterance
    sees its own frames t-kt+1..t, with zeros before its first frame, and
    the frequency axis is zero-padded by (kf-1)/2 on each side, so the
    output is [C_out, N, F].  No utterance reads another's frames.

    One tape node.  The rows are laid out as "base rows": every utterance
    preceded by kt-1 zero pad rows, sum(T_i + kt - 1) rows in all, each
    zero-padded to F + kf - 1 columns.  Flattened, tap (i, j) of every output
    position reads that layout at the offset i * (F + kf - 1) + j, so the conv
    is a sum of GEMMs on shifted, row-strided views, with no im2col buffer.
    The kf frequency taps are stacked along the GEMM's inner dimension (kf
    shifted copies), which leaves one GEMM per kernel row i; one per tap
    would spend more time adding partial sums than multiplying when C_in is
    small.

    The base rows run in blocks of consecutive rows (the partitioned lowering
    of MEC, Cho & Brand, arXiv:1706.06873), so the working set is one block's
    padded window, shifted stack and accumulators, under CONV_BLOCK_BYTES
    whatever N is; a desk-sized call is one block.  Each block's outputs,
    minus those on pad rows or pad columns, go straight into the output,
    where the bias is added and ReLU applied in place.  The forward keeps no
    stack or padded copy: the backward rebuilds each block's stack from x
    (Chen et al., arXiv:1604.06174), runs the same shifted GEMMs transposed
    from a gradient that is zero at the dropped positions, and adds each
    block's input gradient into one input-sized buffer.
    """
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
    # frame is read by the tap i = pad of that base row.
    base = np.arange(n) + pad * np.repeat(np.arange(len(lengths)), lengths)
    blocks = _conv_blocks(base, n + pad * (len(lengths) - 1),
                          _conv_block_rows(c_in, c_out, kt, kf, fp), pad)
    w_rows = np.ascontiguousarray(w.data.transpose(2, 0, 3, 1)).reshape(kt, c_out, kf * c_in)

    # Frame-major memory: each block's output rows are one contiguous span.
    out = np.empty((n, c_out, f)).transpose(1, 0, 2)
    for rows, xs, win_rows, ys, acc_rows in blocks:
        stack = _tap_stack(x.data, xs, win_rows, rows, kt, kf)
        m = rows * fp
        acc = np.empty((c_out, m))
        tmp = np.empty_like(acc)
        for i in range(kt):
            np.matmul(w_rows[i], stack[:, i * fp:i * fp + m], out=tmp if i else acc)
            if i:
                acc += tmp
        del stack, tmp
        block = out[:, ys]
        block[...] = acc.reshape(c_out, rows, fp)[:, acc_rows, :f]
        del acc
        block += bias.data[:, None, None]
        relu_(block)
    # relu_ leaves out > 0 exactly where its input was > 0.
    mask = out > 0.0

    def backward(g):
        g = g * mask
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)))
        gw = np.zeros((kt, c_out, kf * c_in)) if w.requires_grad else None
        gx = np.zeros_like(x.data) if x.requires_grad else None
        for rows, xs, win_rows, ys, acc_rows in blocks:
            m, span = rows * fp, (rows + pad) * fp
            g_flat = np.zeros((c_out, rows, fp))
            g_flat[:, acc_rows, :f] = g[:, ys]
            g_flat = g_flat.reshape(c_out, m)
            if gw is not None:
                stack = _tap_stack(x.data, xs, win_rows, rows, kt, kf)
                for i in range(kt):
                    gw[i] += g_flat @ stack[:, i * fp:i * fp + m].T
                del stack
            if gx is not None:
                g_stack = np.zeros((kf * c_in, span))
                for i in range(kt):
                    g_stack[:, i * fp:i * fp + m] += w_rows[i].T @ g_flat
                g_stack = g_stack.reshape(kf, c_in, span)
                g_win = np.zeros((c_in, rows + kt, fp))
                g_win_flat = g_win.reshape(c_in, -1)
                for j in range(kf):
                    g_win_flat[:, j:j + span] += g_stack[j]
                del g_stack
                gx[:, xs] += g_win[:, win_rows, pf:pf + f]
        if gw is not None:
            w.accumulate_grad(gw.reshape(kt, c_out, kf, c_in).transpose(1, 3, 0, 2))
        if gx is not None:
            x.adopt_grad(gx)

    return from_op(out, (x, w, bias), backward)


# ---------------------------------------------------------------------------
# batch normalization over the time axis


# Variance floor and running-statistics momentum of every batch-norm.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class RunningStats:
    """Per-channel running mean/variance of a batch-norm (used in eval mode)."""

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


# ---------------------------------------------------------------------------
# sequence-specific ops


def outer_tanh(a: Tensor, wa: Tensor, b: Tensor, wb: Tensor, bias: Tensor, lengths=None) -> Tensor:
    """`tanh(outer_sum(a @ wa, b @ wb) + bias)`: [T, J] and [U, J] rows into [T, U, J].

    One tape node with the bits of those five reference ops (in
    `tests/oracles.py`) that keeps only the tanh output: the sum, the bias
    add and the tanh run in place in one buffer, and the backward forms
    `g * (1 - t * t)` once and reduces it to the bias, row and weight
    gradients.

    With `lengths`, a pair of row-count lists (T_i) and (U_i), a and b pack
    the rows of several utterances, and the output packs their cells as
    [sum T_i U_i, J]: utterance i's T_i x U_i cells in (t, u) row-major order
    follow those of the utterances before it.  The bias add, the tanh and
    `g * (1 - t * t)` run once over all cells.  The GEMMs, the outer sums and
    the reductions run per utterance on views, and the parameter gradients
    add up last utterance first, so each utterance has the bits of a call on
    its rows alone.
    """
    j = wa.shape[1] if wa.ndim == 2 else -1
    if (a.ndim != 2 or b.ndim != 2 or wa.shape != (a.shape[1], j) or wb.shape != (b.shape[1], j)
            or bias.shape != (j,)):
        raise ShapeError(
            f"outer_tanh: incompatible shapes a {a.shape}, wa {wa.shape}, b {b.shape}, "
            f"wb {wb.shape}, bias {bias.shape}"
        )
    a_lengths, b_lengths = (None, None) if lengths is None else lengths
    a_spans = _spans(a_lengths, a.shape[0], "outer_tanh")
    b_spans = _spans(b_lengths, b.shape[0], "outer_tanh")
    if len(a_spans) != len(b_spans):
        raise ShapeError(f"outer_tanh: {len(a_spans)} utterances of a rows, {len(b_spans)} of b rows")
    cells = [(a1 - a0) * (b1 - b0) for (a0, a1), (b0, b1) in zip(a_spans, b_spans)]
    # Per utterance: its a rows, its b rows and its [T_i, U_i, J] view of the cells.
    groups = list(zip(a_spans, b_spans, _spans(cells, sum(cells), "outer_tanh")))
    pa = np.empty((a.shape[0], j))
    pb = np.empty((b.shape[0], j))
    t = np.empty((sum(cells), j))
    for (a0, a1), (b0, b1), (c0, c1) in groups:
        np.matmul(a.data[a0:a1], wa.data, out=pa[a0:a1])
        np.matmul(b.data[b0:b1], wb.data, out=pb[b0:b1])
        np.add(pa[a0:a1, None, :], pb[None, b0:b1, :], out=t[c0:c1].reshape(a1 - a0, b1 - b0, j))
    t += bias.data
    np.tanh(t, out=t)

    def backward(g):
        dz = t * t
        np.subtract(1.0, dz, out=dz)
        dz *= g.reshape(dz.shape)
        ga = np.empty(a.shape) if a.requires_grad else None
        gb = np.empty(b.shape) if b.requires_grad else None
        for (a0, a1), (b0, b1), (c0, c1) in reversed(groups):
            d = dz[c0:c1].reshape(a1 - a0, b1 - b0, j)
            if bias.requires_grad:
                bias.accumulate_grad(d.sum(axis=(0, 1)))
            for x, w, dp, gx, r0, r1 in ((a, wa, d.sum(axis=1), ga, a0, a1),
                                         (b, wb, d.sum(axis=0), gb, b0, b1)):
                if gx is not None:
                    np.matmul(dp, w.data.T, out=gx[r0:r1])
                if w.requires_grad:
                    w.adopt_grad(x.data[r0:r1].T @ dp)
        for x, gx in ((a, ga), (b, gb)):
            if gx is not None:
                x.adopt_grad(gx)

    out = t if lengths is not None else t.reshape(a.shape[0], b.shape[0], j)
    return from_op(out, (a, wa, b, wb, bias), backward)


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


def lstm(x: Tensor, w: Tensor, u: Tensor, b: Tensor, lengths) -> Tensor:
    """Hidden states [N, H] of one LSTM layer over packed utterances x [N, n_in].

    The rows of x are the frames of every utterance concatenated in order
    (N = sum of `lengths`), and each utterance starts from a zero state.
    One tape node for the whole batch.  The forward makes
    one `x @ w + b` GEMM over all N rows, in a time-major order with the
    utterances sorted longest first: the b_t utterances still running at
    frame t are the first b_t, so each frame steps `lstm_cell` on one block
    of rows with no mask.  It keeps each row's gate activations and cell
    state.  The backward runs through time over the same blocks, then forms
    the gradients of x, w, u and b as whole-batch GEMMs.
    """
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
            x.adopt_grad(gx)
        if w.requires_grad:
            w.accumulate_grad(x_tm.T @ ds)
        if u.requires_grad:
            u.accumulate_grad(hs[prev].T @ ds[later])
        if b.requires_grad:
            b.accumulate_grad(ds.sum(axis=0))

    return from_op(out, (x, w, u, b), backward)

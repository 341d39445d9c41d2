"""Dense tensors with tape-based reverse-mode automatic differentiation.

Every value flowing through the model is a `Tensor` wrapping a row-major
numpy array: float64, or float32 when it is handed a float32 array and
requires no gradient.  The tape and training are float64: `from_op` refuses
to record a node of any other dtype.  The encoder ops (`linear`, `conv2d`,
`lstm`, `swish` and the global block over them) also run in float32 for
inference, as do `gather_rows` and `joint` under `no_grad`: each allocates
in its input's dtype and expects its weights, biases and running statistics
in that dtype too, as a model holds them (`model.TransducerModel`), so no op
casts a weight.  `from_op` refuses a node any of whose inputs is in another
dtype than its output.

Operations record their inputs and a backward closure on a dynamic tape
(the graph is rebuilt on every forward pass, so variable sequence lengths
need no special handling).  `Tensor.backward()` walks the reachable tape
once, in reverse creation order, which is a valid topological order
because inputs are always created before their consumers.  Each node
propagates its gradient once: a second backward that reaches it raises
`TrainingError` (sum several outputs into one scalar to seed them together).
The pass unlinks each node as it propagates, dropping its parents and
its closure, so an intermediate that only the tape holds (the joint's
logits, say) is freed during the pass rather than when it ends.  `conv2d`,
`lstm`, `linear`, `joint` and `rnnt_loss` hand the input gradients
their backward allocates over with `Tensor.adopt_grad` instead of copying
them.  `rnnt_loss` hands over its input's own buffer too: when `tape_only`
reads from reference counts (as NumPy's temporary elision does) that only
the tape holds the logits and their buffer, it forms their gradient over
them and adopts that.

What a node keeps: its output, and of the arrays its backward reads only
those it cannot form again exactly.  An array the backward can rebuild from
what the node keeps anyway, by the same float ops in the same order as the
forward, it rebuilds (Chen et al., arXiv:1604.06174), so the rebuilt array
and every gradient keep their bits.  `swish` keeps no sigmoid; `conv2d`
neither its ReLU mask (`out > 0.0`, since `relu_` leaves exactly the positive
inputs positive) nor its reordered weights; `lstm` neither its time-major
input rows nor its hidden states, which it gathers from x and its output; the
global block not its batch-norms' affine outputs, which it forms again from
the normalized rows.  A dropout keeps its boolean draw and forms the 0 or
1/(1-p) factors where it applies them, forward and backward.  A backward
runs once, so it may spend what its node keeps: `lstm` and `joint` form
their pre-activation gradients in the gate and tanh rows they keep.

Only the operations the model runs are provided, which keeps every gradient
rule short enough to audit by eye.  The per-op reference autodiff they are
checked against (`matmul`, `add`, `mul`, `scale`, `relu`, `sigmoid`, `tanh`,
`sum_all`, `slice_axis`, `batchnorm_time`, `outer_sum`) lives with the test
oracles in `tests/oracles.py`.

The local and global encoders and the LSTM stacks carry a batch as packed
rows: the frames of every utterance concatenated in order, N = sum of T_i
rows, with the list of lengths T_i beside them.  The ops that mix frames
over time (`conv2d` and `lstm`) require those lengths (one utterance is
`[n]`) and keep each utterance to its own frames.  `joint`, whose batch
runs packed too, takes lengths only to keep each utterance's GEMMs and sums
on its own rows: a GEMM's bits depend on how its rows are grouped.  Every
other op is per row and needs no lengths; no op cuts packed rows apart.
`dropout` is the identity without a generator, as in eval and streaming.

These ops are fused, each one tape node for a whole batch:

- `conv2d` is a causal 2-D convolution plus bias and ReLU over packed
  [C, N, F] utterances, formed as GEMMs on shifted views of a zero-padded
  window.  It runs over blocks of consecutive frames whose working set stays
  under CONV_BLOCK_BYTES, so its memory above input and output does not grow
  with N; its backward rebuilds each block's window from the input.
- `lstm` runs a whole LSTM layer over packed utterances, so the tape does
  not grow with the frame or utterance count.  Its forward steps the
  shared numpy cell `lstm_cell` in place over the utterances still running
  at each frame: `h @ u` goes into one reused buffer, and the gate
  activations and new states land in preallocated rows (the gates and cell
  states the op keeps for its backward), so a frame step allocates no
  frame-sized array.  The backward runs through time over them and forms
  the weight and input gradients as whole-batch GEMMs.
- `linear` is `x @ w + b` over rows.  It keeps one output array (the bias is
  added in place) and forms the three gradients straight from the incoming
  one.
- `joint` is the transducer's `tanh((a @ wa)[:, None] + (b @ wb)[None] + bias)
  @ w + bw` over [T, U, V], or over the packed cells of a batch.  It keeps
  the tanh output, not the logits.  Once the output layer's gradients are
  formed, its backward turns the tanh rows into their own gradient in
  place, `(1 - t * t) * (g @ w.T)`, over row blocks of BLOCK_BYTES, so its
  memory above the tanh rows is the output weight gradient and one block.
- `global_encoder.GlobalEncoder.forward_batch` is one node for all the
  global blocks and the whole batch (pointwise, depthwise, batch-norm,
  squeeze-excite, dropout and residual).  Its blocks build on
  `dropout_mask`, which `dropout` shares.

`BLOCK_BYTES` is the one block budget of the row-blocked passes, the
joint's backward and the loss's normaliser and gradient passes, and
`row_blocks` their one block rule: nearly equal blocks of consecutive rows.

`linear` and `joint` have the bits of the composition of the
reference ops they replace, gradients included.  With lengths, each
utterance keeps those bits.  The global block has the
forward bits of its composition, and `lstm` those of a frame loop over the
allocating reference cell in `tests/oracles.py`.  The global block's
gradients, formed over the whole batch at once, and `conv2d` and `lstm`
agree with their per-utterance compositions in `tests/oracles.py` to
rounding: their GEMMs sum in another order.
"""

from __future__ import annotations

import itertools
import sys

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
        data = np.asarray(data)
        # A leaf that requires grad is float64, as every tape node is.
        if data.dtype != np.float64 and (data.dtype != np.float32 or requires_grad):
            data = data.astype(np.float64)
        self.data = data
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
        gradient, or of data unless `tape_only` said that data is dead.  A g
        laid out unlike `data` is copied as before, so later reductions over
        `.grad` sum in the same order.
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


def records(parents) -> bool:
    """Whether an op over `parents` records a tape node: grad mode is on and
    some parent requires grad.  An op whose node will not record can drop
    what only its backward would read as soon as it is done with it."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def from_op(data: np.ndarray, parents, backward) -> Tensor:
    """Create a tape node.  `backward(g)` must accumulate into the parents.

    The node only records its provenance when `records(parents)`;
    otherwise it is a plain constant tensor.  That is all grad mode
    changes: an op computes the same arrays either way.  Every parent must
    hold the output's dtype (`ShapeError` otherwise, in either mode), so an
    op handed mixed dtypes fails instead of computing in NumPy's promoted
    one.  A node to record must be float64 (`TrainingError` otherwise):
    gradients and the optimizer are float64 only.
    """
    out = Tensor(data)
    for p in parents:
        if p.data.dtype != out.data.dtype:
            raise ShapeError(f"an op over a {p.data.dtype} input gave a {out.data.dtype} "
                             "output: its inputs and weights must share one dtype")
    if records(parents):
        if out.data.dtype != np.float64:
            raise TrainingError(f"the tape records float64 nodes only, got {out.data.dtype}")
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _bare_refs(arg):
    local = object()
    return sys.getrefcount(arg), sys.getrefcount(local)


# What `sys.getrefcount` reads inside a function for an object that nothing
# else holds, passed in as its argument and bound to its local: the calls
# and stack references behind them differ between CPython versions.  Other
# interpreters, and free-threaded CPython, leave `tape_only` no exact count.
_BARE_REFS = (sys.implementation.name == "cpython"
              and getattr(sys, "_is_gil_enabled", lambda: True)()
              and _bare_refs(object()))


def tape_only(t: Tensor) -> bool:
    """Whether only the tape holds the non-leaf t and its data buffer.

    For the backward closure of t's one consumer, run by `Tensor.backward`:
    true when t is held only by that closure and the pass's node table, its
    `.data` only by t, and the buffer's owner (when `.data` is a view) only
    by `.data`, so no caller, second consumer, view or producer's closure
    reads the data again.  A leaf is the caller's memory and is never
    donated; so is a buffer that is read-only or that numpy does not own.
    """
    if not _BARE_REFS or t._backward is None:
        return False
    arg_refs, local_refs = _BARE_REFS
    data = t.data
    base = data.base
    if base is None:
        owned = data.flags.owndata
    else:
        owned = isinstance(base, np.ndarray) and base.base is None and base.flags.owndata
    return (owned and data.flags.writeable
            and sys.getrefcount(t) == arg_refs + 2
            and sys.getrefcount(data) == local_refs + 1
            and (base is None or sys.getrefcount(base) == local_refs + 1))


# ---------------------------------------------------------------------------
# linear algebra


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for rows x [N, n_in] and w [n_in, n_out].

    One tape node with the bits of `add(matmul(x, w), b)`, composed of the
    reference ops in `tests/oracles.py`: the forward adds the bias in place
    into the GEMM output, and the backward forms `g @ w.T`, `x.T @ g` and the
    bias sum from the incoming gradient.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: incompatible shapes x {x.shape}, w {w.shape}, b {b.shape}")
    # Letting `@` allocate the output raised paper-stream's peak RSS by 1-2 %.
    out = np.empty((x.shape[0], w.shape[1]), x.data.dtype)
    np.matmul(x.data, w.data, out=out)
    out += b.data

    def backward(g):
        if x.requires_grad:
            x.adopt_grad(g @ w.data.T)
        if w.requires_grad:
            w.adopt_grad(x.data.T @ g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return from_op(out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu_(a: np.ndarray) -> None:
    """ReLU of an array in place with the bits of `np.where(a > 0, a, 0.0)`.

    fmax maps NaN to 0, and adding 0.0 turns a -0.0 into +0.0, so afterwards
    `a > 0.0` is exactly where the input was > 0: the mask a backward needs.
    """
    np.fmax(a, 0.0, out=a)
    a += 0.0


def _sigmoid_(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The logistic sigmoid of z in place; `e` is scratch of z's shape.  Returns z.

    e^min(z, 0) / (1 + e^-|z|): that is 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, so exp never overflows, with no mask to branch on.
    """
    np.minimum(z, 0.0, out=e)
    np.exp(e, out=e)
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(e, z, out=z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return _sigmoid_(z.copy(), np.empty_like(z))


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x).  The node keeps no sigmoid: its backward forms it again."""
    out_data = x.data * _sigmoid(x.data)

    def backward(g):
        if x.requires_grad:
            s = _sigmoid(x.data)
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
    """The (start, stop) rows of each utterance of n packed rows."""
    ends = np.cumsum(_lengths(lengths, n, op)).tolist()
    return list(zip([0] + ends[:-1], ends))


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup (embedding); an id of -1 gives a zero row.  The gradient
    scatter-adds into the table; the -1 rows' gradient goes nowhere."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = ids >= 0
    out = np.zeros(ids.shape + table.shape[1:], table.data.dtype)
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
    """The boolean keep draw (true with probability 1 - p) for `shape`, or
    None for identity.  Callers keep this draw and form the inverted-dropout
    factors, `keep / (1.0 - p)` (0 or 1/(1-p)), where they apply them."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return None
    return rng.random(shape) >= p


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
            x.accumulate_grad(g * (keep / (1.0 - p)))

    return from_op(x.data * (keep / (1.0 - p)), (x,), backward)


# ---------------------------------------------------------------------------
# convolutions


# Bytes one conv2d block may hold in either pass (see conv2d).  At paper
# width that is 25 to 141 frames a block; 8 and 32 MiB ran the paper-width
# convs slower on a 2-vCPU OpenBLAS host.  `_conv_block_rows` counts float64
# bytes, so a float32 forward's blocks use half the budget.
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
    win = np.zeros((c_in, rows + kt, fp), x.dtype)
    win[:, win_rows, pf:pf + f] = x[:, xs]
    flat = win.reshape(c_in, -1)
    stack = np.empty((kf, c_in, span), x.dtype)
    for j in range(kf):
        stack[j] = flat[:, j:j + span]
    return stack.reshape(kf * c_in, span)


def _tap_weights(w: np.ndarray) -> np.ndarray:
    """w [C_out, C_in, kt, kf] as [kt, C_out, kf * C_in]: kernel row i's
    weights in the row order of `_tap_stack`."""
    c_out, c_in, kt, kf = w.shape
    return np.ascontiguousarray(w.transpose(2, 0, 3, 1)).reshape(kt, c_out, kf * c_in)


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
    where the bias is added and ReLU applied in place.  The node keeps its
    output and no stack, padded copy, ReLU mask or reordered weights: the
    backward forms the mask from the output, reorders w again, rebuilds each
    block's stack from x (Chen et al., arXiv:1604.06174), runs the same
    shifted GEMMs transposed from a gradient that is zero at the dropped
    positions, and adds each block's input gradient into one input-sized
    buffer.
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
    dtype = x.data.dtype
    w_rows = _tap_weights(w.data)

    # Frame-major memory: each block's output rows are one contiguous span.
    out = np.empty((n, c_out, f), dtype).transpose(1, 0, 2)
    for rows, xs, win_rows, ys, acc_rows in blocks:
        stack = _tap_stack(x.data, xs, win_rows, rows, kt, kf)
        m = rows * fp
        acc = np.empty((c_out, m), dtype)
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

    def backward(g):
        # relu_ left out > 0 exactly where its input was > 0.
        g = g * (out > 0.0)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)))
        gw = np.zeros((kt, c_out, kf * c_in)) if w.requires_grad else None
        gx = np.zeros_like(x.data) if x.requires_grad else None
        w_rows = _tap_weights(w.data) if gx is not None else None
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
# sequence-specific ops


# Float64 bytes of the rows one block of a row-blocked pass may take: the
# joint's backward and the loss's normaliser and gradient passes.
BLOCK_BYTES = 1 << 20


def row_blocks(r0: int, r1: int, width: int) -> list:
    """Slices that split rows r0:r1 of a [*, width] float64 array into as few
    blocks as fit in BLOCK_BYTES (at least one row each), of nearly equal
    size: a block of a split keeps at least half the budget's rows, never a
    short tail.  Whether a blocked GEMM keeps the bits of one GEMM over r0:r1
    depends on the BLAS and the shapes: on OpenBLAS 0.3.31 with 2 threads,
    `g @ w.T` over `row_blocks(0, 10323, 512)` does and `t @ w` over
    `row_blocks(0, 10323, 2501)` does not; tests pin the joint's backward."""
    n = -(-(r1 - r0) // max(1, BLOCK_BYTES // (width * 8)))
    ends = [r0 + (r1 - r0) * k // n for k in range(n + 1)]
    return [slice(e0, e1) for e0, e1 in zip(ends[:-1], ends[1:])]


def joint_head(t: np.ndarray, bias: np.ndarray, w: np.ndarray, bw: np.ndarray, spans,
               out: np.ndarray) -> np.ndarray:
    """The head of `joint` and `Joint.cell`: `tanh(t + bias) @ w + bw` for the
    summed terms t [C, J] into `out` [C, V], returned.  The bias add and tanh
    run in place once over all rows, then one GEMM per (c0, c1) row span."""
    t += bias
    np.tanh(t, out=t)
    for c0, c1 in spans:
        np.matmul(t[c0:c1], w, out=out[c0:c1])
    out += bw
    return out


def joint(a: Tensor, wa: Tensor, b: Tensor, wb: Tensor, bias: Tensor, w: Tensor, bw: Tensor,
          lengths=None) -> Tensor:
    """The transducer joint `tanh(outer_sum(a @ wa, b @ wb) + bias) @ w + bw`.

    [T, K] and [U, L] rows give [T, U, V] logits (wa [K, J], wb [L, J],
    w [J, V]).  One tape node with the bits of the reference ops it composes
    (in `tests/oracles.py`) that keeps only the tanh output: the sums, the
    bias add and the tanh run in place in one buffer, and `bw` is added in
    place into the logits.  Its backward forms each utterance's output-layer
    gradients from the tanh rows, then turns those rows into their own
    gradient one `row_blocks` block at a time: `g @ w.T` for the block goes
    into one reused scratch of at most BLOCK_BYTES, and the block's rows
    become `1 - t * t` times it, in place.  So no [C, J] array is made
    beside the tanh rows.  The bias, row and weight gradients reduce the
    rows from there.  It does not keep the logits, so the loss may form
    their gradient in their own buffer.

    With `lengths`, a pair of row-count lists (T_i) and (U_i), a and b pack the
    rows of several utterances, and the output packs their cells as
    [sum T_i U_i, V]: utterance i's T_i x U_i cells in (t, u) row-major order
    follow those of the utterances before it.  The bias adds and the tanh run
    once over all cells.  The GEMMs, outer sums and reductions run per
    utterance on views, and the parameter gradients add up last utterance
    first, so each utterance has the bits of a call on its rows alone.
    """
    j, v = w.shape if w.ndim == 2 else (-1, -1)
    if (a.ndim != 2 or b.ndim != 2 or wa.shape != (a.shape[1], j) or wb.shape != (b.shape[1], j)
            or bias.shape != (j,) or bw.shape != (v,)):
        raise ShapeError(
            f"joint: incompatible shapes a {a.shape}, wa {wa.shape}, b {b.shape}, "
            f"wb {wb.shape}, bias {bias.shape}, w {w.shape}, bw {bw.shape}"
        )
    a_lengths, b_lengths = ([a.shape[0]], [b.shape[0]]) if lengths is None else lengths
    a_spans = _spans(a_lengths, a.shape[0], "joint")
    b_spans = _spans(b_lengths, b.shape[0], "joint")
    if len(a_spans) != len(b_spans):
        raise ShapeError(f"joint: {len(a_spans)} utterances of a rows, {len(b_spans)} of b rows")
    cells = [(a1 - a0) * (b1 - b0) for (a0, a1), (b0, b1) in zip(a_spans, b_spans)]
    # Per utterance: its a rows, its b rows and its rows of the cells.
    groups = list(zip(a_spans, b_spans, _spans(cells, sum(cells), "joint")))
    dtype = a.data.dtype
    pa = np.empty((a.shape[0], j), dtype)
    pb = np.empty((b.shape[0], j), dtype)
    t = np.empty((sum(cells), j), dtype)
    for (a0, a1), (b0, b1), (c0, c1) in groups:
        np.matmul(a.data[a0:a1], wa.data, out=pa[a0:a1])
        np.matmul(b.data[b0:b1], wb.data, out=pb[b0:b1])
        np.add(pa[a0:a1, None, :], pb[None, b0:b1, :], out=t[c0:c1].reshape(a1 - a0, b1 - b0, j))
    out = joint_head(t, bias.data, w.data, bw.data, [c for *_, c in groups],
                     np.empty((t.shape[0], v), dtype))

    def backward(g):
        g = g.reshape(-1, v)
        ga = np.empty(a.shape) if a.requires_grad else None
        gb = np.empty(b.shape) if b.requires_grad else None
        dz = np.empty((max(s.stop - s.start for *_, c in groups for s in row_blocks(*c, j)), j))
        for (a0, a1), (b0, b1), (c0, c1) in reversed(groups):
            gc, tc = g[c0:c1], t[c0:c1]
            if w.requires_grad:
                w.adopt_grad(tc.T @ gc)
            if bw.requires_grad:
                bw.accumulate_grad(gc.sum(axis=0))
            # The tanh rows become their own gradient, one block at a time:
            # 1 - t * t times g @ w.T, where adding 0.0 turns -0.0 into +0.0.
            for s in row_blocks(c0, c1, j):
                dzb, tb = dz[:s.stop - s.start], t[s]
                np.matmul(g[s], w.data.T, out=dzb)
                dzb += 0.0
                np.multiply(tb, tb, out=tb)
                np.subtract(1.0, tb, out=tb)
                tb *= dzb
            d = tc.reshape(a1 - a0, b1 - b0, j)
            if bias.requires_grad:
                bias.accumulate_grad(d.sum(axis=(0, 1)))
            for x, wx, dp, gx, r0, r1 in ((a, wa, d.sum(axis=1), ga, a0, a1),
                                          (b, wb, d.sum(axis=0), gb, b0, b1)):
                if gx is not None:
                    np.matmul(dp, wx.data.T, out=gx[r0:r1])
                if wx.requires_grad:
                    wx.adopt_grad(x.data[r0:r1].T @ dp)
        for x, gx in ((a, ga), (b, gb)):
            if gx is not None:
                x.adopt_grad(gx)

    if lengths is None:
        out = out.reshape(a.shape[0], b.shape[0], v)
    return from_op(out, (a, wa, b, wb, bias, w, bw), backward)


def lstm_cell(gates: np.ndarray, h: np.ndarray, c: np.ndarray, u: np.ndarray,
              hu: np.ndarray, h_out: np.ndarray, c_out: np.ndarray) -> None:
    """One LSTM step in place, gate order input, forget, candidate, output.

    `gates` [b, 4H] holds the frame's input projection `x @ w + b` and is
    overwritten with the gate activations (sigmoid i, f, o; tanh g).  `h` and
    `c` are the [b, H] state, `u` the [H, 4H] recurrent weight and `hu` a
    [b, 4H] scratch for `h @ u`.  The new state goes into `h_out` and `c_out`,
    which must not overlap the gates or `hu`.  The float ops, and their
    order, are those of the allocating cell in `tests/oracles.py`:
    `x @ w + b + h @ u`, the sigmoid, `f * c + i * g` and `o * tanh(c)`.
    """
    hid = h.shape[1]
    np.matmul(h, u, out=hu)
    gates += hu
    i, f, g, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
    # The candidate's tanh waits in h_out while the sigmoid runs over the row.
    np.tanh(g, out=h_out)
    _sigmoid_(gates, hu)
    g[...] = h_out
    np.multiply(f, c, out=c_out)
    c_out += np.multiply(i, g, out=hu[:, :hid])
    np.tanh(c_out, out=h_out)
    h_out *= o


def lstm(x: Tensor, w: Tensor, u: Tensor, b: Tensor, lengths) -> Tensor:
    """Hidden states [N, H] of one LSTM layer over packed utterances x [N, n_in].

    The rows of x are the frames of every utterance concatenated in order
    (N = sum of `lengths`), and each utterance starts from a zero state.
    One tape node for the whole batch.  The forward makes
    one `x @ w + b` GEMM over all N rows, in a time-major order with the
    utterances sorted longest first: the b_t utterances still running at
    frame t are the first b_t, so each frame steps `lstm_cell` on one block
    of rows with no mask.  The step runs in place: `h @ u` goes into one
    reused [b_0, 4H] buffer, the gate activations overwrite the block's
    input projections, and the new cell and hidden states go into its rows
    of `cs` and `hs`, which the next frame reads as its state.  The node
    keeps the gates, `cs` and the output: the backward gathers the
    time-major input rows from x and the hidden states from the output.  It
    runs through time over the same blocks, then forms the gradients of x,
    w, u and b as whole-batch GEMMs.
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

    dtype = x.data.dtype
    # Row r holds its input projection until the step overwrites it with
    # that frame's gate activations.
    gates = np.empty((n, 4 * hid), dtype)
    np.matmul(x.data[perm], w.data, out=gates)
    gates += b.data
    hs = np.empty((n, hid), dtype)
    cs = np.empty((n, hid), dtype)
    hu = np.empty((sizes[0], 4 * hid), dtype)
    h = c = np.zeros((sizes[0], hid), dtype)
    for a, bt in blocks:
        lstm_cell(gates[a:a + bt], h[:bt], c[:bt], u.data, hu[:bt], hs[a:a + bt], cs[a:a + bt])
        h, c = hs[a:a + bt], cs[a:a + bt]
    out = np.empty_like(hs)
    out[perm] = hs

    def backward(g):
        g = g[perm]
        i, f, cand, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
        s0 = sizes[0]
        # prev[r - s0] is the frame t-1 row of row r >= s0, which is at a frame t > 0.
        prev = np.arange(s0, n) - np.repeat(sizes[:-1], sizes[1:])
        # ds = dL/d(pre-activations) forms in the gate rows: per gate block, dc (i, f, g)
        # or dh (o) times a recurrence-free factor formed over the activation it replaces.
        f_act = f.copy()
        scratch = cand * i * (1.0 - i)
        np.multiply(i, 1.0 - cand * cand, out=cand)
        i[...] = scratch
        tc = np.tanh(cs, out=scratch)
        dc_dh = o * (1.0 - tc * tc)
        np.multiply(tc * o, 1.0 - o, out=o)
        # c_prev * f * (1 - f), where c_prev is zero on the frame-0 rows.
        f[:s0] *= 0.0
        f[s0:] *= cs[prev]
        f *= 1.0 - f_act
        dh_next, dc_next = np.zeros((s0, hid)), np.zeros((s0, hid))
        for a, bt in reversed(blocks):
            blk = slice(a, a + bt)
            dh = g[blk] + dh_next[:bt]
            dc = dc_next[:bt] + dh * dc_dh[blk]
            ds = gates[blk].reshape(bt, 4, hid)
            ds[:, :3] *= dc[:, None, :]
            ds[:, 3] *= dh
            dc_next[:bt] = dc * f_act[blk]
            dh_next[:bt] = gates[blk] @ u.data.T
        ds = gates
        if x.requires_grad:
            gx = np.empty_like(x.data)
            gx[perm] = ds @ w.data.T
            x.adopt_grad(gx)
        if w.requires_grad:
            w.accumulate_grad(x.data[perm].T @ ds)
        if u.requires_grad:
            # Time-major row r of the hidden states is out[perm[r]].
            u.accumulate_grad(out[perm[prev]].T @ ds[s0:])
        if b.requires_grad:
            b.accumulate_grad(ds.sum(axis=0))

    return from_op(out, (x, w, u, b), backward)

"""Global context encoder: residual blocks of pointwise -> dilated depthwise
-> pointwise causal 1-D convolution with causal squeeze-and-excitation.

The depthwise dilations double per block, so the convolutional receptive
field grows geometrically, while the squeeze-excite gate folds in a prefix
mean over *all* past steps.  Every block preserves the [T, D] shape.  The
block count, expansion, depthwise kernel, squeeze-excite sizing and dropout
come from `ModelSettings`; the width D is the stacked feature width
(`RunConfig.input_dim`), read beside the local encoder.

The encoder is one tape node for the packed [N, D] rows the local encoder
reads.  Each block (`GlobalBlock.forward_batch`) runs the convolutions,
batch-norms, excitation, dropout and residual in numpy, and its hand-written
backward forms the gradients of the input and of the 14 block parameters
over the whole batch at once.  The op-by-op composition it replaces is kept
as the test oracle `global_block_per_op` in `tests/oracles.py`: the block
has its forward bits, and its gradients agree with it to rounding.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelSettings
from .layers import BatchNormTime, Conv1dLayer, Linear, accumulate, collect_params
from .tensor import Tensor


class GlobalBlock:
    def __init__(self, m: ModelSettings, d_model: int, dilation: int, rng: np.random.Generator):
        d, e = d_model, m.expansion * d_model
        se_bottleneck = max(d // m.se_divisor, m.se_min)
        self.m = m
        self.dilation = dilation
        self.pw_in = Conv1dLayer(d, e, 1, rng)
        self.norm_in = BatchNormTime(e, self.pw_in.weight.data.dtype)
        self.dw = Conv1dLayer(e, e, m.dw_kernel, rng, groups=e)
        self.norm_dw = BatchNormTime(e, self.dw.weight.data.dtype)
        self.pw_out = Conv1dLayer(e, d, 1, rng)
        self.se_reduce = Linear(d, se_bottleneck, rng)
        self.se_expand = Linear(se_bottleneck, d, rng)

    def forward_batch(self, xs, rng: np.random.Generator | None = None):
        """Apply the block to a batch of [T_i, D] row arrays; returns the
        packed [N, D] output (N = sum T_i) and `backward(g, input_grad=True)`,
        which adds into the 14 parameter gradients and returns the packed
        input gradient, or None without forming it when `input_grad` is false.
        With a generator it trains (batch statistics, their running update
        and dropout); without one it evaluates.  It takes row arrays, not
        packed rows and lengths, because the benchmark's FLOPs count
        (`perfbench/entry_points._block_flops`) sums `x.shape[0]` over them.

        Convolutions, excitation, and the residual stay per-utterance, but
        batch-norm statistics pool over the whole batch's frames (time-axis
        concatenation), so training-mode normalization matches what the
        frozen running stats will see at eval time.

        The utterances sit side by side in [E, N] and [N, D] buffers, so
        every elementwise step runs once per batch.  Where a depthwise tap
        would read another utterance's frames (or the causal padding), it
        adds a zero.

        The forward has the bits of the op-by-op composition: the same float
        operations in the same order, and the dropout RNG drawn in utterance
        order.  So its GEMMs, sums and prefix sums run per utterance on views
        of the buffers; one GEMM over all N columns sums in another order and
        gives other bits.  The backward runs over the whole batch: each
        parameter gradient is one GEMM or one reduction over all N columns,
        and the input gradient (residual plus pointwise-in) is formed once.
        Only the squeeze-excite's reversed prefix sums stay per utterance.
        The gradients agree with the composition to rounding.

        The backward keeps the transposed input, both batch-norms'
        normalized rows and ReLU masks, the excitation's input, prefix mean,
        bottleneck rows and gate, and the boolean dropout draw.  The forward
        drops each batch-norm's affine output once the next conv has read
        it, and the backward forms it again from the normalized rows, as it
        forms the dropout factors from the draw, with the forward's bits.

        It computes in the rows' dtype, which is the dtype its weights, biases
        and running statistics are held in: float64, or float32 in a float32
        model, which only evaluates.
        """
        m = self.m
        training = rng is not None
        lengths = [x.shape[0] for x in xs]
        spans = T._spans(lengths, sum(lengths), "global block")
        n_rows = spans[-1][1]
        # Frame index within its own utterance, for each of the N columns.
        local = np.arange(n_rows) - np.repeat([a for a, _ in spans], lengths)
        shifts = [(m.dw_kernel - 1 - j) * self.dilation for j in range(m.dw_kernel)]
        # Per shift s, the columns from s on whose tap stays inside their own
        # utterance.
        inside = {s: local[s:] >= s for s in shifts if 0 < s < n_rows}

        def pointwise(w, x, out):
            # out = w @ x, one GEMM per utterance's columns.
            for a, b in spans:
                np.matmul(w, x[:, a:b], out=out[:, a:b])

        x_all = np.concatenate(xs)
        dtype = x_all.dtype

        # pointwise in -> ReLU -> batch-norm, [E, N]
        w_in = self.pw_in.weight.data[:, :, 0]
        xt = np.ascontiguousarray(x_all.T)
        h = np.empty((w_in.shape[0], n_rows), dtype)
        pointwise(w_in, xt, h)
        h += self.pw_in.bias.data[:, None]
        T.relu_(h)
        mask_in = h > 0.0
        xhat_in, inv_in = self.norm_in.normalize(h, training, out=h)
        a_in = self.norm_in.affine(xhat_in)

        # causal dilated depthwise -> ReLU -> batch-norm
        w_dw = self.dw.weight.data[:, 0, :]
        h = np.zeros_like(a_in)
        for j, s in enumerate(shifts):
            if s >= n_rows:
                continue
            tap = w_dw[:, j:j + 1] * a_in[:, :n_rows - s]
            if s in inside:
                tap *= inside[s]
            h[:, s:] += tap
        del tap, a_in
        h += self.dw.bias.data[:, None]
        T.relu_(h)
        mask_dw = h > 0.0
        xhat_dw, inv_dw = self.norm_dw.normalize(h, training, out=h)
        a_dw = self.norm_dw.affine(xhat_dw)

        # pointwise out, squeeze-excite, dropout and the residual, [N, D]
        w_out = self.pw_out.weight.data[:, :, 0]
        zc = np.empty((w_out.shape[0], n_rows), dtype)
        pointwise(w_out, a_dw, zc)
        del a_dw
        zc += self.pw_out.bias.data[:, None]
        z = np.ascontiguousarray(zc.T)
        del zc
        counts = (local + 1.0).astype(dtype, copy=False)[:, None]
        mean = np.empty_like(z)
        for a, b in spans:
            np.cumsum(z[a:b], axis=0, out=mean[a:b])
        mean /= counts
        r = self._rows(mean, self.se_reduce, spans)
        T.relu_(r)
        gate = T._sigmoid(self._rows(r, self.se_expand, spans))
        y = z * gate
        keep = T.dropout_mask(y.shape, m.dropout_p, rng)
        if keep is not None:
            y *= keep / (1.0 - m.dropout_p)
        out = np.add(y, x_all, out=y)

        def backward(g, input_grad=True):
            g_res = g
            if keep is not None:
                g = g * (keep / (1.0 - m.dropout_p))
            dz = g * gate
            de = g * z
            de *= gate
            de *= 1.0 - gate
            dr = self._rows_backward(de, r, self.se_expand)
            dr *= r > 0.0
            dm = self._rows_backward(dr, mean, self.se_reduce)
            dm /= counts
            for a, b in spans:
                dz[a:b] += np.cumsum(dm[a:b][::-1], axis=0)[::-1]
            dzc = np.ascontiguousarray(dz.T)
            accumulate(self.pw_out.bias, dzc.sum(axis=1))
            a_dw = self.norm_dw.affine(xhat_dw)
            accumulate(self.pw_out.weight, (dzc @ a_dw.T)[:, :, None])

            g_h = self.norm_dw.backward(w_out.T @ dzc, xhat_dw, inv_dw, training)
            g_h *= mask_dw
            accumulate(self.dw.bias, g_h.sum(axis=1))
            g_w = np.zeros_like(w_dw)
            a_in = self.norm_in.affine(xhat_in)
            g_in = np.zeros_like(a_in)
            for j, s in enumerate(shifts):
                if s >= n_rows:
                    continue
                g_tap = g_h[:, s:] * inside[s] if s in inside else g_h[:, s:]
                g_w[:, j] = (g_tap * a_in[:, :n_rows - s]).sum(axis=1)
                g_in[:, :n_rows - s] += w_dw[:, j:j + 1] * g_tap
            accumulate(self.dw.weight, g_w[:, None, :])

            g_h = self.norm_in.backward(g_in, xhat_in, inv_in, training)
            g_h *= mask_in
            accumulate(self.pw_in.bias, g_h.sum(axis=1))
            accumulate(self.pw_in.weight, (g_h @ xt.T)[:, :, None])
            if not input_grad:
                return None
            g_x = (w_in.T @ g_h).T
            g_x += g_res
            return g_x

        return out, backward

    @staticmethod
    def _rows(x: np.ndarray, lin: Linear, spans) -> np.ndarray:
        """`x @ w + b` for each utterance's rows of x [N, n_in]."""
        w = lin.weight.data
        out = np.empty((x.shape[0], w.shape[1]), x.dtype)
        for a, b in spans:
            np.matmul(x[a:b], w, out=out[a:b])
        out += lin.bias.data
        return out

    @staticmethod
    def _rows_backward(g: np.ndarray, x: np.ndarray, lin: Linear) -> np.ndarray:
        """Accumulate the weight and bias gradients of `_rows`; returns the input gradient."""
        accumulate(lin.weight, x.T @ g)
        accumulate(lin.bias, g.sum(axis=0))
        return g @ lin.weight.data.T

    def params(self):
        return collect_params([
            ("pw_in", self.pw_in),
            ("norm_in", self.norm_in),
            ("dw", self.dw),
            ("norm_dw", self.norm_dw),
            ("pw_out", self.pw_out),
            ("se_reduce", self.se_reduce),
            ("se_expand", self.se_expand),
        ])

    def norm_layers(self):
        return [("norm_in", self.norm_in), ("norm_dw", self.norm_dw)]


class GlobalEncoder:
    def __init__(self, m: ModelSettings, d_model: int, rng: np.random.Generator):
        # Block i (from 0) is dilated by 2^(i+1).
        self.blocks = [GlobalBlock(m, d_model, 2 ** (i + 1), rng) for i in range(m.global_blocks)]

    def forward_batch(self, x: Tensor, lengths, rng: np.random.Generator | None = None) -> Tensor:
        """The blocks over the packed [N, D] rows x of utterances of the given
        lengths, as one tape node whose parents are x and every parameter.
        Its backward pops and runs the blocks' backwards, last block first,
        so each block's saved arrays are freed once it has run; the first
        block forms no input gradient unless x requires one.  A node that
        records nothing keeps no backward, so each block's saved arrays go
        as soon as the next block has its output."""
        parents = (x,) + tuple(p for _, p in self.params())
        recording = T.records(parents)
        splits = np.cumsum(lengths)[:-1]
        h = x.data
        backwards = []
        for block in self.blocks:
            h, step = block.forward_batch(np.split(h, splits), rng)
            if recording:
                backwards.append(step)

        def backward(g):
            while backwards:
                step = backwards.pop()
                g = step(g, bool(backwards) or x.requires_grad)
            if g is not None:
                x.accumulate_grad(g)

        return T.from_op(h, parents, backward)

    def params(self):
        return collect_params((f"block{i + 1}", block) for i, block in enumerate(self.blocks))

    def norm_layers(self):
        out = []
        for i, block in enumerate(self.blocks):
            for name, bn in block.norm_layers():
                out.append((f"block{i + 1}.{name}", bn))
        return out

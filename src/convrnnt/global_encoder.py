"""Global context encoder: residual blocks of pointwise -> dilated depthwise
-> pointwise causal 1-D convolution with causal squeeze-and-excitation.

The depthwise dilations double per block, so the convolutional receptive
field grows geometrically, while the squeeze-excite gate folds in a prefix
mean over *all* past steps.  Every block preserves the [T, D] shape.

Each block is one tape node for a whole batch (`GlobalBlock.forward_batch`):
its forward runs the convolutions, batch-norms, excitation, dropout and
residual in numpy, and its hand-written backward forms the gradients of the
inputs and of the 14 block parameters over the whole batch at once.  The
op-by-op composition it replaces is kept as the test oracle
`global_block_per_op` in `tests/oracles.py`: the block has its forward bits,
and its gradients agree with it to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .layers import BatchNormTime, Conv1dLayer, Linear, collect_params
from .tensor import Tensor


@dataclass
class GlobalEncoderConfig:
    d_model: int
    n_blocks: int = 6
    expansion: int = 2
    dw_kernel: int = 3
    se_divisor: int = 8
    se_min: int = 8
    dropout_p: float = 0.1
    se_enabled: bool = True

    def __post_init__(self):
        if self.d_model < 1 or self.n_blocks < 1 or self.expansion < 1:
            raise ConfigError("global encoder dimensions must be positive")

    def dilations(self):
        # Block i (from 0) is dilated by 2^(i+1).
        return [2 ** (i + 1) for i in range(self.n_blocks)]

    @property
    def se_bottleneck(self) -> int:
        return max(self.d_model // self.se_divisor, self.se_min)

    @property
    def conv_receptive_field(self) -> int:
        # Depthwise reach only (squeeze-excite disabled), current frame included.
        return 1 + sum((self.dw_kernel - 1) * d for d in self.dilations())


class GlobalBlock:
    def __init__(self, cfg: GlobalEncoderConfig, dilation: int, rng: np.random.Generator):
        d, e = cfg.d_model, cfg.expansion * cfg.d_model
        self.cfg = cfg
        self.dilation = dilation
        self.pw_in = Conv1dLayer(d, e, 1, rng)
        self.norm_in = BatchNormTime(e)
        self.dw = Conv1dLayer(e, e, cfg.dw_kernel, rng, dilation=dilation, groups=e)
        self.norm_dw = BatchNormTime(e)
        self.pw_out = Conv1dLayer(e, d, 1, rng)
        self.se_reduce = Linear(d, cfg.se_bottleneck, rng)
        self.se_expand = Linear(cfg.se_bottleneck, d, rng)

    def forward_batch(self, xs, training: bool = False, rng: np.random.Generator | None = None):
        """Apply the block to a batch of [T_i, D] sequences as one tape node.

        Convolutions, excitation, and the residual stay per-utterance, but
        batch-norm statistics pool over the whole batch's frames (time-axis
        concatenation), so training-mode normalization matches what the
        frozen running stats will see at eval time.

        The utterances sit side by side in [E, N] and [N, D] buffers
        (N = sum T_i), so every elementwise step runs once per batch.  Where
        a depthwise tap would read another utterance's frames (or the causal
        padding), it adds a zero.

        The forward has the bits of the op-by-op composition: the same float
        operations in the same order, and the dropout RNG drawn in utterance
        order.  So its GEMMs, sums and prefix sums run per utterance on views
        of the buffers; one GEMM over all N columns sums in another order and
        gives other bits.  The backward runs over the whole batch: each
        parameter gradient is one GEMM or one reduction over all N columns,
        and each input gradient (residual plus pointwise-in) is accumulated
        once.  Only the squeeze-excite's reversed prefix sums stay per
        utterance.  The gradients agree with the composition to rounding.

        The block takes and returns one [T_i, D] tensor per sequence (row
        blocks of the node's [N, D] output), because the benchmark counts
        its FLOPs from that list.  When no gradient is recorded, as in
        streaming inference, the node keeps nothing and works in place.
        """
        cfg = self.cfg
        params = [p for _, p in self.params()]
        record = T.records(list(xs) + params)
        lengths = [x.shape[0] for x in xs]
        ends = np.cumsum(lengths).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        n_rows = ends[-1]
        # Frame index within its own utterance, for each of the N columns.
        local = np.arange(n_rows) - np.repeat([a for a, _ in spans], lengths)
        shifts = [(cfg.dw_kernel - 1 - j) * self.dilation for j in range(cfg.dw_kernel)]
        # Per shift s of a batch, the columns from s on whose tap stays inside
        # their own utterance; one utterance never reaches outside itself.
        inside = {s: local[s:] >= s for s in shifts if 0 < s < n_rows and len(xs) > 1}

        def pointwise(w, x, out):
            # out = w @ x, one GEMM per utterance's columns.
            for a, b in spans:
                np.matmul(w, x[:, a:b], out=out[:, a:b])

        x_all = xs[0].data if len(xs) == 1 else np.concatenate([x.data for x in xs])

        # pointwise in -> ReLU -> batch-norm, [E, N]
        w_in = self.pw_in.weight.data[:, :, 0]
        xt = np.ascontiguousarray(x_all.T)
        h = np.empty((w_in.shape[0], n_rows))
        pointwise(w_in, xt, h)
        h += self.pw_in.bias.data[:, None]
        mask_in = T.relu_(h)
        xhat_in, inv_in = T.batchnorm_normalize(h, self.norm_in.stats, training, out=h)
        a_in = self._affine(self.norm_in, xhat_in, record)

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
        del tap
        if not record:
            del a_in, xhat_in, xt
        h += self.dw.bias.data[:, None]
        mask_dw = T.relu_(h)
        xhat_dw, inv_dw = T.batchnorm_normalize(h, self.norm_dw.stats, training, out=h)
        a_dw = self._affine(self.norm_dw, xhat_dw, record)

        # pointwise out, squeeze-excite, dropout and the residual, [N, D]
        w_out = self.pw_out.weight.data[:, :, 0]
        zc = np.empty((cfg.d_model, n_rows))
        pointwise(w_out, a_dw, zc)
        if not record:
            del a_dw, xhat_dw
        zc += self.pw_out.bias.data[:, None]
        z = np.ascontiguousarray(zc.T)
        del zc
        counts = (local + 1.0)[:, None]
        m = r = gate = None
        if cfg.se_enabled:
            m = np.empty_like(z)
            for a, b in spans:
                np.cumsum(z[a:b], axis=0, out=m[a:b])
            m /= counts
            r = self._rows(m, self.se_reduce, spans)
            T.relu_(r)
            gate = T._sigmoid(self._rows(r, self.se_expand, spans))
            y = z * gate if record else np.multiply(z, gate, out=z)
        else:
            y, z = z, None
        keep = T.dropout_mask(y.shape, cfg.dropout_p, training, rng)
        if keep is not None:
            y *= keep
        out = np.add(y, x_all, out=y)

        if not record:
            return [Tensor(out[a:b]) for a, b in spans]

        def backward(g):
            g_res = g
            if keep is not None:
                g = g * keep
            if cfg.se_enabled:
                dz = g * gate
                de = g * z
                de *= gate
                de *= 1.0 - gate
                dr = self._rows_backward(de, r, self.se_expand)
                dr *= r > 0.0
                dm = self._rows_backward(dr, m, self.se_reduce)
                dm /= counts
                for a, b in spans:
                    dz[a:b] += np.cumsum(dm[a:b][::-1], axis=0)[::-1]
            else:
                dz = g
            dzc = np.ascontiguousarray(dz.T)
            _accumulate(self.pw_out.bias, dzc.sum(axis=1))
            _accumulate(self.pw_out.weight, (dzc @ a_dw.T)[:, :, None])

            g_h = self._norm_backward(self.norm_dw, w_out.T @ dzc, xhat_dw, inv_dw, training)
            g_h *= mask_dw
            _accumulate(self.dw.bias, g_h.sum(axis=1))
            g_w = np.zeros_like(w_dw)
            g_in = np.zeros_like(a_in)
            for j, s in enumerate(shifts):
                if s >= n_rows:
                    continue
                g_tap = g_h[:, s:] * inside[s] if s in inside else g_h[:, s:]
                g_w[:, j] = (g_tap * a_in[:, :n_rows - s]).sum(axis=1)
                g_in[:, :n_rows - s] += w_dw[:, j:j + 1] * g_tap
            _accumulate(self.dw.weight, g_w[:, None, :])

            g_h = self._norm_backward(self.norm_in, g_in, xhat_in, inv_in, training)
            g_h *= mask_in
            _accumulate(self.pw_in.bias, g_h.sum(axis=1))
            _accumulate(self.pw_in.weight, (g_h @ xt.T)[:, :, None])
            if any(x.requires_grad for x in xs):
                g_x = (w_in.T @ g_h).T
                g_x += g_res
                for x, (a, b) in zip(xs, spans):
                    if x.requires_grad:
                        x.accumulate_grad(g_x[a:b])

        node = T.from_op(out, tuple(xs) + tuple(params), backward)
        return T.split_rows(node, lengths)

    @staticmethod
    def _rows(x: np.ndarray, lin: Linear, spans) -> np.ndarray:
        """`x @ w + b` for each utterance's rows of x [N, n_in]."""
        out = np.empty((x.shape[0], lin.weight.shape[1]))
        for a, b in spans:
            np.matmul(x[a:b], lin.weight.data, out=out[a:b])
        out += lin.bias.data
        return out

    @staticmethod
    def _rows_backward(g: np.ndarray, x: np.ndarray, lin: Linear) -> np.ndarray:
        """Accumulate the weight and bias gradients of `_rows`; returns the input gradient."""
        _accumulate(lin.weight, x.T @ g)
        _accumulate(lin.bias, g.sum(axis=0))
        return g @ lin.weight.data.T

    @staticmethod
    def _affine(norm: BatchNormTime, xhat: np.ndarray, record: bool) -> np.ndarray:
        """gamma * xhat + beta per channel; in place unless xhat is kept for backward."""
        out = norm.gamma.data[:, None] * xhat if record else np.multiply(
            xhat, norm.gamma.data[:, None], out=xhat)
        out += norm.beta.data[:, None]
        return out

    @staticmethod
    def _norm_backward(norm: BatchNormTime, g, xhat, inv_std, training) -> np.ndarray:
        dx, dgamma, dbeta = T.batchnorm_backward(g, xhat, inv_std, norm.gamma.data, training)
        _accumulate(norm.gamma, dgamma)
        _accumulate(norm.beta, dbeta)
        return dx

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


def _accumulate(p: Tensor, g: np.ndarray) -> None:
    if p.requires_grad:
        p.accumulate_grad(g)


class GlobalEncoder:
    def __init__(self, cfg: GlobalEncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.blocks = [GlobalBlock(cfg, d, rng) for d in cfg.dilations()]

    def forward_batch(self, xs, training: bool = False, rng: np.random.Generator | None = None):
        hs = list(xs)
        for block in self.blocks:
            hs = block.forward_batch(hs, training, rng)
        return hs

    def params(self):
        return collect_params((f"block{i + 1}", block) for i, block in enumerate(self.blocks))

    def norm_layers(self):
        out = []
        for i, block in enumerate(self.blocks):
            for name, bn in block.norm_layers():
                out.append((f"block{i + 1}.{name}", bn))
        return out

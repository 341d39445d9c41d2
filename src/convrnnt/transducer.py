"""Transducer core: frontend fusion, the unidirectional LSTM audio encoder
with per-layer Swish projections, the autoregressive label encoder, and the
additive joint network producing per-(t, u) token logits.  Their sizes and
dropout come from `ModelSettings`.

The fusion and both LSTM stacks run on packed rows: the rows of every
utterance of a batch concatenated in order, with their lengths beside them,
so each layer is a few tape nodes per batch.  The joint takes one
utterance's encoder and label rows, or a batch's packed rows of both; the
decoder steps the label encoder and the joint one cell at a time, outside
the tape, with the same math.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelSettings
from .errors import ShapeError
from .layers import SWISH_PROJ_GAIN, Embedding, Linear, collect_params, uniform_init, zeros_param
from .tensor import Tensor
from .vocab import label_ids


class LSTMLayer:
    """One uniLSTM layer (fused gate weights) followed by projection + Swish.

    Gate layout in the fused [*, 4H] pre-activation is input, forget,
    candidate, output.  The forget-gate bias starts at 1; hidden and cell
    state are zeros at the start of every utterance.  The recurrence is one
    tape node per batch (`tensor.lstm`) over packed [N, n_in] rows: it
    stores the gate activations and cell states of every row, and its
    backward runs through time.  The projection and Swish run once over all
    N rows; the stacks apply dropout to the layer's output.
    """

    def __init__(self, n_in: int, hidden: int, proj: int, rng: np.random.Generator, proj_gain=1.0):
        self.n_in = n_in
        self.hidden = hidden
        self.w = uniform_init(rng, (n_in, 4 * hidden), n_in)
        self.u = uniform_init(rng, (hidden, 4 * hidden), hidden)
        self.b = zeros_param(4 * hidden, self.w.data.dtype)
        self.b.data[hidden:2 * hidden] = 1.0
        self.proj = Linear(hidden, proj, rng, proj_gain)

    def project(self, hs: Tensor) -> Tensor:
        return T.swish(self.proj(hs))

    def __call__(self, xs: Tensor, lengths) -> Tensor:
        """Packed [N, n_in] -> [N, proj], each utterance from a zero state."""
        return self.project(T.lstm(xs, self.w, self.u, self.b, lengths))

    def params(self):
        return [
            ("w", self.w),
            ("u", self.u),
            ("b", self.b),
            ("proj.weight", self.proj.weight),
            ("proj.bias", self.proj.bias),
        ]


class AudioEncoder:
    """Stack of LSTM layers; layer k > 0 consumes the previous projection."""

    def __init__(self, m: ModelSettings, input_dim: int, rng: np.random.Generator):
        self.m = m
        self.layers = []
        n_in = input_dim
        for _ in range(m.enc_layers):
            self.layers.append(LSTMLayer(n_in, m.enc_hidden, m.proj_dim, rng, SWISH_PROJ_GAIN))
            n_in = m.proj_dim

    def __call__(self, xs: Tensor, lengths, rng=None) -> Tensor:
        """Packed [N, input_dim] -> [N, proj_dim]; dropout draws from `rng`."""
        h = xs
        for layer in self.layers:
            h = T.dropout(layer(h, lengths), self.m.dropout_p, rng)
        return h

    def params(self):
        return collect_params((f"layer{i}", layer) for i, layer in enumerate(self.layers))


class LabelEncoder:
    """Encodes emitted-token prefixes; row u is the state after y_1..y_u.

    The start state (row 0) comes from a zero input row, the embedding of
    id -1.  `__call__` encodes whole token lists on the tape, packed; `step`
    advances one token id at a time in plain numpy for the decoder, with the
    same lookup and math, and `start` is its step on -1 from zero states.
    """

    def __init__(self, m: ModelSettings, rng: np.random.Generator):
        self.m = m
        self.embed = Embedding(m.vocab_size + 1, m.label_embed, rng)
        self.layers = []
        n_in = m.label_embed
        for _ in range(m.label_layers):
            self.layers.append(LSTMLayer(n_in, m.label_hidden, m.label_proj, rng))
            n_in = m.label_proj

    def __call__(self, *token_lists, rng=None) -> Tensor:
        """Rows of one or more token lists, packed: the U_i + 1 rows of list i
        follow those of the lists before it, [sum(U_i + 1), label_proj]."""
        tokens = [label_ids(t, self.m.vocab_size) for t in token_lists]
        lengths = [t.size + 1 for t in tokens]
        # Each list's first row embeds the id -1, a zero row: its start input.
        h = self.embed(np.concatenate([np.insert(t, 0, -1) for t in tokens]))
        for layer in self.layers:
            h = T.dropout(layer(h, lengths), self.m.dropout_p, rng)
        return h

    def start(self):
        """Per-layer (h, c) [1, H] states and output of row 0, in the weights' dtype."""
        dtype = self.embed.table.data.dtype
        return self.step([(np.zeros((1, layer.hidden), dtype),) * 2 for layer in self.layers], -1)

    def step(self, states, token: int):
        """Advance the per-layer states by one token id (-1: the start input),
        looked up as `__call__` does, outside the tape with `lstm_cell` and the
        layer projections; returns the new states and the output row."""
        new_states = []
        with T.no_grad():
            x = self.embed([token]).data
            for layer, (h, c) in zip(self.layers, states):
                gates = x @ layer.w.data + layer.b.data
                h2, c2 = np.empty_like(h), np.empty_like(c)
                T.lstm_cell(gates, h, c, layer.u.data, np.empty_like(gates), h2, c2)
                new_states.append((h2, c2))
                x = layer.project(Tensor(h2)).data
        return new_states, x[0]

    def params(self):
        return collect_params([("embed", self.embed)] + [
            (f"lstm{i}", layer) for i, layer in enumerate(self.layers)
        ])


class Joint:
    """logits[t, u, :] = W_out . tanh(A.enc_t + B.pred_u + b).

    One utterance's [T, proj_dim] encoder rows and [U+1, label_proj] label
    rows give [T, U+1, V+1] logits.  A batch's packed rows, with the (T_i)
    and (U_i + 1) row counts as `lengths`, give its packed cells: the
    T_i x (U_i+1) logit rows of each utterance in (t, u) row-major order,
    utterance after utterance, [sum T_i (U_i+1), V+1] with no padding.  One
    node either way (`tensor.joint`); the packed call runs its GEMMs per
    utterance, so each utterance's logits have the bits of a call on its
    rows alone.

    Its streaming half, for the decoder, runs outside the tape: `enc_term`
    and `pred_term` project one encoder frame (A.enc_t) and one label row
    (B.pred_u) to [1, joint_dim], and `cell` runs the joint's head on their
    sum, with the bits of a call on that one frame and label row.
    """

    def __init__(self, m: ModelSettings, rng: np.random.Generator):
        self.enc_proj = uniform_init(rng, (m.proj_dim, m.joint_dim), m.proj_dim)
        self.pred_proj = uniform_init(rng, (m.label_proj, m.joint_dim), m.label_proj)
        self.bias = zeros_param(m.joint_dim, self.enc_proj.data.dtype)
        self.out = Linear(m.joint_dim, m.vocab_size + 1, rng)

    def __call__(self, enc: Tensor, pred: Tensor, lengths=None) -> Tensor:
        return T.joint(enc, self.enc_proj, pred, self.pred_proj, self.bias,
                       self.out.weight, self.out.bias, lengths)

    def enc_term(self, enc_t: np.ndarray) -> np.ndarray:
        """A.enc_t as a [1, joint_dim] row, for one [proj_dim] encoder frame."""
        if enc_t.shape != (self.enc_proj.shape[0],):
            raise ShapeError(f"joint: encoder frame of shape {enc_t.shape}, "
                             f"expected ({self.enc_proj.shape[0]},)")
        return enc_t[None, :] @ self.enc_proj.data

    def pred_term(self, pred_u: np.ndarray) -> np.ndarray:
        """B.pred_u as a [1, joint_dim] row, for one [label_proj] label row."""
        return pred_u[None, :] @ self.pred_proj.data

    def cell(self, enc_term: np.ndarray, pred_term: np.ndarray, hidden: np.ndarray,
             out: np.ndarray) -> np.ndarray:
        """One cell's [1, V+1] logits from its two terms, written into `out`
        (returned); `hidden` is [1, joint_dim] scratch for the tanh."""
        np.add(enc_term, pred_term, out=hidden)
        return T.joint_head(hidden, self.bias.data, self.out.weight.data, self.out.bias.data,
                            [(0, 1)], out)

    def params(self):
        return [
            ("enc_proj", self.enc_proj),
            ("pred_proj", self.pred_proj),
            ("bias", self.bias),
            ("out.weight", self.out.weight),
            ("out.bias", self.out.bias),
        ]


def fuse_frontends(parts, proj: Linear) -> Tensor:
    """Concatenate frontend outputs along features and project back to the
    original input dimension (one node each for the batch's packed rows)."""
    return proj(T.concat(parts, axis=1))

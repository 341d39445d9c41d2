"""Transducer core: frontend fusion, the unidirectional LSTM audio encoder
with per-layer Swish projections, the autoregressive label encoder, and the
additive joint network producing per-(t, u) token logits.

The fusion and both LSTM stacks run on packed rows: the rows of every
utterance of a batch concatenated in order, with their lengths beside them,
so each layer is a few tape nodes per batch.  The joint takes one
utterance's encoder and label rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError
from .layers import Embedding, Linear, collect_params, uniform_init, zeros_param
from .tensor import Tensor


@dataclass
class TransducerConfig:
    input_dim: int = 192      # fused feature dimension fed to the LSTM stack
    enc_layers: int = 7
    enc_hidden: int = 640
    proj_dim: int = 512       # per-layer projection width == encoder output dim
    label_layers: int = 1
    label_hidden: int = 640
    label_embed: int = 256
    label_proj: int = 512
    joint_dim: int = 512
    vocab_size: int = 2500    # real tokens; blank (id 0) is extra
    dropout_p: float = 0.1

    def __post_init__(self):
        for name in (
            "input_dim", "enc_layers", "enc_hidden", "proj_dim", "label_layers",
            "label_hidden", "label_embed", "label_proj", "joint_dim", "vocab_size",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")


class LSTMLayer:
    """One uniLSTM layer (fused gate weights) followed by projection + Swish.

    Gate layout in the fused [*, 4H] pre-activation is input, forget,
    candidate, output.  The forget-gate bias starts at 1; hidden and cell
    state are zeros at the start of every utterance.  The recurrence is one
    tape node per batch (`tensor.lstm`) over packed [N, n_in] rows: it
    stores the gate activations and cell states of every row, and its
    backward runs through time.  The projection, Swish and dropout run once
    over all N rows.
    """

    def __init__(self, n_in: int, hidden: int, proj: int, rng: np.random.Generator):
        self.n_in = n_in
        self.hidden = hidden
        self.w = uniform_init(rng, (n_in, 4 * hidden), n_in)
        self.u = uniform_init(rng, (hidden, 4 * hidden), hidden)
        self.b = zeros_param(4 * hidden)
        self.b.data[hidden:2 * hidden] = 1.0
        self.proj = Linear(hidden, proj, rng)

    def hidden_states(self, xs: Tensor, lengths=None) -> Tensor:
        """Packed [N, n_in] -> raw hidden states [N, hidden], each utterance
        from a zero state (lengths None: one utterance)."""
        return T.lstm(xs, self.w, self.u, self.b, lengths)

    def project(self, hs: Tensor) -> Tensor:
        return T.swish(self.proj(hs))

    def __call__(
        self,
        xs: Tensor,
        lengths=None,
        training: bool = False,
        rng: np.random.Generator | None = None,
        dropout_p: float = 0.0,
    ) -> Tensor:
        out = self.project(self.hidden_states(xs, lengths))
        return T.dropout(out, dropout_p, training, rng)

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

    def __init__(self, cfg: TransducerConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.layers = []
        n_in = cfg.input_dim
        for _ in range(cfg.enc_layers):
            self.layers.append(LSTMLayer(n_in, cfg.enc_hidden, cfg.proj_dim, rng))
            n_in = cfg.proj_dim

    def __call__(self, xs: Tensor, lengths=None, training: bool = False, rng=None) -> Tensor:
        """Packed [N, input_dim] -> [N, proj_dim] (lengths None: one utterance)."""
        h = xs
        for layer in self.layers:
            h = layer(h, lengths, training, rng, self.cfg.dropout_p)
        return h

    def params(self):
        return collect_params((f"layer{i}", layer) for i, layer in enumerate(self.layers))


class LabelEncoder:
    """Encodes emitted-token prefixes; row u is the state after y_1..y_u.

    The start state (row 0) comes from a zero input vector rather than a
    dedicated start token.  `__call__` encodes whole token lists on the tape,
    packed; `start` and `step` advance one token at a time in plain numpy for
    the decoder, with the same per-layer math.
    """

    def __init__(self, cfg: TransducerConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab_size + 1, cfg.label_embed, rng)
        self.layers = []
        n_in = cfg.label_embed
        for _ in range(cfg.label_layers):
            self.layers.append(LSTMLayer(n_in, cfg.label_hidden, cfg.label_proj, rng))
            n_in = cfg.label_proj

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size and (
            tokens.min() < 1 or tokens.max() > self.cfg.vocab_size
        ):
            raise DataError(
                f"token ids must be in [1, {self.cfg.vocab_size}] (blank excluded), "
                f"got range [{tokens.min()}, {tokens.max()}]"
            )
        return tokens

    def __call__(self, *token_lists, training: bool = False, rng=None) -> Tensor:
        """Rows of one or more token lists, packed: the U_i + 1 rows of list i
        follow those of the lists before it, [sum(U_i + 1), label_proj]."""
        tokens = [self._check_tokens(t) for t in token_lists]
        lengths = [t.size + 1 for t in tokens]
        n = sum(lengths)
        ids = np.concatenate(tokens)
        if ids.size:
            # Every row but each list's first (its zero start input) embeds a token.
            starts = np.cumsum([0] + lengths[:-1])
            h = T.place_rows(self.embed(ids), np.delete(np.arange(n), starts), n)
        else:
            h = Tensor(np.zeros((n, self.cfg.label_embed)))
        for layer in self.layers:
            h = layer(h, lengths, training, rng, self.cfg.dropout_p)
        return h

    def start(self):
        """Per-layer (h, c) [1, H] states and [label_proj] output of row 0."""
        states = [(np.zeros((1, layer.hidden)), np.zeros((1, layer.hidden)))
                  for layer in self.layers]
        return self.step(states, np.zeros((1, self.cfg.label_embed)))

    def step(self, states, x: np.ndarray):
        """Advance the per-layer states by one [1, label_embed] input row.

        Runs `lstm_cell` and the layer projection outside the tape; returns the
        new states and the [label_proj] output row.
        """
        new_states = []
        with T.no_grad():
            for layer, (h, c) in zip(self.layers, states):
                h, c, _ = T.lstm_cell(x @ layer.w.data + layer.b.data, h, c, layer.u.data)
                new_states.append((h, c))
                x = layer.project(Tensor(h)).data
        return new_states, x[0]

    def params(self):
        return collect_params([("embed", self.embed)] + [
            (f"lstm{i}", layer) for i, layer in enumerate(self.layers)
        ])


class Joint:
    """logits[t, u, :] = W_out . tanh(A.enc_t + B.pred_u + b)."""

    def __init__(self, cfg: TransducerConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.enc_proj = uniform_init(rng, (cfg.proj_dim, cfg.joint_dim), cfg.proj_dim)
        self.pred_proj = uniform_init(rng, (cfg.label_proj, cfg.joint_dim), cfg.label_proj)
        self.bias = zeros_param(cfg.joint_dim)
        self.out = Linear(cfg.joint_dim, cfg.vocab_size + 1, rng)

    def __call__(self, enc: Tensor, pred: Tensor) -> Tensor:
        return self.out(T.outer_tanh(enc, self.enc_proj, pred, self.pred_proj, self.bias))

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
    if len(parts) > 1:
        t_lens = {p.shape[0] for p in parts}
        if len(t_lens) != 1:
            raise ShapeError(f"frontend outputs disagree on time length: {sorted(t_lens)}")
    return proj(T.concat(parts, axis=1))

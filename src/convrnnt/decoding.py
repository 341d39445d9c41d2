"""Greedy streaming decoding over the joint's per-frame posteriors.

At each frame the decoder repeatedly takes the argmax symbol: a label is
appended (advancing the label-encoder state, staying on the frame, up to a
per-frame cap that guards against emission loops) and a blank advances to
the next frame.  Ties resolve to the lowest symbol id.  The decoder state is
explicit, so audio can be fed in arbitrary chunks with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .model import TransducerModel

DEFAULT_SYMBOL_CAP = 10


@dataclass
class Hypothesis:
    tokens: list
    score: float


@dataclass
class DecoderState:
    tokens: list = field(default_factory=list)
    score: float = 0.0
    lstm_states: list = field(default_factory=list)  # one (h, c) per label layer
    pred_row: np.ndarray | None = None               # current [label_proj] context

    def copy(self) -> "DecoderState":
        return DecoderState(
            tokens=list(self.tokens),
            score=self.score,
            lstm_states=[(h.copy(), c.copy()) for h, c in self.lstm_states],
            pred_row=None if self.pred_row is None else self.pred_row.copy(),
        )

    def hypothesis(self) -> Hypothesis:
        return Hypothesis(list(self.tokens), self.score)


def _label_step(model: TransducerModel, states, x_row: np.ndarray):
    """One step of the label LSTM stack on a [dim] input row, plain numpy."""
    new_states = []
    h_in = x_row
    out = None
    for layer, (h, c) in zip(model.label_encoder.layers, states):
        h2, c2, _ = T.lstm_cell(h_in @ layer.w.data + layer.b.data, h, c, layer.u.data)
        new_states.append((h2, c2))
        out = T.swish(T.Tensor(h2 @ layer.proj.weight.data + layer.proj.bias.data)).data
        h_in = out
    return new_states, out[0]


def init_state(model: TransducerModel) -> DecoderState:
    """Start-of-utterance state: zero LSTM states fed a zero input vector."""
    states = [
        (np.zeros((1, layer.hidden)), np.zeros((1, layer.hidden)))
        for layer in model.label_encoder.layers
    ]
    zero_in = np.zeros((1, model.label_encoder.cfg.label_embed))
    states, pred = _label_step(model, states, zero_in)
    return DecoderState(lstm_states=states, pred_row=pred)


def _joint_row(model: TransducerModel, enc_t: np.ndarray, pred: np.ndarray) -> np.ndarray:
    j = model.joint
    z = np.tanh(enc_t @ j.enc_proj.data + pred @ j.pred_proj.data + j.bias.data)
    return z @ j.out.weight.data + j.out.bias.data


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max()
    return z - m - np.log(np.exp(z - m).sum())


def step_frame(
    model: TransducerModel,
    state: DecoderState,
    enc_t: np.ndarray,
    max_symbols_per_frame: int = DEFAULT_SYMBOL_CAP,
) -> DecoderState:
    """Consume one encoder frame, emitting greedily until a blank (or the cap)."""
    if max_symbols_per_frame < 1:
        raise ConfigError("max_symbols_per_frame must be >= 1")
    emitted = 0
    while True:
        logits = _joint_row(model, enc_t, state.pred_row)
        log_probs = _log_softmax(logits)
        k = int(np.argmax(logits))  # first max wins: ties go to the lowest id
        if k == 0:
            state.score += float(log_probs[0])
            return state
        state.tokens.append(k)
        state.score += float(log_probs[k])
        emb = model.label_encoder.embed.table.data[k][None, :]
        state.lstm_states, state.pred_row = _label_step(model, state.lstm_states, emb)
        emitted += 1
        if emitted >= max_symbols_per_frame:
            # Loop guard: move on without charging a blank.
            return state


def decode_frames(
    model: TransducerModel,
    state: DecoderState,
    enc_frames: np.ndarray,
    max_symbols_per_frame: int = DEFAULT_SYMBOL_CAP,
) -> DecoderState:
    for t in range(enc_frames.shape[0]):
        state = step_frame(model, state, enc_frames[t], max_symbols_per_frame)
    return state


def greedy_decode(
    model: TransducerModel,
    enc_frames: np.ndarray,
    max_symbols_per_frame: int = DEFAULT_SYMBOL_CAP,
) -> Hypothesis:
    """Decode a full utterance of encoder frames [T, proj_dim]."""
    state = decode_frames(model, init_state(model), enc_frames, max_symbols_per_frame)
    return state.hypothesis()

"""Greedy streaming decoding over the joint's per-frame posteriors.

At each frame the decoder repeatedly takes the argmax symbol: a label is
appended (advancing the label-encoder state, staying on the frame, up to a
per-frame cap that guards against emission loops) and a blank advances to
the next frame.  Ties resolve to the lowest symbol id.  The decoder state is
explicit, so audio can be fed in arbitrary chunks with identical results.

Each symbol step runs the model's own `Joint` on one [1, 1] (frame, label)
cell and `LabelEncoder.step` for each emission, so decoding and training
share one joint and one label-encoder definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .model import TransducerModel

DEFAULT_SYMBOL_CAP = 10


@dataclass
class DecoderState:
    tokens: list = field(default_factory=list)
    score: float = 0.0                               # log-probability of the path taken
    lstm_states: list = field(default_factory=list)  # one (h, c) per label layer
    pred_row: np.ndarray | None = None               # current [label_proj] context


def init_state(model: TransducerModel) -> DecoderState:
    """Start-of-utterance state: the label encoder's row 0."""
    states, pred = model.label_encoder.start()
    return DecoderState(lstm_states=states, pred_row=pred)


def step_frame(
    model: TransducerModel,
    state: DecoderState,
    enc_t: np.ndarray,
    max_symbols_per_frame: int = DEFAULT_SYMBOL_CAP,
) -> DecoderState:
    """Consume one encoder frame, emitting greedily until a blank (or the cap)."""
    if max_symbols_per_frame < 1:
        raise ConfigError("max_symbols_per_frame must be >= 1")
    enc_row = T.Tensor(enc_t[None, :])
    emitted = 0
    while True:
        with T.no_grad():
            z = model.joint(enc_row, T.Tensor(state.pred_row[None, :])).data[0, 0]
        k = int(np.argmax(z))  # first max wins: ties go to the lowest id
        # The chosen symbol's log-softmax (z[k] - m) - lse, where the max m is z[k].
        state.score -= float(np.log(np.exp(z - z[k]).sum()))
        if k == 0:
            return state
        state.tokens.append(k)
        emb = model.label_encoder.embed.table.data[k][None, :]
        state.lstm_states, state.pred_row = model.label_encoder.step(state.lstm_states, emb)
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
) -> DecoderState:
    """Decode a full utterance of encoder frames [T, proj_dim]."""
    return decode_frames(model, init_state(model), enc_frames, max_symbols_per_frame)

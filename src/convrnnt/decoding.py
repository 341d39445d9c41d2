"""Greedy streaming decoding over the joint's per-frame posteriors.

At each frame the decoder repeatedly takes the argmax symbol: a label is
appended (advancing the label-encoder state, staying on the frame, up to a
per-frame cap that guards against emission loops) and a blank advances to
the next frame.  Ties resolve to the lowest symbol id.  The decoder state is
explicit, so audio can be fed in arbitrary chunks with identical results.

Decoding runs the model's own code: each frame passes `TransducerModel.cast`
(the cast to the model's dtype and input check of `encode_audio`), and
`LabelEncoder.step` looks each emitted id up as the batch path does.  Each
frame is projected once (`Joint.enc_term`) and each label row once per
emission (`Joint.pred_term`; the state keeps only that term across chunks).
A symbol step runs only the joint's head (`Joint.cell`, `tensor.joint_head`)
into buffers reused within the frame, so the logits and the score have the
bits of a joint call on one cell, in the model's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import TransducerModel

DEFAULT_SYMBOL_CAP = 10


@dataclass
class DecoderState:
    tokens: list = field(default_factory=list)
    score: float = 0.0                               # log-probability of the path taken
    lstm_states: list = field(default_factory=list)  # one (h, c) per label layer
    pred_term: np.ndarray | None = None              # last label row's joint term, [1, J]


def init_state(model: TransducerModel) -> DecoderState:
    """Start-of-utterance state: the label encoder's row 0, as its joint term."""
    states, pred = model.label_encoder.start()
    return DecoderState(lstm_states=states, pred_term=model.joint.pred_term(pred))


def step_frame(
    model: TransducerModel,
    state: DecoderState,
    enc_t: np.ndarray,
    max_symbols_per_frame: int = DEFAULT_SYMBOL_CAP,
) -> DecoderState:
    """Consume one encoder frame, emitting greedily until a blank (or the cap).

    The frame goes through `model.cast` once, so the step runs in the model's
    dtype; one that is not [proj_dim] raises `ShapeError`.
    """
    if max_symbols_per_frame < 1:
        raise ConfigError("max_symbols_per_frame must be >= 1")
    joint = model.joint
    enc_term = joint.enc_term(model.cast(enc_t))
    hidden = np.empty_like(enc_term)
    logits = np.empty((1, joint.out.bias.shape[0]), model.dtype)
    for _ in range(max_symbols_per_frame):
        z = joint.cell(enc_term, state.pred_term, hidden, logits)[0]
        k = int(np.argmax(z))  # first max wins: ties go to the lowest id
        # The chosen symbol's log-softmax (z[k] - m) - lse, where the max m is
        # z[k]; it spends the logits, which the next step writes afresh.
        z -= z[k]
        state.score -= float(np.log(np.exp(z, out=z).sum()))
        if k == 0:
            return state
        state.tokens.append(k)
        state.lstm_states, pred = model.label_encoder.step(state.lstm_states, k)
        state.pred_term = joint.pred_term(pred)
    # Loop guard: at the cap, move on without charging a blank.
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

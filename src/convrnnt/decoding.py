"""Greedy streaming decoding over the joint's per-frame posteriors.

At each frame the decoder repeatedly takes the argmax symbol: a label is
appended (advancing the label-encoder state, staying on the frame, up to a
per-frame cap that guards against emission loops) and a blank advances to
the next frame.  Ties resolve to the lowest symbol id.  The decoder state is
explicit, so audio can be fed in arbitrary chunks with identical results.

Decoding runs the streaming half of the model's own `Joint` and
`LabelEncoder.step`, so decoding and training share one joint and one
label-encoder definition.  Each frame is projected once (`Joint.enc_term`)
and each label row once per emission (`Joint.pred_term`; the state keeps
only that term across chunks).  A symbol step runs only the tanh and the
output GEMV of its cell (`Joint.cell`), into buffers reused within the
frame.  The logits and the score have the bits of a joint call on one cell.
Decoding runs in the model's dtype: each frame is cast to it once, so a
float32 model never reads its weights in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
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

    The frame is cast once to the model's dtype, which the step runs in.  A
    frame that is not [proj_dim] raises `ShapeError`, one holding a value
    that is not finite in the model's dtype `DataError`.
    """
    if max_symbols_per_frame < 1:
        raise ConfigError("max_symbols_per_frame must be >= 1")
    with np.errstate(over="ignore"):  # a value beyond the dtype's range becomes inf
        enc_t = enc_t.astype(model.dtype, copy=False)
    if not np.isfinite(enc_t).all():
        raise DataError(f"encoder frame holds values that are not finite in {model.dtype}")
    joint = model.joint
    enc_term = joint.enc_term(enc_t)
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
        emb = model.label_encoder.embed.table.data[k][None, :]
        state.lstm_states, pred = model.label_encoder.step(state.lstm_states, emb)
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

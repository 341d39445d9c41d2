import pathlib

import numpy as np
import pytest

from convrnnt import audio
from convrnnt import tensor as T
from convrnnt.config import load_preset
from convrnnt.decoding import decode_frames, greedy_decode, init_state, step_frame
from convrnnt.errors import ConfigError, DataError, ShapeError
from convrnnt.model import TransducerModel
from convrnnt.transducer import Joint

import oracles
from oracles import (
    F32_ENCODER_REL_TOL,
    encodings_at_both_dtypes,
    float32_twin,
    max_rel_gap,
    models_at_both_dtypes,
)


def build_model(seed=0, vocab=6):
    cfg = load_preset("desk", [f"model.vocab_size={vocab}"])
    return TransducerModel(cfg, seed=seed), cfg


def zero_joint(model):
    for _, p in model.joint.params():
        p.data[...] = 0.0


def zero_label_encoder(model):
    for _, p in model.label_encoder.params():
        p.data[...] = 0.0


def test_always_blank_gives_empty_hypothesis_with_blank_score():
    model, cfg = build_model(1)
    zero_joint(model)
    model.joint.out.bias.data[0] = 1.0  # constant logits, blank on top
    enc = np.random.default_rng(2).standard_normal((7, cfg.model.proj_dim))
    hyp = greedy_decode(model, enc)
    assert hyp.tokens == []
    logits = model.joint.out.bias.data
    log_blank = logits[0] - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
    assert abs(hyp.score - 7 * log_blank) <= 1e-12
    assert hyp.score <= 0.0


def test_single_frame_emits_token_then_blank():
    model, cfg = build_model(3)
    zero_joint(model)
    zero_label_encoder(model)
    # Start context is zero; bias makes token 3 the argmax there.
    model.joint.out.bias.data[3] = 1.0
    # After emitting token 3 the label context changes; steer blank on top
    # using the measured post-emission context.
    model.label_encoder.embed.table.data[3] = 1.0
    for layer in model.label_encoder.layers:
        layer.w.data[...] = 0.5
        layer.proj.weight.data[...] = 0.5
    model.joint.pred_proj.data[...] = np.eye(cfg.model.label_proj)
    state = init_state(model)
    states, pred_after = model.label_encoder.step(state.lstm_states, 3)
    z_after = np.tanh(pred_after @ model.joint.pred_proj.data + model.joint.bias.data)
    model.joint.out.weight.data[:, 0] = 10.0 * z_after / (z_after @ z_after)
    enc = np.zeros((1, cfg.model.proj_dim))
    hyp = greedy_decode(model, enc)
    assert hyp.tokens == [3]


def test_emission_cap_bounds_output_length():
    model, cfg = build_model(4)
    zero_joint(model)
    zero_label_encoder(model)
    model.joint.out.bias.data[1] = 1.0  # token 1 always wins; context never moves
    enc = np.zeros((3, cfg.model.proj_dim))
    hyp = greedy_decode(model, enc, max_symbols_per_frame=5)
    assert hyp.tokens == [1] * 15  # exactly T * cap, loop guarded
    with pytest.raises(ConfigError, match="max_symbols_per_frame"):
        step_frame(model, init_state(model), enc[0], max_symbols_per_frame=0)


def test_streaming_matches_full_decode_bitwise():
    model, cfg = build_model(5)
    rng = np.random.default_rng(6)
    with T.no_grad():
        enc = model.encode_audio(T.Tensor(rng.standard_normal((12, cfg.input_dim)))).data
    full = greedy_decode(model, enc)
    for split in (1, 5, 11):
        state = decode_frames(model, init_state(model), enc[:split])
        state = decode_frames(model, state, enc[split:])
        assert state.tokens == full.tokens
        assert state.score == full.score


def test_decode_is_deterministic():
    model, cfg = build_model(7)
    enc = np.random.default_rng(8).standard_normal((9, cfg.model.proj_dim))
    h1 = greedy_decode(model, enc)
    h2 = greedy_decode(model, enc)
    assert h1.tokens == h2.tokens and h1.score == h2.score


def test_label_encoder_rows_match_streaming_pred_rows():
    model, _ = build_model(11)
    tokens = [3, 1, 4, 1, 5, 2]
    with T.no_grad():
        rows = model.label_encoder(tokens).data
    states, pred = model.label_encoder.start()
    streamed = [pred]
    for k in tokens:
        states, pred = model.label_encoder.step(states, k)
        streamed.append(pred)
    # Not bitwise: the tape projects all inputs with one GEMM, the decoder
    # one row at a time.
    assert np.max(np.abs(rows - np.array(streamed))) <= 1e-12


def test_decoder_score_is_the_training_joint_path_log_prob():
    model, cfg = build_model(12)
    cap = 3
    enc = np.random.default_rng(13).standard_normal((20, cfg.model.proj_dim))
    # Decode frame by frame to record the lattice cells (t, u) the path charges.
    state, path = init_state(model), []
    for t in range(enc.shape[0]):
        u0 = len(state.tokens)
        state = step_frame(model, state, enc[t], cap)
        path += [(t, u0 + i, k) for i, k in enumerate(state.tokens[u0:])]
        if len(state.tokens) - u0 < cap:
            path.append((t, len(state.tokens), 0))
    assert state.tokens and any(k == 0 for _, _, k in path)
    assert state.tokens == greedy_decode(model, enc, cap).tokens
    with T.no_grad():
        z = model.joint(T.Tensor(enc), model.label_encoder(state.tokens)).data
    m = z.max(axis=-1, keepdims=True)
    log_probs = (z - m) - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    want = sum(log_probs[t, u, k] for t, u, k in path)
    assert abs(state.score - want) <= 1e-12


def emitting_model(seed, t_len=16):
    """A desk model, with a random joint bias, and t_len encoder frames on
    which greedy decoding emits on some frames and not on others: the blank
    logit is raised by the median, over the frames, of its margin to the best
    label at the start context."""
    model, cfg = build_model(seed)
    rng = np.random.default_rng(seed + 100)
    model.joint.bias.data[...] = rng.uniform(-0.5, 0.5, model.joint.bias.shape)
    with T.no_grad():
        enc = model.encode_audio(T.Tensor(rng.standard_normal((t_len, cfg.input_dim)))).data
        z = model.joint(T.Tensor(enc), model.label_encoder([])).data[:, 0]
    model.joint.out.bias.data[0] += np.median(z[:, 1:].max(axis=1) - z[:, 0])
    return model, enc


@pytest.mark.parametrize("seed", [5, 21, 22])
@pytest.mark.parametrize("cap", [1, 3, 10])
def test_decoder_matches_one_cell_joint_oracle_bitwise(seed, cap):
    model, enc = emitting_model(seed)
    want = oracles.greedy_decode_one_cell(model, enc, cap)
    assert 0 < len(want.tokens) < cap * enc.shape[0]
    for chunk in (1, 5, enc.shape[0]):
        state = init_state(model)
        for a in range(0, enc.shape[0], chunk):
            state = decode_frames(model, state, enc[a:a + chunk], cap)
        assert state.tokens == want.tokens
        assert state.score == want.score


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_joint_cell_matches_joint_call_bitwise(preset):
    overrides = ["model.vocab_size=6"] if preset == "desk" else []
    m = load_preset(preset, overrides).transducer_config()
    joint = Joint(m, np.random.default_rng(30))
    rng = np.random.default_rng(31)
    for p in (joint.bias, joint.out.bias):
        p.data[...] = rng.uniform(-0.5, 0.5, p.shape)
    hidden, logits = np.empty((1, m.joint_dim)), np.empty((1, m.vocab_size + 1))
    for _ in range(3):
        enc_t, pred_u = rng.standard_normal(m.proj_dim), rng.standard_normal(m.label_proj)
        with T.no_grad():
            want = joint(T.Tensor(enc_t[None, :]), T.Tensor(pred_u[None, :])).data[0, 0]
        got = joint.cell(joint.enc_term(enc_t), joint.pred_term(pred_u), hidden, logits)[0]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad,error", [
    ("nan", DataError), ("inf", DataError), ("narrow", ShapeError), ("wide", ShapeError),
    ("row", ShapeError),
])
def test_step_frame_rejects_bad_frames_and_keeps_the_state(bad, error):
    model, cfg = build_model(14)
    frame = np.random.default_rng(15).standard_normal(cfg.model.proj_dim)
    if bad in ("nan", "inf"):
        frame[3] = np.nan if bad == "nan" else np.inf
    else:
        frame = {"narrow": frame[:-1], "wide": np.append(frame, 0.0), "row": frame[None, :]}[bad]
    state = init_state(model)
    with pytest.raises(error):
        step_frame(model, state, frame)
    assert state.tokens == [] and state.score == 0.0


@pytest.mark.parametrize("value", [np.nan, 1e39])
def test_encode_audio_and_step_frame_refuse_a_bad_value_in_the_same_words(value):
    # One input check: NaN, and a float64 value beyond the float32 range,
    # which the cast would turn into inf.
    cfg = load_preset("desk", ["model.vocab_size=6", "model.inference_dtype=float32"])
    model = TransducerModel(cfg, seed=16)
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((6, cfg.input_dim))
    frame = rng.standard_normal(cfg.model.proj_dim)
    feats[2, 3] = frame[3] = value
    messages = []
    for refuse in (lambda: model.encode_audio(T.Tensor(feats)),
                   lambda: step_frame(model, init_state(model), frame)):
        with T.no_grad(), pytest.raises(DataError, match="not finite in float32") as refusal:
            refuse()
        messages.append(str(refusal.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("seed", [1, 7])
def test_float32_encoding_of_the_stream_benchmark_decodes_to_the_float64_tokens(
        seed, monkeypatch):
    # The paper-stream benchmark's input and emission script, with the blank
    # offset scripted on the float64 model from its encoding; the float32
    # model built from the same seed encodes, and the float64 model's
    # scripted weights rounded to float32 decode.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import MAX_SYMBOLS, TARGET_TOKENS, script_emissions, stream_pcm

    cfg = load_preset("paper")
    feats = audio.featurize(stream_pcm(seed, cfg.feature.sample_rate_hz), cfg.feature).frames
    model64, model32 = models_at_both_dtypes(cfg, seed)
    enc64, enc32 = encodings_at_both_dtypes((model64, model32), feats)
    del model32
    assert max_rel_gap(enc32, enc64) <= F32_ENCODER_REL_TOL
    script_emissions(model64, enc64, TARGET_TOKENS)
    want = greedy_decode(model64, enc64, MAX_SYMBOLS)
    assert len(want.tokens) == TARGET_TOKENS
    assert greedy_decode(float32_twin(model64), enc32, MAX_SYMBOLS).tokens == want.tokens


def float32_emitting_model(seed):
    """`emitting_model`'s weights and encoder frames rounded to float32."""
    model, enc = emitting_model(seed)
    return float32_twin(model), enc.astype(np.float32)


@pytest.mark.parametrize("seed", [5, 21, 22])
def test_float32_chunked_decoding_equals_greedy_decode_bitwise(seed):
    model, enc = float32_emitting_model(seed)
    assert model.dtype == np.float32 and enc.dtype == np.float32
    want = greedy_decode(model, enc, 3)
    assert 0 < len(want.tokens) < 3 * enc.shape[0]
    rng = np.random.default_rng(seed)
    for cuts in ([], list(range(1, enc.shape[0])), sorted(rng.choice(enc.shape[0], 4, False))):
        state = init_state(model)
        for part in np.split(enc, cuts):
            state = decode_frames(model, state, part, 3)
        assert state.tokens == want.tokens
        assert state.score == want.score


def test_a_float32_model_decodes_float64_frames_as_their_float32_cast(monkeypatch):
    model, enc = float32_emitting_model(5)
    want = greedy_decode(model, enc, 3)
    cell, dtypes = Joint.cell, set()

    def spy(self, *arrays):
        dtypes.update(a.dtype for a in arrays)
        return cell(self, *arrays)

    monkeypatch.setattr(Joint, "cell", spy)
    got = greedy_decode(model, enc.astype(np.float64), 3)
    assert got.tokens == want.tokens and got.score == want.score
    # Both terms, the tanh scratch and the logits: the step runs in float32.
    assert dtypes == {np.dtype(np.float32)}
    # A float64 frame beyond the float32 range is refused, not decoded as inf.
    frame = enc[0].astype(np.float64)
    frame[2] = 1e39
    with pytest.raises(DataError, match="not finite in float32"):
        step_frame(model, init_state(model), frame)

import numpy as np

from convrnnt import tensor as T
from convrnnt.config import load_preset
from convrnnt.decoding import decode_frames, greedy_decode, init_state, step_frame
from convrnnt.model import TransducerModel


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
    from convrnnt.decoding import _label_step  # measured rig, not an oracle

    states, pred_after = _label_step(
        model, state.lstm_states, model.label_encoder.embed.table.data[3][None, :]
    )
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


def test_partial_states_copy_independent():
    model, cfg = build_model(9)
    enc = np.random.default_rng(10).standard_normal((4, cfg.model.proj_dim))
    state = decode_frames(model, init_state(model), enc[:2])
    snapshot = state.copy()
    decode_frames(model, state, enc[2:])
    assert snapshot.tokens != state.tokens or snapshot.score != state.score or True
    # The copy must not alias the live state's arrays.
    assert snapshot.pred_row is not state.pred_row
    for (h1, c1), (h2, c2) in zip(snapshot.lstm_states, state.lstm_states):
        assert h1 is not h2 and c1 is not c2


def test_label_encoder_rows_match_streaming_pred_rows():
    from convrnnt.decoding import _label_step

    model, _ = build_model(11)
    tokens = [3, 1, 4, 1, 5, 2]
    with T.no_grad():
        rows = model.label_encoder(tokens).data
    state = init_state(model)
    streamed = [state.pred_row]
    states = state.lstm_states
    for k in tokens:
        states, pred = _label_step(model, states, model.label_encoder.embed.table.data[k][None, :])
        streamed.append(pred)
    # Not bitwise: the tape projects all inputs with one GEMM, the decoder
    # one row at a time.
    assert np.max(np.abs(rows - np.array(streamed))) <= 1e-12

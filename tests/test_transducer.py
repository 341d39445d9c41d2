import dataclasses
import math

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.config import ModelSettings
from convrnnt.errors import DataError, ShapeError
from convrnnt.layers import Linear
from convrnnt.transducer import (
    AudioEncoder,
    Joint,
    LSTMLayer,
    LabelEncoder,
    fuse_frontends,
)

import oracles
from oracles import fd_gradient, rel_err

INPUT_DIM = 12
CFG = ModelSettings(
    enc_layers=2,
    enc_hidden=8,
    proj_dim=8,
    label_hidden=8,
    label_embed=6,
    label_proj=8,
    joint_dim=8,
    vocab_size=5,
    dropout_p=0.0,
)


def zero_all(module):
    for _, p in module.params():
        p.data[...] = 0.0


# ---------------------------------------------------------------------------
# LSTM cell


def test_lstm_single_step_hand_oracle():
    # x = 1 with w = 1 and b = 0 gives the pre-activation row 1; u = 1.
    zero = np.zeros((1, 1))
    h2, c2 = np.empty((1, 1)), np.empty((1, 1))
    T.lstm_cell(np.ones((1, 4)), zero, zero, np.ones((1, 4)), np.empty((1, 4)), h2, c2)
    # Scripted single-step reference with explicit gate formulas.
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    c_ref = sig(1.0) * 0.0 + sig(1.0) * math.tanh(1.0)
    h_ref = sig(1.0) * math.tanh(c_ref)
    assert abs(c2[0, 0] - c_ref) <= 1e-12
    assert abs(h2[0, 0] - h_ref) <= 1e-12


def test_lstm_zero_weights_zero_hidden():
    layer = LSTMLayer(3, 4, 4, np.random.default_rng(1))
    for _, p in layer.params():
        p.data[...] = 0.0
    hs = T.lstm(T.Tensor(np.ones((5, 3))), layer.w, layer.u, layer.b, [5])
    assert np.all(hs.data == 0.0)


def test_lstm_forget_bias_initialized_to_one():
    layer = LSTMLayer(3, 4, 4, np.random.default_rng(2))
    assert np.all(layer.b.data[4:8] == 1.0)
    assert np.all(layer.b.data[:4] == 0.0) and np.all(layer.b.data[8:] == 0.0)


@pytest.mark.parametrize("t_len", [7, 1])
def test_lstm_hidden_states_gradient_matches_fd(t_len):
    layer = LSTMLayer(3, 4, 4, np.random.default_rng(22))
    rng = np.random.default_rng(23)
    for p in (layer.w, layer.u, layer.b):
        p.data[...] = rng.uniform(-0.8, 0.8, p.shape)
    x = rng.standard_normal((t_len, 3))
    seed = rng.standard_normal((t_len, 4))

    xt = T.Tensor(x, requires_grad=True)
    T.lstm(xt, layer.w, layer.u, layer.b, [t_len]).backward(seed)

    def f(arr, target):
        saved = target.copy()
        target[...] = arr
        try:
            with T.no_grad():
                out = T.lstm(T.Tensor(x), layer.w, layer.u, layer.b, [t_len])
                return float((out.data * seed).sum())
        finally:
            target[...] = saved

    assert rel_err(xt.grad, fd_gradient(lambda a: f(a, x), x.copy())) <= 1e-6
    for p in (layer.w, layer.u, layer.b):
        assert rel_err(p.grad, fd_gradient(lambda a: f(a, p.data), p.data.copy())) <= 1e-6


def test_lstm_rejects_mismatched_shapes():
    x, w, u, b = np.zeros((5, 3)), np.zeros((3, 16)), np.zeros((4, 16)), np.zeros(16)
    for args in ((x, w[:2], u, b), (x, w, u[:, :12], b), (x, w, u, b[:12]), (x[0], w, u, b)):
        with pytest.raises(ShapeError):
            T.lstm(*(T.Tensor(a) for a in args), [5])


def test_lstm_state_isolation_bitwise():
    layer = LSTMLayer(3, 4, 4, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    a = T.Tensor(rng.standard_normal((6, 3)))
    b = T.Tensor(rng.standard_normal((4, 3)))
    with T.no_grad():
        out_b_alone = layer(b, [4]).data
        layer(a, [6])
        out_b_after = layer(b, [4]).data
    assert np.array_equal(out_b_alone, out_b_after)


# ---------------------------------------------------------------------------
# audio encoder


def test_audio_encoder_causality_bitwise():
    enc = AudioEncoder(CFG, INPUT_DIM, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((10, INPUT_DIM))
    with T.no_grad():
        base = enc(T.Tensor(x), [10]).data
    t0 = 6
    x2 = x.copy()
    x2[t0] += 1.0
    with T.no_grad():
        pert = enc(T.Tensor(x2), [10]).data
    assert np.array_equal(base[:t0], pert[:t0])
    assert not np.array_equal(base[t0:], pert[t0:])


def test_audio_encoder_output_dim():
    enc = AudioEncoder(CFG, INPUT_DIM, np.random.default_rng(7))
    with T.no_grad():
        out = enc(T.Tensor(np.zeros((4, INPUT_DIM))), [4])
    assert out.shape == (4, CFG.proj_dim)


# ---------------------------------------------------------------------------
# label encoder


def test_label_encoder_empty_transcript():
    enc = LabelEncoder(CFG, np.random.default_rng(8))
    with T.no_grad():
        out = enc([])
    assert out.shape == (1, CFG.label_proj)


def test_label_encoder_prefix_dependence():
    enc = LabelEncoder(CFG, np.random.default_rng(9))
    with T.no_grad():
        base = enc([1, 2, 3]).data
        pert = enc([1, 2, 5]).data
    # Rows 0..2 encode prefixes of y_1..y_2 only.
    assert np.array_equal(base[:3], pert[:3])
    assert not np.array_equal(base[3], pert[3])


def test_label_encoder_zero_weights_zero_rows():
    enc = LabelEncoder(CFG, np.random.default_rng(10))
    zero_all(enc)
    with T.no_grad():
        out = enc([1, 4]).data
    assert np.all(out == 0.0)


def test_label_encoder_rejects_blank_and_overflow():
    enc = LabelEncoder(CFG, np.random.default_rng(11))
    with pytest.raises(DataError):
        enc([0, 1])
    with pytest.raises(DataError):
        enc([CFG.vocab_size + 1])


@pytest.mark.parametrize("bad", [[1.5], [1.0, 2.0], np.array([2.0])])
def test_label_encoder_rejects_non_integer_ids(bad):
    enc = LabelEncoder(CFG, np.random.default_rng(12))
    with pytest.raises(DataError):
        enc(bad)
    with pytest.raises(DataError):
        enc([1, 2], bad)


def test_label_encoder_step_matches_allocating_cell_bitwise():
    enc = LabelEncoder(dataclasses.replace(CFG, label_layers=2), np.random.default_rng(13))
    states = want_states = [(np.zeros((1, layer.hidden)),) * 2 for layer in enc.layers]
    for k in (-1, 3, 1, 4):
        states, row = enc.step(states, k)
        x = np.zeros((1, CFG.label_embed)) if k < 0 else enc.embed.table.data[k][None, :]
        stepped = []
        for layer, (h, c) in zip(enc.layers, want_states):
            h, c, _ = oracles.lstm_cell_allocating(x @ layer.w.data + layer.b.data, h, c,
                                                   layer.u.data)
            stepped.append((h, c))
            with T.no_grad():
                x = layer.project(T.Tensor(h)).data
        want_states = stepped
        assert row.tobytes() == x[0].tobytes()
        for got, want in zip(states, want_states):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# joint


def test_joint_zero_weights_uniform_posterior():
    joint = Joint(CFG, np.random.default_rng(12))
    zero_all(joint)
    with T.no_grad():
        logits = joint(T.Tensor(np.ones((3, CFG.proj_dim))), T.Tensor(np.ones((2, CFG.label_proj))))
    probs = np.exp(logits.data)
    probs /= probs.sum(axis=-1, keepdims=True)
    assert np.allclose(probs, 1.0 / (CFG.vocab_size + 1))


def test_joint_logits_shape():
    joint = Joint(CFG, np.random.default_rng(13))
    with T.no_grad():
        out = joint(T.Tensor(np.zeros((4, CFG.proj_dim))), T.Tensor(np.zeros((3, CFG.label_proj))))
    assert out.shape == (4, 3, CFG.vocab_size + 1)


def test_joint_gradient_matches_fd():
    cfg = ModelSettings(
        enc_layers=1, enc_hidden=3, proj_dim=3, label_hidden=3,
        label_embed=3, label_proj=3, joint_dim=3, vocab_size=2, dropout_p=0.0,
    )
    joint = Joint(cfg, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    enc = rng.standard_normal((2, 3))
    pred = rng.standard_normal((2, 3))
    weights = np.cos(np.arange(2 * 2 * 3, dtype=np.float64)).reshape(2, 2, 3)

    enc_t = T.Tensor(enc, requires_grad=True)
    pred_t = T.Tensor(pred, requires_grad=True)
    oracles.sum_all(oracles.mul(joint(enc_t, pred_t), T.Tensor(weights))).backward()

    def f_enc(e):
        with T.no_grad():
            return float((joint(T.Tensor(e), T.Tensor(pred)).data * weights).sum())

    def f_pred(p):
        with T.no_grad():
            return float((joint(T.Tensor(enc), T.Tensor(p)).data * weights).sum())

    assert rel_err(enc_t.grad, fd_gradient(f_enc, enc.copy())) <= 1e-4
    assert rel_err(pred_t.grad, fd_gradient(f_pred, pred.copy())) <= 1e-4


def test_joint_matches_primitive_composition_bitwise():
    joint = Joint(CFG, np.random.default_rng(17))
    rng = np.random.default_rng(18)
    enc = rng.standard_normal((4, CFG.proj_dim))
    pred = rng.standard_normal((3, CFG.label_proj))
    n_out = CFG.vocab_size + 1
    seed = rng.standard_normal((4, 3, n_out))
    params = [p for _, p in joint.params()]

    def run(fn):
        for p in params:
            p.zero_grad()
        e, q = T.Tensor(enc, requires_grad=True), T.Tensor(pred, requires_grad=True)
        out = fn(e, q)
        out.backward(seed)
        return [out.data, e.grad, q.grad] + [p.grad.copy() for p in params]

    def primitives(e, q):
        z = oracles.outer_sum(oracles.matmul(e, joint.enc_proj), oracles.matmul(q, joint.pred_proj))
        z = oracles.add(z, joint.bias)
        flat = T.reshape(oracles.tanh(z), (4 * 3, CFG.joint_dim))
        flat = oracles.add(oracles.matmul(flat, joint.out.weight), joint.out.bias)
        return T.reshape(flat, (4, 3, n_out))

    for got, want in zip(run(joint), run(primitives)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lengths", [None, ([4, 2, 3], [3, 1, 2])])
def test_joint_is_its_definition_within_the_error_bound(lengths):
    # The packed call, and one utterance's [T, U+1, V+1] call, against the
    # cell-by-cell definition and its written-out chain rule.  The biases,
    # which start at zero, are drawn too, so dropping one shows.
    joint = Joint(CFG, np.random.default_rng(19))
    rng = np.random.default_rng(20)
    for p in (joint.bias, joint.out.bias):
        p.data[...] = rng.standard_normal(p.shape)
    per_utt = ([4], [3]) if lengths is None else lengths
    enc = T.Tensor(rng.standard_normal((sum(per_utt[0]), CFG.proj_dim)), requires_grad=True)
    pred = T.Tensor(rng.standard_normal((sum(per_utt[1]), CFG.label_proj)), requires_grad=True)
    g = rng.standard_normal((sum(t * u for t, u in zip(*per_utt)), CFG.vocab_size + 1))
    out = joint(enc, pred, lengths)
    out.backward(g.reshape(out.shape))
    params = dict(joint.params())
    (want, bound), grads = oracles.joint_cells(
        enc.data, params["enc_proj"].data, pred.data, params["pred_proj"].data,
        params["bias"].data, params["out.weight"].data, params["out.bias"].data, per_utt, g)
    assert np.all(np.abs(out.data.reshape(want.shape) - want) <= bound)
    for name, t in [("a", enc), ("b", pred), ("wa", params["enc_proj"]),
                    ("wb", params["pred_proj"]), ("bias", params["bias"]),
                    ("w", params["out.weight"]), ("bw", params["out.bias"])]:
        want, bound = grads[name]
        assert t.grad.shape == want.shape and np.all(np.abs(t.grad - want) <= bound), name


# ---------------------------------------------------------------------------
# frontend fusion


def test_fuse_zero_projection_gives_zero():
    proj = Linear(8, 5, np.random.default_rng(16))
    zero_all(proj)
    out = fuse_frontends(
        [T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((3, 4)))], proj
    )
    assert np.all(out.data == 0.0)


def test_fuse_selector_matrix_passes_local_through():
    proj = Linear(8, 4, np.random.default_rng(17))
    proj.weight.data[...] = 0.0
    proj.weight.data[:4, :] = np.eye(4)  # select the first (local) block
    proj.bias.data[...] = 0.0
    rng = np.random.default_rng(18)
    local = rng.standard_normal((5, 4))
    glob = rng.standard_normal((5, 4))
    out = fuse_frontends([T.Tensor(local), T.Tensor(glob)], proj)
    assert np.allclose(out.data, local)


def test_fuse_gradient_matches_fd():
    proj = Linear(6, 4, np.random.default_rng(19))
    rng = np.random.default_rng(20)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 4))
    weights = np.cos(np.arange(12, dtype=np.float64)).reshape(3, 4)

    at = T.Tensor(a, requires_grad=True)
    bt = T.Tensor(b, requires_grad=True)
    oracles.sum_all(oracles.mul(fuse_frontends([at, bt], proj), T.Tensor(weights))).backward()

    def f(x, which):
        with T.no_grad():
            parts = [T.Tensor(x), T.Tensor(b)] if which == 0 else [T.Tensor(a), T.Tensor(x)]
            return float((fuse_frontends(parts, proj).data * weights).sum())

    assert rel_err(at.grad, fd_gradient(lambda x: f(x, 0), a.copy())) <= 1e-4
    assert rel_err(bt.grad, fd_gradient(lambda x: f(x, 1), b.copy())) <= 1e-4

import math
import tracemalloc

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.config import load_preset
from convrnnt.errors import DataError, ShapeError
from convrnnt.model import PARAM_GROUPS, TransducerModel, count_parameters, make_rng, parameter_shapes
from convrnnt.rnnt_loss import rnnt_loss
from convrnnt.train import frontend_param_count

import oracles
from oracles import batch_loss_per_utterance


def desk_cfg(**overrides):
    items = [f"{k}={v}" for k, v in {"model.vocab_size": 8, **overrides}.items()]
    return load_preset("desk", items)


def test_registry_matches_shape_mirror():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=0)
    built = [(name, p.shape) for name, p in model.parameters()]
    assert built == [(name, tuple(shape)) for name, shape in parameter_shapes(cfg)]


def test_ablation_variants_registry_matches_mirror():
    for flags in ({"model.global_enabled": "false"}, {"model.local_enabled": "false"}):
        cfg = desk_cfg(**flags)
        model = TransducerModel(cfg, seed=1)
        built = [(name, p.shape) for name, p in model.parameters()]
        assert built == [(name, tuple(shape)) for name, shape in parameter_shapes(cfg)]


def test_lstm_only_baseline_builds_trains_and_encodes():
    # Both frontends off: the encoder LSTMs read the stacked features, and
    # no frontend or fusion parameter exists.
    cfg = desk_cfg(**{"model.local_enabled": "false", "model.global_enabled": "false"})
    model = TransducerModel(cfg, seed=30)
    built = [(name, p.shape) for name, p in model.parameters()]
    assert built == [(name, tuple(shape)) for name, shape in parameter_shapes(cfg)]
    assert not any(name.startswith(("local.", "global.", "fuse.")) for name, _ in built)
    assert count_parameters(cfg)["convolution blocks"] == 0
    assert model.norm_layers() == []

    feats, tokens = random_batch(cfg, 31, BATCH_LENGTHS[:3])
    loss, nlls = model.batch_loss(feats, tokens, rng=make_rng(32))
    assert len(nlls) == 3 and np.all(np.isfinite(nlls))
    loss.backward()
    for name, p in model.parameters():
        assert p.grad is not None and np.any(p.grad != 0.0), name
    with T.no_grad():
        _, nlls = model.batch_loss(feats, tokens)
        _, want = batch_loss_per_utterance(model, feats, tokens)
        enc = model.encode_audio(*(T.Tensor(f) for f in feats))
    assert np.max(np.abs(np.subtract(nlls, want)) / np.abs(want)) <= 1e-12
    assert enc.shape == (sum(BATCH_LENGTHS[:3]), cfg.model.proj_dim)
    assert np.all(np.isfinite(enc.data))


def test_frontend_param_counts_are_additive():
    for preset in ("desk", "paper"):
        f_both, f_local, f_global = (
            frontend_param_count(load_preset(preset, ["model.vocab_size=8", *extra]))
            for extra in ([], ["model.global_enabled=false"], ["model.local_enabled=false"])
        )
        assert f_both == f_local + f_global, preset


def test_global_shapes_do_not_depend_on_local_channels():
    def global_shapes(channels):
        shapes = parameter_shapes(desk_cfg(**{"model.local_channels": channels}))
        return [(name, shape) for name, shape in shapes if name.startswith("global.")]

    assert global_shapes("8,8,3,3") == global_shapes("16,5") == global_shapes("4,4,4,9")


# Paper-preset ratio of each report group to its published size.
PAPER_GROUP_RATIOS = {
    "convolution blocks": 0.427,
    "LSTM encoder": 1.170,
    "joint network": 1.412,
    "decoder input embedding": 1.033,
    "LSTM decoder": 1.002,
}


def test_paper_param_group_ratios():
    counts = count_parameters(load_preset("paper"))
    assert counts["convolution blocks"] == 2_306_932
    for group, _, ref_m in PARAM_GROUPS:
        assert counts[group] / 1e6 / ref_m == pytest.approx(PAPER_GROUP_RATIOS[group], abs=5e-4), group


def test_paper_parameter_shapes_allocate_no_weights():
    # The paper model holds 29.5M float64 weights (225 MiB); its registry
    # must be readable without them.
    cfg = load_preset("paper")
    tracemalloc.start()
    try:
        shapes = parameter_shapes(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(shapes) == 140
    assert sum(math.prod(shape) for _, shape in shapes) == 29_519_417


def test_loss_backward_reaches_every_parameter():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=2)
    rng = make_rng(3)
    feats = rng.standard_normal((6, cfg.input_dim))
    loss, _ = model.batch_loss([feats], [[1, 3]], rng=rng)
    assert float(loss.data) > 0.0
    loss.backward()
    for name, p in model.parameters():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name


def test_end_to_end_audio_causality_bitwise():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((14, cfg.input_dim))
    with T.no_grad():
        base = model.encode_audio(T.Tensor(x)).data
    t0 = 9
    x2 = x.copy()
    x2[t0] += 1.0
    with T.no_grad():
        pert = model.encode_audio(T.Tensor(x2)).data
    assert np.array_equal(base[:t0], pert[:t0])
    assert not np.array_equal(base[t0:], pert[t0:])


def test_joint_invariant_to_future_labels():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=6)
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.standard_normal((5, cfg.input_dim)))
    with T.no_grad():
        enc = model.encode_audio(x)
        full = model.joint(enc, model.label_encoder([2, 5, 1])).data
        swapped = model.joint(enc, model.label_encoder([2, 5, 7])).data
    # Rows u = 0..2 depend only on y_1..y_2.
    assert np.array_equal(full[:, :3, :], swapped[:, :3, :])
    assert not np.array_equal(full[:, 3, :], swapped[:, 3, :])


def test_utterance_state_isolation_bitwise():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=8)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((7, cfg.input_dim))
    b = rng.standard_normal((5, cfg.input_dim))
    with T.no_grad():
        alone = model.encode_audio(T.Tensor(b)).data
        model.encode_audio(T.Tensor(a))
        after = model.encode_audio(T.Tensor(b)).data
    assert np.array_equal(alone, after)


def test_same_seed_same_gradients_bitwise():
    def run():
        cfg = desk_cfg()
        model = TransducerModel(cfg, seed=10)
        rng = make_rng(11)
        feats = make_rng(12).standard_normal((5, cfg.input_dim))
        loss, _ = model.batch_loss([feats], [[2, 4]], rng=rng)
        loss.backward()
        return float(loss.data), {n: p.grad.copy() for n, p in model.parameters()}

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    for name in g1:
        assert np.array_equal(g1[name], g2[name]), name


def test_param_groups_cover_registry():
    cfg = desk_cfg()
    counts = count_parameters(cfg)
    total_by_group = sum(counts.values())
    model = TransducerModel(cfg, seed=13)
    total_built = sum(p.data.size for _, p in model.parameters())
    assert total_by_group == total_built


# A desk-sized batch of uneven utterances, one of a single frame.
BATCH_LENGTHS = (12, 1, 7, 15, 9, 4, 12, 2, 10, 6)


def random_batch(cfg, seed, lengths=BATCH_LENGTHS):
    rng = np.random.default_rng(seed)
    feats = [rng.standard_normal((t, cfg.input_dim)) for t in lengths]
    tokens = [list(rng.integers(1, 9, size=rng.integers(0, 5))) for _ in lengths]
    return feats, tokens


def test_the_generator_is_the_mode_switch():
    # Without a generator the model evaluates and leaves the batch-norm
    # running statistics alone; with one it trains: it draws dropout masks
    # and updates every running statistic, and equal generator states give
    # equal losses (training mode never reads the running statistics).
    cfg = desk_cfg(**{"model.dropout_p": 0.1})
    model = TransducerModel(cfg, seed=50)
    feats, tokens = random_batch(cfg, 51, BATCH_LENGTHS[:4])

    def stats():
        return [(bn.stats.mean.tobytes(), bn.stats.var.tobytes()) for _, bn in model.norm_layers()]

    before = stats()
    assert before
    model.batch_loss(feats, tokens)
    assert stats() == before

    rng = make_rng(52)
    state = rng.bit_generator.state
    first, _ = model.batch_loss(feats, tokens, rng=rng)
    assert not np.array_equal(rng.bit_generator.state["state"]["counter"], state["state"]["counter"])
    for (name, _), (mean0, var0), (mean1, var1) in zip(model.norm_layers(), before, stats()):
        assert mean0 != mean1 and var0 != var1, name
    rng.bit_generator.state = state
    second, _ = model.batch_loss(feats, tokens, rng=rng)
    assert first.data.tobytes() == second.data.tobytes()


def test_batch_loss_matches_per_utterance_oracle():
    cfg = desk_cfg()
    feats, tokens = random_batch(cfg, 14, BATCH_LENGTHS[:5])

    def run(loss_fn):
        model = TransducerModel(cfg, seed=15)
        loss, nlls = loss_fn(model, feats, tokens, rng=make_rng(16))
        loss.backward()
        return float(loss.data), nlls, {n: p.grad for n, p in model.parameters()}

    loss, nlls, grads = run(TransducerModel.batch_loss)
    want_loss, want_nlls, want_grads = run(batch_loss_per_utterance)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.max(np.abs(np.subtract(nlls, want_nlls)) / np.abs(want_nlls)) <= 1e-12
    # Relative to the largest gradient entry of the model: training-mode
    # batch-norm cancels some gamma gradients to 1e-7 of the others, so their
    # own scale would measure amplified rounding, not a different sum.
    scale = max(np.max(np.abs(want)) for want in want_grads.values())
    for name, want in want_grads.items():
        assert np.any(want != 0.0), name
        assert np.max(np.abs(grads[name] - want)) <= 1e-12 * scale, name


# A batch with a one-frame utterance, an empty transcript and two
# utterances with more labels than frames.
EDGE_LENGTHS = (6, 1, 9, 3, 12)
EDGE_TOKENS = ([3, 1], [2, 2, 5], [], [1, 4, 6, 8, 2], [7, 3, 3, 1])


def test_packed_joint_and_loss_match_per_utterance_calls():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=29)
    feats, _ = random_batch(cfg, 30, EDGE_LENGTHS)
    tokens = [list(t) for t in EDGE_TOKENS]
    with T.no_grad():
        enc = model.encode_audio(*(T.Tensor(f) for f in feats)).data
        pred = model.label_encoder(*tokens).data
    rows = [len(t) + 1 for t in tokens]

    def grads(inputs):
        out = [np.concatenate([x.grad for x in xs]) for xs in inputs]
        out += [p.grad for _, p in model.joint.params()]
        for _, p in model.joint.params():
            p.zero_grad()
        return out

    e, p = T.Tensor(enc, requires_grad=True), T.Tensor(pred, requires_grad=True)
    loss, nlls = rnnt_loss(model.joint(e, p, (EDGE_LENGTHS, rows)), tokens, EDGE_LENGTHS)
    loss.backward()
    packed = grads([[e], [p]])

    es = [T.Tensor(x, requires_grad=True) for x in np.split(enc, np.cumsum(EDGE_LENGTHS)[:-1])]
    ps = [T.Tensor(x, requires_grad=True) for x in np.split(pred, np.cumsum(rows)[:-1])]
    losses = [rnnt_loss(model.joint(ei, pi), ti) for ei, pi, ti in zip(es, ps, tokens)]
    mean = oracles.mean_of(losses)
    mean.backward()
    alone = grads([es, ps])

    assert nlls == [float(l.data) for l in losses]
    assert loss.data.tobytes() == mean.data.tobytes()
    for got, want in zip(packed, alone):
        assert np.any(want != 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def count_nodes(monkeypatch):
    """Wrap `tensor.from_op`; the returned list gets one entry per recorded node."""
    nodes, from_op = [], T.from_op

    def counting(data, parents, backward):
        out = from_op(data, parents, backward)
        if out._backward is not None:
            nodes.append(out.shape)
        return out

    monkeypatch.setattr(T, "from_op", counting)
    return nodes


def test_desk_step_records_at_most_22_tape_nodes(monkeypatch):
    # The global encoder is one node, the joint two, the loss one and the
    # label embedding one for the whole batch; a global encoder that cut its
    # rows apart per utterance would add 66 nodes for these 10 utterances,
    # and one joint and loss per utterance 51 more.
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=26)
    feats, tokens = random_batch(cfg, 27)
    nodes = count_nodes(monkeypatch)
    loss, _ = model.batch_loss(feats, tokens, rng=make_rng(28))
    loss.backward()
    assert len(nodes) <= 22


def test_batch_nll_equals_batch_of_one_nll():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=17)
    feats, tokens = random_batch(cfg, 18)
    with T.no_grad():
        _, nlls = model.batch_loss(feats, tokens)
        alone = [model.batch_loss([f], [t])[1][0] for f, t in zip(feats, tokens)]
    assert len(nlls) == 10
    assert np.max(np.abs(np.subtract(nlls, alone)) / np.abs(alone)) <= 1e-12


def test_batch_encoding_keeps_utterances_apart_bitwise():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=19)
    feats, _ = random_batch(cfg, 20)
    ends = np.cumsum(BATCH_LENGTHS)

    def encode(xs):
        with T.no_grad():
            return model.encode_audio(*(T.Tensor(x) for x in xs)).data

    base = encode(feats)
    for k, t0 in ((3, 5), (1, 0), (9, 2)):
        pert = [f.copy() for f in feats]
        pert[k][t0] += 1.0
        out = encode(pert)
        row = ends[k] - BATCH_LENGTHS[k] + t0
        assert np.array_equal(out[:row], base[:row])
        assert np.array_equal(out[ends[k]:], base[ends[k]:])
        assert not np.array_equal(out[row:ends[k]], base[row:ends[k]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=21)
    feats, tokens = random_batch(cfg, 22, BATCH_LENGTHS[:3])
    feats[1][0, 5] = bad
    with pytest.raises(DataError):
        model.batch_loss(feats, tokens, rng=make_rng(23))
    with pytest.raises(DataError), T.no_grad():
        model.encode_audio(T.Tensor(feats[1]))


def test_empty_or_mismatched_batch_raises_shape_error():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=24)
    feats, tokens = random_batch(cfg, 25, BATCH_LENGTHS[:2])
    for bad_feats, bad_tokens in (([], []), (feats, tokens[:1]), (feats[:1], tokens)):
        with pytest.raises(ShapeError), T.no_grad():
            model.batch_loss(bad_feats, bad_tokens)


def test_utterance_without_frames_raises_shape_error_naming_it():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=26)
    feats, tokens = random_batch(cfg, 27, BATCH_LENGTHS[:3])
    feats[2] = feats[2][:0]
    with pytest.raises(ShapeError, match="utterance 2"):
        model.batch_loss(feats, tokens, rng=make_rng(28))
    with pytest.raises(ShapeError, match="utterance 0"), T.no_grad():
        model.encode_audio(T.Tensor(feats[2]))

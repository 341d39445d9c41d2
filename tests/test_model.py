import gc
import itertools
import json
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import convrnnt.layers
import convrnnt.model
from convrnnt import tensor as T
from convrnnt.config import load_preset
from convrnnt.errors import DataError, ShapeError, TrainingError
from convrnnt.model import (
    PARAM_GROUPS,
    TransducerModel,
    count_parameters,
    make_rng,
    parameter_shapes,
)
from convrnnt.global_encoder import GlobalBlock
from convrnnt.layers import PARALLEL_DRAW_MIN, Linear, _DeferredInit
from convrnnt.local_encoder import LocalEncoder
from convrnnt.rnnt_loss import rnnt_loss
from convrnnt.train import frontend_param_count
from convrnnt.transducer import Joint, LSTMLayer

import oracles
from oracles import (
    F32_ENCODER_REL_TOL,
    batch_loss_per_utterance,
    encodings_at_both_dtypes,
    max_rel_gap,
    models_at_both_dtypes,
)


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


@pytest.mark.parametrize("seed", [0, 1234])
def test_build_draws_the_serial_stream_bit_for_bit(seed):
    # The two threads of the build draw what one generator drawing every
    # weight in turn would, and the worker thread has ended when it returns.
    cfg = desk_cfg()
    threads = threading.active_count()
    model = TransducerModel(cfg, seed=seed)
    assert threading.active_count() == threads
    serial = TransducerModel.__new__(TransducerModel)
    serial._build(cfg, make_rng(seed))
    assert [name for name, _ in model.parameters()] == [name for name, _ in serial.parameters()]
    for (name, p), (_, q) in zip(model.parameters(), serial.parameters()):
        assert p.data.tobytes() == q.data.tobytes(), name


# Draw sizes whose stream midpoint falls inside an array, at offsets 1-8 of
# the stream (every residue of Philox's four outputs per counter step), in
# the first and in a later array; one midpoint on an array boundary; and one
# array just below, at and just above `uniform_init`'s two-thread threshold.
SPLIT_DRAWS = ([[n] for n in range(2, 18)] + [[1, n] for n in range(2, 17)]
               + [[(2, 3), 6, (4, 1)]]
               + [[PARALLEL_DRAW_MIN + d] for d in (-1, 0, 1)])


def state_json(rng):
    """The generator's whole bit-generator state, as comparable text."""
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


def generator_at(lead, pending):
    """`make_rng(7)` after `lead` doubles and, if `pending`, one 32-bit draw,
    which leaves half of a Philox output pending."""
    rng = make_rng(7)
    rng.random(lead)
    if pending:
        rng.integers(0, 1000, dtype=np.int32)
    return rng


@pytest.mark.parametrize("sizes", SPLIT_DRAWS)
def test_deferred_fill_splits_the_serial_stream_anywhere(sizes):
    # Started 0-8 draws into a generator (every residue of its buffer), with
    # and without a pending 32-bit half, the fill gives each array the serial
    # draws (rounded, in float32) and leaves the generator in the whole state
    # a serial draw leaves: its next 32-bit draws are the serial ones too.
    bounds = [(-0.5 - k, 0.25 + 2 * k) for k in range(len(sizes))]
    for dtype, lead, pending in itertools.product((np.float64, np.float32), range(9),
                                                  (False, True)):
        init = _DeferredInit(dtype)
        arrays = [init.uniform(low, high, size) for (low, high), size in zip(bounds, sizes)]
        rng, serial = generator_at(lead, pending), generator_at(lead, pending)
        init.fill(rng)
        for (low, high), size, got in zip(bounds, sizes, arrays):
            want = serial.uniform(low, high, size).astype(dtype)
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), (dtype, sizes, lead)
        assert state_json(rng) == state_json(serial), (dtype, sizes, lead, pending)
        assert (rng.integers(0, 1000, 3, dtype=np.int32).tolist()
                == serial.integers(0, 1000, 3, dtype=np.int32).tolist())


def test_a_joint_from_a_generator_draws_its_serial_bits(monkeypatch):
    # The paper-width joint's three weight arrays each take the two-thread
    # fill, and the generator then draws on where a serial build leaves it.
    # A PCG64 generator and a draw under the threshold stay serial.
    m = load_preset("paper").transducer_config()
    fills = []
    fill = _DeferredInit.fill

    def counting(self, rng):
        fills.append(sum(flat.size for flat, _, _ in self._draws))
        fill(self, rng)

    monkeypatch.setattr(_DeferredInit, "fill", counting)
    rng = make_rng(1)
    joint = Joint(m, rng)
    assert fills == [m.proj_dim * m.joint_dim, m.label_proj * m.joint_dim,
                     m.joint_dim * (m.vocab_size + 1)]
    monkeypatch.setattr(convrnnt.layers, "PARALLEL_DRAW_MIN", math.inf)
    serial = make_rng(1)
    want = Joint(m, serial)
    assert len(fills) == 3
    for (name, p), (_, q) in zip(joint.params(), want.params()):
        assert p.data.tobytes() == q.data.tobytes(), name
    assert state_json(rng) == state_json(serial)
    monkeypatch.undo()
    monkeypatch.setattr(_DeferredInit, "fill", counting)
    n = math.isqrt(PARALLEL_DRAW_MIN)
    pcg = Linear(n, n, np.random.default_rng(5))
    assert len(fills) == 3
    assert pcg.weight.data.tobytes() == np.random.default_rng(5).uniform(
        -1 / np.sqrt(n), 1 / np.sqrt(n), (n, n)).tobytes()
    Linear(n - 1, n + 1, make_rng(5))  # one value under the threshold
    assert len(fills) == 3


def test_fill_rounds_draws_through_a_bounded_scratch(monkeypatch):
    # Arrays longer than the scratch, one of them cut by the two threads,
    # take the serial draws rounded, and no float64 copy of an array is made.
    monkeypatch.setattr(T, "BLOCK_BYTES", 64)
    sizes, bounds = [13, 29, 6], [(-1.0, 1.0), (-0.25, 0.5), (0.0, 3.0)]
    init = _DeferredInit(np.float32)
    arrays = [init.uniform(low, high, size) for (low, high), size in zip(bounds, sizes)]
    init.fill(make_rng(3))
    rng = make_rng(3)
    for (low, high), size, got in zip(bounds, sizes, arrays):
        assert got.tobytes() == rng.uniform(low, high, size).astype(np.float32).tobytes()
    out = np.empty(4096, np.float32)
    tracemalloc.start()
    try:
        convrnnt.layers._draw(make_rng(4), [(out, -1.0, 1.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.tobytes() == make_rng(4).uniform(-1.0, 1.0, 4096).astype(np.float32).tobytes()
    assert peak < out.size  # an eighth of a float64 copy


def test_a_failure_on_the_worker_thread_is_raised_in_the_caller(monkeypatch):
    caller = threading.current_thread()
    draw = convrnnt.layers._draw

    def failing_off_the_caller(rng, pieces):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker half failed")
        draw(rng, pieces)

    unfilled = []
    uniform = _DeferredInit.uniform

    def recording(self, low, high, size):
        out = uniform(self, low, high, size)
        unfilled.append(weakref.ref(out))
        return out

    monkeypatch.setattr(convrnnt.layers, "_draw", failing_off_the_caller)
    monkeypatch.setattr(_DeferredInit, "uniform", recording)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="worker half failed"):
        TransducerModel(desk_cfg(), seed=0)
    gc.collect()
    assert threading.active_count() == threads
    # No model and no parameter is left holding the unfilled arrays.
    assert unfilled and all(ref() is None for ref in unfilled)
    # A layer built from a generator fills its large weights the same way.
    unfilled.clear()
    n = math.isqrt(PARALLEL_DRAW_MIN)
    with pytest.raises(RuntimeError, match="worker half failed"):
        Linear(n, n, make_rng(0))
    gc.collect()
    assert threading.active_count() == threads
    assert unfilled and all(ref() is None for ref in unfilled)


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
        return [(bn.running_mean.tobytes(), bn.running_var.tobytes())
                for _, bn in model.norm_layers()]

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


def test_desk_step_records_at_most_21_tape_nodes(monkeypatch):
    # The global encoder is one node, the joint one, the loss one and the
    # label embedding one for the whole batch (21 nodes; CI's traced run
    # gates that count); a global encoder that cut its rows apart per
    # utterance would add 66 nodes for these 10 utterances, and one joint
    # and loss per utterance dozens more.
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=26)
    feats, tokens = random_batch(cfg, 27)
    nodes = count_nodes(monkeypatch)
    loss, _ = model.batch_loss(feats, tokens, rng=make_rng(28))
    loss.backward()
    assert len(nodes) <= 21


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


# ---------------------------------------------------------------------------
# float32 inference


def test_float32_inference_runs_every_encoder_layer_in_float32(monkeypatch):
    # A layer that upcast to float64 would keep the output but lose the gain.
    cfg = desk_cfg(**{"model.inference_dtype": "float32"})
    model64, model32 = models_at_both_dtypes(cfg, 12)
    assert model32.dtype == np.float32 and TransducerModel(cfg, 12).dtype == np.float32
    seen = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append((name, (out[0] if isinstance(out, tuple) else out.data).dtype))
            return out
        return wrapped

    monkeypatch.setattr(LocalEncoder, "__call__", spy("local", LocalEncoder.__call__))
    monkeypatch.setattr(GlobalBlock, "forward_batch", spy("block", GlobalBlock.forward_batch))
    monkeypatch.setattr(convrnnt.model, "fuse_frontends",
                        spy("fuse", convrnnt.model.fuse_frontends))
    monkeypatch.setattr(LSTMLayer, "__call__", spy("lstm", LSTMLayer.__call__))
    xs = [T.Tensor(make_rng(13).standard_normal((t, cfg.input_dim))) for t in (9, 5)]
    layers = ["local"] + ["block"] * cfg.model.global_blocks + ["fuse"] + ["lstm"] * cfg.model.enc_layers
    with T.no_grad():
        enc = model32.encode_audio(*xs)
    assert seen == [(name, np.float32) for name in layers]
    assert enc.data.dtype == np.float32
    # The float64 model of the same config, as `Trainer` builds it, runs in
    # float64, float32 features included.
    seen.clear()
    enc = model64.encode_audio(*(T.Tensor(x.data.astype(np.float32)) for x in xs))
    assert seen == [(name, np.float64) for name in layers]
    assert enc.data.dtype == np.float64


def test_float32_features_train_in_float64():
    # A float64 model casts them to float64, which gives the bits of
    # features handed over as float64 to begin with.
    cfg = desk_cfg(**{"model.inference_dtype": "float32"})
    feats = [make_rng(14).standard_normal((t, cfg.input_dim)).astype(np.float32) for t in (9, 5)]
    runs = []
    for xs in (feats, [f.astype(np.float64) for f in feats]):
        model = TransducerModel(cfg, seed=15, dtype=np.float64)
        loss, nlls = model.batch_loss(xs, [[1, 2], [3]], rng=make_rng(16))
        loss.backward()
        runs.append([loss.data.tobytes(), np.asarray(nlls).tobytes()]
                    + [p.grad.tobytes() for _, p in model.parameters()])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_features_beyond_the_float32_range_are_refused_at_float32(value):
    # Finite in float64, they would turn into inf in the cast.
    cfg = desk_cfg(**{"model.inference_dtype": "float32"})
    model = TransducerModel(cfg, seed=17)
    x = make_rng(18).standard_normal((6, cfg.input_dim))
    x[2, 3] = value
    with T.no_grad(), pytest.raises(DataError, match="not finite in float32"):
        model.encode_audio(T.Tensor(x))


def test_float32_encoding_stays_near_float64_at_paper_width():
    cfg = load_preset("paper")
    assert cfg.model.inference_dtype == "float32"
    enc64, enc32 = encodings_at_both_dtypes(models_at_both_dtypes(cfg, 1),
                                            make_rng(19).standard_normal((24, cfg.input_dim)))
    assert max_rel_gap(enc32, enc64) <= F32_ENCODER_REL_TOL


def test_float32_label_rows_and_logits_stay_in_float32_near_float64():
    # The label embedding's lookup and the joint allocate in their inputs'
    # dtype, so the float32 model's label rows reach its float32 LSTMs, and
    # its logits come out, in float32.
    cfg = desk_cfg(**{"model.inference_dtype": "float32"})
    models = models_at_both_dtypes(cfg, 23)
    encs = encodings_at_both_dtypes(models, make_rng(24).standard_normal((7, cfg.input_dim)))
    rows = []
    for model, enc in zip(models, encs):
        with T.no_grad():
            pred = model.label_encoder([1, 2])
            rows.append((pred.data, model.joint(T.Tensor(enc), pred).data))
    (pred64, logits64), (pred32, logits32) = rows
    assert pred32.dtype == logits32.dtype == np.float32
    assert pred64.dtype == logits64.dtype == np.float64
    assert logits32.shape == logits64.shape == (7, 3, cfg.model.vocab_size + 1)
    assert max_rel_gap(pred32, pred64) <= F32_ENCODER_REL_TOL
    assert max_rel_gap(logits32, logits64) <= F32_ENCODER_REL_TOL


def model_arrays(model):
    """(name, array) of every parameter and running statistic."""
    return [(name, p.data) for name, p in model.parameters()] + [
        (f"{name}.{stat}", getattr(bn, f"running_{stat}"))
        for name, bn in model.norm_layers() for stat in ("mean", "var")]


@pytest.mark.parametrize("preset,seed", [("desk", 0), ("desk", 7), ("paper", 1)])
def test_a_float32_model_holds_the_float64_weights_rounded(preset, seed, monkeypatch):
    # Bit for bit the values a per-call cast of the float64 build gave, with
    # no float64 array left; the two-thread fill cuts one array in two.
    cuts = []
    fill = _DeferredInit.fill

    def recording_fill(self, rng):
        ends = np.cumsum([flat.size for flat, _, _ in self._draws])
        cuts.append(ends[-1] // 2 not in ends)
        fill(self, rng)

    monkeypatch.setattr(_DeferredInit, "fill", recording_fill)
    overrides = {"model.inference_dtype": "float32"} if preset == "desk" else {}
    cfg = desk_cfg(**overrides) if preset == "desk" else load_preset(preset)
    model32 = TransducerModel(cfg, seed)
    assert cuts == [True]
    arrays32 = model_arrays(model32)
    assert all(a.dtype == np.float32 for _, a in arrays32)
    assert not any(p.requires_grad for _, p in model32.parameters())
    del model32
    model64 = TransducerModel(cfg, seed, dtype=np.float64)
    arrays64 = model_arrays(model64)
    assert [name for name, _ in arrays32] == [name for name, _ in arrays64]
    for (name, a32), (_, a64) in zip(arrays32, arrays64):
        assert a64.dtype == np.float64
        assert a32.tobytes() == a64.astype(np.float32).tobytes(), name


def test_a_float32_model_refuses_to_train_or_record():
    # Each would run the tape or the float64 loss on float32 weights, or cut
    # the features off the tape without a word.
    cfg = desk_cfg(**{"model.inference_dtype": "float32"})
    model = TransducerModel(cfg, seed=20)
    feats, tokens = random_batch(cfg, 21, BATCH_LENGTHS[:2])
    with pytest.raises(TrainingError, match="holds float32 weights"):
        model.encode_audio(T.Tensor(feats[0]), rng=make_rng(22))
    with pytest.raises(TrainingError, match="holds float32 weights"):
        model.encode_audio(T.Tensor(feats[0], requires_grad=True))
    with pytest.raises(TrainingError, match="holds float32 weights"), T.no_grad():
        model.batch_loss(feats, tokens)
    with T.no_grad():
        enc = model.encode_audio(*(T.Tensor(f) for f in feats))
        with pytest.raises(TrainingError, match="holds float32 weights"):
            model.encoded_loss(enc, [f.shape[0] for f in feats], tokens)
    # Without a tape, features that require grad are only read.
    with T.no_grad():
        again = model.encode_audio(*(T.Tensor(f, requires_grad=True) for f in feats))
    assert again.data.tobytes() == enc.data.tobytes()

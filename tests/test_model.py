import math
import tracemalloc

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.config import load_preset
from convrnnt.errors import ConfigError
from convrnnt.model import TransducerModel, count_parameters, make_rng, parameter_shapes
from convrnnt.train import frontend_param_count


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


def test_both_frontends_disabled_rejected():
    with pytest.raises(ConfigError):
        desk_cfg(**{"model.local_enabled": "false", "model.global_enabled": "false"})


def test_frontend_param_counts_are_additive():
    f_both = frontend_param_count(desk_cfg())
    f_local = frontend_param_count(desk_cfg(**{"model.global_enabled": "false"}))
    f_global = frontend_param_count(desk_cfg(**{"model.local_enabled": "false"}))
    assert f_both == f_local + f_global


def test_paper_parameter_shapes_allocate_no_weights():
    # The paper model holds 457.6M float64 weights (3.4 GiB); its registry
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
    assert sum(math.prod(shape) for _, shape in shapes) == 457_619_369


def test_loss_backward_reaches_every_parameter():
    cfg = desk_cfg()
    model = TransducerModel(cfg, seed=2)
    rng = make_rng(3)
    feats = rng.standard_normal((6, cfg.input_dim))
    loss, _ = model.batch_loss([feats], [[1, 3]], training=True, rng=rng)
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
        loss, _ = model.batch_loss([feats], [[2, 4]], training=True, rng=rng)
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
    total_built = sum(p.size for _, p in model.parameters())
    assert total_by_group == total_built

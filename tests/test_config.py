"""Config checks: every bad value fails at load with `ConfigError`, and every
`model.*` key changes the model it describes."""

import re
from dataclasses import fields

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.config import ModelSettings, load_config, load_preset, parse_config_text
from convrnnt.errors import ConfigError
from convrnnt.model import TransducerModel, make_rng, parameter_shapes

REJECTED = [
    "model.se_divisor=0",
    "model.se_min=0",
    "model.dw_kernel=0",
    "model.kernel_t=0",
    "model.kernel_f=0",
    "model.kernel_f=4",  # even: no same-padding
    "model.local_channels=",
    "model.local_channels=8,0,3",
    "model.global_blocks=0",
    "model.expansion=0",
    "model.enc_layers=0",
    "model.enc_hidden=0",
    "model.proj_dim=0",
    "model.label_layers=0",
    "model.label_hidden=0",
    "model.label_embed=0",
    "model.label_proj=0",
    "model.joint_dim=0",
    "model.vocab_size=-1",
    "model.dropout_p=1.5",
    "model.dropout_p=1.0",
    "model.dropout_p=-0.1",
    "model.inference_dtype=float16",
    "model.inference_dtype=double",
    "feature.n_bands=3",  # fewer bands than the local kernel is wide
    "feature.stack=0",
    "feature.skip=0",
    "feature.sample_rate_hz=0",
    "feature.window_ms=40",  # 640 samples: longer than the FFT
    "training.batch_size=0",
    "training.eval_interval=0",
    "training.max_steps=-5",
    "training.seed=-1",
    f"training.seed={2**128 - 1}",  # the trainer's generator key, seed + 1, would not fit
    "optimizer.warmup_steps=0",
    "optimizer.beta1=1.5",
    "optimizer.beta2=-0.1",
    "optimizer.epsilon=0",
    "optimizer.peak_lr=-1",
    "optimizer.peak_lr=nan",
    "optimizer.l2=nan",
    "model.local_enabled=maybe",
    "kernel_t=3",  # no section
    "nosuch.key=1",
    "model.kernel_t",  # no '='
]


@pytest.mark.parametrize("override", REJECTED)
def test_bad_value_rejected_at_load(override):
    with pytest.raises(ConfigError):
        load_preset("desk", [override])


@pytest.mark.parametrize("override", [
    "feature.window_ms=inf", "feature.window_ms=1e308", "feature.window_ms=nan",
    "feature.hop_ms=inf", "feature.hop_ms=nan",
    pytest.param(f"feature.sample_rate_hz={10**400}", id="feature.sample_rate_hz=1e400"),
])
def test_a_feature_value_past_its_bound_is_rejected_by_its_key(override):
    # Not an OverflowError from the window's sample count.
    with pytest.raises(ConfigError, match=re.escape(override.split("=")[0])):
        load_preset("desk", [override])


def test_a_config_file_that_is_not_utf8_is_rejected_by_its_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_bytes("model.dropout_p = 0.1  # café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(f"{p}: not UTF-8 text")):
        load_config(p)


def test_largest_seed_keys_the_model_and_the_trainer_generator():
    cfg = load_preset("desk", ["model.vocab_size=8", f"training.seed={2**128 - 2}"])
    TransducerModel(cfg, seed=cfg.training.seed)
    make_rng(cfg.training.seed + 1)


def test_a_key_no_setting_reads_is_rejected():
    # The squeeze-excite gate has no off switch.
    with pytest.raises(ConfigError, match="unknown config key"):
        load_preset("desk", ["model.se_enabled=true"])


def test_a_key_set_twice_in_one_file_is_rejected():
    text = "model.dw_kernel = 3\n# comment\nmodel.dw_kernel = 5\n"
    with pytest.raises(ConfigError, match="model.dw_kernel is set on line 1 and again on line 3"):
        parse_config_text(text)


def test_a_config_line_without_equals_is_rejected():
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_config_text("model.dw_kernel = 3\nmodel.kernel_t 5\n")


def test_an_unknown_preset_is_rejected():
    with pytest.raises(ConfigError, match="no preset named 'tiny'"):
        load_preset("tiny")


def test_unresolved_vocab_rejected():
    cfg = load_preset("desk")
    with pytest.raises(ConfigError):
        cfg.transducer_config()
    with pytest.raises(ConfigError):
        TransducerModel(cfg)


def test_narrow_band_axis_allowed_without_local_encoder():
    cfg = load_preset("desk", ["feature.n_bands=3", "model.local_enabled=false"])
    assert cfg.local_dim == 0 and cfg.input_dim == 9


# One changed value per `model.*` key; the base is desk with 8 labels.
CHANGED = {
    "local_enabled": "false",
    "global_enabled": "false",
    "local_channels": "8,8,3,4",
    "kernel_t": "3",
    "kernel_f": "3",
    "global_blocks": "5",
    "expansion": "3",
    "dw_kernel": "2",
    "se_divisor": "2",
    "se_min": "4",
    "enc_layers": "3",
    "enc_hidden": "32",
    "proj_dim": "32",
    "label_layers": "2",
    "label_hidden": "32",
    "label_embed": "16",
    "label_proj": "32",
    "joint_dim": "32",
    "vocab_size": "9",
    "dropout_p": "0.1",
    "inference_dtype": "float32",
}


def fingerprint(cfg):
    """Parameter shapes, the eval-mode and seeded training-mode loss of a
    fixed batch on the float64 model, as `Trainer` builds it, and the
    encoding of its features by `TransducerModel(cfg)`, built in
    `model.inference_dtype`."""
    model = TransducerModel(cfg, seed=0, dtype=np.float64)
    rng = make_rng(1)
    feats = [rng.standard_normal((t, cfg.input_dim)) for t in (9, 5)]
    tokens = [[1, 2, 3], [4]]
    with T.no_grad():
        eval_loss = float(model.batch_loss(feats, tokens)[0].data)
        train_loss = float(model.batch_loss(feats, tokens, rng=make_rng(2))[0].data)
        encoding = TransducerModel(cfg, seed=0).encode_audio(*map(T.Tensor, feats)).data
    return parameter_shapes(cfg), eval_loss, train_loss, encoding.tobytes()


def test_every_model_key_is_covered():
    assert set(CHANGED) == {f.name for f in fields(ModelSettings)}


@pytest.mark.parametrize("key", sorted(CHANGED))
def test_every_model_key_changes_the_model(key):
    base = ["model.vocab_size=8"]
    shapes, eval_loss, train_loss, encoding = fingerprint(load_preset("desk", base))
    changed = load_preset("desk", base + [f"model.{key}={CHANGED[key]}"])
    c_shapes, c_eval, c_train, c_encoding = fingerprint(changed)
    if key == "dropout_p":
        assert c_train != train_loss
    elif key == "inference_dtype":
        # It changes the default build only; the float64 model is the same.
        assert (c_shapes, c_eval, c_train) == (shapes, eval_loss, train_loss)
        assert c_encoding != encoding
    else:
        assert c_shapes != shapes or c_eval != eval_loss
    assert np.isfinite([c_eval, c_train]).all()

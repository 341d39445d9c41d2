import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt.audio import FeatureConfig
from convrnnt.config import ModelSettings, RunConfig
from convrnnt.errors import ConfigError, ShapeError
from convrnnt.local_encoder import LocalEncoder

import oracles

M = ModelSettings(local_channels=(6, 6, 4, 4))
IN_CHANNELS, N_FREQ = 3, 8
IN_DIM, OUT_DIM = IN_CHANNELS * N_FREQ, 4 * N_FREQ


def make_encoder(seed=0):
    return LocalEncoder(M, IN_CHANNELS, N_FREQ, np.random.default_rng(seed))


def run(enc, x):
    with T.no_grad():
        return enc(T.Tensor(x), [len(x)]).data


def test_zero_input_zero_output():
    enc = make_encoder()
    for t_len in (1, 3, 11):
        out = run(enc, np.zeros((t_len, IN_DIM)))
        assert out.shape == (t_len, OUT_DIM)
        assert np.all(out == 0.0)


@pytest.mark.parametrize("width", [IN_DIM - 1, IN_DIM + N_FREQ])
def test_rows_of_another_width_rejected(width):
    with pytest.raises(ShapeError, match=f"expects dim {IN_DIM}, got {width}"):
        run(make_encoder(), np.zeros((5, width)))


def test_single_frame_input():
    enc = make_encoder(1)
    out = run(enc, np.random.default_rng(2).standard_normal((1, IN_DIM)))
    assert out.shape == (1, OUT_DIM)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("t_len", [1, 2, 7, 20])
def test_time_length_preserved(t_len):
    enc = make_encoder(3)
    x = np.random.default_rng(t_len).standard_normal((t_len, IN_DIM))
    assert run(enc, x).shape[0] == t_len


def test_causality_bitwise():
    enc = make_encoder(4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, IN_DIM))
    base = run(enc, x)
    t0 = 7
    x2 = x.copy()
    x2[t0] += rng.standard_normal(IN_DIM)
    pert = run(enc, x2)
    assert np.array_equal(base[:t0], pert[:t0])
    assert not np.array_equal(base[t0:], pert[t0:])


def test_receptive_field_is_17_frames():
    # Positive weights and zero biases keep every contribution alive through
    # the ReLUs, so the impulse response support is the exact reach.
    enc = make_encoder(6)
    for conv in enc.convs:
        conv.weight.data = np.abs(conv.weight.data) + 0.1
    t_len, t0 = 30, 5
    x = np.zeros((t_len, IN_DIM))
    x[t0] = 1.0
    out = run(enc, x)
    hot = np.where(np.abs(out).sum(axis=1) > 0)[0]
    assert hot[0] == t0
    # Four convs of kernel_t 5 reach 4 * (5 - 1) + 1 = 17 frames.
    assert hot[-1] == t0 + 16
    assert np.array_equal(hot, np.arange(t0, t0 + 17))


def test_gradient_flows_to_all_conv_params():
    m = ModelSettings(local_channels=(3, 2), kernel_t=3, kernel_f=3)
    enc = LocalEncoder(m, 3, 6, np.random.default_rng(7))
    x = T.Tensor(np.random.default_rng(8).standard_normal((5, 3 * 6)), requires_grad=True)
    oracles.sum_all(enc(x, [5])).backward()
    assert x.grad is not None
    for name, p in enc.params():
        assert p.grad is not None, name


def test_even_frequency_kernel_rejected():
    with pytest.raises(ConfigError):
        ModelSettings(local_channels=(4,), kernel_f=4)


def test_kernel_wider_than_band_axis_rejected():
    with pytest.raises(ConfigError):
        RunConfig(feature=FeatureConfig(n_bands=3),
                  model=ModelSettings(local_channels=(4,), kernel_f=5))

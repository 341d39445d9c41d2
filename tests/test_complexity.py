import itertools

import numpy as np
import pytest

from convrnnt import complexity
from convrnnt.complexity import (
    attention_flops,
    conv_flops,
    depthwise_flops,
    encoder_flops,
    ffn_flops,
    flops_curve_csv,
    linear_flops,
    lstm_flops,
    parse_length_range,
)
from convrnnt.errors import ConfigError

LENGTHS = list(range(500, 4001, 500))


def test_conv_flops_values():
    assert conv_flops(1, 1, 1, 1, 1) == 2
    assert conv_flops(2, 3, 4, 100, 1) == 14_400
    assert conv_flops(100, 5, 100, 1000, 64) == 2 * 100 * 25 * 100 * 1000 * 64 == 32_000_000_000


def test_depthwise_flops_values():
    assert depthwise_flops(1, 1, 1) == 2
    assert depthwise_flops(31, 256, 1000) == 2 * 31 * 256 * 1000 == 15_872_000
    with pytest.raises(ConfigError):
        depthwise_flops(3, 0, 10)


class Counter:
    """Multiply-adds of a direct loop nest, counted one at a time."""

    def __init__(self):
        self.n = 0

    def mac(self, acc, a, b):
        self.n += 1
        return acc + a * b


def test_each_count_is_two_flops_per_multiply_add_of_a_direct_loop():
    # One small layer of each kind, computed by the obvious loops on random
    # values: every count is twice the multiply-adds the loops make.
    rng = np.random.default_rng(0)
    # A 2-D conv, 2 -> 3 channels, 3 x 3 kernel, over a 4 x 5 output.
    c = Counter()
    x, w = rng.standard_normal((2, 6, 7)), rng.standard_normal((3, 2, 3, 3))
    for o, t, f in itertools.product(range(3), range(4), range(5)):
        acc = 0.0
        for i, dt, df in itertools.product(range(2), range(3), range(3)):
            acc = c.mac(acc, w[o, i, dt, df], x[i, t + dt, f + df])
    assert conv_flops(2, 3, 3, 4, 5) == 2 * c.n
    # A per-band k_t x k_f conv (2 x 3, 'same' over 5 bands), charged as the
    # local encoder's are: a 1 x 1 count times the kernel area.
    c = Counter()
    x, w = rng.standard_normal((2, 5, 7)), rng.standard_normal((3, 2, 2, 3))
    for o, t, f in itertools.product(range(3), range(4), range(5)):
        acc = 0.0
        for i, dt, df in itertools.product(range(2), range(2), range(3)):
            acc = c.mac(acc, w[o, i, dt, df], x[i, t + dt, f + df])
    assert conv_flops(2, 1, 3, 4, 5) * 2 * 3 == 2 * c.n
    # A depthwise 1-D conv of 3 taps on 4 channels over 6 steps.
    c = Counter()
    x, w = rng.standard_normal((4, 8)), rng.standard_normal((4, 3))
    for ch, t in itertools.product(range(4), range(6)):
        acc = 0.0
        for j in range(3):
            acc = c.mac(acc, w[ch, j], x[ch, t + j])
    assert depthwise_flops(3, 4, 6) == 2 * c.n
    # A linear map 5 -> 3 over 4 steps.
    c = Counter()
    x, w = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
    for t, o in itertools.product(range(4), range(3)):
        acc = 0.0
        for i in range(5):
            acc = c.mac(acc, x[t, i], w[i, o])
    assert linear_flops(4, 5, 3) == 2 * c.n
    # An LSTM layer, 5 inputs and 3 hidden units over 4 steps: the four
    # gates' pre-activations read the input and the previous hidden state.
    c = Counter()
    x, h = rng.standard_normal((4, 5)), np.zeros(3)
    w, u = rng.standard_normal((5, 12)), rng.standard_normal((3, 12))
    for t in range(4):
        pre = np.zeros(12)
        for g in range(12):
            for i in range(5):
                pre[g] = c.mac(pre[g], x[t, i], w[i, g])
            for j in range(3):
                pre[g] = c.mac(pre[g], h[j], u[j, g])
        h = np.tanh(pre[:3])
    assert lstm_flops(1, 4, 5, 3) == 2 * c.n


def test_lstm_flops_values():
    assert lstm_flops(1, 1, 1, 1) == 16
    assert lstm_flops(2, 10, 8, 16) == 61_440
    assert lstm_flops(7, 1000, 192, 640) == 8 * 7 * 1000 * 832 * 640 == 29_818_880_000


def test_attention_flops_values():
    assert attention_flops(1, 1) == 12
    assert attention_flops(1000, 256) == 8 * 1000 * 256 * 256 + 4 * 1000 * 1000 * 256


def test_attention_superlinear_in_n():
    assert attention_flops(2000, 256) > 2 * attention_flops(1000, 256)


def test_ffn_flops_value():
    assert ffn_flops(10, 4, 8) == 4 * 10 * 4 * 8


def test_linear_flops_value():
    # One map is half of the feedforward's two.
    assert linear_flops(10, 4, 8) == 2 * 10 * 4 * 8 == ffn_flops(10, 4, 8) // 2
    with pytest.raises(ConfigError):
        linear_flops(10, 0, 8)


def test_nonpositive_args_rejected():
    with pytest.raises(ConfigError):
        conv_flops(0, 1, 1, 1, 1)
    with pytest.raises(ConfigError):
        lstm_flops(1, 1, 1, 0)


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        encoder_flops("transformer-xl", 100)


def test_report_total_is_sum_of_layers():
    rep = encoder_flops("convrnnt", 1000)
    assert rep.total == sum(layer.flops for layer in rep.per_layer)
    assert rep.total > 0


def test_convrnnt_layers_pinned_at_1000_frames():
    # Counted from the paper preset at 334 encoder steps, 2 FLOPs per
    # multiply-add.  Each local conv is charged over the 64 bands it
    # convolves, as perfbench's per-layer GFLOP/s counts it, and each global
    # block's depthwise conv by its 3 taps.
    local = [("3->100", 320_640_000), ("100->100", 10_688_000_000),
             ("100->64", 6_840_320_000), ("64->64", 4_377_804_800)]
    expected = [(f"local.conv{i} [{chain} k5 x64 bands]", f) for i, (chain, f) in enumerate(local)]
    # 192 -> 384 -> 192 pointwise, 3 taps on 384 channels, 192 -> 24 -> 192 excitation.
    block = 2 * 334 * (192 * 384 + 3 * 384 + 384 * 192 + 192 * 24 + 24 * 192)
    assert block == 105_426_432
    expected += [(f"global.block{i} [d192 dw_k3]", block) for i in range(1, 7)]
    # The fusion maps the 64 x 64 local and 192 global features back to 192.
    expected += [("fuse [4288->192]", 549_961_728)]
    # Each encoder LSTM layer at its own input width (192 features into the
    # first, the 512-wide projection into the others), then its projection.
    for i in range(7):
        n_in, flops = (192, 1_422_786_560) if i == 0 else (512, 1_970_012_160)
        expected += [(f"encoder.layer{i} [{n_in}->640]", flops),
                     (f"encoder.proj{i} [640->512]", 218_890_240)]
    rep = encoder_flops("convrnnt", 1000)
    assert [(l.name, l.flops) for l in rep.per_layer] == expected
    assert rep.total == 38_184_376_320


def test_conformer_pinned_at_1000_frames():
    # Each block's convolution module charges its depthwise conv by its 31
    # taps on 256 channels over 250 steps.
    rep = encoder_flops("conformer", 1000)
    assert rep.total == 12_981_504_000
    block = rep.per_layer[-1]
    assert block.name == "block14 [d256 h4 ff1024]"
    conv_module = 2 * 250 * (256 * 512 + 31 * 256 + 256 * 256)
    assert block.flops == 2 * ffn_flops(250, 256, 1024) + attention_flops(250, 256) + conv_module


def test_reports_are_reproducible_bitwise():
    a = encoder_flops("conformer", 1234)
    b = encoder_flops("conformer", 1234)
    assert [(l.name, l.flops) for l in a.per_layer] == [(l.name, l.flops) for l in b.per_layer]


def test_transducer_encoder_linear_in_n():
    for n in (500, 1000, 2000):
        r = encoder_flops("convrnnt", 2 * n).total / encoder_flops("convrnnt", n).total
        assert abs(r - 2.0) <= 0.02


def test_attention_encoder_superlinear_in_n():
    for n in (500, 1000, 2000):
        assert encoder_flops("conformer", 2 * n).total > 2 * encoder_flops("conformer", n).total


def test_transducer_costlier_with_narrowing_ratio():
    # With every local conv charged per band, the paper preset costs more
    # than the conformer spec at every reported length; the conformer's
    # quadratic attention narrows the ratio as the input grows.
    ratios = []
    for n in LENGTHS:
        c = encoder_flops("convrnnt", n).total
        a = encoder_flops("conformer", n).total
        assert c > a, f"n={n}: {c} <= {a}"
        ratios.append(c / a)
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert 3.0 < ratios[0] < 3.1 and 2.4 < ratios[-1] < 2.5


def test_length_range_parsing():
    assert parse_length_range("500:4000:500") == LENGTHS
    assert parse_length_range("750") == [750]
    with pytest.raises(ConfigError):
        parse_length_range("10:5:1")
    with pytest.raises(ConfigError, match="'abc'"):
        parse_length_range("abc")


def test_curve_csv_format():
    csv = flops_curve_csv(["convrnnt", "conformer"], [500, 1000])
    lines = csv.strip().splitlines()
    assert lines[0] == "length,gflops,model"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "500" and first[2] == "convrnnt"
    assert float(first[1]) > 0


def test_every_conformer_spec_key_is_read(monkeypatch):
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    parse = complexity.parse_config_text
    specs = []

    def recording_parse(text):
        specs.append(Recording(parse(text)))
        return specs[-1]

    monkeypatch.setattr(complexity, "parse_config_text", recording_parse)
    encoder_flops("conformer", 1000)
    assert len(specs) == 1 and read == set(specs[0])

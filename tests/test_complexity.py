import pytest

from convrnnt import complexity
from convrnnt.complexity import (
    attention_flops,
    conv_flops,
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
    assert conv_flops(1, 1, 1, 1, 1) == 4
    assert conv_flops(2, 3, 4, 100, 1) == 28_800
    assert conv_flops(100, 5, 100, 1000, 64) == 4 * 100 * 25 * 100 * 1000 * 64 == 64_000_000_000


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
    # Counted from the paper preset at 334 encoder steps.  Each local conv is
    # charged over the 64 bands it convolves, as perfbench's per-layer
    # GFLOP/s counts it.
    local = [("3->100", 641_280_000), ("100->100", 21_376_000_000),
             ("100->64", 13_680_640_000), ("64->64", 8_755_609_600)]
    expected = [(f"local.conv{i} [{chain} k5 x64 bands]", f) for i, (chain, f) in enumerate(local)]
    expected += [(f"global.block{i} [d192 dw_k3]", 213_931_008) for i in range(1, 7)]
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
    assert rep.total == 61_062_168_576


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
    assert 3.2 < ratios[0] < 3.3 and 2.7 < ratios[-1] < 2.8


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

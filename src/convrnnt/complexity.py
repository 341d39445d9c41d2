"""Analytical FLOPs estimator for encoder architectures.

Closed-form per-layer costs (exact integer arithmetic throughout):

    convolution:  4 * C_in * k^2 * C_out * W * H
    LSTM layer:   8 * steps * (input + hidden) * hidden
    linear map:   2 * steps * d_in * d_out  (multiply-add = 2 flops)
    attention:    8 * n * d^2  (Q/K/V/O projections) + 4 * n^2 * d (scores)
    feedforward:  4 * n * d * d_ff  (two linear maps, multiply-add = 2 flops)

The transducer encoder (cost linear in sequence length) is counted from the
layers of the zero-weight `paper` build (`model.zero_weight_model`), charging
what the model runs per encoder step at the widths of its weights.  Each
local conv is charged per band, over all `feature.n_bands` frequency bins it
convolves, a k_t x k_f kernel as k_t * k_f: the count
`perfbench/entry_points` uses for its achieved GFLOP/s.  The global blocks'
pointwise, depthwise and squeeze-excite convolutions are charged per step,
and so is the fusion's linear map from the local and global features back to
`input_dim`.  Each encoder LSTM layer, and the linear projection after it, is
charged at its own widths: the first reads `input_dim`, the others the
previous layer's projection.

At 1,000 frames the corrected count puts the paper preset at 61.06 G, 3.2
times the conformer spec's 19.23 G; the four per-band local convs alone are
44.45 G.  The conformer's quadratic attention term narrows the ratio with
length (3.25x at 500 frames, 2.78x at 4,000) but does not close it over the
report's 500-4,000 range, so for this preset the paper's claim of less
compute than a conformer does not hold.  The causal
attention baseline (quadratic term from self-attention) has no model here and
is counted from `configs/flops_conformer.cfg`.  Attention and feedforward
totals are approximate by construction; the comparison is about scaling, not
exact curve values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .config import load_preset, parse_config_text
from .errors import ConfigError
from .model import zero_weight_model

MODEL_NAMES = ("convrnnt", "conformer")


def conv_flops(c_in: int, k: int, c_out: int, w: int, h: int) -> int:
    _positive(c_in=c_in, k=k, c_out=c_out, w=w, h=h)
    return 4 * c_in * k * k * c_out * w * h


def lstm_flops(layers: int, steps: int, input_dim: int, hidden: int) -> int:
    _positive(layers=layers, steps=steps, input_dim=input_dim, hidden=hidden)
    return 8 * layers * steps * (input_dim + hidden) * hidden


def linear_flops(steps: int, d_in: int, d_out: int) -> int:
    _positive(steps=steps, d_in=d_in, d_out=d_out)
    return 2 * steps * d_in * d_out


def attention_flops(n: int, d: int) -> int:
    _positive(n=n, d=d)
    return 8 * n * d * d + 4 * n * n * d


def ffn_flops(n: int, d: int, d_ff: int) -> int:
    _positive(n=n, d=d, d_ff=d_ff)
    return 4 * n * d * d_ff


def _positive(**kwargs):
    for name, v in kwargs.items():
        if int(v) != v or v < 1:
            raise ConfigError(f"{name} must be a positive integer, got {v}")


@dataclass
class LayerSpec:
    name: str
    flops: int


@dataclass
class FlopsReport:
    model: str
    sequence_length: int
    per_layer: list

    @property
    def total(self) -> int:
        return sum(layer.flops for layer in self.per_layer)

    @property
    def gflops(self) -> float:
        return self.total / 1e9


def _ints(raw: str):
    return [int(v) for v in raw.split(",") if v.strip()]


def _convrnnt_layers(n: int):
    cfg = load_preset("paper")
    model = zero_weight_model(cfg)
    s = math.ceil(n / cfg.feature.skip)
    bands = model.local.n_freq
    layers = []
    for i, conv in enumerate(model.local.convs):
        c_out, c_in, k_t, k_f = conv.weight.shape
        k = f"{k_t}" if k_t == k_f else f"{k_t}x{k_f}"
        flops = conv_flops(c_in, 1, c_out, s, bands) * k_t * k_f
        layers.append(LayerSpec(f"local.conv{i} [{c_in}->{c_out} k{k} x{bands} bands]", flops))
    for i, block in enumerate(model.global_enc.blocks, 1):
        e, d, _ = block.pw_in.weight.shape
        dw_k = block.dw.weight.shape[2]
        se_b = block.se_reduce.weight.shape[1]
        flops = (
            conv_flops(d, 1, e, s, 1)
            + conv_flops(1, dw_k, e, s, 1)
            + conv_flops(e, 1, d, s, 1)
            + conv_flops(d, 1, se_b, s, 1)
            + conv_flops(se_b, 1, d, s, 1)
        )
        layers.append(LayerSpec(f"global.block{i} [d{d} dw_k{dw_k}]", flops))
    fuse_in, fuse_out = model.fuse.weight.shape
    layers.append(LayerSpec(f"fuse [{fuse_in}->{fuse_out}]", linear_flops(s, fuse_in, fuse_out)))
    for i, lstm in enumerate(model.encoder.layers):
        flops = lstm_flops(1, s, lstm.n_in, lstm.hidden)
        layers.append(LayerSpec(f"encoder.layer{i} [{lstm.n_in}->{lstm.hidden}]", flops))
        p_in, p_out = lstm.proj.weight.shape
        layers.append(LayerSpec(f"encoder.proj{i} [{p_in}->{p_out}]", linear_flops(s, p_in, p_out)))
    return layers


def _conformer_layers(n: int):
    text = resources.files("convrnnt.configs").joinpath("flops_conformer.cfg").read_text()
    spec = parse_config_text(text)
    layers = []
    chain = _ints(spec["subsample.channels"])
    k = int(spec["subsample.kernel"])
    freq = int(spec["subsample.freq"])
    s = n
    for i, (c_in, c_out) in enumerate(zip(chain[:-1], chain[1:])):
        s = math.ceil(s / 2)
        freq = math.ceil(freq / 2)
        layers.append(
            LayerSpec(f"subsample.conv{i} [{c_in}->{c_out} k{k} /2]", conv_flops(c_in, k, c_out, s, freq))
        )
    d = int(spec["attention.dim"])
    layers.append(
        LayerSpec("subsample.proj", conv_flops(chain[-1] * freq, 1, d, s, 1))
    )
    heads = int(spec["attention.heads"])
    d_ff = int(spec["ffn.dim"])
    ffn_per_block = int(spec["ffn.per_block"])
    conv_k = int(spec["conv.kernel"])
    for i in range(1, int(spec["attention.layers"]) + 1):
        block = (
            ffn_per_block * ffn_flops(s, d, d_ff)
            + attention_flops(s, d)
            + conv_flops(d, 1, 2 * d, s, 1)
            + conv_flops(1, conv_k, d, s, 1)
            + conv_flops(d, 1, d, s, 1)
        )
        layers.append(LayerSpec(f"block{i} [d{d} h{heads} ff{d_ff}]", block))
    return layers


def encoder_flops(model: str, n: int) -> FlopsReport:
    """Total encoder FLOPs for `n` acoustic frames (10 ms hop)."""
    if n < 1:
        raise ConfigError(f"sequence length must be positive, got {n}")
    if model not in MODEL_NAMES:
        raise ConfigError(f"unknown flops model {model!r}; known: {MODEL_NAMES}")
    if model == "convrnnt":
        layers = _convrnnt_layers(n)
    else:
        layers = _conformer_layers(n)
    return FlopsReport(model, n, layers)


def parse_length_range(text: str):
    """'500:4000:500' -> [500, 1000, ..., 4000]; a bare int is a single length."""
    try:
        parts = [int(p) for p in text.split(":")]
    except ValueError:
        raise ConfigError(f"length range must be integers, got {text!r}") from None
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise ConfigError(f"length range must be start:stop:step, got {text!r}")
    start, stop, step = parts
    if step < 1 or stop < start:
        raise ConfigError(f"bad length range {text!r}")
    return list(range(start, stop + 1, step))


def flops_curve_csv(models, lengths) -> str:
    """CSV rows (length, gflops, model) for plotting."""
    lines = ["length,gflops,model"]
    for model in models:
        for n in lengths:
            lines.append(f"{n},{encoder_flops(model, n).gflops:.6f},{model}")
    return "\n".join(lines) + "\n"

"""Local context encoder: a stack of causal 2-D convolutions over a
(stacked-frame channels) x time x frequency view of the input features.

A batch is packed: the [N, in_channels * n_freq] rows of every utterance
concatenated in order, with their lengths beside them.  Each layer is one
`tensor.conv2d` over the whole batch, viewed as [channels, N, n_freq]: it
pads each utterance's time axis by k_t - 1 zero frames before its first
frame, so output frame t only sees frames <= t of its own utterance, and
pads frequency symmetrically so the band axis keeps its width.  Time length
is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .layers import Conv2dLayer, collect_params
from .tensor import Tensor


@dataclass
class LocalEncoderConfig:
    channels: tuple = (100, 100, 64, 64)
    kernel_t: int = 5
    kernel_f: int = 5
    in_channels: int = 3  # stacked frames viewed as channels
    n_freq: int = 64      # bands per stacked frame

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        if self.kernel_f % 2 != 1:
            raise ConfigError(f"frequency kernel must be odd for same-padding, got {self.kernel_f}")
        if self.n_freq < self.kernel_f:
            raise ConfigError(
                f"frequency axis ({self.n_freq}) smaller than kernel ({self.kernel_f})"
            )

    @property
    def input_dim(self) -> int:
        return self.in_channels * self.n_freq

    @property
    def output_dim(self) -> int:
        return self.channels[-1] * self.n_freq

    @property
    def receptive_field(self) -> int:
        # Past time reach of the full stack, current frame included.
        return len(self.channels) * (self.kernel_t - 1) + 1


class LocalEncoder:
    def __init__(self, cfg: LocalEncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.convs = []
        c_prev = cfg.in_channels
        for c in cfg.channels:
            self.convs.append(Conv2dLayer(c_prev, c, cfg.kernel_t, cfg.kernel_f, rng))
            c_prev = c

    def __call__(self, x: Tensor, lengths=None) -> Tensor:
        """Packed [N, in_channels * n_freq] -> [N, channels[-1] * n_freq].

        `lengths` are the utterances' frame counts (None: one utterance).
        """
        cfg = self.cfg
        n = x.shape[0]
        if x.shape[1] != cfg.input_dim:
            raise ShapeError(f"local encoder expects dim {cfg.input_dim}, got {x.shape[1]}")
        h = T.permute(T.reshape(x, (n, cfg.in_channels, cfg.n_freq)), (1, 0, 2))
        for conv in self.convs:
            h = conv(h, lengths)
        return T.reshape(T.permute(h, (1, 0, 2)), (n, cfg.output_dim))

    def params(self):
        return collect_params((f"conv{i}", conv) for i, conv in enumerate(self.convs))

"""Local context encoder: a stack of causal 2-D convolutions over a
(stacked-frame channels) x time x frequency view of the input features.

The layer widths and kernel sizes come from `ModelSettings`
(`local_channels`, `kernel_t`, `kernel_f`); the channel and band counts of
the input view come from the feature settings.

A batch is packed: the [N, in_channels * n_freq] rows of every utterance
concatenated in order, with their lengths beside them.  Each layer is one
`tensor.conv2d` over the whole batch, viewed as [channels, N, n_freq]: it
pads each utterance's time axis by k_t - 1 zero frames before its first
frame, so output frame t only sees frames <= t of its own utterance, and
pads frequency symmetrically so the band axis keeps its width.  Time length
is preserved exactly.  Each layer works on blocks of consecutive frames, so
the working memory it needs beside its input and output stays within
`tensor.CONV_BLOCK_BYTES` however long the utterances are.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelSettings
from .errors import ShapeError
from .layers import Conv2dLayer, collect_params
from .tensor import Tensor


class LocalEncoder:
    def __init__(self, m: ModelSettings, in_channels: int, n_freq: int, rng: np.random.Generator):
        self.in_channels = in_channels  # stacked frames viewed as channels
        self.n_freq = n_freq            # bands per stacked frame
        self.output_dim = m.local_channels[-1] * n_freq
        # Past time reach of the full stack, current frame included.
        self.receptive_field = len(m.local_channels) * (m.kernel_t - 1) + 1
        self.convs = []
        c_prev = in_channels
        for c in m.local_channels:
            self.convs.append(Conv2dLayer(c_prev, c, m.kernel_t, m.kernel_f, rng))
            c_prev = c

    def __call__(self, x: Tensor, lengths=None) -> Tensor:
        """Packed [N, in_channels * n_freq] -> [N, local_channels[-1] * n_freq].

        `lengths` are the utterances' frame counts (None: one utterance).
        """
        n = x.shape[0]
        if x.shape[1] != self.in_channels * self.n_freq:
            raise ShapeError(
                f"local encoder expects dim {self.in_channels * self.n_freq}, got {x.shape[1]}"
            )
        h = T.permute(T.reshape(x, (n, self.in_channels, self.n_freq)), (1, 0, 2))
        for conv in self.convs:
            h = conv(h, lengths)
        return T.reshape(T.permute(h, (1, 0, 2)), (n, self.output_dim))

    def params(self):
        return collect_params((f"conv{i}", conv) for i, conv in enumerate(self.convs))

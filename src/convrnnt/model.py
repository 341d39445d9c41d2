"""Whole-model assembly: frontends, fusion, LSTM stacks, and joint, with a
stable parameter registry for checkpointing and diagnostics.

The registry is the one source of parameter names and shapes:
`parameter_shapes` and `count_parameters` read it from a model built with
an init source that allocates no weights, so they report configs too big to
build for real.

There are two forward entry points: `batch_loss` is the transducer loss of a
training batch, and `encode_audio` is one utterance's eval-mode encoder
output, which evaluation both decodes and scores with `encoded_loss`.  The
label encoder and the joint are used as they are, as `label_encoder` and
`joint`.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import ShapeError
from .global_encoder import GlobalEncoder
from .layers import Linear, collect_params
from .local_encoder import LocalEncoder
from .rnnt_loss import rnnt_loss
from .tensor import Tensor
from .transducer import AudioEncoder, Joint, LabelEncoder, fuse_frontends


def make_rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so its full state serializes into checkpoints
    # and the stream resumes exactly after a reload.
    return np.random.Generator(np.random.Philox(key=seed))


class TransducerModel:
    def __init__(self, cfg: RunConfig, seed: int = 0):
        self._build(cfg, make_rng(seed))

    def _build(self, cfg: RunConfig, rng) -> None:
        """Assemble every module, drawing initial weights from `rng.uniform`."""
        self.cfg = cfg
        local_cfg = cfg.local_config()
        global_cfg = cfg.global_config()
        tr_cfg = cfg.transducer_config()
        self.local = LocalEncoder(local_cfg, rng) if local_cfg else None
        self.global_enc = GlobalEncoder(global_cfg, rng) if global_cfg else None
        self.fuse = Linear(cfg.fuse_input_dim(), cfg.input_dim, rng)
        self.encoder = AudioEncoder(tr_cfg, rng)
        self.label_encoder = LabelEncoder(tr_cfg, rng)
        self.joint = Joint(tr_cfg, rng)
        children = [
            ("local", self.local),
            ("global", self.global_enc),
            ("fuse", self.fuse),
            ("encoder", self.encoder),
            ("label", self.label_encoder),
            ("joint", self.joint),
        ]
        self._params = collect_params((name, child) for name, child in children if child is not None)

    def parameters(self):
        return list(self._params)

    def norm_layers(self):
        if self.global_enc is None:
            return []
        return [(f"global.{n}", bn) for n, bn in self.global_enc.norm_layers()]

    def zero_grad(self):
        for _, p in self._params:
            p.zero_grad()

    # -- forward paths -------------------------------------------------------

    def frontend_batch(self, xs, training: bool = False, rng: np.random.Generator | None = None):
        """Fused [T_i, input_dim] encoder inputs; batch-norm statistics pool
        across the utterances."""
        local_outs = [self.local(x) for x in xs] if self.local is not None else None
        global_in = local_outs if local_outs is not None else list(xs)
        global_outs = (
            self.global_enc.forward_batch(global_in, training, rng)
            if self.global_enc is not None
            else None
        )
        fused = []
        for i in range(len(xs)):
            parts = []
            if local_outs is not None:
                parts.append(local_outs[i])
            if global_outs is not None:
                parts.append(global_outs[i])
            fused.append(fuse_frontends(parts, self.fuse))
        return fused

    def encode_audio(self, x: Tensor) -> Tensor:
        """[T, input_dim] features -> [T, proj_dim] encoder output, in eval mode."""
        return self.encoder(self.frontend_batch([x])[0])

    def encoded_loss(self, enc: Tensor, tokens, training: bool = False, rng=None) -> Tensor:
        """Transducer loss of one utterance from its [T, proj_dim] encoder output."""
        pred = self.label_encoder(tokens, training, rng)
        return rnnt_loss(self.joint(enc, pred), tokens)

    def batch_loss(
        self,
        features_list,
        tokens_list,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ):
        """Mean per-utterance loss over a batch, plus each utterance's nll."""
        xs = []
        for features in features_list:
            x = Tensor(features)
            if x.shape[1] != self.cfg.input_dim:
                raise ShapeError(
                    f"features dim {x.shape[1]} != model input {self.cfg.input_dim}"
                )
            xs.append(x)
        fused = self.frontend_batch(xs, training, rng)
        losses = [
            self.encoded_loss(self.encoder(x, training, rng), tokens, training, rng)
            for x, tokens in zip(fused, tokens_list)
        ]
        total = losses[0]
        for extra in losses[1:]:
            total = T.add(total, extra)
        mean = T.scale(total, 1.0 / len(losses))
        return mean, [float(l.data) for l in losses]


# ---------------------------------------------------------------------------
# parameter counts (reports for configs too big to build for real)


class _ZeroInit:
    """Init source whose every draw is a read-only broadcast view of 0.0, so a
    model built from it owns almost no memory whatever its size."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def parameter_shapes(cfg: RunConfig):
    """(name, shape) for every trainable tensor, in registry order, read from
    the registry of a model whose weights are never allocated."""
    model = TransducerModel.__new__(TransducerModel)
    model._build(cfg, _ZeroInit())
    return [(name, p.shape) for name, p in model.parameters()]


# Parameter groups of the report, their registry name prefixes, and the
# published full-scale size of each module in millions.
PARAM_GROUPS = (
    ("convolution blocks", ("local.", "global.", "fuse."), 5.40),
    ("LSTM encoder", ("encoder.",), 18.93),
    ("joint network", ("joint.",), 1.28),
    ("decoder input embedding", ("label.embed.",), 0.62),
    ("LSTM decoder", ("label.lstm",), 2.62),
)


def count_parameters(cfg: RunConfig):
    """Per-group exact parameter counts from shapes alone."""
    counts = {group: 0 for group, _, _ in PARAM_GROUPS}
    for name, shape in parameter_shapes(cfg):
        group = next(g for g, prefixes, _ in PARAM_GROUPS if name.startswith(prefixes))
        counts[group] += math.prod(shape)
    return counts

"""Whole-model assembly: frontends, fusion, LSTM stacks, and joint, with a
stable parameter registry for checkpointing and diagnostics.

Every module is built from the run's `ModelSettings` (`cfg.model`) and the
widths `RunConfig` derives.  The local encoder (`local_dim` wide, 0 when off)
and the global encoder (`input_dim` wide) read the stacked features side by
side, and the fusion maps their concatenation back to `input_dim`.  With
both frontends off there is no fusion: the LSTM stack reads the stacked
features directly, which is the paper's LSTM-only RNN-T baseline.

Modules draw their initial weights from an init source (`layers`), and the
model is built from one of two.  `TransducerModel(cfg, seed, dtype)` builds
from a `layers._DeferredInit`, which hands out unfilled arrays of `dtype`
and then fills them from `make_rng(seed)` with the bits a serial draw would
give in the same order, rounded to `dtype`: the calling thread draws the
first half of the stream while one worker thread draws the second.  The
other source, `layers._ZeroInit`, allocates no weights.  The registry is
the one source of parameter names and shapes: `parameter_shapes` and
`count_parameters` read it from a model built with that source, so they
report configs too big to build for real.

There are three forward entry points, each taking a batch of any size:
`encode_audio` maps feature tensors to packed encoder rows, `encoded_loss`
maps packed encoder rows and transcripts to the transducer loss, and
`batch_loss` is the one after the other, the loss of a training batch.
Each takes one `rng`: none (the default) evaluates, and a generator trains.
Evaluation encodes each utterance once with `encode_audio`, then decodes
it and scores it with `encoded_loss`; one utterance is a batch of one, not
a path of its own.

A batch runs packed from the input features to the encoder output: the
[T_i, input_dim] frames of every utterance concatenated in order into
[N, input_dim] rows (N = sum T_i), with the lengths beside them.  Both
frontends read those rows: the local encoder, the fusion, the label embedding
(each transcript's zero start row included) and the audio and label LSTM
stacks each make one node per layer for the whole batch, and the global
encoder one node for all its blocks.  The joint and the loss run on packed
cells: the joint pairs the packed encoder rows with the packed label rows
into every utterance's T_i x (U_i+1) logit rows, [sum T_i (U_i+1), V+1] with
no padding, and the loss takes those rows to the batch's mean nll, one joint
node and one loss node per batch.  Their elementwise work runs once per
batch; their GEMMs and row-group reductions run per utterance on views,
because a GEMM's bits depend on how its rows are grouped, so each
utterance's nll has the bits of the joint and loss on its rows alone.  The label encoder and the joint are
used as they are, as `label_encoder` and `joint`.  A training step of the
`desk` preset records 21 tape nodes; eval and streaming inference run the
same ops under `no_grad`, which records none.

A model holds every parameter and running statistic in one dtype and
computes in it: `model.inference_dtype` by default (float32 in the `paper`
preset), float64 for `Trainer`.  A float32 model only evaluates: its
parameters require no gradient, and a forward that would train or record a
tape node raises `TrainingError`, as does the loss, which is float64 only.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import DataError, ShapeError, TrainingError
from .global_encoder import GlobalEncoder
from .layers import Linear, _DeferredInit, _ZeroInit, collect_params
from .local_encoder import LocalEncoder
from .rnnt_loss import rnnt_loss
from .tensor import Tensor
from .transducer import AudioEncoder, Joint, LabelEncoder, fuse_frontends


def make_rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so its full state serializes into checkpoints
    # and the stream resumes exactly after a reload, and any place of its
    # stream is reached directly, which `layers._DeferredInit.fill` uses to
    # draw weights on two threads.
    return np.random.Generator(np.random.Philox(key=seed))


class TransducerModel:
    def __init__(self, cfg: RunConfig, seed: int = 0, dtype=None):
        """The model of `cfg` with the weights of `seed`, every array in
        `dtype`: `cfg.model.inference_dtype` unless given."""
        self.dtype = np.dtype(cfg.model.inference_dtype if dtype is None else dtype)
        init = _DeferredInit(self.dtype)
        self._build(cfg, init)
        init.fill(make_rng(seed))

    def _build(self, cfg: RunConfig, init) -> None:
        """Assemble every module, drawing initial weights from `init.uniform`:
        a `_DeferredInit` to fill afterwards, a `_ZeroInit`, or a generator,
        as the modules built on their own take."""
        self.cfg = cfg
        m = cfg.transducer_config()
        f = cfg.feature
        self.local = LocalEncoder(m, f.stack, f.n_bands, init) if cfg.local_dim else None
        self.global_enc = GlobalEncoder(m, cfg.input_dim, init) if m.global_enabled else None
        fuse_in = cfg.local_dim + (cfg.input_dim if self.global_enc else 0)
        self.fuse = Linear(fuse_in, cfg.input_dim, init) if fuse_in else None
        self.encoder = AudioEncoder(m, cfg.input_dim, init)
        self.label_encoder = LabelEncoder(m, init)
        self.joint = Joint(m, init)
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

    # -- forward paths -------------------------------------------------------

    def encode_audio(self, *xs: Tensor, rng=None) -> Tensor:
        """Encoder output of a batch of [T_i, input_dim] feature tensors, as
        packed [sum T_i, proj_dim] rows in the model's dtype; one tensor is a
        batch of one, and batch-norm statistics pool across the utterances.
        An empty batch, an utterance without frames and features of another
        width raise `ShapeError`.

        The features are cast once to the model's dtype by `cast`, which
        raises `DataError` on a value not finite there, and every encoder
        layer computes in it.  On a float32 model, a generator or features
        that the forward would record raise `TrainingError`."""
        if rng is not None or T.records(xs):
            self._require_float64("a training or recorded forward")
        if not xs:
            raise ShapeError("a batch needs at least one utterance")
        for k, x in enumerate(xs):
            if x.ndim != 2 or x.shape[1] != self.cfg.input_dim or x.shape[0] < 1:
                raise ShapeError(
                    f"utterance {k}: features shape {x.shape} != [T >= 1, {self.cfg.input_dim}]"
                )
        lengths = [x.shape[0] for x in xs]
        x = T.concat(xs, axis=0)
        data = self.cast(x.data)
        if data is not x.data:
            x = Tensor(data)
        parts = []
        if self.local is not None:
            parts.append(self.local(x, lengths))
        if self.global_enc is not None:
            parts.append(self.global_enc.forward_batch(x, lengths, rng))
        if parts:
            x = fuse_frontends(parts, self.fuse)
        return self.encoder(x, lengths, rng)

    def encoded_loss(self, enc: Tensor, lengths, tokens_list, rng=None):
        """Mean per-utterance loss, plus each utterance's nll, from the packed
        encoder rows of `encode_audio` and their frame counts.  A float32
        model raises `TrainingError`: the loss is float64 only."""
        self._require_float64("the loss")
        pred = self.label_encoder(*tokens_list, rng=rng)
        logits = self.joint(enc, pred, (lengths, [len(tokens) + 1 for tokens in tokens_list]))
        return rnnt_loss(logits, tokens_list, lengths)

    def batch_loss(self, features_list, tokens_list, rng=None):
        """Mean per-utterance loss over a batch, plus each utterance's nll.
        A float32 model raises `TrainingError`: the loss is float64 only."""
        self._require_float64("the loss")
        if len(features_list) != len(tokens_list):
            raise ShapeError(
                f"{len(features_list)} feature arrays but {len(tokens_list)} transcripts"
            )
        xs = [Tensor(features) for features in features_list]
        enc = self.encode_audio(*xs, rng=rng)
        return self.encoded_loss(enc, [x.shape[0] for x in xs], tokens_list, rng)

    def cast(self, a: np.ndarray) -> np.ndarray:
        """`a` in the model's dtype (itself if already in it), the input check
        of `encode_audio` and the decoder: a value not finite there raises `DataError`."""
        with np.errstate(over="ignore"):  # a value beyond the range becomes inf
            a = a.astype(self.dtype, copy=False)
        if not np.isfinite(a).all():
            raise DataError(f"input values not finite in {self.dtype} (NaN, inf or out of range)")
        return a

    def _require_float64(self, what: str) -> None:
        if self.dtype != np.float64:
            raise TrainingError(
                f"{what} needs a float64 model; this one holds {self.dtype} weights "
                "(build it with dtype=np.float64 to train or score)"
            )


# ---------------------------------------------------------------------------
# parameter counts (reports for configs too big to build for real)


def zero_weight_model(cfg: RunConfig) -> TransducerModel:
    """The model of `cfg` with every weight a broadcast view of 0.0: its
    layers and registry, for reports on configs too big to build for real."""
    model = TransducerModel.__new__(TransducerModel)
    model._build(cfg, _ZeroInit())
    return model


def parameter_shapes(cfg: RunConfig):
    """(name, shape) for every trainable tensor, in registry order, read from
    the registry of a model whose weights are never allocated."""
    return [(name, p.shape) for name, p in zero_weight_model(cfg).parameters()]


# Parameter groups of the report, their registry name prefixes, and the
# published full-scale size of each module in millions, with the reason for
# the paper preset's ratio where it is known.
PARAM_GROUPS = (
    ("convolution blocks", ("local.", "global.", "fuse."), 5.40),
    ("LSTM encoder", ("encoder.",), 18.93),
    ("joint network", ("joint.",), 1.28),  # 1.41x: the reference is `joint.out` alone
    ("decoder input embedding", ("label.embed.",), 0.62),
    ("LSTM decoder", ("label.lstm",), 2.62),  # 1.002x: equal at the reference's 2 decimals
)


def count_parameters(cfg: RunConfig):
    """Per-group exact parameter counts from shapes alone."""
    counts = {group: 0 for group, _, _ in PARAM_GROUPS}
    for name, shape in parameter_shapes(cfg):
        group = next(g for g, prefixes, _ in PARAM_GROUPS if name.startswith(prefixes))
        counts[group] += math.prod(shape)
    return counts

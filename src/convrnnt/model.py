"""Whole-model assembly: frontends, fusion, LSTM stacks, and joint, with a
stable parameter registry for checkpointing and diagnostics.
"""

from __future__ import annotations

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
        self.cfg = cfg
        rng = make_rng(seed)
        local_cfg = cfg.local_config()
        global_cfg = cfg.global_config()
        tr_cfg = cfg.transducer_config()
        self.local = LocalEncoder(local_cfg, rng) if local_cfg else None
        self.global_enc = GlobalEncoder(global_cfg, rng) if global_cfg else None
        self.fuse = Linear(cfg.fuse_input_dim(), cfg.input_dim, rng)
        self.encoder = AudioEncoder(tr_cfg, rng)
        self.label_encoder = LabelEncoder(tr_cfg, rng)
        self.joint = Joint(tr_cfg, rng)
        self._params = self._build_registry()

    def _build_registry(self):
        children = [
            ("local", self.local),
            ("global", self.global_enc),
            ("fuse", self.fuse),
            ("encoder", self.encoder),
            ("label", self.label_encoder),
            ("joint", self.joint),
        ]
        return collect_params((name, child) for name, child in children if child is not None)

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

    def frontend(
        self,
        x: Tensor,
        training: bool = False,
        rng: np.random.Generator | None = None,
        update_stats: bool | None = None,
    ) -> Tensor:
        """[T, input_dim] features -> fused [T, input_dim] encoder input."""
        return self.frontend_batch([x], training, rng, update_stats)[0]

    def frontend_batch(
        self,
        xs,
        training: bool = False,
        rng: np.random.Generator | None = None,
        update_stats: bool | None = None,
    ):
        """Batch frontend; batch-norm statistics pool across the utterances."""
        local_outs = [self.local(x) for x in xs] if self.local is not None else None
        global_in = local_outs if local_outs is not None else list(xs)
        global_outs = (
            self.global_enc.forward_batch(global_in, training, rng, update_stats)
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

    def encode_audio(
        self,
        x: Tensor,
        training: bool = False,
        rng: np.random.Generator | None = None,
        update_stats: bool | None = None,
    ) -> Tensor:
        return self.encoder(self.frontend(x, training, rng, update_stats), training, rng)

    def encode_labels(self, tokens, training: bool = False, rng=None) -> Tensor:
        return self.label_encoder(tokens, training, rng)

    def joint_logits(self, enc: Tensor, pred: Tensor) -> Tensor:
        return self.joint(enc, pred)

    def utterance_loss(
        self,
        features: np.ndarray,
        tokens,
        training: bool = False,
        rng: np.random.Generator | None = None,
        update_stats: bool | None = None,
    ) -> Tensor:
        """Alignment-marginal negative log-likelihood of one utterance."""
        loss, _ = self.batch_loss([features], [tokens], training, rng, update_stats)
        return loss

    def batch_loss(
        self,
        features_list,
        tokens_list,
        training: bool = False,
        rng: np.random.Generator | None = None,
        update_stats: bool | None = None,
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
        fused = self.frontend_batch(xs, training, rng, update_stats)
        losses = []
        for x, tokens in zip(fused, tokens_list):
            enc = self.encoder(x, training, rng)
            pred = self.encode_labels(tokens, training, rng)
            losses.append(rnnt_loss(self.joint_logits(enc, pred), tokens))
        total = losses[0]
        for extra in losses[1:]:
            total = T.add(total, extra)
        mean = T.scale(total, 1.0 / len(losses))
        return mean, [float(l.data) for l in losses]


# ---------------------------------------------------------------------------
# shape-only mirror of the registry (reports for configs too big to build)


def parameter_shapes(cfg: RunConfig):
    """(name, shape) for every trainable tensor, in registry order, without
    allocating anything."""
    out = []
    local_cfg = cfg.local_config()
    if local_cfg is not None:
        c_prev = local_cfg.in_channels
        for i, c in enumerate(local_cfg.channels):
            out.append((f"local.conv{i}.weight", (c, c_prev, local_cfg.kernel_t, local_cfg.kernel_f)))
            out.append((f"local.conv{i}.bias", (c,)))
            c_prev = c
    global_cfg = cfg.global_config()
    if global_cfg is not None:
        d, e = global_cfg.d_model, global_cfg.expansion * global_cfg.d_model
        b = global_cfg.se_bottleneck
        for i in range(1, global_cfg.n_blocks + 1):
            out += [
                (f"global.block{i}.pw_in.weight", (e, d, 1)),
                (f"global.block{i}.pw_in.bias", (e,)),
                (f"global.block{i}.norm_in.gamma", (e,)),
                (f"global.block{i}.norm_in.beta", (e,)),
                (f"global.block{i}.dw.weight", (e, 1, global_cfg.dw_kernel)),
                (f"global.block{i}.dw.bias", (e,)),
                (f"global.block{i}.norm_dw.gamma", (e,)),
                (f"global.block{i}.norm_dw.beta", (e,)),
                (f"global.block{i}.pw_out.weight", (d, e, 1)),
                (f"global.block{i}.pw_out.bias", (d,)),
                (f"global.block{i}.se_reduce.weight", (d, b)),
                (f"global.block{i}.se_reduce.bias", (b,)),
                (f"global.block{i}.se_expand.weight", (b, d)),
                (f"global.block{i}.se_expand.bias", (d,)),
            ]
    out += [
        ("fuse.weight", (cfg.fuse_input_dim(), cfg.input_dim)),
        ("fuse.bias", (cfg.input_dim,)),
    ]
    tr = cfg.transducer_config()
    n_in = tr.input_dim
    for i in range(tr.enc_layers):
        out += _lstm_shapes(f"encoder.layer{i}", n_in, tr.enc_hidden, tr.proj_dim)
        n_in = tr.proj_dim
    out.append(("label.embed.table", (tr.vocab_size + 1, tr.label_embed)))
    n_in = tr.label_embed
    for i in range(tr.label_layers):
        out += _lstm_shapes(f"label.lstm{i}", n_in, tr.label_hidden, tr.label_proj)
        n_in = tr.label_proj
    out += [
        ("joint.enc_proj", (tr.proj_dim, tr.joint_dim)),
        ("joint.pred_proj", (tr.label_proj, tr.joint_dim)),
        ("joint.bias", (tr.joint_dim,)),
        ("joint.out.weight", (tr.joint_dim, tr.vocab_size + 1)),
        ("joint.out.bias", (tr.vocab_size + 1,)),
    ]
    return out


def _lstm_shapes(prefix, n_in, hidden, proj):
    return [
        (f"{prefix}.w", (n_in, 4 * hidden)),
        (f"{prefix}.u", (hidden, 4 * hidden)),
        (f"{prefix}.b", (4 * hidden,)),
        (f"{prefix}.proj.weight", (hidden, proj)),
        (f"{prefix}.proj.bias", (proj,)),
    ]


PARAM_GROUPS = (
    ("convolution blocks", ("local.", "global.", "fuse.")),
    ("LSTM encoder", ("encoder.",)),
    ("joint network", ("joint.",)),
    ("decoder input embedding", ("label.embed.",)),
    ("LSTM decoder", ("label.lstm",)),
)


def group_of(name: str) -> str:
    for group, prefixes in PARAM_GROUPS:
        if any(name.startswith(p) for p in prefixes):
            return group
    raise KeyError(name)


def count_parameters(cfg: RunConfig):
    """Per-group exact parameter counts from shapes alone."""
    counts = {group: 0 for group, _ in PARAM_GROUPS}
    for name, shape in parameter_shapes(cfg):
        n = 1
        for s in shape:
            n *= s
        counts[group_of(name)] += n
    return counts

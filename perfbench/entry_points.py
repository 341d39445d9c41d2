"""The package entry points the traced run wraps.

Span names follow the module that owns each layer.  Layer instances of a
model (the local convs, global blocks and LSTM layers) are told apart by a
name registry filled from the model after it is built.  The operation counts
behind each layer's achieved GFLOP/s are computed from the shapes of the call
with `convrnnt.complexity`, using the same per-layer formulas the analytic
FLOPs report uses; they are computed counts, not measured ones.
"""

from __future__ import annotations

from convrnnt import audio, decoding, model, optim, tensor, train
from convrnnt import rnnt_loss as rnnt_loss_module
from convrnnt.complexity import conv_flops, lstm_flops
from convrnnt.global_encoder import GlobalBlock
from convrnnt.layers import Conv2dLayer
from convrnnt.model import TransducerModel
from convrnnt.transducer import Joint, LabelEncoder, LSTMLayer

from tracer import EntryPoint, TracerError

# Span names whose self time is reported as `<name>.self_s`; the ones with a
# FLOPs formula also get `<name>.gflops_per_s`.
SELF_TIME_PREFIXES = (
    "local_encoder.conv", "global_encoder.block", "transducer.encoder.layer",
    "transducer.label", "transducer.fuse", "transducer.joint",
)

# Span name -> metric name for the layers reported under a name of their own.
RENAMED = {
    "audio.featurize": "audio.featurize_s",
    "audio.spec_augment": "audio.spec_augment_s",
    "rnnt_loss": "rnnt_loss.forward_s",
    "tensor.backward": "tensor.backward_s",
    "optim.step": "optim.step_s",
}

NODES = "tensor.nodes"
STEP_FRAME = "decoding.step_frame"


def register(names: dict, m: TransducerModel) -> dict:
    """Add the span name of every per-instance layer of `m` to `names`."""
    if m.local is not None:
        for i, conv in enumerate(m.local.convs):
            names[id(conv)] = f"local_encoder.conv{i}"
    if m.global_enc is not None:
        for i, block in enumerate(m.global_enc.blocks, 1):
            names[id(block)] = f"global_encoder.block{i}"
    for i, layer in enumerate(m.encoder.layers):
        names[id(layer)] = f"transducer.encoder.layer{i}"
    for i, layer in enumerate(m.label_encoder.layers):
        names[id(layer)] = f"transducer.label.lstm{i}"
    return names


def _conv2d_flops(args, out):
    c_out, c_in, k_t, k_f = args[0].weight.shape
    _, t_len, n_freq = out.shape
    # conv_flops takes a square kernel; a 1x1 call scaled by the kernel area
    # is the same formula for k_t x k_f.
    return conv_flops(c_in, 1, c_out, t_len, n_freq) * k_t * k_f


def _block_flops(args, out):
    block, xs = args[0], args[1]
    e, d, _ = block.pw_in.weight.shape
    dw_k = block.dw.weight.shape[2]
    se_b = block.se_reduce.weight.shape[1]
    total = 0
    for x in xs:
        s = x.shape[0]
        total += (
            conv_flops(d, 1, e, s, 1)
            + conv_flops(1, dw_k, e, s, 1)
            + conv_flops(e, 1, d, s, 1)
            + conv_flops(d, 1, se_b, s, 1)
            + conv_flops(se_b, 1, d, s, 1)
        )
    return total


def _lstm_flops(args, out):
    layer, xs = args[0], args[1]
    return lstm_flops(1, xs.shape[0], layer.n_in, layer.hidden)


def entry_points(names: dict):
    """Every wrapped entry point; per-instance layers are named from `names`."""

    def by_instance(args):
        try:
            return names[id(args[0])]
        except KeyError:
            raise TracerError(f"unregistered {type(args[0]).__name__} instance") from None

    return [
        EntryPoint(audio, "featurize", "audio.featurize"),
        EntryPoint(train, "featurize", "audio.featurize"),
        EntryPoint(train, "spec_augment", "audio.spec_augment"),
        EntryPoint(train.Trainer, "train_step", "train.train_step"),
        EntryPoint(TransducerModel, "batch_loss", "model.batch_loss"),
        EntryPoint(TransducerModel, "encode_audio", "model.encode_audio"),
        EntryPoint(Conv2dLayer, "__call__", by_instance, _conv2d_flops),
        EntryPoint(GlobalBlock, "forward_batch", by_instance, _block_flops),
        EntryPoint(model, "fuse_frontends", "transducer.fuse"),
        EntryPoint(LSTMLayer, "__call__", by_instance, _lstm_flops),
        EntryPoint(LabelEncoder, "__call__", "transducer.label"),
        EntryPoint(Joint, "__call__", "transducer.joint"),
        EntryPoint(model, "rnnt_loss", "rnnt_loss"),
        EntryPoint(rnnt_loss_module, "rnnt_loss", "rnnt_loss"),
        EntryPoint(tensor.Tensor, "backward", "tensor.backward"),
        EntryPoint(optim.Adam, "step", "optim.step"),
        EntryPoint(decoding, "step_frame", STEP_FRAME),
        EntryPoint(tensor, "from_op", NODES, count_if=lambda out: out._backward is not None),
    ]


def metric_name(span: str) -> str | None:
    if span in RENAMED:
        return RENAMED[span]
    if span.startswith(SELF_TIME_PREFIXES):
        return f"{span}.self_s"
    return None

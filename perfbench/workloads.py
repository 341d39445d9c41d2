"""The benchmark's three workloads.

Each workload makes its inputs from the seed, sets up several times (keeping
the last set-up) and then runs a closed loop with one caller: the next
operation starts when the previous one returns.  Outputs are checked outside
the timed region.

With tracing on, the loop runs twice on the same inputs: untraced for half the
time, then the same number of operations with the entry points wrapped.  The
outputs of the two halves must agree bitwise; per-layer numbers come from the
traced half only, and the difference between the halves is the tracing
overhead.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from convrnnt import audio, data, decoding
from convrnnt import rnnt_loss as rnnt_loss_module
from convrnnt import tensor as T
from convrnnt.config import load_preset
from convrnnt.errors import ConfigError, DataError, ShapeError, TrainingError
from convrnnt.model import TransducerModel, make_rng
from convrnnt.train import Trainer
from convrnnt.transducer import Joint

import entry_points as ep
import oracle
from report import summary
from speed import SpeedReference
from tracer import Tracer, installed

PACKAGE_ERRORS = (ConfigError, DataError, ShapeError, TrainingError)
clock = time.perf_counter

DESK_SETUPS = 7
STREAM_SETUPS = 3
LOSS_SETUPS = 7

STREAM_AUDIO_S = 10.0
MAX_SYMBOLS = 1        # one token per emitting frame once emissions are scripted
LOSS_T, LOSS_U = 333, 30   # 10 s of 30 ms stacked frames; about 30 tokens per 10 s
TARGET_TOKENS = LOSS_U

REL_TOL_ORACLE = 1e-9
FD_STEP = 3e-2  # roundoff, not truncation, limits smaller steps at this size
REL_TOL_FD = 1e-6


@dataclass
class Loop:
    durations: list = field(default_factory=list)  # seconds per successful operation
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


@dataclass
class Result:
    attempted: int
    failed: int
    checks: dict
    metrics: dict
    details: dict
    spans: list | None = None


def closed_loop(op, seconds: float | None = None, n_ops: int | None = None,
                ref: SpeedReference | None = None) -> Loop:
    """Call `op` back to back, for `seconds` or exactly `n_ops` times.

    A typed package error counts as one failed operation and the loop goes on.
    With `ref`, the speed reference is sampled after each operation.
    """
    loop = Loop()
    deadline = None if seconds is None else clock() + seconds
    while clock() < deadline if deadline is not None else loop.attempted < n_ops:
        loop.attempted += 1
        t0 = clock()
        try:
            out = op()
        except PACKAGE_ERRORS as exc:
            loop.failed += 1
            loop.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        loop.durations.append(clock() - t0)
        loop.outputs.append(out)
        if ref is not None:
            ref.after(loop.durations[-1])
    return loop


def timed_setups(setup, n: int, ref: SpeedReference | None = None):
    """Run `setup` n times, dropping each result before the next; returns the
    seconds of each and the last result."""
    times, obj = [], None
    for i in range(n):
        obj = None
        gc.collect()
        t0 = clock()
        obj = setup(i)
        times.append(clock() - t0)
        if ref is not None:
            ref.after(times[-1])
    return times, obj


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_op(loop: Loop) -> float:
    if not loop.durations:
        raise RuntimeError(f"no operation succeeded: {loop.errors[:3]}")
    return float(np.median(loop.durations))


def _end_to_end(setups, setup_ref: SpeedReference, loop: Loop, op_ref: SpeedReference,
                rss: float) -> dict:
    """The end-to-end metrics; times in seconds at the reference speed."""
    return {
        "setup_s": float(np.median(setups)) * setup_ref.factor,
        "peak_rss_mib": rss,
        "op_s.p50": _median_op(loop) * op_ref.factor,
    }


def _speed_details(setups, setup_ref: SpeedReference, loop: Loop,
                   op_ref: SpeedReference) -> dict:
    return {"measured_setup_s": setups, "setup_speed_factor": setup_ref.factor,
            "measured_op_s": summary(loop.durations), "op_speed_factor": op_ref.factor,
            "op_reference": op_ref.kind, "op_reference_units": len(op_ref.samples)}


def _layer_metrics(tracer: Tracer, first: int, untraced: Loop, traced: Loop) -> dict:
    """Per-operation self time of every layer over spans[first:], plus the
    untraced remainder and the tracing overhead."""
    overhead = _median_op(traced) / _median_op(untraced) - 1.0
    n_ops = len(traced.durations)
    wall = float(sum(traced.durations))
    totals = tracer.self_totals(first)
    calls = tracer.call_counts(first)
    out = {}
    listed = 0.0
    for span, t in totals.items():
        if span == ep.STEP_FRAME:
            out["decoding.step_frame_ms"] = 1e3 * t / calls[span]
            listed += t
            continue
        name = ep.metric_name(span)
        if name is None:
            continue  # containers: their self time is the remainder
        out[name] = t / n_ops
        listed += t
        if span in tracer.flops and t > 0:
            out[f"{span}.gflops_per_s"] = tracer.flops[span] / t / 1e9
    if ep.NODES in tracer.counts:
        out["tensor.nodes_per_step"] = tracer.counts[ep.NODES] / n_ops
    out["tensor.backward_share"] = totals.get("tensor.backward", 0.0) / wall
    out["trace.remainder_s"] = (wall - listed) / n_ops
    out["trace.overhead_share"] = overhead
    return out


def _mark(tracer: Tracer) -> int:
    """Start the measured window: later spans, counts and FLOPs are per operation."""
    tracer.counts.clear()
    tracer.flops.clear()
    return len(tracer.spans)


def _loop_details(loop: Loop) -> dict:
    return {"attempted": loop.attempted, "failed": loop.failed, "errors": loop.errors[:5]}


# ---------------------------------------------------------------------------
# desk-train: Trainer.train_step on a seeded toy corpus


def desk_train(seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    corpus = os.path.join(workdir, "toy")
    data.generate_toy_corpus(corpus, seed=seed)
    overrides = [f"data.toy_dir={corpus}", f"training.seed={seed}"]

    def setup(i):
        return Trainer(load_preset("desk", overrides), os.path.join(workdir, f"setup{i}"))

    setup_ref = None if trace else SpeedReference("alloc")
    setups, trainer = timed_setups(setup, DESK_SETUPS, setup_ref)
    trainer.train_step()  # warm-up
    if not trace:
        ref = SpeedReference("tape")
        loop = closed_loop(trainer.train_step, seconds=seconds, ref=ref)
        rss = peak_rss_mib()
        losses = [loss for loss, _ in loop.outputs]
        return Result(
            loop.attempted, loop.failed,
            checks={"losses_finite": bool(losses) and bool(np.all(np.isfinite(losses)))},
            metrics=_end_to_end(setups, setup_ref, loop, ref, rss),
            details={"train_step_s": summary(loop.durations), "loop": _loop_details(loop),
                     **_speed_details(setups, setup_ref, loop, ref)},
        )

    untraced = closed_loop(trainer.train_step, seconds=seconds / 2)
    tracer, names = Tracer(), {}
    with installed(tracer, ep.entry_points(names)):
        traced_trainer = setup(DESK_SETUPS)
        ep.register(names, traced_trainer.model)
        setup_spans = tracer.self_totals()
        traced_trainer.train_step()
        first = _mark(tracer)
        traced = closed_loop(traced_trainer.train_step, n_ops=untraced.attempted)
    tracer.require(list(names.values()) + [
        "train.train_step", "model.batch_loss", "audio.featurize", "audio.spec_augment",
        "transducer.fuse", "transducer.label", "transducer.joint", "rnnt_loss",
        "tensor.backward", "optim.step", ep.NODES,
    ])
    losses = [loss for loss, _ in untraced.outputs]
    traced_losses = [loss for loss, _ in traced.outputs]
    metrics = _layer_metrics(tracer, first, untraced, traced)
    metrics["audio.featurize_s"] = setup_spans["audio.featurize"]  # one set-up's worth
    return Result(
        untraced.attempted + traced.attempted, untraced.failed + traced.failed,
        checks={
            "losses_finite": bool(losses) and bool(np.all(np.isfinite(losses))),
            "traced_losses_bitwise_equal": traced_losses == losses,
        },
        metrics=metrics,
        details={"untraced_train_step_s": summary(untraced.durations),
                 "traced_train_step_s": summary(traced.durations),
                 "untraced": _loop_details(untraced), "traced": _loop_details(traced)},
        spans=tracer.records(),
    )


# ---------------------------------------------------------------------------
# paper-stream: featurize -> encode_audio -> greedy decoding frame by frame


def stream_pcm(seed: int, rate: int) -> np.ndarray:
    """10 s of 16-bit PCM: 100 ms segments of a random tone over noise, with pauses."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    seg = rate // 10
    n_seg = int(STREAM_AUDIO_S * 10)
    t = np.arange(seg) / rate
    pieces = []
    for _ in range(n_seg):
        voiced = rng.random() < 0.7
        freq = rng.uniform(100.0, 4000.0)
        tone = np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi)) if voiced else 0.0
        pieces.append(8000.0 * tone + 300.0 * rng.standard_normal(seg))
    return np.round(np.concatenate(pieces))


def script_emissions(m: TransducerModel, enc: np.ndarray, target: int) -> float:
    """Make greedy decoding of `enc` emit `target` tokens; returns the blank offset.

    With random weights every frame emits up to the per-frame cap.  One offset
    on the blank logit can not fix that by itself: after the first emission the
    label context moves the logits far more than the frames differ, so the
    token count jumps from 0 to hundreds.  Zeroing the joint's label-side
    projection makes each frame's blank margin independent of the context;
    the offset then sits midway between the target-th and next largest
    margins, and decoding with one symbol per frame emits exactly `target`.
    """
    joint = m.joint
    joint.pred_proj.data[...] = 0.0
    z = np.tanh(enc @ joint.enc_proj.data + joint.bias.data)
    logits = z @ joint.out.weight.data + joint.out.bias.data
    margins = np.sort(logits[:, 1:].max(axis=1) - logits[:, 0])[::-1]
    offset = 0.5 * (margins[target - 1] + margins[target])
    joint.out.bias.data[0] += offset
    return float(offset)


def _encode(m: TransducerModel, pcm: np.ndarray, cfg) -> np.ndarray:
    seq = audio.featurize(pcm, cfg.feature)
    with T.no_grad():
        return m.encode_audio(T.Tensor(seq.frames)).data


def _chunked_decode(m: TransducerModel, enc: np.ndarray, rng) -> decoding.DecoderState:
    state = decoding.init_state(m)
    start = 0
    while start < enc.shape[0]:
        stop = min(enc.shape[0], start + int(rng.integers(1, 64)))
        state = decoding.decode_frames(m, state, enc[start:stop], MAX_SYMBOLS)
        start = stop
    return state


def paper_stream(seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    cfg = load_preset("paper")
    pcm = stream_pcm(seed, cfg.feature.sample_rate_hz)
    setup_ref = None if trace else SpeedReference("alloc")
    setups, m = timed_setups(lambda i: TransducerModel(cfg, seed=seed),
                             1 if trace else STREAM_SETUPS, setup_ref)

    enc0 = _encode(m, pcm, cfg)  # warm-up; also the input of the emission script
    offset = script_emissions(m, enc0, TARGET_TOKENS)
    reference = decoding.greedy_decode(m, enc0, MAX_SYMBOLS)
    frame_s = []

    def op():
        enc = _encode(m, pcm, cfg)
        state = decoding.init_state(m)
        for t in range(enc.shape[0]):
            t0 = clock()
            state = decoding.step_frame(m, state, enc[t], MAX_SYMBOLS)
            frame_s.append(clock() - t0)
        return enc, state.tokens

    def stream_checks(*loops):
        outputs = [out for loop in loops for out in loop.outputs]
        chunked = _chunked_decode(m, enc0, np.random.Generator(np.random.Philox(key=[seed, 2])))
        return {
            "encoder_output_finite": bool(np.all(np.isfinite(enc0)))
            and all(bool(np.all(np.isfinite(enc))) for enc, _ in outputs),
            "scripted_token_count": len(reference.tokens) == TARGET_TOKENS,
            "tokens_equal_across_repeats": bool(outputs)
            and all(tokens == reference.tokens for _, tokens in outputs),
            "chunked_decode_equals_greedy": chunked.tokens == reference.tokens
            and chunked.score == reference.score,
        }

    details = {"blank_offset": offset, "tokens": len(reference.tokens),
               "frames": int(enc0.shape[0])}
    if not trace:
        ref = SpeedReference("stream")
        loop = closed_loop(op, seconds=seconds, ref=ref)
        rss = peak_rss_mib()
        details.update({"rtf": summary(loop.durations, 1.0 / STREAM_AUDIO_S),
                        "decode_frame_ms": summary(frame_s, 1e3), "loop": _loop_details(loop),
                        **_speed_details(setups, setup_ref, loop, ref)})
        return Result(loop.attempted, loop.failed, stream_checks(loop),
                      _end_to_end(setups, setup_ref, loop, ref, rss), details)

    untraced = closed_loop(op, seconds=seconds / 2)
    tracer, names = Tracer(), ep.register({}, m)
    with installed(tracer, ep.entry_points(names)):
        first = _mark(tracer)
        traced = closed_loop(op, n_ops=untraced.attempted)
    stream_names = [n for n in names.values() if not n.startswith("transducer.label")]
    tracer.require(stream_names + ["audio.featurize", "model.encode_audio", "transducer.fuse",
                                   ep.STEP_FRAME])
    checks = stream_checks(untraced, traced)
    checks["traced_tokens_equal"] = [t for _, t in traced.outputs] == [t for _, t in untraced.outputs]
    metrics = _layer_metrics(tracer, first, untraced, traced)
    metrics["decoding.tokens_emitted"] = len(reference.tokens)
    details.update({"untraced_rtf": summary(untraced.durations, 1.0 / STREAM_AUDIO_S),
                    "traced_rtf": summary(traced.durations, 1.0 / STREAM_AUDIO_S),
                    "untraced": _loop_details(untraced), "traced": _loop_details(traced)})
    return Result(untraced.attempted + traced.attempted, untraced.failed + traced.failed,
                  checks, metrics, details, tracer.records())


# ---------------------------------------------------------------------------
# paper-loss: Joint -> rnnt_loss -> Tensor.backward at paper width


def paper_loss(seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    tr_cfg = load_preset("paper").transducer_config()

    def setup(i):
        rng = make_rng(seed)
        joint = Joint(tr_cfg, rng)
        enc = T.Tensor(0.5 * rng.standard_normal((LOSS_T, tr_cfg.proj_dim)), requires_grad=True)
        pred = T.Tensor(0.5 * rng.standard_normal((LOSS_U + 1, tr_cfg.label_proj)), requires_grad=True)
        labels = rng.integers(1, tr_cfg.vocab_size + 1, size=LOSS_U)
        return joint, enc, pred, labels

    setup_ref = None if trace else SpeedReference("alloc")
    setups, (joint, enc, pred, labels) = timed_setups(setup, 1 if trace else LOSS_SETUPS,
                                                      setup_ref)
    params = [p for _, p in joint.params()] + [enc, pred]

    def op():
        for p in params:
            p.zero_grad()
        loss = rnnt_loss_module.rnnt_loss(joint(enc, pred), labels)
        loss.backward()
        return float(loss.data)

    def forward_nll(enc_rows):
        with T.no_grad():
            return float(rnnt_loss_module.rnnt_loss(joint(T.Tensor(enc_rows), pred), labels).data)

    first_nll = op()  # warm-up

    def loss_checks(*loops):
        nlls = [first_nll] + [v for loop in loops for v in loop.outputs]
        with T.no_grad():
            logits = joint(T.Tensor(enc.data), pred).data
        oracle_nll = oracle.transducer_nll(logits, labels)
        del logits
        direction = np.random.Generator(np.random.Philox(key=[seed, 3])).standard_normal(enc.shape)
        direction /= np.linalg.norm(direction)
        fd = (forward_nll(enc.data + FD_STEP * direction)
              - forward_nll(enc.data - FD_STEP * direction)) / (2 * FD_STEP)
        analytic = float((enc.grad * direction).sum())
        return {
            "nll_finite": bool(np.isfinite(first_nll)),
            "nll_bitwise_repeatable": all(v == first_nll for v in nlls),
            "nll_matches_numpy_alpha_recursion":
            abs(first_nll - oracle_nll) <= REL_TOL_ORACLE * abs(oracle_nll),
            "directional_derivative_matches_backward": abs(fd - analytic)
            <= REL_TOL_FD * abs(analytic),
        }, {"nll": first_nll, "oracle_nll": oracle_nll, "fd_derivative": fd,
            "backward_derivative": analytic}

    if not trace:
        ref = SpeedReference("loss")
        loop = closed_loop(op, seconds=seconds, ref=ref)
        rss = peak_rss_mib()
        checks, values = loss_checks(loop)
        details = {"loss_utt_s": summary(loop.durations), "loop": _loop_details(loop),
                   **_speed_details(setups, setup_ref, loop, ref), **values}
        return Result(loop.attempted, loop.failed, checks,
                      _end_to_end(setups, setup_ref, loop, ref, rss), details)

    untraced = closed_loop(op, seconds=seconds / 2)
    tracer = Tracer()
    with installed(tracer, ep.entry_points({})):
        first = _mark(tracer)
        traced = closed_loop(op, n_ops=untraced.attempted)
    tracer.require(["transducer.joint", "rnnt_loss", "tensor.backward", ep.NODES])
    checks, values = loss_checks(untraced, traced)
    checks["traced_nll_equal"] = traced.outputs == untraced.outputs
    details = {"untraced_loss_utt_s": summary(untraced.durations),
               "traced_loss_utt_s": summary(traced.durations),
               "untraced": _loop_details(untraced), "traced": _loop_details(traced), **values}
    return Result(untraced.attempted + traced.attempted, untraced.failed + traced.failed,
                  checks, _layer_metrics(tracer, first, untraced, traced), details, tracer.records())


WORKLOADS = {
    "desk-train": desk_train,
    "paper-stream": paper_stream,
    "paper-loss": paper_loss,
}

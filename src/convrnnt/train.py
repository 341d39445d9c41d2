"""Training and evaluation loops, checkpoint plumbing, parameter reports,
and the ablation harness.

Determinism contract: a (config, seed, data) triple fixes the whole run
bitwise.  Batch order is a pure function of the step counter, the dropout /
augmentation RNG is counter-based and checkpointed, and gradient
accumulation over a batch is an ordered reduction.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from . import tensor as T
from .audio import NormStats, accumulate_stats, featurize, normalize, read_wav, spec_augment
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, architecture_hash, resolve_config
from .data import ensure_toy_corpus, index_utterances, load_manifest
from .decoding import greedy_decode
from .errors import ConfigError, TrainingError
from .model import PARAM_GROUPS, TransducerModel, count_parameters, make_rng, parameter_shapes
from .optim import Adam, lr_at
from .vocab import Vocab


def word_error_rate(ref: str, hyp: str) -> float:
    """Word-level Levenshtein distance over the reference length."""
    r, h = ref.split(), hyp.split()
    if not r:
        raise ConfigError("empty reference")
    d = np.zeros((len(r) + 1, len(h) + 1), dtype=np.int64)
    d[:, 0] = np.arange(len(r) + 1)
    d[0, :] = np.arange(len(h) + 1)
    for i in range(1, len(r) + 1):
        for j in range(1, len(h) + 1):
            sub = d[i - 1, j - 1] + (r[i - 1] != h[j - 1])
            d[i, j] = min(sub, d[i - 1, j] + 1, d[i, j - 1] + 1)
    return float(d[len(r), len(h)]) / len(r)


class Trainer:
    def __init__(self, cfg: RunConfig, workdir: str):
        self.cfg = cfg
        self.workdir = str(workdir)
        os.makedirs(self.workdir, exist_ok=True)

        manifest_path, vocab_path = resolve_data(cfg, self.workdir)
        self.vocab = Vocab.load(vocab_path)
        if cfg.model.vocab_size == 0:
            cfg.model.vocab_size = self.vocab.n_labels
        elif cfg.model.vocab_size != self.vocab.n_labels:
            raise ConfigError(
                f"config vocab_size {cfg.model.vocab_size} != vocab file size "
                f"{self.vocab.n_labels}"
            )
        self.arch_hash = architecture_hash(cfg)

        self.train_utts = load_manifest(manifest_path)
        self.eval_utts = (
            load_manifest(cfg.data.eval_manifest) if cfg.data.eval_manifest else self.train_utts
        )
        utts = index_utterances(self.train_utts + self.eval_utts)
        self.tokens = {utt_id: self.vocab.tokenize(u.transcript) for utt_id, u in utts.items()}

        frames = featurize_wavs(cfg, self.train_utts + self.eval_utts)
        self.stats = self._resolve_stats(frames)
        self._features = {
            utt_id: normalize(frames[u.audio_path], self.stats) for utt_id, u in utts.items()
        }

        seed = cfg.training.seed
        self.model = TransducerModel(cfg, seed=seed)
        self.optimizer = Adam(self.model.parameters(), cfg.optimizer)
        self.rng = make_rng(seed + 1)  # dropout, masking; state is checkpointed
        self.step = 0
        self._perms = {}

    # -- data plumbing -------------------------------------------------------

    def _resolve_stats(self, frames) -> NormStats:
        path = self.cfg.data.stats or os.path.join(self.workdir, "norm_stats.bin")
        if os.path.exists(path):
            stats = NormStats.load(path)
            if stats.dim != self.cfg.input_dim:
                raise ConfigError(f"stats dim {stats.dim} != input dim {self.cfg.input_dim}")
            return stats
        stats = compute_norm_stats(self.cfg, self.train_utts, frames)
        stats.save(path)
        return stats

    def _epoch_perm(self, epoch: int) -> np.ndarray:
        if epoch not in self._perms:
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([self.cfg.training.seed, epoch]))
            )
            self._perms[epoch] = rng.permutation(len(self.train_utts))
        return self._perms[epoch]

    def batch_for_step(self, step: int):
        """Utterances of 1-based step `step`; a pure function of the step."""
        n = len(self.train_utts)
        b = min(self.cfg.training.batch_size, n)
        start = (step - 1) * b
        out = []
        for g in range(start, start + b):
            epoch, pos = divmod(g, n)
            out.append(self.train_utts[self._epoch_perm(epoch)[pos]])
        return out

    # -- optimization --------------------------------------------------------

    def train_step(self):
        """One optimizer step; returns (loss, grad_norm) at the new step."""
        cfg = self.cfg
        batch = self.batch_for_step(self.step + 1)
        self.model.zero_grad()
        feats = [spec_augment(self._features[u.utt_id], cfg.specaug, self.rng) for u in batch]
        mean_loss, per_utt = self.model.batch_loss(
            feats, [self.tokens[u.utt_id] for u in batch], training=True, rng=self.rng
        )
        for utt, value in zip(batch, per_utt):
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at step {self.step + 1} on utterance {utt.utt_id}"
                )
        mean_loss.backward()
        nll_sum = float(sum(per_utt))
        grad_norm = float(
            np.sqrt(
                sum(
                    float((p.grad * p.grad).sum())
                    for _, p in self.model.parameters()
                    if p.grad is not None
                )
            )
        )
        self.step += 1
        self.optimizer.step(lr_at(self.step, cfg.optimizer))
        l2_term = cfg.optimizer.l2 * sum(
            float((p.data * p.data).sum()) for _, p in self.model.parameters()
        )
        return nll_sum / len(batch) + l2_term, grad_norm

    def train(self, max_steps: int | None = None, log_path: str | None = None):
        """Run to `max_steps`, logging CSV metrics and checkpointing."""
        cfg = self.cfg
        max_steps = max_steps if max_steps is not None else cfg.training.max_steps
        log_path = log_path or os.path.join(self.workdir, "metrics.csv")
        new_log = not os.path.exists(log_path) or self.step == 0
        with open(log_path, "w" if new_log else "a", newline="") as f:
            writer = csv.writer(f)
            if new_log:
                writer.writerow(["step", "loss", "grad_norm", "lr"])
            while self.step < max_steps:
                loss, grad_norm = self.train_step()
                writer.writerow(
                    [self.step, f"{loss:.10f}", f"{grad_norm:.10f}",
                     f"{lr_at(self.step, cfg.optimizer):.10f}"]
                )
                if self.step % cfg.training.eval_interval == 0 or self.step == max_steps:
                    self.save(os.path.join(self.workdir, "checkpoint.bin"))
        return self

    # -- evaluation ----------------------------------------------------------

    def decode(self, utts=None):
        """Yield (utterance, encoder output, greedy hypothesis text) in order,
        encoding each utterance once in eval mode."""
        for utt in utts if utts is not None else self.eval_utts:
            with T.no_grad():
                enc = self.model.encode_audio(T.Tensor(self._features[utt.utt_id]))
                tokens = greedy_decode(self.model, enc.data).tokens
            yield utt, enc, self.vocab.detokenize(tokens)

    def evaluate(self, utts=None):
        """Mean per-utterance nll, exact transcript match rate, and WER."""
        utts = utts if utts is not None else self.eval_utts
        nll_total = 0.0
        exact = 0
        wer_num = 0.0
        wer_den = 0
        hyps = {}
        for utt, enc, hyp_text in self.decode(utts):
            with T.no_grad():
                nll_total += float(self.model.encoded_loss(enc, self.tokens[utt.utt_id]).data)
            hyps[utt.utt_id] = hyp_text
            exact += hyp_text == utt.transcript
            ref_words = utt.transcript.split()
            wer_num += word_error_rate(utt.transcript, hyp_text) * len(ref_words)
            wer_den += len(ref_words)
        return {
            "mean_nll": nll_total / len(utts),
            "exact_match": exact / len(utts),
            "wer": wer_num / wer_den,
            "hypotheses": hyps,
        }

    # -- persistence ---------------------------------------------------------

    def _checkpoint_arrays(self):
        arrays = list(self.model.parameters())
        arrays = [(name, p.data) for name, p in arrays]
        arrays += self.optimizer.state_arrays()
        for name, bn in self.model.norm_layers():
            for stat_name, value in bn.state():
                arrays.append((f"stats.{name}.{stat_name}", value))
        return arrays + self._norm_stats_arrays()

    def _norm_stats_arrays(self):
        return [
            ("normstats.mean", self.stats.mean),
            ("normstats.var", self.stats.variance),
            ("normstats.count", np.asarray([float(self.stats.count)])),
        ]

    def save(self, path) -> None:
        save_checkpoint(
            path, self.arch_hash, self.step, self._checkpoint_arrays(),
            self.rng.bit_generator.state,
        )

    def load(self, path) -> None:
        step, arrays, rng_state = load_checkpoint(path, expected_hash=self.arch_hash)
        for name, value in self._norm_stats_arrays():
            if not np.array_equal(arrays[name], value):
                raise ConfigError(
                    f"{path}: {name} differs from the feature normalization stats in use; "
                    "the checkpoint was trained with other stats"
                )
        self.step = step
        for name, p in self.model.parameters():
            p.data[...] = arrays[name]
        self.optimizer.load_state_arrays(arrays)
        for name, bn in self.model.norm_layers():
            bn.load_state(arrays[f"stats.{name}.running_mean"], arrays[f"stats.{name}.running_var"])
        self.rng.bit_generator.state = rng_state


def resolve_data(cfg: RunConfig, workdir: str):
    """(train manifest, vocab) paths; the toy corpus is made under
    `<workdir>/toy` unless `data.toy_dir` names another place."""
    data = cfg.data
    if data.use_toy:
        toy_dir = data.toy_dir or os.path.join(workdir, "toy")
        manifest, vocab = ensure_toy_corpus(toy_dir)
        return data.train_manifest or manifest, data.vocab or vocab
    if not data.train_manifest or not data.vocab:
        raise ConfigError("data.train_manifest and data.vocab are required")
    return data.train_manifest, data.vocab


def featurize_wavs(cfg: RunConfig, utts):
    """Unnormalized [T, D] frames of each distinct wav among `utts`, keyed by
    path; every wav is read and featurized once."""
    rate = cfg.feature.sample_rate_hz
    frames = {}
    for u in utts:
        if u.audio_path not in frames:
            frames[u.audio_path] = featurize(read_wav(u.audio_path, rate), cfg.feature).frames
    return frames


def compute_norm_stats(cfg: RunConfig, utts, frames) -> NormStats:
    """Per-dimension mean/variance over the (training) utterances `utts`, in
    order, from their `featurize_wavs` frames."""
    return accumulate_stats((frames[u.audio_path] for u in utts), cfg.input_dim)


# ---------------------------------------------------------------------------
# diagnostics


def param_report(cfg: RunConfig):
    """Rows (group, count, reference_millions, ratio) in fixed group order."""
    counts = count_parameters(cfg)
    rows = []
    for group, _, ref_m in PARAM_GROUPS:
        count = counts[group]
        rows.append((group, count, ref_m, (count / 1e6) / ref_m))
    return rows


def format_param_report(rows) -> str:
    lines = [f"{'module':<26} {'params':>12} {'reference(M)':>13} {'ratio':>8}"]
    for group, count, ref_m, ratio in rows:
        lines.append(f"{group:<26} {count:>12,} {ref_m:>13.2f} {ratio:>8.3f}")
    total = sum(r[1] for r in rows)
    lines.append(f"{'total':<26} {total:>12,}")
    return "\n".join(lines)


def frontend_param_count(cfg: RunConfig) -> int:
    """Conv frontend size (local + global, fusion excluded), exact integer."""
    return sum(
        math.prod(shape)
        for name, shape in parameter_shapes(cfg)
        if name.startswith(("local.", "global."))
    )


ABLATION_VARIANTS = (
    ("local-only", ("model.global_enabled=false",)),
    ("global-only", ("model.local_enabled=false",)),
    ("local+global", ()),
)


def run_ablation(config_source: str, overrides, workdir: str, steps: int):
    """Train the three frontend variants briefly; returns comparison rows."""
    rows = []
    for variant, extra in ABLATION_VARIANTS:
        cfg = resolve_config(config_source, list(overrides) + list(extra))
        trainer = Trainer(cfg, os.path.join(workdir, variant))
        trainer.train(max_steps=steps)
        rows.append(
            {
                "variant": variant,
                "frontend_params": frontend_param_count(trainer.cfg),
                "total_params": sum(v for v in count_parameters(trainer.cfg).values()),
                "mean_nll": trainer.evaluate()["mean_nll"],
            }
        )
    return rows


def format_ablation(rows) -> str:
    lines = [f"{'variant':<14} {'frontend_params':>16} {'total_params':>14} {'mean_nll':>10}"]
    for r in rows:
        lines.append(
            f"{r['variant']:<14} {r['frontend_params']:>16,} {r['total_params']:>14,} "
            f"{r['mean_nll']:>10.4f}"
        )
    return "\n".join(lines)

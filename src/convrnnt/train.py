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
from .audio import accumulate_stats, featurize, normalize, read_wav, spec_augment
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, architecture_hash, resolve_config
from .data import ensure_toy_corpus, index_utterances, load_manifest
from .decoding import greedy_decode
from .errors import ConfigError, DataError, TrainingError
from .model import PARAM_GROUPS, TransducerModel, count_parameters, make_rng, parameter_shapes
from .optim import Adam, lr_at
from .vocab import Vocab


def edit_distance(ref, hyp) -> int:
    """Levenshtein distance between two sequences, of words or of characters."""
    d = np.zeros((len(ref) + 1, len(hyp) + 1), dtype=np.int64)
    d[:, 0] = np.arange(len(ref) + 1)
    d[0, :] = np.arange(len(hyp) + 1)
    for i in range(1, len(ref) + 1):
        for j in range(1, len(hyp) + 1):
            sub = d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            d[i, j] = min(sub, d[i - 1, j] + 1, d[i, j - 1] + 1)
    return int(d[len(ref), len(hyp)])


def error_rates(pairs):
    """(WER, CER) of (reference, hypothesis) transcript pairs: the total word,
    or character, edits over the total reference words, or characters.  A
    reference without words raises `DataError`."""
    word_edits = char_edits = words = chars = 0
    for ref, hyp in pairs:
        if not ref.split():
            raise DataError(f"empty reference transcript {ref!r}")
        word_edits += edit_distance(ref.split(), hyp.split())
        char_edits += edit_distance(ref, hyp)
        words += len(ref.split())
        chars += len(ref)
    return word_edits / words, char_edits / chars


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
        self.stats = accumulate_stats((frames[u.audio_path] for u in self.train_utts),
                                      cfg.input_dim)
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

    def _epoch_perm(self, epoch: int) -> np.ndarray:
        seed = np.random.SeedSequence([self.cfg.training.seed, epoch])
        return np.random.Generator(np.random.Philox(seed)).permutation(len(self.train_utts))

    def batch_for_step(self, step: int):
        """Utterances of 1-based step `step`; a pure function of the step.
        Only the permutations of the (at most two) epochs it reaches stay cached."""
        n = len(self.train_utts)
        b = min(self.cfg.training.batch_size, n)
        start = (step - 1) * b
        self._perms = {e: self._perms[e] if e in self._perms else self._epoch_perm(e)
                       for e in range(start // n, (start + b - 1) // n + 1)}
        return [self.train_utts[self._perms[g // n][g % n]] for g in range(start, start + b)]

    # -- optimization --------------------------------------------------------

    def train_step(self):
        """One optimizer step; returns (loss, grad_norm) at the new step.

        The gradient norm and the L2 term of the loss are one dot each over
        the optimizer's flat gradient and parameter buffers.  They sum in
        another order than per-parameter sums would, and agree with those to
        1e-12 relative, not bitwise.  The dots are `einsum`s, not BLAS: a
        BLAS dot's bits depend on its thread count, and the logged values
        should not.
        """
        cfg = self.cfg
        batch = self.batch_for_step(self.step + 1)
        opt = self.optimizer
        opt.zero_grad()
        feats = [spec_augment(self._features[u.utt_id], cfg.specaug, self.rng) for u in batch]
        try:
            mean_loss, per_utt = self.model.batch_loss(
                feats, [self.tokens[u.utt_id] for u in batch], rng=self.rng
            )
        except DataError as exc:
            # The features and transcripts were checked at set-up, so this is
            # the model's own output, such as logits a diverged step made NaN.
            ids = ", ".join(u.utt_id for u in batch)
            raise TrainingError(f"step {self.step + 1}, batch of {ids}: {exc}") from exc
        for utt, value in zip(batch, per_utt):
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at step {self.step + 1} on utterance {utt.utt_id}"
                )
        mean_loss.backward()
        nll_sum = float(sum(per_utt))
        self.step += 1
        opt.step(lr_at(self.step, cfg.optimizer))
        grad_norm = math.sqrt(float(np.einsum("i,i->", opt.grad, opt.grad)))
        l2_term = cfg.optimizer.l2 * float(np.einsum("i,i->", opt.data, opt.data))
        return nll_sum / len(batch) + l2_term, grad_norm

    def train(self):
        """Run to `training.max_steps`, logging CSV metrics to `<workdir>/metrics.csv`
        and checkpointing; a resumed run keeps the log's rows up to its step."""
        cfg = self.cfg
        max_steps = cfg.training.max_steps
        log_path = os.path.join(self.workdir, "metrics.csv")
        kept = []
        if self.step > 0 and os.path.exists(log_path):
            with open(log_path, newline="") as f:
                kept = [row for row in list(csv.reader(f))[1:] if int(row[0]) <= self.step]
        with open(log_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["step", "loss", "grad_norm", "lr"])
            writer.writerows(kept)
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

    def decode(self):
        """Yield (utterance, encoder output, greedy hypothesis text) for each
        eval utterance in order, encoding each once in eval mode."""
        for utt in self.eval_utts:
            with T.no_grad():
                enc = self.model.encode_audio(T.Tensor(self._features[utt.utt_id]))
                tokens = greedy_decode(self.model, enc.data).tokens
            yield utt, enc, self.vocab.detokenize(tokens)

    def evaluate(self):
        """Mean per-utterance nll, exact transcript match rate, WER and CER
        over the eval utterances."""
        nll_total = 0.0
        pairs, hyps = [], {}
        for utt, enc, hyp_text in self.decode():
            with T.no_grad():
                _, (nll,) = self.model.encoded_loss(enc, [enc.shape[0]], [self.tokens[utt.utt_id]])
            nll_total += nll
            pairs.append((utt.transcript, hyp_text))
            hyps[utt.utt_id] = hyp_text
        wer, cer = error_rates(pairs)
        n = len(pairs)
        return {
            "mean_nll": nll_total / n,
            "exact_match": sum(ref == hyp for ref, hyp in pairs) / n,
            "wer": wer,
            "cer": cer,
            "hypotheses": hyps,
        }

    # -- persistence ---------------------------------------------------------

    def _records(self):
        """Every checkpoint record as (name, the array in use), in file order:
        the parameters, the Adam step and moments, the running batch-norm
        statistics, and the feature normalization stats the model was
        trained on.  The only place that names a record."""
        opt, stats = self.optimizer, self.stats
        records = [(name, p.data) for name, p in self.model.parameters()]
        records.append(("adam.t", np.asarray([float(opt.t)])))
        for name, _ in opt.params:
            records += [(f"adam.m.{name}", opt.m[name]), (f"adam.v.{name}", opt.v[name])]
        for name, bn in self.model.norm_layers():
            records += [(f"stats.{name}.running_mean", bn.stats.mean),
                        (f"stats.{name}.running_var", bn.stats.var)]
        return records + [
            ("normstats.mean", stats.mean),
            ("normstats.var", stats.variance),
            ("normstats.count", np.asarray([float(stats.count)])),
        ]

    def save(self, path) -> None:
        save_checkpoint(path, self.arch_hash, self.step, self._records(),
                        self.rng.bit_generator.state)

    def load(self, path) -> None:
        """Restore a checkpoint, checked in full before anything is written.

        The records must be exactly `_records()`'s, each with the shape in use
        and only finite values, and `adam.t` must equal the header's step; the
        RNG state must be a Philox state.  Each mismatch raises `DataError`
        naming the record; `normstats.*` records that differ from the stats
        recomputed from the training split raise `ConfigError`.  A load that raises changes nothing.
        """
        step, arrays, rng_state = load_checkpoint(path, expected_hash=self.arch_hash)
        records = self._records()
        names = {name for name, _ in records}
        if names != arrays.keys():
            missing, extra = sorted(names - arrays.keys()), sorted(arrays.keys() - names)
            raise DataError(f"{path}: records missing {missing}, unexpected {extra}")
        for name, current in records:
            value = arrays[name]
            if value.shape != current.shape or not np.isfinite(value).all():
                raise DataError(f"{path}: record {name} must hold {current.shape} finite "
                                f"values, not {value.shape} {value.ravel()[:4]}")
            if name.startswith("normstats.") and not np.array_equal(value, current):
                raise ConfigError(
                    f"{path}: {name} differs from the feature normalization stats in use; "
                    "the checkpoint was trained with other stats"
                )
        if arrays["adam.t"][0] != step:
            raise DataError(f"{path}: record adam.t is {arrays['adam.t'][0]}, the step is {step}")
        try:
            np.random.Philox().state = rng_state
        except (ValueError, TypeError, LookupError, OverflowError) as e:
            raise DataError(f"{path}: the RNG state is not a Philox state ({e!r})") from None
        for name, current in records:
            current[...] = arrays[name]
        self.step = self.optimizer.t = step
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
    ("rnnt", ("model.local_enabled=false", "model.global_enabled=false")),
    ("local-only", ("model.global_enabled=false",)),
    ("global-only", ("model.local_enabled=false",)),
    ("local+global", ()),
)


def run_ablation(config_source: str, overrides, workdir: str, steps: int):
    """Train the LSTM-only baseline and the three frontend variants briefly;
    returns comparison rows."""
    rows = []
    for variant, extra in ABLATION_VARIANTS:
        cfg = resolve_config(config_source,
                             [*overrides, *extra, f"training.max_steps={steps}"])
        trainer = Trainer(cfg, os.path.join(workdir, variant))
        trainer.train()
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

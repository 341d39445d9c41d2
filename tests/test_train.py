"""Trainer set-up, steps and evaluation: each wav is read once, each
utterance is encoded once, and the flat-buffer optimizer steps, all with the
bits of the straightforward computation."""

import functools
import math

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt import train
from convrnnt.audio import accumulate_stats, featurize, normalize, read_wav, spec_augment
from convrnnt.config import load_preset
from convrnnt.data import generate_toy_corpus
from convrnnt.decoding import greedy_decode
from convrnnt.errors import DataError, TrainingError
from convrnnt.model import TransducerModel, make_rng

from oracles import adam_step_per_parameter


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("toy")
    generate_toy_corpus(str(path))
    return str(path)


def desk(corpus):
    return load_preset("desk", [f"data.toy_dir={corpus}", "training.seed=11"])


def test_setup_reads_each_wav_once_with_the_same_features(corpus, tmp_path, monkeypatch):
    calls = []

    def counting_read_wav(path, rate):
        calls.append(path)
        return read_wav(path, rate)

    monkeypatch.setattr(train, "read_wav", counting_read_wav)
    trainer = train.Trainer(desk(corpus), str(tmp_path / "run"))
    utts = trainer.train_utts
    assert sorted(calls) == sorted(u.audio_path for u in utts)

    rate = trainer.cfg.feature.sample_rate_hz
    raw = [featurize(read_wav(u.audio_path, rate), trainer.cfg.feature) for u in utts]
    stats = accumulate_stats((seq.frames for seq in raw), trainer.cfg.input_dim)
    assert np.array_equal(trainer.stats.mean, stats.mean)
    assert np.array_equal(trainer.stats.variance, stats.variance)
    for utt, seq in zip(utts, raw):
        assert np.array_equal(trainer._features[utt.utt_id], normalize(seq.frames, stats))


def test_evaluate_encodes_each_utterance_once(corpus, tmp_path, monkeypatch):
    trainer = train.Trainer(desk(corpus), str(tmp_path / "run"))
    for _ in range(5):
        trainer.train_step()

    # The two-pass reference: batch_loss for the nll, then a second
    # encoding for the decoder.
    nlls, hyps = [], {}
    with T.no_grad():
        for utt in trainer.eval_utts:
            feats = trainer._features[utt.utt_id]
            _, (nll,) = trainer.model.batch_loss([feats], [trainer.tokens[utt.utt_id]])
            nlls.append(nll)
            enc = trainer.model.encode_audio(T.Tensor(feats)).data
            hyps[utt.utt_id] = trainer.vocab.detokenize(greedy_decode(trainer.model, enc).tokens)
    refs = {u.utt_id: u.transcript for u in trainer.eval_utts}
    word_edits = sum(train.edit_distance(refs[k].split(), hyps[k].split()) for k in refs)
    char_edits = sum(train.edit_distance(refs[k], hyps[k]) for k in refs)
    wer = word_edits / sum(len(r.split()) for r in refs.values())
    cer = char_edits / sum(len(r) for r in refs.values())

    seen = []
    encode_audio = TransducerModel.encode_audio

    def counting_encode_audio(model, *xs, **kwargs):
        seen.append(len(xs))
        return encode_audio(model, *xs, **kwargs)

    monkeypatch.setattr(TransducerModel, "encode_audio", counting_encode_audio)
    metrics = trainer.evaluate()
    assert seen == [1] * len(trainer.eval_utts) and len(seen) == 10
    assert metrics["mean_nll"] == sum(nlls) / len(nlls)
    assert metrics["hypotheses"] == hyps
    assert metrics["exact_match"] == sum(hyps[k] == refs[k] for k in refs) / len(refs)
    assert metrics["wer"] == wer
    assert metrics["cer"] == cer


def test_error_rates_count_word_and_character_edits():
    # Two unseen strings as an overfit desk model decodes them: cab snaps to
    # the training string cafe, and bag is cut short to b.  Either word is
    # wrong, and either takes two edits against three reference letters.
    assert train.edit_distance("cab", "cafe") == 2
    assert train.edit_distance("bag", "b") == 2
    assert train.error_rates([("cab", "cafe")]) == (1.0, 2 / 3)
    assert train.error_rates([("bag", "b")]) == (1.0, 2 / 3)
    assert train.error_rates([("cab", "cafe"), ("bag", "b"), ("ab", "ab")]) == (2 / 3, 4 / 8)
    assert train.error_rates([("ab cd", "ab")]) == (1 / 2, 3 / 5)
    with pytest.raises(DataError, match="empty reference"):
        train.error_rates([("ab", "ab"), (" ", "ab")])


def test_one_utterance_id_for_two_wavs_rejected(tmp_path):
    # The train wav a/toy00.wav ("ab") and the eval wav b/toy00.wav ("hh")
    # share the id toy00; keyed by id, one would take the other's tokens and
    # features.
    generate_toy_corpus(str(tmp_path / "a"))
    generate_toy_corpus(str(tmp_path / "b"))
    eval_manifest = tmp_path / "b" / "eval.tsv"
    eval_manifest.write_text("toy00.wav\thh\n")
    cfg = load_preset("desk", [f"data.toy_dir={tmp_path / 'a'}",
                               f"data.eval_manifest={eval_manifest}"])
    with pytest.raises(DataError, match="toy00"):
        train.Trainer(cfg, str(tmp_path / "run"))

    # The same wav and transcript under another spelling of its path is one utterance.
    eval_manifest.write_text("../a/toy00.wav\tab\n")
    trainer = train.Trainer(cfg, str(tmp_path / "run"))
    assert [u.utt_id for u in trainer.eval_utts] == ["toy00"]


def test_diverged_step_raises_training_error_naming_the_step_and_batch(corpus, tmp_path):
    # A NaN weight makes every logit NaN; the loss refuses them, and the
    # trainer names the step and the utterances of the batch.
    trainer = train.Trainer(desk(corpus), str(tmp_path / "run"))
    trainer.train_step()
    trainer.model.joint.out.weight.data[0, 0] = np.nan
    batch = [u.utt_id for u in trainer.batch_for_step(2)]
    with pytest.raises(TrainingError, match=f"step 2, batch of {batch[0]}.*non-finite max"):
        trainer.train_step()
    assert trainer.step == 1


def test_flat_adam_steps_match_per_parameter_steps_bitwise(corpus, tmp_path):
    flat = train.Trainer(desk(corpus), str(tmp_path / "flat"))
    ref = train.Trainer(desk(corpus), str(tmp_path / "ref"))
    ref.optimizer.step = functools.partial(adam_step_per_parameter, ref.optimizer)
    for _ in range(15):
        flat.train_step()
        ref.train_step()
    assert flat.optimizer.t == ref.optimizer.t == 15
    for (name, p), (_, q) in zip(flat.model.parameters(), ref.model.parameters()):
        assert p.data.tobytes() == q.data.tobytes(), name
        assert flat.optimizer.m[name].tobytes() == ref.optimizer.m[name].tobytes(), name
        assert flat.optimizer.v[name].tobytes() == ref.optimizer.v[name].tobytes(), name


def test_parameter_gradients_are_views_of_the_optimizer_buffer(corpus, tmp_path):
    trainer = train.Trainer(desk(corpus), str(tmp_path / "run"))
    opt = trainer.optimizer
    for _ in range(2):
        trainer.train_step()
        for name, p in trainer.model.parameters():
            assert np.shares_memory(p.grad, opt.grad), name
        flat = np.concatenate([p.grad.ravel() for _, p in trainer.model.parameters()])
        assert flat.tobytes() == opt.grad.tobytes()


def test_optimizer_gradient_equals_a_plain_backward_bitwise(corpus, tmp_path):
    trainer = train.Trainer(desk(corpus), str(tmp_path / "run"))
    cfg = trainer.cfg
    for _ in range(2):
        trainer.train_step()
    # The next step's batch, augmentation and dropout, on a model with the
    # trainer's weights and no optimizer.
    plain = TransducerModel(cfg, seed=cfg.training.seed + 7)
    for (_, p), (_, q) in zip(trainer.model.parameters(), plain.parameters()):
        q.data[...] = p.data
    rng = make_rng(0)
    rng.bit_generator.state = trainer.rng.bit_generator.state
    batch = trainer.batch_for_step(trainer.step + 1)
    feats = [spec_augment(trainer._features[u.utt_id], cfg.specaug, rng) for u in batch]
    loss, _ = plain.batch_loss(feats, [trainer.tokens[u.utt_id] for u in batch],
                               rng=rng)
    loss.backward()
    trainer.train_step()
    expected = np.concatenate([p.grad.ravel() for _, p in plain.parameters()])
    assert expected.tobytes() == trainer.optimizer.grad.tobytes()


def test_logged_grad_norm_and_l2_term_match_per_parameter_sums(corpus, tmp_path, monkeypatch):
    # A large l2 makes the L2 term most of the loss, so subtracting the nll
    # leaves it to about 1e-15 relative.
    cfg = load_preset("desk", [f"data.toy_dir={corpus}", "training.seed=11", "optimizer.l2=1.0"])
    trainer = train.Trainer(cfg, str(tmp_path / "run"))
    nlls = []
    batch_loss = trainer.model.batch_loss

    def recording_batch_loss(*args, **kwargs):
        mean_loss, per_utt = batch_loss(*args, **kwargs)
        nlls.append(sum(per_utt) / len(per_utt))
        return mean_loss, per_utt

    monkeypatch.setattr(trainer.model, "batch_loss", recording_batch_loss)
    for _ in range(3):
        loss, grad_norm = trainer.train_step()
        params = trainer.model.parameters()
        norm_ref = math.sqrt(sum(float((p.grad * p.grad).sum())
                                 for _, p in params if p.grad is not None))
        l2_ref = sum(float((p.data * p.data).sum()) for _, p in params)
        assert abs(grad_norm - norm_ref) <= 1e-12 * norm_ref
        assert abs((loss - nlls[-1]) - l2_ref) <= 1e-12 * l2_ref


def test_desk_model_tells_its_utterances_apart_from_the_audio(corpus, tmp_path):
    # After 300 desk steps each utterance's audio gives its own transcript a
    # lower nll than any other utterance's: the model reads the audio rather
    # than only its label stack.
    cfg = load_preset("desk", [f"data.toy_dir={corpus}", "training.seed=1234"])
    trainer = train.Trainer(cfg, str(tmp_path / "run"))
    for _ in range(300):
        trainer.train_step()
    transcripts = [trainer.tokens[u.utt_id] for u in trainer.eval_utts]
    n = len(transcripts)
    nll = np.empty((n, n))  # nll[i, j]: audio i scored against transcript j
    with T.no_grad():
        for i, utt in enumerate(trainer.eval_utts):
            enc = trainer.model.encode_audio(T.Tensor(trainer._features[utt.utt_id]))
            _, nll[i] = trainer.model.encoded_loss(T.concat([enc] * n), [enc.shape[0]] * n,
                                                   transcripts)
    off_diagonal = np.where(np.eye(n, dtype=bool), np.inf, nll)
    apart = np.diag(nll) < off_diagonal.min(axis=1)
    assert apart.all(), f"{apart.sum()} of {n} rows"

"""Trainer set-up and evaluation: each wav is read once, each utterance is
encoded once, with the bits of the straightforward computation."""

import numpy as np
import pytest

from convrnnt import tensor as T
from convrnnt import train
from convrnnt.audio import accumulate_stats, featurize, normalize, read_wav
from convrnnt.config import load_preset
from convrnnt.data import generate_toy_corpus
from convrnnt.decoding import greedy_decode
from convrnnt.errors import DataError
from convrnnt.model import TransducerModel


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
    n_words = sum(len(r.split()) for r in refs.values())
    wer = sum(
        train.word_error_rate(refs[k], hyps[k]) * len(refs[k].split()) for k in refs
    ) / n_words

    seen = []
    frontend_batch = TransducerModel.frontend_batch

    def counting_frontend_batch(model, xs, *args, **kwargs):
        seen.append(len(xs))
        return frontend_batch(model, xs, *args, **kwargs)

    monkeypatch.setattr(TransducerModel, "frontend_batch", counting_frontend_batch)
    metrics = trainer.evaluate()
    assert sum(seen) == len(trainer.eval_utts) == 10
    assert metrics["mean_nll"] == sum(nlls) / len(nlls)
    assert metrics["hypotheses"] == hyps
    assert metrics["exact_match"] == sum(hyps[k] == refs[k] for k in refs) / len(refs)
    assert metrics["wer"] == wer


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

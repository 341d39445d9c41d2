import re

import numpy as np
import pytest

from convrnnt.audio import read_wav
from convrnnt.data import TOY_TRANSCRIPTS, generate_toy_corpus, load_manifest, save_manifest
from convrnnt.errors import DataError
from convrnnt.vocab import Vocab


def test_toy_corpus_layout(tmp_path):
    manifest_path, vocab_path = generate_toy_corpus(tmp_path / "toy")
    utts = load_manifest(manifest_path)
    assert len(utts) == 10
    assert [u.transcript for u in utts] == list(TOY_TRANSCRIPTS)
    vocab = Vocab.load(vocab_path)
    for u in utts:
        ids = vocab.tokenize(u.transcript)
        assert vocab.unk_id not in ids
        assert vocab.detokenize(ids) == u.transcript


def test_toy_corpus_deterministic(tmp_path):
    m1, _ = generate_toy_corpus(tmp_path / "a")
    m2, _ = generate_toy_corpus(tmp_path / "b")
    for u1, u2 in zip(load_manifest(m1), load_manifest(m2)):
        assert np.array_equal(read_wav(u1.audio_path), read_wav(u2.audio_path))


def test_toy_audio_is_short_mono_16k(tmp_path):
    manifest_path, _ = generate_toy_corpus(tmp_path / "toy")
    for u in load_manifest(manifest_path):
        pcm = read_wav(u.audio_path, expected_rate=16000)
        assert 2000 < pcm.size < 16000  # fractions of a second


def test_manifest_relative_paths(tmp_path):
    manifest_path, _ = generate_toy_corpus(tmp_path / "toy")
    utts = load_manifest(manifest_path)
    rel = tmp_path / "toy" / "rel.tsv"
    with open(rel, "w") as f:
        for u in utts[:2]:
            import os

            f.write(f"{os.path.basename(u.audio_path)}\t{u.transcript}\n")
    loaded = load_manifest(rel)
    assert [u.utt_id for u in loaded] == [u.utt_id for u in utts[:2]]


def test_a_manifest_that_is_not_utf8_is_rejected_by_its_path(tmp_path):
    p = tmp_path / "latin1.tsv"
    p.write_bytes("a.wav\tcafé\n".encode("latin-1"))
    with pytest.raises(DataError, match=re.escape(f"{p}: not UTF-8 text")):
        load_manifest(p)


def test_manifest_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("no-tab-line\n")
    with pytest.raises(DataError):
        load_manifest(p)
    p.write_text("")
    with pytest.raises(DataError):
        load_manifest(p)
    p.write_text("/nonexistent/file.wav\thello\n")
    with pytest.raises(DataError):
        load_manifest(p)
    for blank in (" ", " \t  "):
        p.write_text(f"/nonexistent/file.wav\t{blank}\n")
        with pytest.raises(DataError, match=re.escape(f"{p}:1: transcript has no words")):
            load_manifest(p)

import re

import pytest

from convrnnt.errors import DataError
from convrnnt.vocab import BLANK_TOKEN, UNK_TOKEN, Vocab, char_vocab


def test_char_roundtrip():
    v = char_vocab("ab")
    ids = v.tokenize("ab")
    assert ids == [v.index["a"], v.index["b"]]
    assert v.detokenize(ids) == "ab"


def test_unknown_maps_to_unk():
    v = char_vocab("ab")
    assert v.unk_id in v.tokenize("axb")


def test_greedy_longest_match_first():
    v = Vocab([BLANK_TOKEN, UNK_TOKEN, "a", "ab", "b"])
    assert v.tokenize("ab") == [v.index["ab"]]
    assert v.tokenize("aab") == [v.index["a"], v.index["ab"]]


def test_blank_must_be_line_zero():
    with pytest.raises(DataError):
        Vocab(["a", BLANK_TOKEN, UNK_TOKEN])


def test_unk_required_and_unique_tokens():
    with pytest.raises(DataError):
        Vocab([BLANK_TOKEN, "a", "b"])
    with pytest.raises(DataError):
        Vocab([BLANK_TOKEN, UNK_TOKEN, "a", "a"])


def test_save_load_roundtrip(tmp_path):
    v = char_vocab("xyz")
    p = tmp_path / "vocab.txt"
    v.save(p)
    loaded = Vocab.load(p)
    assert loaded.tokens == v.tokens
    assert loaded.n_labels == v.n_labels == 4  # unk + 3 letters


def test_a_vocab_that_is_not_utf8_is_rejected_by_its_path(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_bytes("<blank>\n<unk>\né\n".encode("latin-1"))
    with pytest.raises(DataError, match=re.escape(f"{p}: not UTF-8 text")):
        Vocab.load(p)


def test_detokenize_rejects_blank_and_out_of_range():
    v = char_vocab("ab")
    with pytest.raises(DataError):
        v.detokenize([0])
    with pytest.raises(DataError):
        v.detokenize([99])

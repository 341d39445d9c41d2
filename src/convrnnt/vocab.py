"""Token vocabulary with greedy longest-match-first tokenization.

The vocab file holds one token per line; line 0 must be the blank symbol.
Tokenizer training is out of scope: any fixed list works, and characters not
covered by the list map to the unknown token.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, read_text

BLANK_TOKEN = "<blank>"
UNK_TOKEN = "<unk>"


class Vocab:
    def __init__(self, tokens):
        tokens = list(tokens)
        if not tokens or tokens[0] != BLANK_TOKEN:
            raise DataError(f"vocab line 0 must be {BLANK_TOKEN!r}")
        if len(set(tokens)) != len(tokens):
            raise DataError("vocab tokens must be unique")
        if UNK_TOKEN not in tokens:
            raise DataError(f"vocab must include {UNK_TOKEN!r}")
        self.tokens = tokens
        self.index = {tok: i for i, tok in enumerate(tokens)}
        self.unk_id = self.index[UNK_TOKEN]
        # Longest first so e.g. {a, ab} tokenizes "ab" as one piece.
        self._by_length = sorted(
            (t for t in tokens if t not in (BLANK_TOKEN, UNK_TOKEN)),
            key=len,
            reverse=True,
        )

    @property
    def n_labels(self) -> int:
        """Real output tokens (unknown included, blank excluded)."""
        return len(self.tokens) - 1

    @classmethod
    def load(cls, path) -> "Vocab":
        return cls([line for line in read_text(path, DataError).split("\n") if line])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(self.tokens) + "\n")

    def tokenize(self, text: str):
        ids = []
        pos = 0
        while pos < len(text):
            for tok in self._by_length:
                if text.startswith(tok, pos):
                    ids.append(self.index[tok])
                    pos += len(tok)
                    break
            else:
                ids.append(self.unk_id)
                pos += 1
        if not ids:
            raise DataError(f"transcript tokenized to nothing: {text!r}")
        return ids

    def detokenize(self, ids) -> str:
        out = []
        for i in ids:
            if not 1 <= i < len(self.tokens):
                raise DataError(f"token id {i} outside vocabulary")
            out.append(self.tokens[i])
        return "".join(out)


def label_ids(ids, n_labels: int) -> np.ndarray:
    """`ids` as int64 after checking that each is an integer id of a real
    token, in [1, n_labels] (blank excluded); `DataError` otherwise."""
    ids = np.asarray(ids)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise DataError(f"token ids must be integers, got {ids.dtype} values")
    ids = ids.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 1 or ids.max() > n_labels):
        raise DataError(
            f"token ids must lie in [1, {n_labels}] (blank excluded), "
            f"got values from {ids.min()} to {ids.max()}"
        )
    return ids


def char_vocab(alphabet: str) -> Vocab:
    return Vocab([BLANK_TOKEN, UNK_TOKEN] + list(alphabet))

"""Manifests and the bundled synthetic corpus.

The toy corpus pairs short letter strings with audio built from one tone per
letter, so a desk-scale model can learn the audio-to-text mapping from ten
utterances with no external downloads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .audio import write_wav
from .errors import DataError
from .vocab import Vocab, char_vocab

TOY_ALPHABET = "abcdefgh"
TOY_TRANSCRIPTS = ("ab", "bed", "cafe", "dab", "egg", "fed", "gag", "had", "ace", "beg")


@dataclass
class Utterance:
    utt_id: str
    audio_path: str
    transcript: str


def load_manifest(path):
    entries = []
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise DataError(f"{path}:{lineno}: expected '<wav-path>\\t<transcript>'")
            audio_path, transcript = line.split("\t", 1)
            if not transcript:
                raise DataError(f"{path}:{lineno}: empty transcript")
            if not os.path.isabs(audio_path):
                audio_path = os.path.join(base, audio_path)
            if not os.path.exists(audio_path):
                raise DataError(f"{path}:{lineno}: missing audio file {audio_path}")
            utt_id = os.path.splitext(os.path.basename(audio_path))[0]
            entries.append(Utterance(utt_id, audio_path, transcript))
    if not entries:
        raise DataError(f"{path}: empty manifest")
    return entries


def save_manifest(entries, path) -> None:
    """Write audio paths relative to the manifest's directory, where
    `load_manifest` resolves them, so the manifest loads from any cwd."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8") as f:
        for e in entries:
            f.write(f"{os.path.relpath(os.path.abspath(e.audio_path), base)}\t{e.transcript}\n")


def _letter_tone(letter: str, rate: int, duration_s: float, rng) -> np.ndarray:
    # One tone per letter, centered on every other 500 Hz analysis band so
    # letters stay separable after the 16-band spectrum pooling.
    freq = (rate / 2.0 / 16.0) * (2.0 * TOY_ALPHABET.index(letter) + 1.5)
    t = np.arange(int(rate * duration_s)) / rate
    tone = np.sin(2.0 * np.pi * freq * t)
    # Short fade-in/out keeps spectra clean at letter boundaries.
    ramp = min(len(t) // 8, 160)
    env = np.ones_like(tone)
    env[:ramp] = np.linspace(0.0, 1.0, ramp)
    env[-ramp:] = np.linspace(1.0, 0.0, ramp)
    return tone * env + 0.01 * rng.standard_normal(len(t))


def generate_toy_corpus(out_dir, seed: int = 0, rate: int = 16000):
    """Write the toy wavs, manifest, and character vocab; returns their paths.

    Deterministic for a given seed, so repeated runs (and resumed training)
    see byte-identical data.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=seed))
    entries = []
    for i, text in enumerate(TOY_TRANSCRIPTS):
        lead = np.zeros(int(0.05 * rate))
        tail = np.zeros(int(0.03 * rate))
        pieces = [lead] + [_letter_tone(ch, rate, 0.09, rng) for ch in text] + [tail]
        pcm = np.concatenate(pieces)
        path = os.path.join(out_dir, f"toy{i:02d}.wav")
        write_wav(path, np.round(20000.0 * pcm), rate)
        entries.append(Utterance(f"toy{i:02d}", path, text))
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    save_manifest(entries, manifest_path)
    vocab_path = os.path.join(out_dir, "vocab.txt")
    char_vocab(TOY_ALPHABET).save(vocab_path)
    return manifest_path, vocab_path


def ensure_toy_corpus(out_dir, seed: int = 0):
    manifest = os.path.join(out_dir, "manifest.tsv")
    vocab = os.path.join(out_dir, "vocab.txt")
    if os.path.exists(manifest) and os.path.exists(vocab):
        return manifest, vocab
    return generate_toy_corpus(out_dir, seed)

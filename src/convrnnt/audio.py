"""Audio frontend: WAV ingestion, log-STFT band features, stacking,
global mean/variance normalization, and time/frequency masking.

All functions here are pure numpy (no autodiff); features only become
`Tensor`s at the model boundary.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

LOG_FLOOR = 1e-10
NORM_EPS = 1e-8
FFT_SIZE = 512


@dataclass
class FeatureConfig:
    sample_rate_hz: int = 16000
    window_ms: float = 25.0
    hop_ms: float = 10.0
    n_bands: int = 64
    stack: int = 3
    skip: int = 3

    def __post_init__(self):
        # Written so that NaN and inf fail every bound.  A WAV header holds the
        # rate in 32 bits, and a window of over FFT_SIZE seconds is too long at
        # any rate, so the sample counts below are finite.
        for name, bound, ok in (
            ("sample_rate_hz", "in [1, 2**32)", 1 <= self.sample_rate_hz < 2**32),
            ("window_ms", f"in (0, {1000 * FFT_SIZE}]", 0.0 < self.window_ms <= 1000.0 * FFT_SIZE),
            ("hop_ms", "in (0, feature.window_ms)", 0.0 < self.hop_ms < self.window_ms),
            ("n_bands", f"in [1, {FFT_SIZE // 2 + 1}]", 1 <= self.n_bands <= FFT_SIZE // 2 + 1),
            ("stack", "positive", self.stack >= 1),
            ("skip", "positive", self.skip >= 1),
        ):
            if not ok:
                raise ConfigError(f"feature.{name} must be {bound}, got {getattr(self, name)}")
        if self.hop_samples < 1:
            raise ConfigError(f"feature.sample_rate_hz {self.sample_rate_hz} makes a hop of no samples")
        if self.window_samples > FFT_SIZE:
            # The FFT would crop the window to its first FFT_SIZE samples.
            raise ConfigError(f"window of {self.window_samples} samples exceeds the FFT size {FFT_SIZE}")

    @property
    def window_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.window_ms / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.hop_ms / 1000.0))

    @property
    def input_dim(self) -> int:
        return self.n_bands * self.stack


@dataclass
class FeatureSequence:
    """Stacked, model-ready frames [T, stack * n_bands]."""

    frames: np.ndarray


@dataclass
class SpecAugConfig:
    max_time_mask_ratio: float = 0.04
    adaptive_multiplicity: float = 0.04
    max_freq_mask_ratio: float = 0.34
    n_freq_masks: int = 2

    def __post_init__(self):
        for name in ("max_time_mask_ratio", "adaptive_multiplicity", "max_freq_mask_ratio"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.n_freq_masks < 0:
            raise ConfigError("n_freq_masks must be >= 0")


# ---------------------------------------------------------------------------
# WAV I/O (16 kHz mono 16-bit PCM only; resampling is out of scope)


def read_wav(path, expected_rate: int = 16000) -> np.ndarray:
    try:
        f = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a PCM WAV file ({str(exc) or 'header cut short'})") from None
    with f:
        if f.getnchannels() != 1:
            raise DataError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
        if f.getsampwidth() != 2:
            raise DataError(f"{path}: expected 16-bit samples, got {8 * f.getsampwidth()}-bit")
        if f.getframerate() != expected_rate:
            raise DataError(
                f"{path}: sample rate {f.getframerate()} != expected {expected_rate}"
            )
        n = f.getnframes()
        payload = f.readframes(n)
    if len(payload) != 2 * n:
        raise DataError(f"{path}: holds {len(payload) // 2} of the {n} samples its header declares")
    return np.frombuffer(payload, dtype="<i2").astype(np.int64)


def write_wav(path, samples: np.ndarray, rate: int = 16000) -> None:
    clipped = np.clip(np.asarray(samples), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(clipped.tobytes())


# ---------------------------------------------------------------------------
# framing and band energies


def _band_edges(n_bands: int) -> np.ndarray:
    n_bins = FFT_SIZE // 2 + 1
    edges = np.floor(np.linspace(0, n_bins, n_bands + 1)).astype(int)
    if np.any(np.diff(edges) < 1):
        raise ConfigError(f"{n_bands} bands cannot partition {n_bins} spectrum bins")
    return edges


def extract_features(pcm: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Per-frame Hamming-windowed magnitude spectra pooled into log band energies.

    Frame t covers samples [t*hop, t*hop + window), so the output is causal at
    frame granularity.  Returns [T_raw, n_bands].  PCM that is not 1-D, holds
    non-finite samples or is shorter than one window raises `DataError`.
    """
    pcm = np.asarray(pcm, dtype=np.float64)
    win, hop = cfg.window_samples, cfg.hop_samples
    if pcm.ndim != 1:
        raise DataError(f"audio must be one channel of samples, got shape {pcm.shape}")
    if not np.isfinite(pcm).all():
        raise DataError("audio holds non-finite samples")
    if pcm.size < win:
        raise DataError(f"audio too short: {pcm.size} samples < one window of {win}")
    n_frames = (pcm.size - win) // hop + 1
    window = np.hamming(win)
    starts = np.arange(n_frames) * hop
    frames = pcm[starts[:, None] + np.arange(win)[None, :]] * window
    mags = np.abs(np.fft.rfft(frames, n=FFT_SIZE, axis=1))
    edges = _band_edges(cfg.n_bands)
    bands = np.stack(
        [mags[:, a:b].mean(axis=1) for a, b in zip(edges[:-1], edges[1:])], axis=1
    )
    return np.log(bands + LOG_FLOOR)


def stack_frames(raw: np.ndarray, stack: int, skip: int) -> np.ndarray:
    """Concatenate `stack` consecutive raw frames every `skip` frames.

    Output frame j holds raw frames skip*j .. skip*j+stack-1; indices past the
    end repeat the final raw frame so every raw frame stays represented.
    """
    raw = np.asarray(raw)
    t_raw = raw.shape[0]
    if t_raw < 1:
        raise DataError("cannot stack an empty feature sequence")
    t_out = (t_raw - 1) // skip + 1
    idx = np.minimum(skip * np.arange(t_out)[:, None] + np.arange(stack)[None, :], t_raw - 1)
    return raw[idx].reshape(t_out, stack * raw.shape[1])


def featurize(pcm: np.ndarray, cfg: FeatureConfig) -> FeatureSequence:
    raw = extract_features(pcm, cfg)
    return FeatureSequence(stack_frames(raw, cfg.stack, cfg.skip))


# ---------------------------------------------------------------------------
# global mean/variance normalization


@dataclass
class NormStats:
    """Per-dimension mean and variance of the training split's frames: all
    that `normalize` reads.

    `Trainer` computes them from the training split at set-up; its checkpoint
    holds the one stored copy, and loading a checkpoint whose stats differ
    from the recomputed ones fails.  There is no stats file.
    """

    mean: np.ndarray
    variance: np.ndarray


def accumulate_stats(corpus, dim: int) -> NormStats:
    """Fold an iterable of [T, dim] frame arrays into NormStats, in order;
    an empty corpus raises `ConfigError`."""
    total, total_sq, count = np.zeros(dim), np.zeros(dim), 0
    for frames in corpus:
        if frames.shape[1] != dim:
            raise ConfigError(f"stats dim {dim} != frames dim {frames.shape[1]}")
        total += frames.sum(axis=0)
        total_sq += (frames * frames).sum(axis=0)
        count += frames.shape[0]
    if count == 0:
        raise ConfigError("normalization stats are empty")
    mean = total / count
    return NormStats(mean, np.maximum(total_sq / count - mean * mean, 0.0))


def normalize(frames: np.ndarray, stats: NormStats) -> np.ndarray:
    return (frames - stats.mean) / np.sqrt(stats.variance + NORM_EPS)


# ---------------------------------------------------------------------------
# SpecAugment-style masking (training only)


def spec_augment(frames: np.ndarray, cfg: SpecAugConfig, rng: np.random.Generator) -> np.ndarray:
    """A copy of frames [T, D] with random time spans and feature bands zeroed.

    The number of time masks adapts to the utterance length
    (floor(adaptive_multiplicity * T)); each mask width is uniform on
    [0, floor(max_time_mask_ratio * T)].  Frequency masks work the same way
    over the feature dimension.  Shape is always preserved.
    """
    frames = frames.copy()
    t_len, dim = frames.shape

    n_time = int(cfg.adaptive_multiplicity * t_len)
    max_t = int(cfg.max_time_mask_ratio * t_len)
    for _ in range(n_time):
        w = int(rng.integers(0, max_t + 1))
        if w == 0:
            continue
        t0 = int(rng.integers(0, t_len - w + 1))
        frames[t0:t0 + w, :] = 0.0

    max_f = int(cfg.max_freq_mask_ratio * dim)
    for _ in range(cfg.n_freq_masks):
        w = int(rng.integers(0, max_f + 1))
        if w == 0:
            continue
        f0 = int(rng.integers(0, dim - w + 1))
        frames[:, f0:f0 + w] = 0.0

    return frames


import math
import re
import wave

import numpy as np
import pytest

from convrnnt import audio
from convrnnt.audio import (
    FeatureConfig,
    SpecAugConfig,
    accumulate_stats,
    extract_features,
    normalize,
    read_wav,
    spec_augment,
    stack_frames,
    write_wav,
)
from convrnnt.errors import ConfigError, DataError

from oracles import stft_band_energies_naive

CFG = FeatureConfig()


def test_silence_gives_log_floor():
    out = extract_features(np.zeros(400), CFG)
    assert out.shape == (1, 64)
    assert np.allclose(out, math.log(audio.LOG_FLOOR))


def test_too_short_audio_rejected():
    with pytest.raises(DataError):
        extract_features(np.zeros(399), CFG)


@pytest.mark.parametrize("pcm", [np.zeros((2, 800)), np.zeros((800, 1)), np.zeros(())])
def test_audio_that_is_not_one_channel_rejected(pcm):
    with pytest.raises(DataError):
        audio.featurize(pcm, CFG)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_audio_rejected(bad):
    pcm = np.zeros(1600)
    pcm[700] = bad
    with pytest.raises(DataError):
        audio.featurize(pcm, CFG)


def test_pure_tone_peaks_in_its_band():
    t = np.arange(1600) / 16000.0
    pcm = 10000.0 * np.sin(2 * np.pi * 1000.0 * t)
    feats = extract_features(pcm, CFG)
    # Oracle: direct DFT summation on the first frame, pooled the same way.
    oracle = stft_band_energies_naive(pcm[:400], 64)
    assert np.argmax(feats[0]) == np.argmax(oracle)


def test_frame_count_for_one_second():
    assert extract_features(np.zeros(16000), CFG).shape[0] == 98


def test_frames_are_causal_in_samples():
    rng = np.random.default_rng(0)
    pcm = rng.integers(-1000, 1000, size=4000).astype(np.float64)
    base = extract_features(pcm, CFG)
    # Frame t reads samples [t*hop, t*hop+window); changing later samples
    # must leave earlier frames bitwise intact.
    t0 = 5
    cut = t0 * CFG.hop_samples + CFG.window_samples
    pcm2 = pcm.copy()
    pcm2[cut:] += 500.0
    pert = extract_features(pcm2, CFG)
    assert np.array_equal(base[: t0 + 1], pert[: t0 + 1])


def test_stack_frames_basic():
    raw = np.arange(6 * 2, dtype=np.float64).reshape(6, 2)
    out = stack_frames(raw, 3, 3)
    assert out.shape == (2, 6)
    assert np.array_equal(out[0], raw[[0, 1, 2]].reshape(-1))


def test_stack_frames_edge_repeats_last():
    raw = np.arange(7, dtype=np.float64)[:, None]
    out = stack_frames(raw, 3, 3)
    assert out.shape == (3, 3)
    assert np.array_equal(out[2], [6.0, 6.0, 6.0])


def test_stack_frames_count_98_to_33():
    assert stack_frames(np.zeros((98, 64)), 3, 3).shape == (33, 192)


def test_stack_identity_when_stack_and_skip_are_one():
    raw = np.random.default_rng(1).standard_normal((9, 4))
    assert np.array_equal(stack_frames(raw, 1, 1), raw)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_constant_corpus_to_zero():
    frames = np.full((10, 3), 7.0)
    stats = accumulate_stats([frames], 3)
    out = normalize(frames, stats)
    assert np.max(np.abs(out)) <= 1e-6


def test_two_point_stats():
    stats = accumulate_stats([np.array([[0.0]]), np.array([[2.0]])], 1)
    assert stats.mean[0] == 1.0
    assert stats.variance[0] == 1.0


def test_corpus_renormalizes_to_unit_stats():
    rng = np.random.default_rng(2)
    corpus = [rng.standard_normal((50, 5)) * 4 + 2 for _ in range(8)]
    stats = accumulate_stats(corpus, 5)
    normed = np.concatenate([normalize(c, stats) for c in corpus])
    assert np.max(np.abs(normed.mean(axis=0))) <= 1e-6
    assert np.max(np.abs(normed.var(axis=0) - 1.0)) <= 1e-3


def test_empty_stats_rejected():
    with pytest.raises(ConfigError):
        accumulate_stats([], 4)


# ---------------------------------------------------------------------------
# masking


def test_specaug_no_masks_below_threshold():
    # floor(0.04 * 10) = 0 time masks at T=10.
    frames = np.ones((10, 192))
    cfg = SpecAugConfig(n_freq_masks=0)
    out = spec_augment(frames, cfg, np.random.default_rng(4))
    assert np.array_equal(out, frames)


def test_specaug_zero_ratios_identity():
    frames = np.ones((100, 20))
    cfg = SpecAugConfig(0.0, 0.0, 0.0, 2)
    out = spec_augment(frames, cfg, np.random.default_rng(5))
    assert np.array_equal(out, frames)


def test_specaug_only_writes_zeros_and_keeps_shape():
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((200, 48)) + 5.0
    out = spec_augment(frames, SpecAugConfig(), rng)
    assert out.shape == frames.shape
    changed = out != frames
    assert np.all(out[changed] == 0.0)


def masked_union_expectation(t_len, max_w, n_masks):
    """Exact expected number of masked frames for n iid masks.

    A mask has width w ~ U{0..max_w} and start t0 ~ U{0..t_len-w}; frame j is
    covered iff t0 in [max(0, j-w+1), min(j, t_len-w)].
    """
    j = np.arange(t_len)[:, None]
    w = np.arange(1, max_w + 1)[None, :]
    lo = np.maximum(0, j - w + 1)
    hi = np.minimum(j, t_len - w)
    counts = np.maximum(hi - lo + 1, 0)
    p_cover = counts / (t_len - w + 1)
    p_j = p_cover.sum(axis=1) / (max_w + 1)  # width 0 covers nothing
    return float((1.0 - (1.0 - p_j) ** n_masks).sum())


def test_specaug_time_mask_monte_carlo():
    # At T=1000: floor(0.04*1000)=40 masks of width ~ U{0..40}; masked frames
    # can never exceed the 40*40 = 1600 total-width bound.
    t_len = 1000
    cfg = SpecAugConfig(n_freq_masks=0)
    rng = np.random.default_rng(7)
    base = np.ones((t_len, 8))
    totals = []
    for _ in range(1000):
        out = spec_augment(base, cfg, rng)
        masked = int((out[:, 0] == 0.0).sum())
        assert masked <= 1600
        totals.append(masked)
    expected = masked_union_expectation(t_len, 40, 40)
    mean = float(np.mean(totals))
    sigma_mean = float(np.std(totals, ddof=1)) / math.sqrt(len(totals))
    assert abs(mean - expected) <= 3.0 * sigma_mean


# ---------------------------------------------------------------------------
# I/O round trips


def test_wav_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    pcm = rng.integers(-20000, 20000, size=800)
    p = tmp_path / "x.wav"
    write_wav(p, pcm)
    assert np.array_equal(read_wav(p), pcm)


@pytest.mark.parametrize("cut,error", [
    (None, "does not start with RIFF"),  # not a WAV file at all
    (20, "header cut short"),  # the fmt chunk ends early
    (44 + 50, "holds 25 of the 100 samples"),  # the data chunk ends early
    (44 + 51, "holds 25 of the 100 samples"),  # ... and mid-sample
])
def test_wav_that_cannot_be_read_is_rejected_by_its_path(tmp_path, cut, error):
    p = tmp_path / "x.wav"
    write_wav(p, np.arange(100))
    p.write_bytes(b"ID3 tag, not audio" if cut is None else p.read_bytes()[:cut])
    with pytest.raises(DataError, match=re.escape(f"{p}: ") + ".*" + error):
        read_wav(p)


def test_wav_rejects_wrong_rate(tmp_path):
    p = tmp_path / "x.wav"
    write_wav(p, np.zeros(400), rate=8000)
    with pytest.raises(DataError, match="sample rate 8000"):
        read_wav(p, expected_rate=16000)
    # Stereo and 8-bit files at the right rate are rejected too.
    for channels, width, error in ((2, 2, "mono"), (1, 1, "16-bit")):
        with wave.open(str(p), "wb") as f:
            f.setnchannels(channels)
            f.setsampwidth(width)
            f.setframerate(16000)
            f.writeframes(bytes(400 * channels * width))
        with pytest.raises(DataError, match=error):
            read_wav(p, expected_rate=16000)


import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from convrnnt.checkpoint import load_checkpoint
from convrnnt.config import load_preset
from convrnnt.data import generate_toy_corpus
from convrnnt.errors import DataError
from convrnnt.train import Trainer

# Dropout and SpecAugment on, with time masks that fire at the toy
# corpus's 8-14 frames, so the checkpointed RNG stream is exercised.
OVERRIDES = [
    "model.dropout_p=0.1",
    "specaug.max_time_mask_ratio=0.2",
    "specaug.adaptive_multiplicity=0.2",
    "specaug.max_freq_mask_ratio=0.34",
    "specaug.n_freq_masks=2",
]


@pytest.fixture(scope="module")
def make_trainer(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    corpus = root / "toy"
    generate_toy_corpus(str(corpus))
    count = itertools.count()

    def make():
        cfg = load_preset("desk", OVERRIDES + [f"data.toy_dir={corpus}"])
        return Trainer(cfg, str(root / f"run{next(count)}"))

    return make


def params(trainer):
    return {name: p.data.copy() for name, p in trainer.model.parameters()}


def test_resume_from_step3_matches_straight_run_bitwise(make_trainer, tmp_path):
    straight = make_trainer()
    straight_losses = [straight.train_step() for _ in range(6)]

    first = make_trainer()
    losses = [first.train_step() for _ in range(3)]
    first.save(tmp_path / "step3.bin")
    resumed = make_trainer()
    resumed.load(tmp_path / "step3.bin")
    assert resumed.step == 3
    losses += [resumed.train_step() for _ in range(3)]

    assert losses == straight_losses
    final, expected = params(resumed), params(straight)
    assert final.keys() == expected.keys()
    for name in expected:
        assert np.array_equal(final[name], expected[name]), name


def test_checkpoint_load_then_save_is_byte_identical(make_trainer, tmp_path):
    trainer = make_trainer()
    for _ in range(3):
        trainer.train_step()
    trainer.save(tmp_path / "a.bin")
    reloaded = make_trainer()
    reloaded.load(tmp_path / "a.bin")
    reloaded.save(tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_version1_checkpoint_rejected(make_trainer, tmp_path):
    # Version 1 files come from the serial frontend wiring, where the global
    # encoder read the local encoder's output; the desk shapes and hash are
    # the same, so only the version keeps them out.
    trainer = make_trainer()
    trainer.train_step()
    path = tmp_path / "v1.bin"
    trainer.save(path)
    blob = bytearray(path.read_bytes())
    assert struct.unpack("<H", blob[4:6]) == (2,)
    blob[4:6] = struct.pack("<H", 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="version 1"):
        load_checkpoint(path)
    with pytest.raises(DataError, match="version 1"):
        make_trainer().load(path)


def test_truncated_or_padded_checkpoint_raises_data_error(make_trainer, tmp_path):
    trainer = make_trainer()
    trainer.train_step()
    path = tmp_path / "whole.bin"
    trainer.save(path)
    blob = path.read_bytes()
    # The RNG state is the last field: its u32 length, then canonical JSON.
    rng_at = blob.rindex(b'{"bit_generator"')
    assert struct.unpack("<I", blob[rng_at - 4:rng_at]) == (len(blob) - rng_at,)
    # In the header, the record count, the first record's name, shape and
    # data, the RNG length field and the RNG blob.
    cuts = [2, 6, 30, 50, 60, 80, 200, len(blob) // 2, rng_at - 2, rng_at + 1, len(blob) - 1]
    for n, cut in enumerate(cuts):
        bad = tmp_path / f"cut{n}.bin"
        bad.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_checkpoint(bad)
    bad = tmp_path / "padded.bin"
    bad.write_bytes(blob + b"\0")
    with pytest.raises(DataError, match="past its RNG state"):
        load_checkpoint(bad)
    bad.write_bytes(blob[:rng_at] + b"{" + blob[rng_at + 1:].replace(b":", b";", 1))
    with pytest.raises(DataError):
        load_checkpoint(bad)
    # A first dimension of 2^31 claims 16 GiB the file does not hold.
    (name_len,) = struct.unpack_from("<H", blob, 52)
    dim_at = 52 + 2 + name_len + 1
    assert blob[dim_at - 1] >= 1  # the first record's ndim
    bad.write_bytes(blob[:dim_at] + struct.pack("<I", 2 ** 31) + blob[dim_at + 4:])
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(blob) + (1 << 20)

import itertools
import struct

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

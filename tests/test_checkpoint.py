import itertools
import json
import re
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from convrnnt import checkpoint
from convrnnt.checkpoint import load_checkpoint, save_checkpoint
from convrnnt.config import load_preset
from convrnnt.data import generate_toy_corpus
from convrnnt.errors import ConfigError, DataError, TrainingError
from convrnnt.train import Trainer
from test_config import CHANGED

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
def toy_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("toy")
    generate_toy_corpus(str(corpus))
    return corpus


@pytest.fixture(scope="module")
def make_trainer(toy_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    count = itertools.count()

    def make(workdir=None, overrides=()):
        cfg = load_preset("desk", OVERRIDES + [f"data.toy_dir={toy_corpus}", *overrides])
        return Trainer(cfg, workdir or str(root / f"run{next(count)}"))

    return make


# The desk model, and the LSTM-only baseline, whose checkpoint holds no
# frontend, fusion or batch-norm statistics record.
MODELS = [
    pytest.param((), id="desk"),
    pytest.param(("model.local_enabled=false", "model.global_enabled=false"), id="rnnt"),
]


def params(trainer):
    return {name: p.data.copy() for name, p in trainer.model.parameters()}


@pytest.mark.parametrize("model", MODELS)
def test_resume_from_step3_matches_straight_run_bitwise(make_trainer, tmp_path, model):
    straight = make_trainer(overrides=model)
    straight_losses = [straight.train_step() for _ in range(6)]

    first = make_trainer(overrides=model)
    losses = [first.train_step() for _ in range(3)]
    first.save(tmp_path / "step3.bin")
    resumed = make_trainer(overrides=model)
    resumed.load(tmp_path / "step3.bin")
    assert resumed.step == 3
    losses += [resumed.train_step() for _ in range(3)]

    assert losses == straight_losses
    final, expected = params(resumed), params(straight)
    assert final.keys() == expected.keys()
    for name in expected:
        assert np.array_equal(final[name], expected[name]), name


@pytest.mark.parametrize("model", MODELS)
def test_checkpoint_load_then_save_is_byte_identical(make_trainer, tmp_path, model):
    trainer = make_trainer(overrides=model)
    for _ in range(3):
        trainer.train_step()
    trainer.save(tmp_path / "a.bin")
    _, arrays, _ = load_checkpoint(tmp_path / "a.bin")
    frontend = [name for name in arrays
                if re.match(r"(adam\.[mv]\.)?(local|global|fuse|stats)\.", name)]
    assert bool(frontend) == (not model)
    reloaded = make_trainer(overrides=model)
    reloaded.load(tmp_path / "a.bin")
    reloaded.save(tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


# The canonical JSON of the RNG state in
# `test_rng_state_at_the_largest_seed_round_trips_byte_identically`, byte for
# byte as version 3 checkpoints have held it since that version was written.
LARGEST_SEED_RNG_JSON = (
    b'{"bit_generator":"Philox","buffer":[7874205360917102206,10542541251131640768,'
    b'18285563372517265793,13016267076873377421],"buffer_pos":2,"has_uint32":1,'
    b'"state":{"counter":[1,0,0,0],"key":[18446744073709551615,18446744073709551615]},'
    b'"uinteger":2454626665}'
)


def test_rng_state_at_the_largest_seed_round_trips_byte_identically(make_trainer, tmp_path):
    # The trainer's generator is keyed 2**128 - 1, the largest Philox key; a
    # double and then a uint32 leave half a draw and two buffered words.
    overrides = (f"training.seed={2**128 - 2}",)
    trainer = make_trainer(overrides=overrides)
    trainer.rng.random()
    trainer.rng.integers(2**32, dtype=np.uint32)
    state = trainer.rng.bit_generator.state
    assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
    trainer.save(tmp_path / "a.bin")
    blob = (tmp_path / "a.bin").read_bytes()
    want = LARGEST_SEED_RNG_JSON
    assert blob.endswith(struct.pack("<I", len(want)) + want)
    reloaded = make_trainer(overrides=overrides)
    reloaded.load(tmp_path / "a.bin")
    reloaded.save(tmp_path / "b.bin")
    assert (tmp_path / "b.bin").read_bytes() == blob


def test_version1_checkpoint_rejected(make_trainer, tmp_path):
    # Version 1 files come from the serial frontend wiring, where the global
    # encoder read the local encoder's output; the desk shapes are the same,
    # so only the version keeps them out.  Version 2 headers held a config
    # hash as well.
    trainer = make_trainer()
    trainer.train_step()
    path = tmp_path / "old.bin"
    trainer.save(path)
    blob = bytearray(path.read_bytes())
    assert struct.unpack("<H", blob[4:6]) == (3,)
    for version in (1, 2):
        blob[4:6] = struct.pack("<H", version)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=f"version {version}"):
            load_checkpoint(path)
        with pytest.raises(DataError, match=f"version {version}"):
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
    # The header is magic 0:4, version 4:6, step 6:14 and the record count
    # 14:18; the first record's name length, name, ndim and dimensions follow.
    (name_len,) = struct.unpack_from("<H", blob, 18)
    dim_at = 18 + 2 + name_len + 1
    ndim = blob[dim_at - 1]
    assert ndim >= 2
    # In each header field, the first record's name length, name, ndim,
    # dimensions and data, the RNG length field and the RNG blob.
    cuts = [2, 5, 10, 16, 19, 20 + name_len // 2, dim_at - 1, dim_at + 2,
            dim_at + 4 * ndim + 4, len(blob) // 2, rng_at - 2, rng_at + 1, len(blob) - 1]
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
    bad.write_bytes(blob[:dim_at] + struct.pack("<I", 2 ** 31) + blob[dim_at + 4:])
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(blob) + (1 << 20)
    # Two dimensions of 2^32 - 1 claim more elements than a 64-bit count holds.
    bad.write_bytes(blob[:dim_at] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + blob[dim_at + 8:])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(bad)


def test_interrupted_save_keeps_the_previous_checkpoint(make_trainer, tmp_path, monkeypatch):
    trainer = make_trainer()
    trainer.train_step()
    path = tmp_path / "checkpoint.bin"
    trainer.save(path)
    before = path.read_bytes()
    trainer.train_step()

    def failing_json(obj):
        raise OSError("no space left on device")

    monkeypatch.setattr(checkpoint, "_canonical_json", failing_json)
    with pytest.raises(OSError, match="no space"):
        trainer.save(path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]
    assert path.read_bytes() == before
    resumed = make_trainer()
    resumed.load(path)
    assert resumed.step == 1


def test_resumed_run_logs_each_step_once(make_trainer, tmp_path):
    def to_step(steps, workdir=None):
        return make_trainer(workdir, ["training.eval_interval=2", f"training.max_steps={steps}"])

    straight = to_step(6).train()
    first = to_step(4).train()
    shutil.copy(Path(first.workdir) / "checkpoint.bin", tmp_path / "step4.bin")
    fifth = to_step(5, first.workdir)
    fifth.load(tmp_path / "step4.bin")
    fifth.train()
    # A new trainer in the same workdir resumes from the earlier checkpoint.
    resumed = to_step(6, first.workdir)
    resumed.load(tmp_path / "step4.bin")
    resumed.train()
    for name in ("metrics.csv", "checkpoint.bin"):
        assert (Path(resumed.workdir) / name).read_bytes() == (
            Path(straight.workdir) / name
        ).read_bytes(), name


@pytest.fixture(scope="module")
def step3_checkpoint(make_trainer, tmp_path_factory):
    trainer = make_trainer()
    for _ in range(3):
        trainer.train_step()
    path = tmp_path_factory.mktemp("step3") / "step3.bin"
    trainer.save(path)
    return path


def test_checkpoint_holds_only_the_state_a_resume_reads(make_trainer, step3_checkpoint):
    # Parameters, their two Adam moments, the running batch-norm statistics
    # and the normalization mean and variance; the step is the header's.
    step, arrays, _ = load_checkpoint(step3_checkpoint)
    model = make_trainer().model
    params = [name for name, _ in model.parameters()]
    expected = [*params, *(f"adam.{m}.{name}" for name in params for m in "mv"),
                *(f"stats.{name}.running_{s}" for name, _ in model.norm_layers()
                  for s in ("mean", "var")),
                "normstats.mean", "normstats.var"]
    assert step == 3
    assert sorted(arrays) == sorted(expected)


def test_a_refused_adam_step_leaves_one_step_count_and_a_checkpoint_that_loads(
        make_trainer, tmp_path):
    trainer = make_trainer()
    trainer.train_step()
    p = trainer.model.joint.out.weight
    bound = p.grad
    p.grad = np.zeros_like(bound)
    with pytest.raises(TrainingError, match="joint.out.weight"):
        trainer.train_step()
    assert trainer.step == trainer.optimizer.t == 1
    p.grad = bound
    trainer.save(tmp_path / "a.bin")
    resumed = make_trainer()
    resumed.load(tmp_path / "a.bin")
    assert resumed.step == resumed.optimizer.t == 1


def test_a_step_refused_for_a_rebound_grad_draws_and_updates_nothing(make_trainer, tmp_path):
    # Dropout and SpecAugment are on, and the global blocks keep running
    # statistics, so a step that drew or normalized before its refusal
    # would leave the generator or a statistic moved.  With the binding
    # restored, the next step is a straight run's second step, bit for bit.
    straight = make_trainer()
    straight.train_step()
    want = straight.train_step()
    straight.save(tmp_path / "straight.bin")

    trainer = make_trainer()
    trainer.train_step()
    p = trainer.model.joint.out.weight
    bound = p.grad
    p.grad = np.zeros_like(bound)
    with pytest.raises(TrainingError, match="joint.out.weight"):
        trainer.train_step()
    p.grad = bound
    assert trainer.train_step() == want
    assert repr(trainer.rng.bit_generator.state) == repr(straight.rng.bit_generator.state)
    trainer.save(tmp_path / "refused.bin")
    assert (tmp_path / "refused.bin").read_bytes() == (tmp_path / "straight.bin").read_bytes()


def edited(name, fn):
    """A corruption that maps record `name` through `fn` (`None` drops it)."""

    def corrupt(records, rng_state):
        out = [(n, fn(a) if n == name else a) for n, a in records]
        return [(n, a) for n, a in out if a is not None], rng_state

    return corrupt


DEFECTS = [
    pytest.param("joint.out.bias", edited("joint.out.bias", lambda a: np.full(1, 0.5)),
                 id="narrow-parameter"),
    pytest.param("stats.global.block1.norm_in.running_mean",
                 edited("stats.global.block1.norm_in.running_mean", lambda a: a[:1]),
                 id="narrow-running-stat"),
    pytest.param("local.conv0.weight", edited("local.conv0.weight", lambda a: None),
                 id="missing-record"),
    pytest.param("joint.out.scale",
                 lambda records, rng: (records + [("joint.out.scale", np.ones(1))], rng),
                 id="extra-record"),
    pytest.param("joint.bias",
                 lambda records, rng: (records + [r for r in records if r[0] == "joint.bias"], rng),
                 id="duplicate-record"),
    pytest.param("adam.m.joint.out.weight", edited("adam.m.joint.out.weight", lambda a: a.T),
                 id="transposed-moment"),
    # Earlier saves also held Adam's step and the stats' frame count as records.
    pytest.param("unexpected ['adam.t', 'normstats.count']",
                 lambda records, rng: (records + [("adam.t", np.full(1, 3.0)),
                                                  ("normstats.count", np.full(1, 120.0))], rng),
                 id="dropped-records"),
    pytest.param("fuse.weight", edited("fuse.weight", lambda a: a + np.inf),
                 id="non-finite-parameter"),
    pytest.param("RNG state", lambda records, rng: (records, np.random.PCG64(0).state),
                 id="other-generator"),
]


def trainer_state(trainer):
    """Adam's step, the trainer's one counter, the RNG state and the bytes
    of every parameter, moment and running statistic."""
    opt = trainer.optimizer
    arrays = {name: p.data for name, p in trainer.model.parameters()}
    arrays.update({f"m.{name}": m for name, m in opt.m.items()})
    arrays.update({f"v.{name}": v for name, v in opt.v.items()})
    for name, bn in trainer.model.norm_layers():
        arrays.update({f"{name}.mean": bn.running_mean, f"{name}.var": bn.running_var})
    rng = json.dumps(trainer.rng.bit_generator.state, default=lambda a: a.tolist())
    return (opt.t, rng,
            {name: (a.shape, a.tobytes()) for name, a in arrays.items()})


@pytest.mark.parametrize("name, corrupt", DEFECTS)
def test_defective_checkpoint_raises_and_changes_nothing(
        make_trainer, step3_checkpoint, tmp_path, name, corrupt):
    step, arrays, rng_state = load_checkpoint(step3_checkpoint)
    records, rng_state = corrupt(list(arrays.items()), rng_state)
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, step, records, rng_state)

    trainer = make_trainer()
    trainer.train_step()  # a state that differs from the file's everywhere
    before = trainer_state(trainer)
    with pytest.raises(DataError, match=re.escape(name)):
        trainer.load(bad)
    assert trainer_state(trainer) == before


# One changed value per `model.*` key (test_config's) and per `feature.*` key.
CHANGED_KEYS = {**{f"model.{key}": value for key, value in CHANGED.items()},
                "feature.sample_rate_hz": "8000", "feature.window_ms": "20",
                "feature.hop_ms": "5", "feature.n_bands": "12", "feature.stack": "2",
                "feature.skip": "2"}
# Dropout acts only in training, the inference dtype only in a model built
# without a dtype (`Trainer` builds float64), and 9 is the toy vocab's own
# size, so these three build the desk model's records and evaluate alike;
# every other change must be refused, and the refusal must name its cause.
BUILDS_THE_SAME_RECORDS = {"model.dropout_p", "model.inference_dtype", "model.vocab_size"}
# The toy wavs are 16 kHz, so reading them refuses the set-up.
REFUSED_AT_SET_UP = {"feature.sample_rate_hz": "sample rate 16000 != expected 8000"}
# These shape no record but change the features, and so the stats.
CHANGES_THE_STATS = {"feature.window_ms", "feature.hop_ms", "feature.skip"}


@pytest.fixture(scope="module")
def desk_checkpoint(toy_corpus, tmp_path_factory):
    """A plain desk checkpoint, the state it holds and its `evaluate` result."""
    trainer = Trainer(load_preset("desk", [f"data.toy_dir={toy_corpus}"]),
                      tmp_path_factory.mktemp("desk"))
    trainer.train_step()
    path = Path(trainer.workdir) / "checkpoint.bin"
    trainer.save(path)
    return path, trainer_state(trainer), trainer.evaluate()


@pytest.mark.parametrize("key", sorted(CHANGED_KEYS))
def test_checkpoint_loads_only_under_a_config_that_builds_its_records(
        desk_checkpoint, toy_corpus, tmp_path, key):
    path, state, metrics = desk_checkpoint
    cfg = load_preset("desk", [f"data.toy_dir={toy_corpus}", f"{key}={CHANGED_KEYS[key]}"])
    if key in REFUSED_AT_SET_UP:
        with pytest.raises(DataError, match=re.escape(REFUSED_AT_SET_UP[key])):
            Trainer(cfg, tmp_path)
        return
    trainer = Trainer(cfg, tmp_path)
    if key in BUILDS_THE_SAME_RECORDS:
        trainer.load(path)
        assert trainer_state(trainer) == state
        assert trainer.evaluate() == metrics
        return
    trainer.train_step()  # a state that differs from the file's everywhere
    before = trainer_state(trainer)
    if key in CHANGES_THE_STATS:
        with pytest.raises(ConfigError, match="normstats.mean differs"):
            trainer.load(path)
    else:
        with pytest.raises(DataError) as refusal:
            trainer.load(path)
        message = str(refusal.value)
        named = re.search(r"record ([\w.]+) must hold", message)
        if named:
            assert named.group(1) in dict(trainer._records())
        else:
            assert re.search(r"records missing (\[\], unexpected )?\['", message), message
    assert trainer_state(trainer) == before

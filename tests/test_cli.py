"""Smoke test of the command-line interface on the desk preset and toy corpus."""

import os
from importlib import resources

import numpy as np
import pytest

from convrnnt.audio import write_wav
from convrnnt.checkpoint import load_checkpoint, save_checkpoint
from convrnnt.cli import main
from convrnnt.config import load_preset
from convrnnt.data import generate_toy_corpus, load_manifest
from convrnnt.train import Trainer


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, (argv, out)
    return out


def test_cli_params_flops_train_eval_decode(tmp_path, capsys):
    out = run(capsys, "params", "--config", "desk")
    assert "total" in out

    csv_path = tmp_path / "flops.csv"
    out = run(capsys, "flops", "--model", "convrnnt", "--lengths", "100:300:100",
              "--out", str(csv_path))
    assert "wrote 3 lengths" in out
    assert len(csv_path.read_text().splitlines()) == 4  # header + 3 lengths

    work = str(tmp_path / "run")
    out = run(capsys, "train", "--config", "desk", "--out", work, "--steps", "2")
    assert out.startswith("step 2: mean_nll")
    assert sorted(os.listdir(work)) == ["checkpoint.bin", "metrics.csv", "toy"]

    out = run(capsys, "eval", "--config", "desk", "--out", work)
    assert "mean_nll" in out and "wer" in out

    out = run(capsys, "decode", "--config", "desk", "--out", work)
    hyp_path = os.path.join(work, "hypotheses.txt")
    assert f"hypotheses to {hyp_path}" in out
    with open(hyp_path, encoding="utf-8") as f:
        rows = [line.split("\t") for line in f.read().splitlines()]
    assert rows and all(len(r) == 2 for r in rows)


def test_cli_reports_missing_checkpoint(tmp_path, capsys):
    code = main(["eval", "--config", "desk", "--out", str(tmp_path / "empty")])
    assert code == 1
    assert "no checkpoint" in capsys.readouterr().err


def test_cli_train_with_relative_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = run(capsys, "train", "--config", "desk", "--out", "relwd/run", "--steps", "1")
    assert out.startswith("step 1: mean_nll")
    # The toy manifest written under the relative --out loads from another cwd.
    monkeypatch.chdir(tmp_path / "relwd")
    utts = load_manifest(os.path.join("run", "toy", "manifest.tsv"))
    assert all(os.path.exists(u.audio_path) for u in utts)


def test_cli_decode_writes_the_evaluate_hypotheses(tmp_path, capsys):
    work = str(tmp_path / "run")
    run(capsys, "train", "--config", "desk", "--out", work, "--steps", "2")
    run(capsys, "decode", "--config", "desk", "--out", work)
    trainer = Trainer(load_preset("desk"), work)
    trainer.load(os.path.join(work, "checkpoint.bin"))
    expected = "".join(f"{k}\t{v}\n" for k, v in trainer.evaluate()["hypotheses"].items())
    with open(os.path.join(work, "hypotheses.txt"), encoding="utf-8") as f:
        assert f.read() == expected


def test_cli_eval_rejects_replaced_norm_stats(tmp_path, capsys):
    # The stats are recomputed from the training wavs at every set-up, so a
    # wav replaced after training gives stats the checkpoint was not trained on.
    work = tmp_path / "run"
    run(capsys, "train", "--config", "desk", "--out", str(work), "--steps", "1")
    wav = sorted((work / "toy").glob("*.wav"))[0]
    write_wav(wav, np.random.default_rng(0).integers(-3000, 3000, 16000))
    code = main(["eval", "--config", "desk", "--out", str(work)])
    assert code == 1
    assert "normstats.mean differs" in capsys.readouterr().err


@pytest.mark.parametrize("item", ["model.kernel_t=abc", "model.local_channels=8,x",
                                  "optimizer.peak_lr=fast", "feature.input_dim=5",
                                  "feature.hop_samples=3", "model.__post_init__=x"])
def test_cli_rejects_non_numeric_config_value(item, capsys):
    assert main(["params", "--config", "desk", "--set", item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and item.split("=")[0] in err


def test_cli_train_rejects_bad_config_value(tmp_path, capsys):
    # --steps is training.max_steps, so it is checked like any config value.
    for args, key in ((["--set", "model.se_divisor=0"], "se_divisor"),
                      (["--steps", "0"], "max_steps"), (["--steps", "-1"], "max_steps")):
        code = main(["train", "--config", "desk", "--out", str(tmp_path / "run"), *args])
        assert code == 1, args
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err, args
    assert not (tmp_path / "run").exists()


def test_cli_eval_reports_a_truncated_checkpoint(tmp_path, capsys):
    work = tmp_path / "run"
    run(capsys, "train", "--config", "desk", "--out", str(work), "--steps", "1")
    path = work / "checkpoint.bin"
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    assert main(["eval", "--config", "desk", "--out", str(work)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_cli_eval_reports_a_wrong_shaped_record(tmp_path, capsys):
    work = tmp_path / "run"
    run(capsys, "train", "--config", "desk", "--out", str(work), "--steps", "1")
    path = work / "checkpoint.bin"
    arch_hash = path.read_bytes()[8:40]
    step, arrays, rng_state = load_checkpoint(path)
    arrays["adam.m.joint.out.weight"] = arrays["adam.m.joint.out.weight"].T
    save_checkpoint(path, arch_hash, step, arrays.items(), rng_state)
    assert main(["eval", "--config", "desk", "--out", str(work)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "adam.m.joint.out.weight" in err
    assert "Traceback" not in err


def test_cli_ablate_trains_the_three_frontend_variants(tmp_path, capsys):
    work = tmp_path / "ablate"
    lines = run(capsys, "ablate", "--config", "desk", "--out", str(work), "--steps", "1").splitlines()
    assert [line.split()[0] for line in lines[1:4]] == ["local-only", "global-only", "local+global"]
    assert (work / "ablation.txt").read_text() == "\n".join(lines[:4]) + "\n"
    assert lines[4:] == ["frontend params additive: True"]
    assert main(["ablate", "--config", "desk", "--out", str(tmp_path / "none"), "--steps", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_trains_from_a_config_file_with_a_manifest(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    manifest, vocab = generate_toy_corpus(str(corpus))
    # A config file sets each key once, so the preset's own line is switched.
    desk = resources.files("convrnnt.configs").joinpath("desk.cfg").read_text()
    desk = desk.replace("data.use_toy = true", "data.use_toy = false")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{desk}\ndata.train_manifest = {manifest}\ndata.vocab = {vocab}\n")
    from_file, preset = tmp_path / "file", tmp_path / "preset"
    run(capsys, "train", "--config", str(cfg_path), "--out", str(from_file), "--steps", "2")
    run(capsys, "train", "--config", "desk", "--set", f"data.toy_dir={corpus}",
        "--out", str(preset), "--steps", "2")
    assert sorted(os.listdir(from_file)) == ["checkpoint.bin", "metrics.csv"]
    for name in ("checkpoint.bin", "metrics.csv"):
        assert (from_file / name).read_bytes() == (preset / name).read_bytes(), name

    cfg_path.write_text(desk)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "none")]) == 1
    assert "data.train_manifest and data.vocab are required" in capsys.readouterr().err

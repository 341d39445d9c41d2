"""Smoke test of the command-line interface on the desk preset and toy corpus."""

import os

from convrnnt.cli import main


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
    assert os.path.exists(os.path.join(work, "checkpoint.bin"))

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

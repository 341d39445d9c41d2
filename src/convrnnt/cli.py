"""Command-line interface.

Subcommands: train, eval, flops, params, ablate.  `eval` runs a trained
model over the eval set: it prints the metrics and writes each utterance's
greedy hypothesis to `<out>/hypotheses.txt`, or to `--hyp`.
`--config` takes a preset name (desk, paper) or a config-file path, and
`--set section.key=value` overrides individual keys.
"""

from __future__ import annotations

import argparse
import os
import sys

from .complexity import MODEL_NAMES, flops_curve_csv, parse_length_range
from .config import resolve_config
from .errors import ConfigError, DataError, TrainingError
from .train import (
    Trainer,
    format_ablation,
    format_param_report,
    param_report,
    run_ablation,
)


def _add_config_args(p):
    p.add_argument("--config", required=True, help="preset name (desk, paper) or config file path")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convrnnt",
                                     description="streaming conv-recurrent transducer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="working directory")
    p.add_argument("--steps", type=int, default=None, help="override training.max_steps")
    p.add_argument("--resume", default="", help="checkpoint to resume from")

    p = sub.add_parser("eval", help="report nll / exact match / WER / CER and write hypotheses")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="working directory")
    p.add_argument("--checkpoint", default="", help="checkpoint file (default: <out>/checkpoint.bin)")
    p.add_argument("--hyp", default="", help="hypothesis output file (default: <out>/hypotheses.txt)")

    p = sub.add_parser("flops", help="analytical encoder FLOPs curve")
    p.add_argument("--model", required=True, choices=list(MODEL_NAMES))
    p.add_argument("--lengths", default="500:4000:500", help="start:stop:step frame counts")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("params", help="parameter count report")
    _add_config_args(p)

    p = sub.add_parser("ablate", help="train local/global frontend variants")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="working directory")
    p.add_argument("--steps", type=int, default=30, help="training steps per variant")
    return parser


def cmd_train(args) -> int:
    steps = [] if args.steps is None else [f"training.max_steps={args.steps}"]
    trainer = Trainer(resolve_config(args.config, args.overrides + steps), args.out)
    if args.resume:
        trainer.load(args.resume)
    trainer.train()
    metrics = trainer.evaluate()
    print(
        f"step {trainer.step}: mean_nll {metrics['mean_nll']:.4f} "
        f"exact_match {metrics['exact_match']:.2%} wer {metrics['wer']:.3f} "
        f"cer {metrics['cer']:.3f}"
    )
    return 0


def cmd_eval(args) -> int:
    trainer = Trainer(resolve_config(args.config, args.overrides), args.out)
    ckpt = args.checkpoint or os.path.join(args.out, "checkpoint.bin")
    if not os.path.exists(ckpt):
        raise ConfigError(f"no checkpoint at {ckpt}")
    trainer.load(ckpt)
    metrics = trainer.evaluate()
    print(f"utterances   {len(trainer.eval_utts)}")
    print(f"mean_nll     {metrics['mean_nll']:.6f}")
    print(f"exact_match  {metrics['exact_match']:.2%}")
    print(f"wer          {metrics['wer']:.4f}")
    print(f"cer          {metrics['cer']:.4f}")
    hyp_path = args.hyp or os.path.join(args.out, "hypotheses.txt")
    with open(hyp_path, "w", encoding="utf-8") as f:
        for utt_id, hyp in metrics["hypotheses"].items():
            f.write(f"{utt_id}\t{hyp}\n")
    print(f"wrote {len(metrics['hypotheses'])} hypotheses to {hyp_path}")
    return 0


def cmd_flops(args) -> int:
    lengths = parse_length_range(args.lengths)
    csv_text = flops_curve_csv([args.model], lengths)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(csv_text)
    print(f"wrote {len(lengths)} lengths for {args.model} to {args.out}")
    return 0


def cmd_params(args) -> int:
    cfg = resolve_config(args.config, args.overrides)
    if cfg.model.vocab_size == 0:
        # Size the label side from the toy vocab when none is pinned.
        from .vocab import char_vocab
        from .data import TOY_ALPHABET

        cfg.model.vocab_size = char_vocab(TOY_ALPHABET).n_labels
    print(format_param_report(param_report(cfg), cfg.model.inference_dtype))
    return 0


def cmd_ablate(args) -> int:
    rows = run_ablation(args.config, args.overrides, args.out, args.steps)
    table = format_ablation(rows)
    out_path = os.path.join(args.out, "ablation.txt")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(table + "\n")
    print(table)
    both = next(r for r in rows if r["variant"] == "local+global")
    single = {r["variant"]: r["frontend_params"] for r in rows}
    additive = both["frontend_params"] == single["local-only"] + single["global-only"]
    print(f"frontend params additive: {additive}")
    return 0


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "flops": cmd_flops,
    "params": cmd_params,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, DataError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

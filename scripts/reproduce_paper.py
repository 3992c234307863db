#!/usr/bin/env python3
"""The paper's sigma sweep and transfer comparison at desk scale, with one summary.

Trains surrogate agents at sigma 0, 15 and 100 and a from-scratch
panel-solver agent at sigma 0, fine-tunes the sigma-0 surrogate agent on
the panel solver, evaluates all five, and writes the sweep's Pareto front
and `summary.json` under --out. It runs the `foilrl` CLI of this
checkout's `src/` in this process and exits with the code of the first
command that fails. The README's "Experiment scripts" lists its outputs.
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from foilrl.cli import main as cli_main  # noqa: E402
from foilrl.evaluate import (  # noqa: E402
    pareto_front, read_sweep_point, write_pareto_csv, write_pareto_svg)
from foilrl.outputs import write_json  # noqa: E402

SIGMAS = (0, 15, 100)
SWEEP_KEYS = ("improvement_mean", "delta_mt_mean", "best_median")
LEDGER_KEYS = ("total_cost_s", "tl_free_cost_s", "time_reduction_percent")


def run(*argv: str) -> None:
    print("+ foilrl", " ".join(argv), flush=True)
    if rc := cli_main(list(argv)):
        sys.exit(rc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=24576,
                        help="training steps of each surrogate and from-scratch agent")
    parser.add_argument("--strategy", type=int, default=1, choices=[1, 2, 3, 4])
    parser.add_argument("--finetune-fraction", type=float, default=0.25,
                        help="fine-tuning steps as a fraction of --budget")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=Path("runs/reproduce_paper"))
    parser.add_argument("--config", default=None)
    args = parser.parse_args(argv)
    out = args.out
    common = ["--seed", str(args.seed)] + (["--config", args.config] if args.config else [])
    budget = str(args.budget)

    for sigma in SIGMAS:
        run("train", "--solver", "low", "--sigma", str(sigma), "--preset", "pretrain",
            "--timesteps", budget, "--out", str(out / f"train_sigma{sigma}"), *common)
    run("train", "--solver", "high", "--sigma", "0", "--preset", "from-scratch",
        "--timesteps", budget, "--out", str(out / "scratch"), *common)
    run("finetune", "--from", str(out / "train_sigma0" / "checkpoint.ckpt"),
        "--strategy", str(args.strategy),
        "--timesteps", str(int(args.budget * args.finetune_fraction)),
        "--tl-free-steps", budget, "--out", str(out / "finetune"), *common)
    agents = {f"sigma{sigma}": f"train_sigma{sigma}" for sigma in SIGMAS}
    agents.update(scratch="scratch", finetune="finetune")
    for tag, train_dir in agents.items():
        run("evaluate", "--checkpoint", str(out / train_dir / "checkpoint.ckpt"), "--svg",
            "--out", str(out / f"eval_{tag}"), *common)

    evals = {tag: json.loads((out / f"eval_{tag}" / "summary.json").read_text())
             for tag in agents}
    flagged = pareto_front([read_sweep_point(out / f"eval_sigma{sigma}" / "summary.json")
                            for sigma in SIGMAS])
    (out / "pareto").mkdir(exist_ok=True)
    write_pareto_csv(out / "pareto" / "pareto.csv", flagged)
    write_pareto_svg(out / "pareto" / "pareto.svg", flagged)
    transfer = {f"improvement_{name}": evals[tag]["improvement_mean"]
                for name, tag in (("pretrain", "sigma0"), ("scratch", "scratch"),
                                  ("finetune", "finetune"))}
    scratch = transfer["improvement_scratch"]
    transfer["finetune_over_scratch"] = (transfer["improvement_finetune"] / scratch
                                         if scratch else None)
    ledger = json.loads((out / "finetune" / "cost_ledger.json").read_text())
    summary = {
        "sigma_sweep": [{"sigma": point["sigma"], "on_front": point["on_front"],
                         **{key: evals[f"sigma{sigma}"][key] for key in SWEEP_KEYS}}
                        for sigma, point in zip(SIGMAS, flagged)],
        "transfer": transfer,
        "ledger": {key: ledger[key] for key in LEDGER_KEYS},
    }
    write_json(out / "summary.json", summary)
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

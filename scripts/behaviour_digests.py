#!/usr/bin/env python3
"""SHA-256 of every CLI output on a small fixed workload.

Runs 14 commands of the `foilrl` CLI from this checkout's `src/` on a
96/128-panel config with fixed seeds: train x2, finetune x2, optimize x3,
evaluate x2, pso x2, compare --sweep --svg, export-weights and
import-weights. It prints one `<digest>  <path>` line per output file,
with paths relative to --out. `timing.json` holds wall-clock readings and
is skipped. An `.npz` zip stamps its members with the time they were
written, so its digest covers member names and contents only.

Running it in two checkouts and diffing the listings shows whether a
change kept every output byte-identical:

    python3 scripts/behaviour_digests.py --out /tmp/a > a.txt
    (cd ../other && python3 scripts/behaviour_digests.py --out /tmp/b > ../b.txt)
    diff a.txt b.txt

Uses the standard library and numpy only, and writes nothing outside --out.
"""
import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import zipfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from foilrl import bundled_airfoil_dir  # noqa: E402
from foilrl.cli import main as cli_main  # noqa: E402

CONFIG = {"solver": {"high": {"panel_count": 96}, "low": {"panel_count": 128}}}
EVAL_AIRFOILS = ("naca0012", "naca2412", "naca4415", "naca6409")
SKIPPED = {"timing.json"}


def commands(out: Path) -> list[list[str]]:
    """The command lines, in order; later ones read earlier outputs."""
    ckpt = lambda run: str(out / run / "checkpoint.ckpt")  # noqa: E731
    dataset = str(out / "dataset")
    dat = lambda name: str(out / "dataset" / f"{name}.dat")  # noqa: E731
    return [
        ["train", "--solver", "low", "--sigma", "0", "--preset", "finetune",
         "--timesteps", "1024", "--seed", "5", "--svg", "--out", str(out / "train_low")],
        ["train", "--solver", "high", "--sigma", "15", "--preset", "finetune",
         "--timesteps", "512", "--seed", "3", "--out", str(out / "train_high")],
        ["finetune", "--from", ckpt("train_low"), "--strategy", "1", "--timesteps", "512",
         "--seed", "5", "--out", str(out / "finetune_1")],
        ["finetune", "--from", ckpt("train_low"), "--strategy", "3", "--timesteps", "512",
         "--sigma", "15", "--seed", "6", "--low-cost-ms", "2.5", "--high-cost-ms", "50",
         "--tl-free-steps", "4096", "--out", str(out / "finetune_3")],
        ["optimize", "--checkpoint", ckpt("train_low"), "--airfoil", dat("naca0012"),
         "--seed", "4", "--out", str(out / "optimize_0012")],
        ["optimize", "--checkpoint", ckpt("finetune_1"), "--airfoil", dat("naca2412"),
         "--seed", "4", "--out", str(out / "optimize_2412")],
        ["optimize", "--checkpoint", ckpt("train_high"), "--airfoil", dat("naca4415"),
         "--seed", "8", "--out", str(out / "optimize_4415")],
        ["evaluate", "--checkpoint", ckpt("train_low"), "--dataset", dataset,
         "--seed", "1", "--out", str(out / "evaluate_mean")],
        ["evaluate", "--checkpoint", ckpt("finetune_3"), "--dataset", dataset, "--sample",
         "--svg", "--seed", "2", "--out", str(out / "evaluate_sample")],
        ["pso", "--airfoil", dat("naca0012"), "--swarm", "4", "--iterations", "3",
         "--keep-thickness", "0.05", "--seed", "9", "--out", str(out / "pso_0012")],
        ["pso", "--airfoil", dat("naca2412"), "--swarm", "3", "--iterations", "2",
         "--seed", "2", "--out", str(out / "pso_2412")],
        ["compare", "--drl", str(out / "evaluate_mean" / "records.csv"),
         "--pso", str(out / "evaluate_sample" / "records.csv"),
         "--sweep", str(out / "evaluate_mean" / "summary.json"),
         str(out / "evaluate_sample" / "summary.json"),
         "--svg", "--out", str(out / "compare")],
        ["export-weights", "--checkpoint", ckpt("train_low"),
         "--out", str(out / "weights" / "weights.npz")],
        ["import-weights", "--weights", str(out / "weights" / "weights.npz"),
         "--out", str(out / "weights" / "rebuilt.ckpt")],
    ]


def digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode() + b"\0" + zf.read(name))
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="directory for every output; it must be empty or absent")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    (out / "dataset").mkdir(parents=True)
    (out / "weights").mkdir()
    for name in EVAL_AIRFOILS:
        shutil.copy(bundled_airfoil_dir() / f"{name}.dat", out / "dataset")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(CONFIG))

    for argv in commands(out):
        if argv[0] not in ("compare", "export-weights", "import-weights"):
            argv += ["--config", str(cfg)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
        if rc != 0:
            print(f"error: `foilrl {' '.join(argv)}` exited {rc}", file=sys.stderr)
            return 1

    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name not in SKIPPED:
            print(f"{digest(path)}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

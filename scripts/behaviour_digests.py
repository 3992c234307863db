#!/usr/bin/env python3
"""SHA-256 of every CLI output on a small fixed workload.

Runs 15 commands of the `foilrl` CLI from this checkout's `src/` on a
96/128-panel config with fixed seeds: train x2, finetune x2, optimize x3,
evaluate x2, pso x2, compare --sweep --svg, export-weights,
import-weights, and evaluate again on the checkpoint that import-weights
rebuilt, so an export/import round trip that changes any result shows as
a digest change. The commands run from inside --out and name their
inputs and outputs by relative paths, so a file that records a path
(such as `evaluate`'s `eval.dataset`) reads the same whatever --out is.
It prints one `<digest>  <path>` line per output file, with paths
relative to --out. `timing.json` holds wall-clock readings and is
skipped. An `.npz` zip stamps its members with the time they were
written, so its digest covers member names and contents only.

Running it in one checkout, then in another with `--against` the first
listing, shows whether a change kept every output byte-identical:

    python3 scripts/behaviour_digests.py --out /tmp/a > a.txt
    (cd ../other && python3 scripts/behaviour_digests.py --out /tmp/b --against ../a.txt)

With `--against`, every file whose digest differs, or that only one
listing has, is named on stderr, and the exit code is 1.

Uses the standard library and numpy only, and writes nothing outside --out.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
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


def commands() -> list[list[str]]:
    """The command lines, in order, relative to --out; later ones read earlier outputs."""
    return [
        ["train", "--solver", "low", "--sigma", "0", "--preset", "finetune",
         "--timesteps", "1024", "--seed", "5", "--svg", "--out", "train_low"],
        ["train", "--solver", "high", "--sigma", "15", "--preset", "finetune",
         "--timesteps", "512", "--seed", "3", "--out", "train_high"],
        ["finetune", "--from", "train_low/checkpoint.ckpt", "--strategy", "1",
         "--timesteps", "512", "--seed", "5", "--out", "finetune_1"],
        ["finetune", "--from", "train_low/checkpoint.ckpt", "--strategy", "3",
         "--timesteps", "512", "--sigma", "15", "--seed", "6", "--low-cost-ms", "2.5",
         "--high-cost-ms", "50", "--tl-free-steps", "4096", "--out", "finetune_3"],
        ["optimize", "--checkpoint", "train_low/checkpoint.ckpt",
         "--airfoil", "dataset/naca0012.dat", "--seed", "4", "--out", "optimize_0012"],
        ["optimize", "--checkpoint", "finetune_1/checkpoint.ckpt",
         "--airfoil", "dataset/naca2412.dat", "--seed", "4", "--out", "optimize_2412"],
        ["optimize", "--checkpoint", "train_high/checkpoint.ckpt",
         "--airfoil", "dataset/naca4415.dat", "--seed", "8", "--out", "optimize_4415"],
        ["evaluate", "--checkpoint", "train_low/checkpoint.ckpt", "--dataset", "dataset",
         "--seed", "1", "--out", "evaluate_mean"],
        ["evaluate", "--checkpoint", "finetune_3/checkpoint.ckpt", "--dataset", "dataset",
         "--sample", "--svg", "--seed", "2", "--out", "evaluate_sample"],
        ["pso", "--airfoil", "dataset/naca0012.dat", "--swarm", "4", "--iterations", "3",
         "--keep-thickness", "0.05", "--seed", "9", "--out", "pso_0012"],
        ["pso", "--airfoil", "dataset/naca2412.dat", "--swarm", "3", "--iterations", "2",
         "--seed", "2", "--out", "pso_2412"],
        ["compare", "--drl", "evaluate_mean/records.csv", "--pso", "evaluate_sample/records.csv",
         "--sweep", "evaluate_mean/summary.json", "evaluate_sample/summary.json",
         "--svg", "--out", "compare"],
        ["export-weights", "--checkpoint", "train_low/checkpoint.ckpt",
         "--out", "weights/weights.npz"],
        ["import-weights", "--weights", "weights/weights.npz", "--out", "weights/rebuilt.ckpt"],
        ["evaluate", "--checkpoint", "weights/rebuilt.ckpt", "--dataset", "dataset",
         "--seed", "1", "--out", "evaluate_rebuilt"],
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
    parser.add_argument("--against", metavar="LISTING", type=Path,
                        help="a listing this script printed; name every file that differs")
    args = parser.parse_args()
    expected = {}
    if args.against:
        for line in args.against.read_text().splitlines():
            sha, _, name = line.partition("  ")
            expected[name] = sha
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    (out / "dataset").mkdir(parents=True)
    (out / "weights").mkdir()
    for name in EVAL_AIRFOILS:
        shutil.copy(bundled_airfoil_dir() / f"{name}.dat", out / "dataset")
    (out / "config.json").write_text(json.dumps(CONFIG))

    os.chdir(out)
    for argv in commands():
        if argv[0] not in ("compare", "export-weights", "import-weights"):
            argv += ["--config", "config.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
        if rc != 0:
            print(f"error: `foilrl {' '.join(argv)}` exited {rc}", file=sys.stderr)
            return 1

    listing = {str(path): digest(path) for path in sorted(Path().rglob("*"))
               if path.is_file() and path.name not in SKIPPED}
    for name, sha in listing.items():
        print(f"{sha}  {name}")
    if args.against:
        changed = sorted(n for n in listing.keys() | expected.keys()
                         if listing.get(n) != expected.get(n))
        for name in changed:
            state = "differs" if name in listing and name in expected else "missing"
            print(f"{state}: {name}", file=sys.stderr)
        return 1 if changed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

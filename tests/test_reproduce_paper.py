"""scripts/reproduce_paper.py end to end, at a small budget on two bundled airfoils."""
import csv
import importlib.util
import json
import shutil
from pathlib import Path

from foilrl import bundled_airfoil_dir

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_paper.py"
OUTPUT_DIRS = ["train_sigma0", "train_sigma15", "train_sigma100", "eval_sigma0", "eval_sigma15",
               "eval_sigma100", "scratch", "finetune", "eval_scratch", "eval_finetune", "pareto"]


def test_reproduce_paper_writes_every_output(tmp_path):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    for name in ("naca0012", "naca2412"):
        shutil.copy(bundled_airfoil_dir() / f"{name}.dat", dataset)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "solver": {"high": {"panel_count": 96}, "low": {"panel_count": 128}},
        "eval": {"dataset": str(dataset)},
    }))
    spec = importlib.util.spec_from_file_location("reproduce_paper", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "out"

    assert script.main(["--budget", "2048", "--config", str(config), "--out", str(out)]) == 0

    assert [name for name in OUTPUT_DIRS if not (out / name).is_dir()] == []
    with open(out / "pareto" / "pareto.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 3
    assert (out / "pareto" / "pareto.svg").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert [point["sigma"] for point in summary["sigma_sweep"]] == [0.0, 15.0, 100.0]
    for point in summary["sigma_sweep"]:
        assert set(point) == {"sigma", "improvement_mean", "delta_mt_mean", "best_median",
                              "on_front"}
    assert set(summary["transfer"]) == {"improvement_pretrain", "improvement_scratch",
                                        "improvement_finetune", "finetune_over_scratch"}
    assert set(summary["ledger"]) == {"total_cost_s", "tl_free_cost_s", "time_reduction_percent"}
    ledger = json.loads((out / "finetune" / "cost_ledger.json").read_text())
    assert summary["ledger"]["time_reduction_percent"] == ledger["time_reduction_percent"]

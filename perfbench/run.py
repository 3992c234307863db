"""foilrl benchmark: three workloads through the user-facing CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` and nothing is installed. Each workload repetition runs in a fresh
Python process (`child.py`) that calls `foilrl.cli.main` in-process; one
process runs at a time. The benchmark sets no BLAS thread variables, so
whatever pinning the program does stays visible.

`--trace 0` repeats the workload until S seconds have passed (at least
once) and reports the `end_to_end` metrics of BENCHMARK.json as medians
over repetitions. `--trace 1` runs the workload once untraced and once
with spans around every layer boundary (`tracer.py`), times each layer in
isolation, and reports the `per_layer` metrics. Both modes first run the probe set (`probes.py`) and
compare output digests between repetitions; a failed check marks the run
incorrect and counts all of its design evaluations as failed.

The last line of stdout is the JSON result; the lines before it are a
table that also holds each workload's own throughputs, and the run
environment. The full record, per repetition, is written to
`.perfbench-work/results/`. README.md explains the workloads and the
prediction each layer metric is meant to test.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORK_ROOT = Path(".perfbench-work")
CHILD_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0  # no repetition starts later than this, so a run ends within 180 s
SETUP_SAMPLES = 5  # import-only processes per untraced run, on top of the working ones

# Input policies come from fixed seeds so the workloads do not move when
# the training code changes; --seed drives everything else.
SOURCE_POLICY = {"file": "source.ckpt", "seed": 20250502, "head_gain": 0.01}
EVAL_POLICY = {"file": "eval.ckpt", "seed": 100, "head_gain": 1.0}
LAYER_POLICY_SEED = 8
EVAL_AIRFOILS = 10
PSO_AIRFOIL = "naca0012"
DESK_PANELS = {"solver": {"high": {"panel_count": 160}}}


def pretrain_low(seed: int) -> dict:
    return {
        "prepare": {"policies": []},
        "shapes": {"fidelity": "low", "high_panels": 255},
        "commands": [["train", "--solver", "low", "--preset", "pretrain",
                      "--timesteps", "8192", "--seed", str(seed), "--out", "{out}/train"]],
    }


def finetune_high(seed: int) -> dict:
    return {
        "prepare": {"policies": [SOURCE_POLICY], "configs": {"desk.json": DESK_PANELS}},
        "shapes": {"fidelity": "high", "high_panels": DESK_PANELS["solver"]["high"]["panel_count"]},
        "commands": [["finetune", "--from", "{work}/source.ckpt", "--strategy", "1",
                      "--timesteps", "1024", "--config", "{work}/desk.json",
                      "--seed", str(seed), "--out", "{out}/finetune"]],
    }


def search_high(seed: int) -> dict:
    # A fixed, evenly spread tenth of the bundled airfoils, evaluated with
    # mean actions (the CLI default): the shapes visited set the cost of a
    # solve, so drawing airfoils or actions by seed would make the work per
    # solve follow the seed. The seed drives the swarm.
    names = sorted(p.stem for p in Path("src/foilrl/data/airfoils").glob("*.dat"))
    subset = names[::len(names) // EVAL_AIRFOILS][:EVAL_AIRFOILS]
    return {
        "prepare": {
            "policies": [EVAL_POLICY],
            "airfoil_sets": {"eval_airfoils": subset, "pso_airfoil": [PSO_AIRFOIL]},
        },
        "shapes": {"fidelity": "high", "high_panels": 255},
        "commands": [
            ["evaluate", "--checkpoint", "{work}/eval.ckpt", "--dataset", "{work}/eval_airfoils",
             "--seed", str(seed), "--out", "{out}/evaluate"],
            ["pso", "--airfoil", f"{{work}}/pso_airfoil/{PSO_AIRFOIL}.dat",
             "--keep-thickness", "0.01", "--swarm", "12", "--iterations", "12",
             "--seed", str(seed), "--out", "{out}/pso"],
        ],
    }


WORKLOADS = {"pretrain-low": pretrain_low, "finetune-high": finetune_high, "search-high": search_high}


class Run:
    """One benchmark invocation: starts children one at a time and keeps their results."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.work = (WORK_ROOT / f"{workload}-seed{seed}-trace{int(trace)}").resolve()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.t0 = time.monotonic()
        self.n_children = 0
        self.setup_samples: list[float] = []
        self.errors: list[str] = []

    def child(self, mode: str, spec: dict) -> dict | None:
        self.n_children += 1
        stem = self.work / f"child{self.n_children}-{mode}"
        spec_path, out_path, log_path = (Path(f"{stem}.{ext}") for ext in ("spec", "json", "log"))
        spec_path.write_text(json.dumps(spec))
        with open(log_path, "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), repr(t_spawn), mode,
                 str(spec_path), str(out_path)],
                stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:  # also on SIGTERM (see main): never leave a child running
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not out_path.exists():
            self.errors.append(f"{mode} process exited with {code}")
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"{mode} process exited with {code}; log tail:\n{tail}", file=sys.stderr)
            return None
        result = json.loads(out_path.read_text())
        self.setup_samples.append(result["setup_s"])
        return result

    def rep(self, commands: list[list[str]], traced: bool, index: int) -> dict | None:
        out = self.work / f"rep{index}"
        argv = [[arg.format(work=self.work, out=out) for arg in cmd] for cmd in commands]
        result = self.child("cli", {"commands": argv, "trace": traced})
        if result is not None:
            for cmd in result["commands"]:
                if cmd["exit_code"] != 0:
                    self.errors.append(f"foilrl {cmd['argv'][0]} exited with {cmd['exit_code']}")
        return result

    def execute(self, seconds: int) -> dict:
        plan = WORKLOADS[self.workload](self.seed)
        out: dict = {"probes": None, "reps": [], "traced": None, "layers": None}
        if not self.trace:
            for _ in range(SETUP_SAMPLES):
                self.child("import", {})
        prepared = self.child("prepare", {"work": str(self.work), **plan["prepare"]})
        if prepared is None:
            return out
        out["probes"] = prepared["probes"]
        if prepared["probes"]["mismatches"]:
            self.errors.append(f"probe mismatches: {prepared['probes']['mismatches'][:10]}")

        t_measure = time.monotonic()
        while True:
            rep = self.rep(plan["commands"], traced=False, index=len(out["reps"]) + 1)
            if rep is None:
                return out
            out["reps"].append(rep)
            spent = time.monotonic() - t_measure
            per_rep = spent / len(out["reps"])
            if (self.trace or spent >= seconds
                    or time.monotonic() - self.t0 + per_rep > RUN_BUDGET_S):
                break
        if self.trace:
            out["traced"] = self.rep(plan["commands"], traced=True, index=0)
            out["layers"] = self.child("layers", {"policy_seed": LAYER_POLICY_SEED, **plan["shapes"]})
        return out


def _all_reps(out: dict) -> list[dict]:
    """Every CLI repetition of the run, the traced one last."""
    return out["reps"] + ([out["traced"]] if out["traced"] else [])


def check_repeatability(run: Run, out: dict) -> None:
    """Digests and design counts must agree across repetitions and with the traced run."""
    reps = _all_reps(out)

    def signature(rep):
        return [cmd["digest"] for cmd in rep["commands"]], rep["trace"]["design"]

    first = signature(reps[0]) if reps else None
    for rep in reps[1:]:
        if signature(rep) != first:
            run.errors.append("outputs or design counts differ between repetitions")
            return


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _failed_frac(out: dict) -> float:
    """Design evaluations without a usable solve, over those attempted (first repetition)."""
    design = out["reps"][0]["trace"]["design"] if out["reps"] else {"attempted": 0, "failed": 0}
    return design["failed"] / max(design["attempted"], 1)


def end_to_end(run: Run, out: dict) -> dict:
    reps = out["reps"]
    return {
        "setup_s": _median(run.setup_samples),
        "solves_per_s": _median([r["trace"]["design"]["solves"] / r["wall_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "usable_frac": 1.0 - _failed_frac(out),
    }


def workload_throughputs(out: dict) -> dict:
    """The throughput each workload's own user sees, per CLI command."""
    metrics: dict[str, list[float]] = {}
    for rep in out["reps"]:
        for cmd in rep["commands"]:
            name = cmd["argv"][0]
            if name in ("train", "finetune"):
                value = ("train_steps_per_s", cmd["env_steps"] / cmd["wall_s"])
            elif name == "evaluate":
                value = ("eval_airfoils_per_s", EVAL_AIRFOILS / cmd["wall_s"])
            else:
                value = ("pso_evals_per_s", cmd["design_evals"] / cmd["wall_s"])
            metrics.setdefault(value[0], []).append(value[1])
    return {**{k: _median(v) for k, v in metrics.items()}, "failed_frac": _failed_frac(out)}


def per_layer(run: Run, out: dict) -> dict:
    """Traced split as shares of the traced wall time, isolated per-call latency, counts.

    Shares rather than seconds: a layer that a workload never calls has a
    share of exactly 0, which is a fact, not a time that failed to vary.
    """
    traced, untraced, layers = out["traced"], out["reps"], out["layers"]
    if traced is None or not untraced or layers is None:
        return {}
    report = traced["trace"]
    spans, counts, wall = report["spans"], report["counts"], traced["wall_s"]
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics = {}
    for boundary in tracer.BOUNDARIES:
        span = spans.get(boundary.name, zero)
        metrics[f"{boundary.name}.calls"] = span["calls"]
        metrics[f"{boundary.name}.busy_frac"] = span["busy_s"] / wall
        metrics[f"{boundary.name}.self_frac"] = span["self_s"] / wall
        if boundary.latency:
            latency = layers["latency"].get(boundary.name, {"p50_ms": 0.0, "p99_ms": 0.0})
            metrics[f"{boundary.name}.p50_ms"] = latency["p50_ms"]
            metrics[f"{boundary.name}.p99_ms"] = latency["p99_ms"]
    metrics.update({k: v for k, v in counts.items() if k in tracer.OUTCOME_COUNTS})
    metrics["geometry.is_valid.reject_frac"] = (
        counts["geometry.is_valid.rejected"] / max(spans.get("geometry.is_valid", zero)["calls"], 1))
    metrics["pso.feasible_frac"] = (
        counts["pso.fitness.feasible"] / max(spans.get("pso.fitness", zero)["calls"], 1))

    missing = [b.name for b in tracer.BOUNDARIES
               if run.workload in b.expected and b.name not in report["absent"]
               and spans.get(b.name, zero)["calls"] == 0]
    for name in missing:
        print(f"warning: boundary {name} recorded no calls on {run.workload}", file=sys.stderr)
    metrics["trace.absent"] = len(report["absent"])
    metrics["trace.missing"] = len(missing)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.remainder_s"] = wall - sum(s["self_s"] for s in spans.values())
    metrics["trace.overhead_s"] = wall - untraced[0]["wall_s"]
    metrics["gate.c6_lo_over_hi"] = layers["gates"]["c6_lo_over_hi"]
    metrics["gate.c8_pso_over_policy"] = layers["gates"]["c8_pso_over_policy"]
    return metrics


def environment(out: dict, load_before: float, load_after: float) -> dict:
    reps = _all_reps(out)
    commit = None
    if Path(".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        **(reps[0]["blas"] if reps else {}),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "load_1m_before": load_before,
        "load_1m_after": load_after,
        # The 1-minute load average includes a previous benchmark run that ended
        # less than a minute ago; read it with that in mind.
        "busy": load_before >= 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not Path("src/foilrl/cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of a foilrl source checkout "
              "(src/foilrl and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text())
    declared = declared["per_layer"] if args.trace else declared["end_to_end"]

    load_before = os.getloadavg()[0]
    run = Run(args.workload, args.seed, bool(args.trace))
    out = run.execute(args.seconds)
    check_repeatability(run, out)
    for name in sorted({name for rep in _all_reps(out) for name in rep["trace"]["absent"]}):
        print(f"warning: {name} is absent from the program; it is not measured", file=sys.stderr)
    computed = per_layer(run, out) if args.trace else end_to_end(run, out)
    if not computed:
        run.errors.append("no metrics: a process failed before measuring")
    throughputs = workload_throughputs(out)
    env = environment(out, load_before, os.getloadavg()[0])

    correct = not run.errors
    reps = _all_reps(out)
    attempted = max(1, sum(r["trace"]["design"]["attempted"] for r in reps))
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    undeclared = sorted(set(computed) - set(metrics))
    if computed and (undeclared or set(metrics) - set(computed)):
        raise SystemExit(f"BENCHMARK.json and run.py disagree on metrics: "
                         f"{undeclared or sorted(set(metrics) - set(computed))}")

    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "errors": run.errors,
        "metrics": computed, "workload_throughputs": throughputs, "environment": env,
        "setup_samples": run.setup_samples, "probes": out["probes"], "layers": out["layers"],
        "reps": out["reps"], "traced": out["traced"],
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(out['reps'])}  correct {correct}")
    for err in run.errors:
        print(f"  check failed: {err}")
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>14.6g}  {entry['unit']}")
    for name, value in throughputs.items():
        unit = "fraction" if name == "failed_frac" else "1/s"
        print(f"  {name:<44} {value:>14.6g}  {unit}  (workload throughput)")
    if out["traced"]:
        print("  traced split (self time, largest first):")
        spans = sorted(out["traced"]["trace"]["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, span in spans:
            if span["calls"]:
                share = span["self_s"] / out["traced"]["wall_s"]
                print(f"    {name:<42} {span['self_s']:>10.4f} s  {100 * share:5.1f}%")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every command that takes --config resolves its configuration (defaults,
then config file, then flags), serializes it into the output directory
before doing any work, and writes machine-readable outputs there. CSV
and summary JSON outputs are deterministic given a seed; measured wall
times go to a separate timing.json. Exit codes: 0 success, 1 runtime
failure, 2 usage.
"""
from __future__ import annotations

import argparse
import copy
import ctypes
import functools
import json
import math
import resource
import sys
import time
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import bundled_airfoil_dir, __version__
from .aero import FIDELITIES, CountingSolver, FlowConditions, SolverConfig
from .env import AirfoilEnv, EnvConfig
from .errors import ConfigValueError, ContractViolation, EmptyEvalError, FoilRlError
from .errors import ResetError, UsageError
from .evaluate import (
    _roll_episode,
    compare_report,
    evaluate_policy,
    load_dataset,
    pareto_front,
    read_records_csv,
    write_comparison_csv,
    write_pareto_csv,
    write_records_csv,
    write_summary_json,
)
from .geometry import fit_cst, read_dat
from .nets import AgentCheckpoint, AdamState, load_checkpoint, save_checkpoint
from .nets import RECORDED_FIELDS, _FileTensors, _agent_from_tensors, _check_header
from .nets import _named_tensors
from .outputs import write_csv, write_json
from .plotting import write_svg_lines, write_svg_scatter
from .ppo import PRESETS, PpoConfig, preset, train, trained_timesteps
from .pso import PsoConfig, pso_optimize_airfoil
from .transfer import TlStrategy, finetune, time_reduction, write_ledger_json

_ENV_DEFAULTS = {f.name: f.default for f in fields(EnvConfig)}

# Every default comes from the config dataclass that consumes it.
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "env": {k: _ENV_DEFAULTS[k] for k in ("sigma", "fidelity", "episode_max_length")},
    "flow": asdict(FlowConditions()),
    "solver": {name: asdict(fidelity.config) for name, fidelity in FIDELITIES.items()},
    "ppo": {"preset": "from-scratch", "total_timesteps": None, "n_envs": 1},
    "pso": asdict(PsoConfig()),
    "eval": {"dataset": None},
}

# The one place that says which flag sets which config key: argparse dest -> dotted key.
FLAG_KEYS = {
    "seed": "seed", "solver": "env.fidelity", "sigma": "env.sigma", "dataset": "eval.dataset",
    "timesteps": "ppo.total_timesteps", "preset": "ppo.preset", "n_envs": "ppo.n_envs",
    "high_cost_ms": "solver.high.nominal_cost_ms", "low_cost_ms": "solver.low.nominal_cost_ms",
    "swarm": "pso.swarm_size", "iterations": "pso.max_iterations",
    "keep_thickness": "pso.thickness_tolerance",
}

# finetune trains with its own preset; a --config file may only confirm it.
_FINETUNE_DEFAULTS = {**DEFAULT_CONFIG, "ppo": {**DEFAULT_CONFIG["ppo"], "preset": "finetune"}}


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """Merge `override` into a copy of `base`; keys that `base` lacks are usage errors."""
    if not isinstance(override, dict):
        raise UsageError(f"config {path.rstrip('.') or 'file'} must be a JSON object")
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise UsageError(f"unknown config key {path}{key}")
        if isinstance(out[key], dict):
            out[key] = _deep_merge(out[key], value, f"{path}{key}.")
        else:
            out[key] = value
    return out


def _load_config(args, defaults: dict = DEFAULT_CONFIG) -> dict:
    """The defaults, then the --config file, then the flags given, by `FLAG_KEYS`."""
    cfg = copy.deepcopy(defaults)
    if args.config:
        cfg = _deep_merge(cfg, json.loads(Path(args.config).read_text()))
    for dest, key in FLAG_KEYS.items():
        if (value := getattr(args, dest, None)) is not None:
            *sections, leaf = key.split(".")
            functools.reduce(dict.__getitem__, sections, cfg)[leaf] = value
    with _section(""):
        _numbers({"seed": cfg["seed"]}, DEFAULT_CONFIG)
    return cfg


@contextmanager
def _section(path: str):
    """Turn a config object's rejected field into a usage error naming its dotted key."""
    try:
        yield
    except ConfigValueError as exc:
        raise UsageError(f"config {path}{exc}") from None


def _numbers(section: dict, defaults: dict) -> dict:
    """`section` as it is, once each value is a finite JSON number its default allows.

    Nothing is cast: the flow values feed `env_config_hash`, where JSON 2
    and 2.0 hash differently. A key whose default is an int takes ints
    only; one that defaults to None also takes null. JSON true/false are
    not numbers here, though Python's bool is an int.
    """
    for key, value in section.items():
        default = defaults[key]
        kinds = (int,) if isinstance(default, int) else (int, float)
        number = isinstance(value, kinds) and not isinstance(value, bool)
        if not (number or (default is None and value is None)):
            kind = "an integer" if kinds == (int,) else "a number"
            raise ConfigValueError(key, f"must be {kind}, not {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigValueError(key, f"must be finite, not {value!r}")
    return section


def _out_dir(args, command: str) -> Path:
    out = Path(args.out) if args.out else Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solver_config(cfg: dict, fidelity: str) -> SolverConfig:
    defaults = DEFAULT_CONFIG["solver"][fidelity]
    with _section(f"solver.{fidelity}."):
        section = _numbers(cfg["solver"][fidelity], defaults)
        # A float field takes a float, so a JSON 73 prices like 73.0.
        return replace(FIDELITIES[fidelity].config,
                       **{k: float(v) if isinstance(defaults[k], float) else v
                          for k, v in section.items()})


def _flow(cfg: dict) -> FlowConditions:
    with _section("flow."):
        return FlowConditions(**_numbers(cfg["flow"], DEFAULT_CONFIG["flow"]))


def _env_config(cfg: dict) -> EnvConfig:
    env = cfg["env"]
    with _section("env."):
        _numbers({k: env[k] for k in ("sigma", "episode_max_length")}, DEFAULT_CONFIG["env"])
        base = EnvConfig(sigma=float(env["sigma"]), fidelity=env["fidelity"],
                         episode_max_length=env["episode_max_length"], rng_seed=cfg["seed"])
    # The fidelity is checked before it picks the solver section.
    return replace(base, flow=_flow(cfg), solver_config=_solver_config(cfg, base.fidelity))


def _ppo_config(cfg: dict) -> PpoConfig:
    ppo = cfg["ppo"]
    preset_name = ppo["preset"]
    with _section("ppo."):
        if not (isinstance(preset_name, str) and preset_name in PRESETS):
            raise ConfigValueError(
                "preset", f"must be one of {', '.join(sorted(PRESETS))}, not {preset_name!r}")
        overrides = {"n_envs": ppo["n_envs"]}
        if ppo["total_timesteps"] is not None:
            overrides["total_timesteps"] = ppo["total_timesteps"]
        _numbers(overrides, asdict(PRESETS[preset_name]))
        # Rejected like `--timesteps 0`: a zero budget would train nothing.
        if overrides.get("total_timesteps", 1) < 1:
            raise ConfigValueError("total_timesteps", "must be a positive integer")
        return preset(preset_name, **overrides)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, "train")
    env_config = _env_config(cfg)
    ppo_config = _ppo_config(cfg)
    cfg["ppo"]["total_timesteps"] = trained_timesteps(ppo_config)
    write_json(out / "resolved_config.json", cfg)

    result = train(
        env_config,
        ppo_config,
        seed=cfg["seed"],
        checkpoint_path=out / "checkpoint.ckpt",
        log_path=out / "training_log.csv",
    )
    if args.svg:
        rows = result.log_rows
        write_svg_lines(
            out / "reward_curve.svg",
            {"mean episode reward": ([r["timesteps"] for r in rows],
                                     [r["mean_episode_reward"] for r in rows])},
            title="Training reward",
            xlabel="timesteps",
            ylabel="mean episode reward",
        )
    print(
        f"trained {result.total_steps} steps "
        f"(solver calls {result.solver_calls}, nominal {result.nominal_cost_s:.1f}s); "
        f"outputs in {out}"
    )
    return 0


def cmd_finetune(args) -> int:
    cfg = _load_config(args, _FINETUNE_DEFAULTS)
    if cfg["ppo"]["preset"] != "finetune":
        raise UsageError(f"config ppo.preset must be 'finetune' for finetune, "
                         f"not {cfg['ppo']['preset']!r}")
    cfg["env"]["fidelity"] = "high"
    source = load_checkpoint(args.source)
    out = _out_dir(args, "finetune")
    if args.low_cost_ms is not None:  # the source's recorded price, which no config key holds
        source.meta["nominal_cost_ms_per_call"] = _solver_config(cfg, "low").nominal_cost_ms
    env_config = _env_config(cfg)
    ppo_config = _ppo_config(cfg)
    cfg["ppo"]["total_timesteps"] = trained_timesteps(ppo_config)
    write_json(out / "resolved_config.json", cfg)

    fres = finetune(
        source,
        TlStrategy(args.strategy),
        env_config,
        ppo_config,
        seed=cfg["seed"],
        checkpoint_path=out / "checkpoint.ckpt",
        log_path=out / "training_log.csv",
    )
    ledger = fres.ledger
    tl_free_cost_s = args.tl_free_steps * env_config.solver_config.nominal_cost_ms / 1000.0
    write_ledger_json(out / "cost_ledger.json", ledger, tl_free_cost_s)
    tr = time_reduction(tl_free_cost_s, ledger.total_cost_s)
    print(
        f"fine-tuned strategy #{int(fres.strategy)}: "
        f"pretrain {ledger.pretrain_cost_s:.1f}s + finetune {ledger.finetune_cost_s:.1f}s "
        f"vs baseline {tl_free_cost_s:.1f}s -> time reduction {tr:.1f}%"
    )
    return 0


TRACE_COLUMNS = ["step", "cl", "cd", "ratio", "mt", "kappa", "lambda"]


def cmd_optimize(args) -> int:
    faults0 = _minor_faults()
    cfg = _load_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    out = _out_dir(args, "optimize")
    _, coords = read_dat(args.airfoil)
    params, residual = fit_cst(coords)
    cfg["env"].update(fidelity="high", sigma=ckpt.sigma)
    env_config = _env_config(cfg)
    write_json(out / "resolved_config.json", cfg)

    rows = []

    def trace(state, info):
        if info is None:  # the fitted airfoil, before any step
            info = {"cl": float("nan"), "cd": float("nan"), "ratio": state.prev_term,
                    "mt": state.mt0, "kappa": 1.0, "lambda": 1.0}
        rows.append([len(rows)] + [info[c] for c in TRACE_COLUMNS[1:]] + state.params.tolist())

    env = AirfoilEnv(env_config)
    record = _roll_episode(env, ckpt, params, True, env.rng, on_step=trace)
    if not record.converged:
        raise ResetError("no solvable initial state found")

    header = TRACE_COLUMNS + [f"p{i}" for i in range(params.vector.size)]
    write_csv(out / "trace.csv", header, rows)
    write_json(out / "metrics.json", {
        "airfoil": Path(args.airfoil).stem,
        "fit_residual": residual,
        "initial_ratio": record.initial_ratio,
        "best_ratio": record.best_ratio,
        "improvement": record.improvement,
        "episode_length": len(rows) - 1,
        "best_params": record.best_params.tolist(),
    })
    solver_s = record.wall_time_s - record.inference_s
    write_json(out / "timing.json", {"inference_s": record.inference_s,
                                     "solver_metric_s": solver_s,
                                     "minor_page_faults": _minor_faults() - faults0})
    print(
        f"optimized {Path(args.airfoil).stem}: "
        f"ratio {record.initial_ratio:.1f} -> {record.best_ratio:.1f} "
        f"(inference {record.inference_s*1e3:.1f} ms, solver metrics {solver_s:.2f} s)"
    )
    return 0


def cmd_evaluate(args) -> int:
    faults0 = _minor_faults()
    cfg = _load_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    out = _out_dir(args, "evaluate")
    dataset_dir = cfg["eval"]["dataset"]
    if not (dataset_dir is None or isinstance(dataset_dir, str)):
        raise UsageError(f"config eval.dataset must be a string or null, not {dataset_dir!r}")
    dataset_dir = dataset_dir or bundled_airfoil_dir()
    cfg["env"].update(fidelity="high", sigma=ckpt.sigma)
    env_config = _env_config(cfg)
    write_json(out / "resolved_config.json", cfg)

    dataset = load_dataset(dataset_dir)
    if not dataset:
        raise EmptyEvalError(f"no usable coordinate files in {dataset_dir}")
    t0 = time.perf_counter()
    records, summary = evaluate_policy(
        ckpt, dataset, env_config,
        deterministic=not args.sample,
        rng=np.random.default_rng(cfg["seed"]),
    )
    wall = time.perf_counter() - t0
    write_records_csv(out / "records.csv", records)
    write_summary_json(out / "summary.json", summary, {"sigma": ckpt.sigma})
    write_json(out / "timing.json", {
        "wall_s_total": wall,
        "wall_s_per_airfoil": wall / max(len(records), 1),
        "minor_page_faults": _minor_faults() - faults0,
    })
    if args.svg:
        ok = [r for r in records if r.converged]
        write_svg_scatter(
            out / "best_vs_initial.svg",
            {"airfoils": ([r.initial_ratio for r in ok], [r.best_ratio for r in ok])},
            title="Best vs initial lift-to-drag",
            xlabel="initial cl/cd",
            ylabel="best cl/cd",
        )
    print(
        f"evaluated {summary.n_evaluated} airfoils ({summary.n_excluded} excluded): "
        f"improvement {summary.improvement_mean:.1f} +- {summary.improvement_std:.1f}, "
        f"best median {summary.best_median:.1f} (IQR {summary.best_iqr:.1f}), "
        f"dMT {summary.delta_mt_mean:.1f}%"
    )
    return 0


def cmd_pso(args) -> int:
    faults0 = _minor_faults()
    cfg = _load_config(args)
    solver = CountingSolver("high", _flow(cfg), _solver_config(cfg, "high"))
    with _section("pso."):
        pso_config = PsoConfig(**_numbers(cfg["pso"], DEFAULT_CONFIG["pso"]))
    out = _out_dir(args, "pso")
    _, coords = read_dat(args.airfoil)
    params, _ = fit_cst(coords)
    write_json(out / "resolved_config.json", cfg)

    t0 = time.perf_counter()
    result = pso_optimize_airfoil(
        params, solver, pso_config, np.random.default_rng(cfg["seed"])
    )
    wall = time.perf_counter() - t0

    write_csv(out / "trace.csv", ["iteration", "gbest_fitness"], enumerate(result.trace, start=1))
    write_json(out / "result.json", {
        "airfoil": Path(args.airfoil).stem,
        "best_fitness": result.best_fitness,
        "best_params": result.best_params.tolist(),
        "solver_calls": result.n_evaluations,
        "nominal_cost_s": result.n_evaluations * solver.cfg.nominal_cost_ms / 1000.0,
    })
    write_json(out / "timing.json", {"wall_s": wall,
                                     "minor_page_faults": _minor_faults() - faults0})
    print(
        f"pso on {Path(args.airfoil).stem}: best cl/cd {result.best_fitness:.1f} "
        f"in {result.n_evaluations} solver calls ({wall:.1f} s)"
    )
    return 0


def cmd_compare(args) -> int:
    out = _out_dir(args, "compare")
    drl = read_records_csv(args.drl)
    pso_records = read_records_csv(args.pso)
    rows, aggregate = compare_report(drl, pso_records)
    write_comparison_csv(out / "comparison.csv", rows)
    write_json(out / "comparison_summary.json", aggregate)
    if args.sweep:
        points = []
        for path in args.sweep:
            payload = json.loads(Path(path).read_text())
            for key in ("sigma", "delta_mt_mean", "best_median"):
                if not (isinstance(payload, dict) and key in payload):
                    raise ContractViolation(f"{path}: missing key {key}")
            points.append({"sigma": payload["sigma"], "delta_mt": payload["delta_mt_mean"],
                           "best": payload["best_median"]})
        flagged = pareto_front(points)
        write_pareto_csv(out / "pareto.csv", flagged)
        if args.svg:
            groups = {}
            for name, on_front in (("front", True), ("dominated", False)):
                chosen = [p for p in flagged if p["on_front"] is on_front]
                if chosen:
                    groups[name] = ([p["delta_mt"] for p in chosen], [p["best"] for p in chosen])
            write_svg_scatter(
                out / "pareto.svg", groups,
                title="Aerodynamic best vs thickness deviation",
                xlabel="delta MT (%)", ylabel="best cl/cd",
            )
    print(
        f"compared {aggregate['n_common']} airfoils: "
        f"drl wins {aggregate['drl_wins']}, pso wins {aggregate['pso_wins']}, "
        f"ties {aggregate['ties']}"
    )
    return 0


def cmd_export_weights(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    arrays = {
        name.replace(".", "_"): tensor
        for name, tensor in _named_tensors(ckpt)
        if not name.startswith("adam.")
    }
    meta = {key: getattr(ckpt, key) for key in RECORDED_FIELDS}
    np.savez(args.out, meta=json.dumps(meta, sort_keys=True), **arrays)
    print(f"exported weights to {args.out}")
    return 0


def cmd_import_weights(args) -> int:
    try:
        data = np.load(args.weights, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # a text, empty or damaged file
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ContractViolation(f"{args.weights}: not an .npz file")
    with data:
        if "meta" not in data.files:
            raise ContractViolation(f"{args.weights}: no meta entry")
        meta = json.loads(str(data["meta"]))
        _check_header(meta, RECORDED_FIELDS, args.weights)
        actor, critic = _agent_from_tensors(_FileTensors(args.weights, {
            key.replace("_", ".", 1): data[key] for key in data.files if key != "meta"}))
    ckpt = AgentCheckpoint(
        actor=actor,
        critic=critic,
        adam=AdamState.for_tensors(actor.tensors() + critic.tensors()),
        train_steps=int(meta["train_steps"]),
        env_config_hash=meta["env_config_hash"],
        sigma=float(meta["sigma"]),
        fidelity=meta["fidelity"],
    )
    save_checkpoint(args.out, ckpt)
    print(f"imported weights into {args.out}")
    return 0


def _nonnegative_float(value: str) -> float:
    out = float(value)
    if not 0.0 <= out < math.inf:
        raise argparse.ArgumentTypeError("must be finite and non-negative")
    return out


def _positive_int(value: str) -> int:
    out = int(value)
    if out < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foilrl",
        description="Airfoil shape optimization: PPO training, cross-fidelity "
        "transfer, swarm baseline, and evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes only the flags it reads.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output directory")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--seed", type=int, default=None)
    svg = argparse.ArgumentParser(add_help=False)
    svg.add_argument("--svg", action="store_true", help="also emit SVG plots")

    p = sub.add_parser("train", parents=[common, svg], help="train an agent")
    p.add_argument("--solver", choices=sorted(FIDELITIES))
    p.add_argument("--sigma", type=_nonnegative_float, default=None)
    p.add_argument("--timesteps", type=_positive_int, default=None)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--n-envs", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("finetune", parents=[common], help="transfer and fine-tune")
    p.add_argument("--from", dest="source", required=True, help="source checkpoint")
    p.add_argument("--strategy", type=int, choices=[1, 2, 3, 4], required=True)
    p.add_argument("--sigma", type=_nonnegative_float, default=None)
    p.add_argument("--timesteps", type=_positive_int, default=None)
    p.add_argument("--tl-free-steps", type=_positive_int, default=81920,
                   help="baseline step count for the time-reduction report")
    p.add_argument("--high-cost-ms", type=float, default=None,
                   help="override the high-fidelity per-call nominal cost")
    p.add_argument("--low-cost-ms", type=float, default=None,
                   help="override the low-fidelity per-call nominal cost")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("optimize", parents=[common], help="roll one episode on an airfoil")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--airfoil", required=True, help="coordinate .dat file")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("evaluate", parents=[common, svg], help="evaluate on a dataset directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None, help="directory of .dat files (default: bundled)")
    p.add_argument("--sample", action="store_true", help="sample actions instead of means")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("pso", parents=[common], help="swarm baseline on one airfoil")
    p.add_argument("--airfoil", required=True)
    p.add_argument("--keep-thickness", type=_nonnegative_float, default=None,
                   help="relative thickness tolerance (constrained mode)")
    p.add_argument("--swarm", type=_positive_int, default=None)
    p.add_argument("--iterations", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_pso)

    p = sub.add_parser("compare", parents=[output, svg], help="side-by-side record comparison")
    p.add_argument("--drl", required=True, help="records.csv from evaluate")
    p.add_argument("--pso", required=True, help="records.csv for the baseline")
    p.add_argument("--sweep", nargs="*", default=None,
                   help="summary.json files from a sigma sweep (emits a Pareto CSV)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("export-weights", help="dump checkpoint weights to npz")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_weights)

    p = sub.add_parser("import-weights", help="rebuild a checkpoint from npz weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_import_weights)

    return parser


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Ask glibc to keep freed heap memory in the process.

    By default glibc hands a freed block above its dynamic thresholds
    (~0.5-1 MB once the solver has run) back to the kernel, so every
    255-panel solve page-faults its m-squared arrays in again: ~1,100
    minor faults a call. The values are the caps that glibc's own dynamic
    rule reaches on 64-bit: blocks up to 32 MiB come from the heap, and the
    heap top is trimmed only when more than 64 MiB of it is free. The CLI
    owns its process, so this runs in `main` and never at import: a library
    must not change its host's allocator. A no-op where `mallopt` is missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FoilRlError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

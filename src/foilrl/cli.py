"""Command-line front end.

Every command that takes --config resolves its configuration (defaults,
then config file, then flags) and checks all of it. A command reads and
checks every input before it creates its output directory, so a bad one
leaves nothing behind; it then serializes the configuration there before
doing any work, and writes machine-readable outputs there. CSV
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
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import bundled_airfoil_dir, __version__
from .aero import FIDELITIES, CountingSolver, FlowConditions, SolverConfig, nominal_cost_s
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
    read_sweep_point,
    write_comparison_csv,
    write_pareto_csv,
    write_pareto_svg,
    write_records_csv,
    write_summary_json,
)
from .geometry import fit_cst, read_dat
from .nets import export_weights, import_weights, load_checkpoint, save_checkpoint
from .outputs import checked, is_count, is_integer, is_number, write_csv, write_json
from .plotting import write_svg_lines, write_svg_scatter
from .ppo import PRESETS, PpoConfig, check_agent, preset, train, trained_timesteps
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
        try:
            loaded = json.loads(Path(args.config).read_text())
        except ValueError as exc:  # not text, or not JSON
            raise UsageError(f"config file {args.config}: not JSON: {exc}") from None
        cfg = _deep_merge(cfg, loaded)
    for dest, key in FLAG_KEYS.items():
        if (value := getattr(args, dest, None)) is not None:
            *sections, leaf = key.split(".")
            functools.reduce(dict.__getitem__, sections, cfg)[leaf] = value
    with _section(""):  # numpy seeds no generator from a negative integer
        checked(cfg, {"seed": (is_count, "an integer >= 0")})
        checked(cfg["eval"], {"dataset": (lambda v: v is None or isinstance(v, str),
                                          "a string or null")}, "eval.")
    # Every section is built once here, so a command also rejects a bad value it does not read.
    _env_config(cfg)
    _ppo_config(cfg)
    _pso_config(cfg)
    for fidelity in FIDELITIES:
        _solver_config(cfg, fidelity)
    return cfg


@contextmanager
def _section(path: str):
    """Turn a rejected config value into a usage error naming its dotted key."""
    try:
        yield
    except (ConfigValueError, ContractViolation) as exc:
        raise UsageError(f"config {path}{exc}") from None


_NUMBER_RULES = {
    int: (is_integer, "an integer"),
    float: (is_number, "a finite number"),
    type(None): (lambda v: v is None or is_number(v), "a finite number or null"),
}


def _numbers(section: dict, defaults: dict) -> dict:
    """`section` as it is, once each value is a JSON number of its default's kind.

    Nothing is cast: the flow values feed `env_config_hash`, where JSON 2
    and 2.0 hash differently.
    """
    return checked(section, {key: _NUMBER_RULES[type(defaults[key])] for key in section})


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


def _pso_config(cfg: dict) -> PsoConfig:
    with _section("pso."):
        return PsoConfig(**_numbers(cfg["pso"], DEFAULT_CONFIG["pso"]))


def cmd_train(args) -> int:
    cfg = _load_config(args)
    env_config = _env_config(cfg)
    ppo_config = _ppo_config(cfg)
    out = _out_dir(args, "train")
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
        f"trained {result.checkpoint.train_steps} steps "
        f"(solver calls {result.solver_calls}, "
        f"nominal {result.checkpoint.meta['nominal_cost_s']:.1f}s); "
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
    check_agent(source.actor, args.source)
    if args.low_cost_ms is not None:  # the source's recorded price, which no config key holds
        source.meta["nominal_cost_ms_per_call"] = _solver_config(cfg, "low").nominal_cost_ms
    env_config = _env_config(cfg)
    ppo_config = _ppo_config(cfg)
    out = _out_dir(args, "finetune")
    cfg["ppo"]["total_timesteps"] = trained_timesteps(ppo_config)
    write_json(out / "resolved_config.json", cfg)

    ledger = finetune(
        source,
        TlStrategy(args.strategy),
        env_config,
        ppo_config,
        seed=cfg["seed"],
        checkpoint_path=out / "checkpoint.ckpt",
        log_path=out / "training_log.csv",
    ).ledger
    tl_free_cost_s = nominal_cost_s(args.tl_free_steps, env_config.solver_config.nominal_cost_ms)
    write_ledger_json(out / "cost_ledger.json", ledger, tl_free_cost_s)
    tr = time_reduction(tl_free_cost_s, ledger.total_cost_s)
    print(
        f"fine-tuned strategy #{args.strategy}: "
        f"pretrain {ledger.pretrain_cost_s:.1f}s + finetune {ledger.finetune_cost_s:.1f}s "
        f"vs baseline {tl_free_cost_s:.1f}s -> time reduction {tr:.1f}%"
    )
    return 0


TRACE_COLUMNS = ["step", "cl", "cd", "ratio", "mt", "kappa", "lambda"]


def cmd_optimize(args) -> int:
    faults0 = _minor_faults()
    cfg = _load_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    check_agent(ckpt.actor, args.checkpoint)
    _, coords = read_dat(args.airfoil)
    params, residual = fit_cst(coords)
    cfg["env"].update(fidelity="high", sigma=ckpt.sigma)
    env_config = _env_config(cfg)
    out = _out_dir(args, "optimize")
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
    check_agent(ckpt.actor, args.checkpoint)
    dataset_dir = cfg["eval"]["dataset"] or bundled_airfoil_dir()
    dataset = load_dataset(dataset_dir)
    if not dataset:
        raise EmptyEvalError(f"no usable coordinate files in {dataset_dir}")
    cfg["env"].update(fidelity="high", sigma=ckpt.sigma)
    env_config = _env_config(cfg)
    out = _out_dir(args, "evaluate")
    write_json(out / "resolved_config.json", cfg)

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
    pso_config = _pso_config(cfg)
    _, coords = read_dat(args.airfoil)
    params, _ = fit_cst(coords)
    out = _out_dir(args, "pso")
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
        "nominal_cost_s": nominal_cost_s(result.n_evaluations, solver.cfg.nominal_cost_ms),
    })
    write_json(out / "timing.json", {"wall_s": wall,
                                     "minor_page_faults": _minor_faults() - faults0})
    print(
        f"pso on {Path(args.airfoil).stem}: best cl/cd {result.best_fitness:.1f} "
        f"in {result.n_evaluations} solver calls ({wall:.1f} s)"
    )
    return 0


def cmd_compare(args) -> int:
    drl = read_records_csv(args.drl)
    pso_records = read_records_csv(args.pso)
    rows, aggregate = compare_report(drl, pso_records)
    points = [read_sweep_point(path) for path in args.sweep or ()]
    out = _out_dir(args, "compare")
    write_comparison_csv(out / "comparison.csv", rows)
    write_json(out / "comparison_summary.json", aggregate)
    if points:
        flagged = pareto_front(points)
        write_pareto_csv(out / "pareto.csv", flagged)
        if args.svg:
            write_pareto_svg(out / "pareto.svg", flagged)
    print(
        f"compared {aggregate['n_common']} airfoils: "
        f"drl wins {aggregate['drl_wins']}, pso wins {aggregate['pso_wins']}, "
        f"ties {aggregate['ties']}"
    )
    return 0


def cmd_export_weights(args) -> int:
    export_weights(load_checkpoint(args.checkpoint), args.out)
    print(f"exported weights to {args.out}")
    return 0


def cmd_import_weights(args) -> int:
    save_checkpoint(args.out, import_weights(args.weights))
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
    p.add_argument("--tl-free-steps", type=_positive_int,
                   default=PRESETS["from-scratch"].total_timesteps,
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
    except (FoilRlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation; a bare one has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

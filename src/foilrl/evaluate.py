"""Dataset ingestion and the evaluation protocol.

A trained policy is rolled for one full episode per dataset airfoil,
starting from that airfoil's fitted design vector. Metrics are always
computed with the high-fidelity solver so agents are compared fairly.
The best step (step 0 included) is the one with the highest value of the
objective the agent was trained on, lambda * kappa * cl/cd, the first of
equal ones; kappa is 1 on this solver, and lambda is 1 at sigma 0. `best`
is the raw cl/cd at that step, `improvement` is best minus the initial
ratio, and the thickness deviation and the design are taken there too.
"""
from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from .aero import nominal_cost_s
from .env import AirfoilEnv, EnvConfig, EnvState
from .errors import ContractViolation, EmptyEvalError, FitError, ResetError
from .geometry import CstParams, fit_cst, read_dat
from .nets import AgentCheckpoint, gaussian_sample
from .outputs import checked, is_finite_nonnegative, is_number, write_csv, write_json
from .plotting import write_svg_scatter

log = logging.getLogger(__name__)

RECORD_SCHEMA_VERSION = 1

RECORD_COLUMNS = [
    "airfoil",
    "initial_ratio",
    "best_ratio",
    "improvement",
    "mt_initial",
    "mt_at_best",
    "delta_mt_percent",
    "episode_length",
    "termination_reason",
    "nominal_solver_cost_s",
]


@dataclass
class EvalRecord:
    airfoil: str
    initial_ratio: float
    best_ratio: float
    improvement: float
    mt_initial: float
    mt_at_best: float
    delta_mt_percent: float
    episode_length: int
    termination_reason: str
    nominal_solver_cost_s: float
    wall_time_s: float
    inference_s: float = float("nan")  # policy forward passes, part of wall_time_s
    best_params: np.ndarray | None = None  # the design at the best step

    @property
    def converged(self) -> bool:
        """Whether the initial solve converged; only then do the ratios mean anything."""
        return self.termination_reason != "initial_solve_failed"


@dataclass
class EvalSummary:
    n_evaluated: int
    n_excluded: int
    improvement_mean: float
    improvement_std: float
    best_median: float
    best_iqr: float
    delta_mt_mean: float
    delta_mt_std: float


def load_dataset(directory: str | Path) -> list[tuple[str, CstParams, float]]:
    """Fit every coordinate file in a directory; unfittable files are skipped."""
    directory = Path(directory)
    if not directory.is_dir():
        raise OSError(f"not a readable directory: {directory}")
    entries = []
    for path in sorted(directory.glob("*.dat")):
        try:
            name, coords = read_dat(path)
            params, residual = fit_cst(coords)
        except (FitError, ValueError) as exc:
            log.warning("skipping %s: %s", path.name, exc)
            continue
        entries.append((path.stem, params, residual))
    return entries


def _roll_episode(
    env: AirfoilEnv,
    checkpoint: AgentCheckpoint,
    params: CstParams,
    deterministic: bool,
    rng: np.random.Generator,
    on_step: Callable[[EnvState, dict | None], None] | None = None,
) -> EvalRecord:
    """Roll one episode from `params`.

    `on_step(state, info)` sees the state after the reset (with info None)
    and after every solved step (with that step's info).
    """
    start = time.perf_counter()
    calls_before = env.solver.calls
    try:
        obs = env.reset(params)
    except ResetError:
        initial_ratio = best_ratio = mt_initial = mt_at_best = inference_s = float("nan")
        length, reason, best_params = 0, "initial_solve_failed", None
    else:
        initial_ratio = env.state.prev_term  # kappa = 1 for the high-fidelity solver
        mt_initial = env.state.mt0
        best_objective = best_ratio = initial_ratio
        mt_at_best = mt_initial
        best_params = env.state.params
        if on_step is not None:
            on_step(env.state, None)
        length, inference_s = 0, 0.0
        while True:
            t0 = time.perf_counter()
            mean = checkpoint.actor.mean(obs[None, :])[0]
            inference_s += time.perf_counter() - t0
            if deterministic:
                action = mean
            else:
                action, _ = gaussian_sample(mean, checkpoint.actor.log_std, rng)
            outcome = env.step(action)
            length += 1
            if "ratio" in outcome.info:
                if on_step is not None:
                    on_step(env.state, outcome.info)
                if env.state.prev_term > best_objective:  # this step's lambda * kappa * cl/cd
                    best_objective = env.state.prev_term
                    best_ratio = outcome.info["ratio"]
                    mt_at_best = outcome.info["mt"]
                    best_params = env.state.params
            if outcome.terminated:
                reason = outcome.reason.value
                break
            obs = outcome.observation
    return EvalRecord(
        airfoil="",
        initial_ratio=float(initial_ratio),
        best_ratio=float(best_ratio),
        improvement=float(best_ratio - initial_ratio),
        mt_initial=float(mt_initial),
        mt_at_best=float(mt_at_best),
        delta_mt_percent=float(100.0 * abs(mt_at_best - mt_initial) / mt_initial),
        episode_length=length,
        termination_reason=reason,
        nominal_solver_cost_s=nominal_cost_s(env.solver.calls - calls_before,
                                             env.solver.cfg.nominal_cost_ms),
        wall_time_s=time.perf_counter() - start,
        inference_s=inference_s,
        best_params=best_params,
    )


def evaluate_policy(
    checkpoint: AgentCheckpoint,
    dataset: list[tuple[str, CstParams, float]],
    env_config: EnvConfig,
    deterministic: bool = True,
    rng: np.random.Generator | None = None,
) -> tuple[list[EvalRecord], EvalSummary]:
    """One episode per airfoil; never raises on per-airfoil failures."""
    if env_config.fidelity != "high":
        raise ValueError("evaluation metrics must come from the high-fidelity solver")
    rng = rng if rng is not None else np.random.default_rng(0)

    env = AirfoilEnv(env_config, np.random.default_rng(0))
    records = []
    for name, params, _residual in sorted(dataset, key=lambda e: e[0]):
        record = _roll_episode(env, checkpoint, params, deterministic, rng)
        record.airfoil = name
        records.append(record)
    return records, summarize(records)


def summarize(records: list[EvalRecord]) -> EvalSummary:
    """Statistics over records whose initial solve converged."""
    ok = [r for r in records if r.converged]
    if not ok:
        raise EmptyEvalError("no converged records to summarize")
    improvement = np.array([r.improvement for r in ok])
    best = np.array([r.best_ratio for r in ok])
    dmt = np.array([r.delta_mt_percent for r in ok])
    q1, q3 = np.percentile(best, [25.0, 75.0])
    return EvalSummary(
        n_evaluated=len(ok),
        n_excluded=len(records) - len(ok),
        improvement_mean=float(improvement.mean()),
        improvement_std=float(improvement.std()),
        best_median=float(np.median(best)),
        best_iqr=float(q3 - q1),
        delta_mt_mean=float(dmt.mean()),
        delta_mt_std=float(dmt.std()),
    )


def write_records_csv(path: str | Path, records: list[EvalRecord]) -> None:
    """Deterministic per-airfoil CSV; measured wall time stays out of it."""
    write_csv(path, RECORD_COLUMNS, ([getattr(r, c) for c in RECORD_COLUMNS] for r in records))


def read_records_csv(path: str | Path) -> list[EvalRecord]:
    """Records as `write_records_csv` wrote them, each column cast to its field's type."""
    cast = get_type_hints(EvalRecord)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in RECORD_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise ContractViolation(f"{path}: missing column {column}")
        try:
            return [EvalRecord(**{c: cast[c](row[c]) for c in RECORD_COLUMNS},
                               wall_time_s=float("nan"))
                    for row in reader]
        except (TypeError, ValueError) as exc:  # a short row gives None, a bad number ValueError
            raise ContractViolation(f"{path} line {reader.line_num}: {exc}") from None


def write_summary_json(path: str | Path, summary: EvalSummary, extra: dict | None = None) -> None:
    payload = {"schema_version": RECORD_SCHEMA_VERSION, **asdict(summary)}
    if extra:
        payload.update(extra)
    write_json(path, payload)


_SWEEP_POINT = {
    "sigma": (is_finite_nonnegative, "a finite number >= 0"),
    "delta_mt_mean": (is_finite_nonnegative, "a finite number >= 0"),
    "best_median": (is_number, "a finite number"),
}


def read_sweep_point(path: str | Path) -> dict:
    """One sigma-sweep point, {sigma, delta_mt, best}, from a `write_summary_json` file."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # not text, or not JSON
        raise ContractViolation(f"{path}: not a JSON file: {exc}") from None
    point = checked(payload, _SWEEP_POINT, f"{path}: ")
    return {"sigma": point["sigma"], "delta_mt": point["delta_mt_mean"],
            "best": point["best_median"]}


def compare_report(
    drl_records: list[EvalRecord],
    pso_records: list[EvalRecord],
) -> tuple[list[dict], dict]:
    """Per-airfoil side-by-side bests plus aggregate summaries."""
    if not drl_records or not pso_records:
        raise EmptyEvalError("both record sets must be non-empty")
    pso_by_name = {r.airfoil: r for r in pso_records}
    rows = []
    for drl in sorted(drl_records, key=lambda r: r.airfoil):
        pso = pso_by_name.get(drl.airfoil)
        if pso is None or not (drl.converged and pso.converged):
            continue
        if drl.best_ratio > pso.best_ratio:
            winner = "drl"
        elif pso.best_ratio > drl.best_ratio:
            winner = "pso"
        else:
            winner = "tie"
        rows.append({
            "airfoil": drl.airfoil,
            "initial_ratio": drl.initial_ratio,
            "drl_best": drl.best_ratio,
            "pso_best": pso.best_ratio,
            "winner": winner,
            "drl_cost_s": drl.nominal_solver_cost_s,
            "pso_cost_s": pso.nominal_solver_cost_s,
        })
    if not rows:
        raise EmptyEvalError("no common converged airfoils")
    aggregate = {
        "n_common": len(rows),
        "drl_wins": sum(1 for r in rows if r["winner"] == "drl"),
        "pso_wins": sum(1 for r in rows if r["winner"] == "pso"),
        "ties": sum(1 for r in rows if r["winner"] == "tie"),
        "drl": asdict(summarize(drl_records)),
        "pso": asdict(summarize(pso_records)),
    }
    return rows, aggregate


def write_comparison_csv(path: str | Path, rows: list[dict]) -> None:
    cols = ["airfoil", "initial_ratio", "drl_best", "pso_best", "winner", "drl_cost_s", "pso_cost_s"]
    write_csv(path, cols, ([row[c] for c in cols] for row in rows))


def pareto_front(points: list[dict]) -> list[dict]:
    """Flag non-dominated (delta_mt down, best up) points in a sigma sweep."""
    out = []
    for p in points:
        dominated = any(
            q is not p
            and q["delta_mt"] <= p["delta_mt"]
            and q["best"] >= p["best"]
            and (q["delta_mt"] < p["delta_mt"] or q["best"] > p["best"])
            for q in points
        )
        out.append({**p, "on_front": not dominated})
    return out


def write_pareto_csv(path: str | Path, points: list[dict]) -> None:
    cols = ["sigma", "delta_mt", "best", "on_front"]
    write_csv(path, cols, ([p[c] for c in cols] for p in sorted(points, key=lambda q: q["sigma"])))


def write_pareto_svg(path: str | Path, points: list[dict]) -> None:
    """`pareto_front`'s points as best cl/cd against delta MT, front and dominated apart."""
    groups = {}
    for name, on_front in (("front", True), ("dominated", False)):
        chosen = [p for p in points if p["on_front"] is on_front]
        if chosen:
            groups[name] = ([p["delta_mt"] for p in chosen], [p["best"] for p in chosen])
    write_svg_scatter(path, groups, title="Aerodynamic best vs thickness deviation",
                      xlabel="delta MT (%)", ylabel="best cl/cd")

"""Reinforcement-learning environment over the CST design space.

State is the 18-component design vector. An action is 18 values in
[-1, 1]; each component moves its parameter by a fixed fraction of the
parameter's range, chosen so a full episode can traverse the whole range.
The reward is the step-to-step difference of lambda * kappa * (cl/cd),
where lambda is a Gaussian kernel penalizing maximum-thickness drift.
"""
from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import bundled_airfoil_dir
from .aero import FIDELITIES, CountingSolver, FlowConditions, SolverConfig
from .errors import ConfigValueError, ContractViolation, InvalidParams
from .errors import ResetError
from .geometry import (
    CstParams,
    ParamBounds,
    cst_to_geometry,
    default_bounds,
    fit_cst,
    is_valid,
    max_thickness,
    read_dat,
)

RESET_POOL_NAMES = (
    "naca0006", "naca0009", "naca0012", "naca0015", "naca0018",
    "naca1408", "naca1410", "naca1412", "naca2412", "naca2415",
    "naca4412", "naca4415", "naca4420", "naca6412", "naca6415",
    "naca7421", "naca8409", "naca8412", "naca8415", "naca9421",
)

RESET_MAX_RETRIES = 20  # candidates a reset draws, all up front, from its rng


class StepReason(enum.Enum):
    RUNNING = "running"
    MAX_STEPS = "max_steps"
    SOLVER_FAILURE = "solver_failure"
    INVALID_GEOMETRY = "invalid_geometry"


@dataclass
class EnvConfig:
    bounds: ParamBounds = field(default_factory=default_bounds)
    episode_max_length: int = 100
    sigma: float = 0.0
    fidelity: str = "low"
    reset_pool: tuple[str, ...] = RESET_POOL_NAMES
    rng_seed: int = 0
    flow: FlowConditions = field(default_factory=FlowConditions)
    solver_config: SolverConfig | None = None

    def __post_init__(self):
        if self.episode_max_length <= 0:
            raise ConfigValueError("episode_max_length", "must be positive")
        if self.sigma < 0:
            raise ConfigValueError("sigma", "must be non-negative")
        if not (isinstance(self.fidelity, str) and self.fidelity in FIDELITIES):
            raise ConfigValueError(
                "fidelity", f"must be {' or '.join(map(repr, FIDELITIES))}, not {self.fidelity!r}")

    def config_hash(self) -> str:
        payload = {
            "bounds_lower": self.bounds.lower.tolist(),
            "bounds_upper": self.bounds.upper.tolist(),
            "episode_max_length": self.episode_max_length,
            "sigma": self.sigma,
            "fidelity": self.fidelity,
            "reset_pool": list(self.reset_pool),
            "flow": [self.flow.angle_of_attack_deg, self.flow.reynolds, self.flow.mach],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def alpha_vector(config: EnvConfig) -> np.ndarray:
    """Per-component step size: range / episode_max_length."""
    return config.bounds.span / config.episode_max_length


def thickness_kernel(mt: float, mt0: float, sigma: float) -> float:
    """Gaussian penalty on the thickness ratio; 1 when thickness is preserved."""
    if mt0 <= 0.0:
        raise InvalidParams("reference thickness must be positive")
    return float(np.exp(-sigma * (mt / mt0 - 1.0) ** 2))


def normalize_observation(vec: np.ndarray, bounds: ParamBounds) -> np.ndarray:
    return 2.0 * (vec - bounds.lower) / bounds.span - 1.0


@dataclass
class EnvState:
    params: np.ndarray
    step_index: int
    mt0: float
    prev_term: float
    episode_return: float
    terminated: bool = False


@dataclass(frozen=True)
class StepOutcome:
    observation: np.ndarray
    reward: float
    terminated: bool
    reason: StepReason
    info: dict


@functools.cache
def load_reset_pool(names: tuple[str, ...]) -> MappingProxyType:
    """Fitted design vectors for the named bundled airfoils, fitted once per process.

    The fits depend only on the bundled files, so every env on the same
    names shares one read-only mapping of read-only vectors.
    """
    fits: dict[str, np.ndarray] = {}
    for name in names:
        _, coords = read_dat(bundled_airfoil_dir() / f"{name}.dat")
        params, _ = fit_cst(coords)
        params.vector.flags.writeable = False
        fits[name] = params.vector
    return MappingProxyType(fits)


class AirfoilEnv:
    """Single-owner environment instance; run several in parallel for rollouts."""

    def __init__(self, config: EnvConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.rng_seed)
        self.alpha = alpha_vector(config)
        self.solver = CountingSolver(config.fidelity, config.flow, config.solver_config)
        self._geometry_stations = self.solver.cfg.geometry_stations
        self.state: EnvState | None = None
        self.failure_reason: StepReason | None = None

    @property
    def pool(self) -> MappingProxyType:
        """The reset airfoils' fits; a reset from given parameters never fits them."""
        return load_reset_pool(tuple(self.config.reset_pool))

    def _solve(self, params: np.ndarray):
        """Returns (result, mt) or None when the step must terminate.

        On None, `failure_reason` says why, judged on the geometry that was
        solved rather than on a re-sampled one.
        """
        geom = cst_to_geometry(params, self._geometry_stations)
        ok, _ = is_valid(geom)
        if not ok:
            self.failure_reason = StepReason.INVALID_GEOMETRY
            return None
        result = self.solver(geom)  # the solver refuses no shape that is_valid passes
        if not result.converged:
            self.failure_reason = StepReason.SOLVER_FAILURE
            return None
        return result, max_thickness(geom)

    def reset(self, params: np.ndarray | CstParams | None = None) -> np.ndarray:
        """Start an episode from a pool airfoil (or an explicit design vector)."""
        if params is not None:
            vec = params.vector if isinstance(params, CstParams) else np.asarray(params, float)
            candidates = [vec]
        else:
            pool = self.pool
            if not pool:
                raise ResetError("reset pool is empty")
            names = sorted(pool)
            candidates = [
                pool[names[self.rng.integers(len(names))]]
                for _ in range(RESET_MAX_RETRIES)
            ]
        for vec in candidates:
            vec = self.config.bounds.clamp(vec)
            solved = self._solve(vec)
            if solved is None:
                continue
            result, mt = solved
            term = result.confidence * (result.cl / result.cd)
            self.state = EnvState(
                params=vec.copy(),
                step_index=0,
                mt0=mt,
                prev_term=term,
                episode_return=term,
            )
            return normalize_observation(vec, self.config.bounds)
        raise ResetError("no solvable initial state found")

    def step(self, action: np.ndarray) -> StepOutcome:
        if self.state is None or self.state.terminated:
            raise ContractViolation("step() on a terminated or unreset episode")
        state = self.state
        cfg = self.config

        action = np.asarray(action, dtype=float).clip(-1.0, 1.0)
        new_params = cfg.bounds.clamp(state.params + self.alpha * action)
        state.params = new_params
        state.step_index += 1

        solved = self._solve(new_params)
        obs = normalize_observation(new_params, cfg.bounds)
        if solved is None:
            # Failure zeroes the episode return: reward cancels everything earned.
            reward = -state.prev_term
            state.episode_return += reward
            state.terminated = True
            return StepOutcome(
                obs, reward, True, self.failure_reason, {"episode_return": state.episode_return}
            )

        result, mt = solved
        lam = thickness_kernel(mt, state.mt0, cfg.sigma)
        ratio = result.cl / result.cd
        term = lam * result.confidence * ratio
        reward = term - state.prev_term
        state.prev_term = term
        state.episode_return += reward

        terminated = state.step_index >= cfg.episode_max_length
        state.terminated = terminated
        reason = StepReason.MAX_STEPS if terminated else StepReason.RUNNING
        info = {
            "cl": result.cl,
            "cd": result.cd,
            "ratio": ratio,
            "kappa": result.confidence,
            "lambda": lam,
            "mt": mt,
            "episode_return": state.episode_return,
        }
        return StepOutcome(obs, reward, terminated, reason, info)

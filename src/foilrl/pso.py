"""Global-best particle swarm baseline over the CST design space.

Fitness is cl/cd from the configured solver; an optional hard constraint
keeps the maximum thickness within a tolerance of the seed's value by
rejecting infeasible designs outright. Every particle is priced: the
solver-call count is exactly swarm_size * (iterations + 1).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .aero import CountingSolver, GeometryRejected
from .errors import ConfigValueError, SeedError
from .geometry import CstParams, ParamBounds, cst_to_geometry, default_bounds, max_thickness

INITIAL_SPREAD = 0.25  # fraction of each parameter range around the seed


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 30
    max_iterations: int = 700
    inertia: float = 0.729
    cognitive: float = 1.49
    social: float = 1.49
    velocity_clamp: float = 0.2
    thickness_tolerance: float | None = None  # relative |mt - mt0| / mt0 bound

    def __post_init__(self):
        for name in ("swarm_size", "max_iterations"):
            if getattr(self, name) < 1:
                raise ConfigValueError(name, "must be at least 1")
        if self.inertia <= 0:
            raise ConfigValueError("inertia", "must be positive")
        for name in ("cognitive", "social", "velocity_clamp"):
            if getattr(self, name) < 0:
                raise ConfigValueError(name, "must be non-negative")
        if self.thickness_tolerance is not None and self.thickness_tolerance < 0:
            raise ConfigValueError("thickness_tolerance", "must be non-negative")


@dataclass
class PsoResult:
    best_params: np.ndarray
    best_fitness: float
    trace: list[float] = field(default_factory=list)  # gbest after each iteration
    n_evaluations: int = 0


def pso_maximize(
    fitness: Callable[[np.ndarray], float],
    bounds: ParamBounds,
    seed_vec: np.ndarray,
    config: PsoConfig,
    rng: np.random.Generator,
) -> PsoResult:
    """Plain gbest swarm; positions clamped to the box, velocities clamped
    to a fraction of each range."""
    dim = seed_vec.size
    span = bounds.span
    v_max = config.velocity_clamp * span

    positions = np.empty((config.swarm_size, dim))
    positions[0] = seed_vec
    for i in range(1, config.swarm_size):
        positions[i] = bounds.clamp(
            seed_vec + rng.uniform(-INITIAL_SPREAD, INITIAL_SPREAD, dim) * span
        )
    velocities = rng.uniform(-1.0, 1.0, (config.swarm_size, dim)) * v_max

    n_evals = 0

    def evaluate(pos: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        return fitness(pos)

    pbest_pos = positions.copy()
    pbest_fit = np.array([evaluate(p) for p in positions])
    if not np.isfinite(pbest_fit[0]):
        raise SeedError("seed design could not be evaluated")
    g = int(np.argmax(pbest_fit))
    gbest_pos = pbest_pos[g].copy()
    gbest_fit = float(pbest_fit[g])

    trace = []
    for _ in range(config.max_iterations):
        r1 = rng.random((config.swarm_size, dim))
        r2 = rng.random((config.swarm_size, dim))
        velocities = (
            config.inertia * velocities
            + config.cognitive * r1 * (pbest_pos - positions)
            + config.social * r2 * (gbest_pos - positions)
        )
        velocities = np.clip(velocities, -v_max, v_max)
        positions = bounds.clamp(positions + velocities)
        for i in range(config.swarm_size):
            fit = evaluate(positions[i])
            if fit > pbest_fit[i]:
                pbest_fit[i] = fit
                pbest_pos[i] = positions[i].copy()
                if fit > gbest_fit:
                    gbest_fit = float(fit)
                    gbest_pos = positions[i].copy()
        trace.append(gbest_fit)

    return PsoResult(gbest_pos, gbest_fit, trace, n_evals)


def make_aero_fitness(
    solver: CountingSolver,
    mt0: float | None,
    tolerance: float | None,
    geometry_stations: int = 128,
) -> Callable[[np.ndarray], float]:
    """cl/cd fitness with infeasibility rejection; failures score -inf."""

    def fitness(vec: np.ndarray) -> float:
        geom = cst_to_geometry(vec, geometry_stations)
        try:
            result = solver(geom)
        except GeometryRejected:
            return -np.inf
        if not result.converged:
            return -np.inf
        if tolerance is not None and abs(max_thickness(geom) - mt0) / mt0 > tolerance:
            return -np.inf
        return result.cl / result.cd

    return fitness


def pso_optimize_airfoil(
    seed: CstParams | np.ndarray,
    solver: CountingSolver,
    config: PsoConfig,
    rng: np.random.Generator,
    bounds: ParamBounds | None = None,
) -> PsoResult:
    """Swarm search seeded at a fitted airfoil, optionally thickness-constrained."""
    bounds = bounds or default_bounds()
    vec = seed.vector if isinstance(seed, CstParams) else np.asarray(seed, dtype=float)
    vec = bounds.clamp(vec)
    mt0 = None
    if config.thickness_tolerance is not None:
        mt0 = max_thickness(cst_to_geometry(vec, 200))
    stations = solver.cfg.geometry_stations
    fitness = make_aero_fitness(solver, mt0, config.thickness_tolerance, stations)
    return pso_maximize(fitness, bounds, vec, config, rng)

import numpy as np
import pytest

from foilrl import naca
from foilrl.aero import CountingSolver, high_fidelity_config
from foilrl.errors import SeedError
from foilrl.geometry import cst_to_geometry, default_bounds, fit_cst, is_valid, max_thickness
from foilrl.pso import PsoConfig, pso_maximize, pso_optimize_airfoil

BOUNDS = default_bounds()


def sphere(p: np.ndarray) -> float:
    return -float(np.sum(p * p))


class TestConfig:
    def test_defaults_are_constriction_values(self):
        cfg = PsoConfig()
        assert cfg.swarm_size == 30
        assert cfg.max_iterations == 700
        assert cfg.inertia == 0.729
        assert cfg.cognitive == 1.49
        assert cfg.social == 1.49
        assert cfg.velocity_clamp == 0.2

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            PsoConfig(swarm_size=0)
        with pytest.raises(ValueError):
            PsoConfig(inertia=0.0)
        with pytest.raises(ValueError, match="social"):
            PsoConfig(social=-0.1)
        with pytest.raises(ValueError, match="thickness_tolerance"):
            PsoConfig(thickness_tolerance=-0.01)


class TestSwarmCore:
    def test_sphere_reaches_optimum(self):
        seed = BOUNDS.clamp(np.full(18, 0.6))
        result = pso_maximize(sphere, BOUNDS, seed, PsoConfig(), np.random.default_rng(3))
        assert result.best_fitness > -1e-3

    def test_trace_non_decreasing(self):
        seed = BOUNDS.clamp(np.full(18, 0.6))
        cfg = PsoConfig(swarm_size=10, max_iterations=60)
        result = pso_maximize(sphere, BOUNDS, seed, cfg, np.random.default_rng(1))
        assert np.all(np.diff(result.trace) >= 0)
        assert len(result.trace) == 60

    def test_evaluation_count_exact(self):
        cfg = PsoConfig(swarm_size=7, max_iterations=13)
        seed = BOUNDS.clamp(np.zeros(18))
        result = pso_maximize(sphere, BOUNDS, seed, cfg, np.random.default_rng(0))
        assert result.n_evaluations == 7 * (13 + 1)

    def test_degenerate_swarm_stays_at_seed(self):
        cfg = PsoConfig(swarm_size=1, max_iterations=5, cognitive=0.0, social=0.0,
                        velocity_clamp=0.0)
        seed = BOUNDS.clamp(np.full(18, 0.25))
        result = pso_maximize(sphere, BOUNDS, seed, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(result.best_params, seed)

    def test_best_within_bounds(self):
        cfg = PsoConfig(swarm_size=12, max_iterations=40)
        seed = BOUNDS.clamp(np.zeros(18))
        result = pso_maximize(sphere, BOUNDS, seed, cfg, np.random.default_rng(2))
        best = result.best_params
        assert np.all(best >= BOUNDS.lower) and np.all(best <= BOUNDS.upper)

    def test_unsolvable_seed_raises(self):
        cfg = PsoConfig(swarm_size=3, max_iterations=2)
        with pytest.raises(SeedError):
            pso_maximize(lambda p: -np.inf, BOUNDS, np.zeros(18), cfg, np.random.default_rng(0))


@pytest.fixture(scope="module")
def seed_params():
    params, _ = fit_cst(naca.coordinates("0012", 101), BOUNDS)
    return params


class TestAirfoilWrapper:
    def test_unconstrained_improves_seed(self, seed_params):
        solver = CountingSolver("high", cfg=high_fidelity_config(panel_count=96))
        cfg = PsoConfig(swarm_size=8, max_iterations=10)
        result = pso_optimize_airfoil(seed_params, solver, cfg, np.random.default_rng(4))
        seed_geom = cst_to_geometry(seed_params, 128)
        seed_fit = solver(seed_geom)
        assert result.best_fitness > seed_fit.cl / seed_fit.cd
        assert result.n_evaluations == 8 * (10 + 1)
        assert solver.calls == result.n_evaluations + 1  # the check just above

    def test_constrained_mode_respects_tolerance(self, seed_params):
        solver = CountingSolver("high", cfg=high_fidelity_config(panel_count=96))
        cfg = PsoConfig(swarm_size=10, max_iterations=12, thickness_tolerance=0.01)
        result = pso_optimize_airfoil(seed_params, solver, cfg, np.random.default_rng(5))
        mt0 = max_thickness(cst_to_geometry(seed_params, 200))
        mt = max_thickness(cst_to_geometry(result.best_params, 200))
        assert abs(mt - mt0) / mt0 <= 0.01 + 1e-9


class TestSurrogateSwarm:
    @pytest.mark.parametrize("code", ["0012", "2412", "4415"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_best_is_a_valid_shape(self, code, seed):
        params, _ = fit_cst(naca.coordinates(code, 101), BOUNDS)
        solver = CountingSolver("low")
        cfg = PsoConfig(swarm_size=12, max_iterations=30)
        result = pso_optimize_airfoil(params, solver, cfg, np.random.default_rng(seed))
        geom = cst_to_geometry(result.best_params, solver.cfg.geometry_stations)
        assert is_valid(geom) == (True, "ok")
        assert solver.calls == result.n_evaluations

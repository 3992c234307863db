import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foilrl import geometry
from foilrl.aero import high_fidelity_config
from foilrl.env import (
    AirfoilEnv,
    EnvConfig,
    RESET_POOL_NAMES,
    StepReason,
    alpha_vector,
    denormalize_observation,
    normalize_observation,
    thickness_kernel,
)
from foilrl.errors import ContractViolation, InvalidParams, ResetError
from foilrl.geometry import cst_to_geometry, default_bounds, is_valid


def make_env(seed=0, **kw) -> AirfoilEnv:
    return AirfoilEnv(EnvConfig(rng_seed=seed, **kw))


class TestAlphaVector:
    def test_values_from_bounds_table(self):
        alpha = alpha_vector(EnvConfig())
        assert alpha[0] == pytest.approx(0.0275)
        assert alpha[8] == pytest.approx(0.0225)
        assert alpha[16] == pytest.approx(9.5e-5)
        assert alpha[17] == pytest.approx(0.825 / 100)

    def test_halves_when_length_doubles(self):
        a100 = alpha_vector(EnvConfig(episode_max_length=100))
        a200 = alpha_vector(EnvConfig(episode_max_length=200))
        np.testing.assert_allclose(a200, a100 / 2.0, rtol=1e-15)


class TestThicknessKernel:
    def test_identity_at_reference(self):
        for sigma in (0.0, 1.0, 15.0, 1000.0):
            assert thickness_kernel(0.12, 0.12, sigma) == 1.0

    def test_direct_evaluation(self):
        assert thickness_kernel(0.9, 1.0, 15.0) == pytest.approx(np.exp(-0.15))

    def test_sigma_zero_is_always_one(self):
        for mt in (0.01, 0.12, 0.5):
            assert thickness_kernel(mt, 0.12, 0.0) == 1.0

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(InvalidParams):
            thickness_kernel(0.1, 0.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.01, 0.5),
        st.floats(0.01, 0.5),
        st.floats(0.001, 1000.0),
    )
    def test_bounded_and_peaked_at_reference(self, mt, mt0, sigma):
        lam = thickness_kernel(mt, mt0, sigma)
        # mathematically (0, 1]; extreme ratios may underflow to 0.0
        assert 0.0 <= lam <= 1.0

    def test_strictly_decreasing_in_deviation(self):
        devs = [0.0, 0.05, 0.1, 0.2, 0.4]
        lams = [thickness_kernel(1.0 + d, 1.0, 15.0) for d in devs]
        assert np.all(np.diff(lams) < 0)


class TestReset:
    def test_singleton_pool_is_deterministic(self):
        env = make_env(seed=1, reset_pool=("naca0012",))
        obs1 = env.reset()
        obs2 = env.reset()
        np.testing.assert_array_equal(obs1, obs2)
        np.testing.assert_allclose(
            denormalize_observation(obs1, env.config.bounds), env.pool["naca0012"]
        )

    def test_pool_is_fitted_once_and_only_when_drawn(self, monkeypatch):
        import foilrl.env
        from foilrl import bundled_airfoil_dir

        _, coords = geometry.read_dat(bundled_airfoil_dir() / "naca4415.dat")
        start, _ = geometry.fit_cst(coords)
        calls = []
        fit = foilrl.env.fit_cst
        monkeypatch.setattr(foilrl.env, "fit_cst", lambda coords: calls.append(1) or fit(coords))
        foilrl.env.load_reset_pool.cache_clear()
        pool = ("naca2412", "naca0012")
        first = make_env(seed=1, reset_pool=pool)
        first.reset(start)
        assert calls == []  # a reset from given parameters fits no pool airfoil
        first.reset()
        assert len(calls) == len(pool)
        calls.clear()
        second = make_env(seed=2, reset_pool=pool)
        second.reset()
        assert calls == []
        assert second.pool is first.pool
        with pytest.raises(ValueError):
            second.pool["naca0012"][0] = 0.0

    def test_empty_pool_raises(self):
        with pytest.raises(ResetError):
            make_env(reset_pool=()).reset()

    def test_initial_term_and_mt_frozen(self):
        env = make_env(seed=2)
        env.reset()
        assert env.state.mt0 > 0
        assert env.state.prev_term == env.state.episode_return
        assert env.state.step_index == 0

    def test_pool_sampling_uniform(self):
        env = make_env(seed=3)
        names = sorted(env.pool)
        ref = {n: env.pool[n][0] for n in names}
        counts = dict.fromkeys(names, 0)
        n_draws = 4000
        rng = env.rng
        for _ in range(n_draws):
            # Draw through the same path reset() uses.
            counts[names[rng.integers(len(names))]] += 1
        p = 1.0 / len(names)
        sd = np.sqrt(n_draws * p * (1 - p))
        for name in names:
            assert abs(counts[name] - n_draws * p) < 4.0 * sd, name
        chi2 = sum((c - n_draws * p) ** 2 / (n_draws * p) for c in counts.values())
        # 19 dof; 99.9th percentile is about 43.8
        assert chi2 < 43.8


class TestStep:
    def test_zero_action_zero_reward(self):
        env = make_env(seed=4)
        env.reset()
        outcome = env.step(np.zeros(18))
        assert outcome.reward == 0.0
        assert not outcome.terminated
        assert outcome.reason is StepReason.RUNNING

    def test_action_clamped_at_bounds(self):
        env = make_env(seed=5)
        env.reset()
        env.state.params[0] = env.config.bounds.upper[0]
        before = env.state.params[0]
        action = np.zeros(18)
        action[0] = 1.0
        env.step(action)
        assert env.state.params[0] == before

    def test_oversized_actions_are_clamped(self):
        env = make_env(seed=6)
        obs0 = env.reset()
        start = env.state.params.copy()
        action = np.full(18, 5.0)
        env.step(action)
        moved = env.state.params - start
        np.testing.assert_allclose(
            moved[np.abs(moved) > 0], alpha_vector(env.config)[np.abs(moved) > 0], rtol=1e-12
        )

    def test_state_stays_in_bounds(self):
        env = make_env(seed=7)
        env.reset()
        rng = np.random.default_rng(0)
        for _ in range(50):
            outcome = env.step(rng.uniform(-1, 1, 18))
            assert env.config.bounds.contains(env.state.params)
            if outcome.terminated:
                env.reset()

    def test_sigma_zero_reward_is_pure_ratio_difference(self):
        env = make_env(seed=8, sigma=0.0, fidelity="high")
        env.reset()
        prev = env.state.prev_term
        outcome = env.step(np.full(18, 0.05))
        # high fidelity: kappa = 1 and sigma = 0 make the reward a plain
        # cl/cd difference
        assert outcome.reward == pytest.approx(outcome.info["ratio"] - prev, abs=1e-12)
        assert outcome.info["lambda"] == 1.0
        assert outcome.info["kappa"] == 1.0

    def test_step_after_termination_is_contract_violation(self):
        env = make_env(seed=9, episode_max_length=1)
        env.reset()
        outcome = env.step(np.zeros(18))
        assert outcome.terminated
        assert outcome.reason is StepReason.MAX_STEPS
        with pytest.raises(ContractViolation):
            env.step(np.zeros(18))

    def test_episode_length_bounded(self):
        env = make_env(seed=10, episode_max_length=15)
        env.reset()
        rng = np.random.default_rng(1)
        steps = 0
        while True:
            outcome = env.step(rng.uniform(-0.1, 0.1, 18))
            steps += 1
            if outcome.terminated:
                break
        assert steps <= 15
        if outcome.reason is StepReason.MAX_STEPS:
            assert steps == 15

    def test_failure_zeroes_episode_return(self):
        # striding hard towards crossing surfaces forces invalid geometry
        env = make_env(seed=11)
        env.reset()
        action = np.zeros(18)
        action[:8] = -1.0
        action[8:16] = 1.0
        while True:
            outcome = env.step(action)
            if outcome.terminated:
                break
        assert outcome.reason in (StepReason.INVALID_GEOMETRY, StepReason.SOLVER_FAILURE)
        assert outcome.info["episode_return"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("fidelity", ["low", "high"])
    def test_step_computes_thickness_once(self, fidelity, monkeypatch):
        solver_config = high_fidelity_config(panel_count=96) if fidelity == "high" else None
        env = make_env(fidelity=fidelity, solver_config=solver_config)
        env.reset()
        calls = []
        peak = geometry._peak_thickness
        monkeypatch.setattr(geometry, "_peak_thickness", lambda g: calls.append(g) or peak(g))
        outcome = env.step(np.zeros(18))
        assert outcome.reason is StepReason.RUNNING
        assert len(calls) == 1

    def test_invalid_geometry_judged_at_solved_station_count(self):
        # This step lands on a shape whose surfaces cross at the env's 128
        # stations but not at 64: the reason must come from the solved grid.
        start = [0.4648, 0.8547, 0.7795, -0.9971, -0.967, -0.7539, 0.9734, 0.9869, -0.0998,
                 -0.323, 0.1003, -0.6879, -0.2787, -0.75, -0.75, -0.514, 0.0005, -0.05]
        action = np.array([0.7, 0.18, 1.0, -1.0, -1.0, -0.65, 1.0, 0.64, 0.11,
                           -0.23, 0.24, -0.8, 0.21, -0.53, -0.71, -0.74, -0.88, -1.0])
        env = make_env(reset_pool=())
        env.reset(np.array(start))
        landed = env.config.bounds.clamp(env.state.params + env.alpha * action)
        assert env._geometry_stations == 128
        assert is_valid(cst_to_geometry(landed, 128)) == (False, "crossing")
        assert is_valid(cst_to_geometry(landed, 64))[0]
        outcome = env.step(action)
        assert outcome.terminated
        assert outcome.reason is StepReason.INVALID_GEOMETRY


class TestTelescoping:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_episode_return_equals_final_term(self, seed):
        rng = np.random.default_rng(seed)
        env = make_env(seed=seed % 7, sigma=float(rng.uniform(0, 30)))
        env.reset()
        total = env.state.episode_return  # includes the initial term
        while True:
            outcome = env.step(rng.uniform(-1, 1, 18))
            total += outcome.reward
            if outcome.terminated:
                break
        if outcome.reason is StepReason.MAX_STEPS:
            final_term = (
                outcome.info["lambda"] * outcome.info["kappa"] * outcome.info["ratio"]
            )
            assert total == pytest.approx(final_term, abs=1e-9)
        else:
            assert total == pytest.approx(0.0, abs=1e-9)
        assert total == pytest.approx(env.state.episode_return, abs=1e-9)


class TestObservations:
    def test_normalization_roundtrip(self):
        bounds = default_bounds()
        rng = np.random.default_rng(2)
        vec = bounds.lower + rng.random(18) * bounds.span
        obs = normalize_observation(vec, bounds)
        assert np.all(obs >= -1.0) and np.all(obs <= 1.0)
        np.testing.assert_allclose(denormalize_observation(obs, bounds), vec, rtol=1e-12)


class TestFitCache:
    def test_pool_names_are_the_20_reset_airfoils(self):
        assert len(RESET_POOL_NAMES) == 20
        assert RESET_POOL_NAMES[0] == "naca0006"
        assert "naca9421" in RESET_POOL_NAMES

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foilrl import cores
import foilrl.ppo as ppo_module
from foilrl.env import AirfoilEnv, EnvConfig
from foilrl.errors import TrainingDiverged
from foilrl.nets import (
    AdamState,
    FreezeMask,
    forward_cached,
    backward,
    gaussian_log_prob,
    load_checkpoint,
    mlp_init,
    policy_init,
)
from foilrl.ppo import (
    PRESETS,
    PpoConfig,
    RolloutBuffer,
    UPDATE_STATS,
    build_agent,
    collect_rollout,
    compute_gae,
    gae_reference,
    ppo_update,
    preset,
    train,
    trained_timesteps,
)


def make_buffer(rewards, values, dones, bootstrap):
    T = len(rewards)
    return RolloutBuffer(
        obs=np.zeros((T, 1, 2)),
        actions=np.zeros((T, 1, 2)),
        log_probs=np.zeros((T, 1)),
        rewards=np.asarray(rewards, float)[:, None],
        values=np.asarray(values, float)[:, None],
        dones=np.asarray(dones, float)[:, None],
        bootstrap_value=np.array([bootstrap], float),
    )


class TestPresets:
    def test_three_columns(self):
        scratch = PRESETS["from-scratch"]
        assert (scratch.n_steps, scratch.n_epochs, scratch.clip_range, scratch.entropy_coef) == (
            2048, 20, 0.3, 0.001,
        )
        pre = PRESETS["pretrain"]
        assert (pre.n_steps, pre.n_epochs, pre.clip_range, pre.entropy_coef) == (
            2048, 10, 0.6, 0.0,
        )
        assert pre.total_timesteps == 26312
        fine = PRESETS["finetune"]
        assert (fine.n_steps, fine.n_epochs, fine.clip_range, fine.entropy_coef) == (
            512, 20, 0.2, 0.005,
        )
        assert fine.total_timesteps == 10240
        for cfg in PRESETS.values():
            assert cfg.learning_rate == 2.5e-4
            assert cfg.batch_size == 64
            assert cfg.gamma == 0.3

    def test_shared_defaults(self):
        cfg = PpoConfig()
        assert cfg.gae_lambda == 0.95
        assert cfg.value_coef == 0.5
        assert cfg.max_grad_norm == 0.5

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PpoConfig(gamma=0.0)
        with pytest.raises(ValueError):
            PpoConfig(clip_range=0.0)
        with pytest.raises(ValueError):
            PpoConfig(n_steps=100, batch_size=64)
        with pytest.raises(ValueError, match="total_timesteps"):
            PpoConfig(total_timesteps=-1)


class TestGae:
    def test_undiscounted_return_to_go(self):
        rewards = [1.0, 2.0, 3.0, 4.0]
        buf = make_buffer(rewards, [0, 0, 0, 0], [0, 0, 0, 1], 99.0)
        adv, ret = compute_gae(buf, gamma=1.0, gae_lambda=1.0)
        np.testing.assert_allclose(adv[:, 0], [10.0, 9.0, 7.0, 4.0])
        np.testing.assert_allclose(ret, adv + buf.values)

    def test_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal(6)
        values = rng.standard_normal(6)
        buf = make_buffer(rewards, values, np.zeros(6), 0.5)
        adv, _ = compute_gae(buf, gamma=0.9, gae_lambda=0.0)
        values_next = np.append(values[1:], 0.5)
        expect = rewards + 0.9 * values_next - values
        np.testing.assert_allclose(adv[:, 0], expect, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 20))
    def test_matches_brute_force(self, seed, T):
        rng = np.random.default_rng(seed)
        rewards = rng.standard_normal(T)
        values = rng.standard_normal(T)
        dones = (rng.random(T) < 0.3).astype(float)
        bootstrap = rng.standard_normal()
        gamma = float(rng.uniform(0.1, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        buf = make_buffer(rewards, values, dones, bootstrap)
        adv, _ = compute_gae(buf, gamma, lam)
        expect = gae_reference(rewards, values, dones.astype(bool), bootstrap, gamma, lam)
        np.testing.assert_allclose(adv[:, 0], expect, atol=1e-12)


def tiny_agent(seed=0):
    rng = np.random.default_rng(seed)
    actor = policy_init([18, 16, 16, 18], rng)
    critic = mlp_init([18, 16, 16, 1], rng)
    return actor, critic


def synthetic_buffer(actor, critic, n=128, seed=1):
    """A consistent buffer built by querying the actual policy."""
    rng = np.random.default_rng(seed)
    obs = rng.uniform(-1, 1, (n, 1, 18))
    means, _ = forward_cached(actor.net, obs[:, 0, :])
    noise = rng.standard_normal(means.shape)
    actions = means + np.exp(actor.log_std) * noise
    logp = gaussian_log_prob(means, actor.log_std, actions)
    values, _ = forward_cached(critic, obs[:, 0, :])
    buf = RolloutBuffer(
        obs=obs,
        actions=actions[:, None, :],
        log_probs=logp[:, None],
        rewards=rng.standard_normal((n, 1)),
        values=values[:, :1],
        dones=np.zeros((n, 1)),
        bootstrap_value=np.zeros(1),
    )
    return buf


class TestPpoUpdate:
    def test_ratio_is_one_on_first_pass(self):
        actor, critic = tiny_agent()
        buf = synthetic_buffer(actor, critic)
        compute_gae(buf, 0.3, 0.95)
        obs = buf.flat(buf.obs)
        actions = buf.flat(buf.actions)
        means, _ = forward_cached(actor.net, obs)
        logp_new = gaussian_log_prob(means, actor.log_std, actions)
        ratio = np.exp(logp_new - buf.flat(buf.log_probs))
        np.testing.assert_allclose(ratio, 1.0, atol=1e-6)

    def test_clip_saturation_gives_zero_gradient_share(self):
        # advantage > 0 and ratio beyond 1 + 2*clip -> clipped branch wins,
        # whose derivative in the ratio is zero
        clip = 0.2
        ratio = 1.0 + 2 * clip
        adv = 1.5
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1 - clip, 1 + clip) * adv
        assert clipped < unclipped  # min selects the clipped branch
        # the update implements gradient only where unclipped <= clipped
        assert not (unclipped <= clipped)

    def test_entropy_closed_form_in_stats(self):
        actor, critic = tiny_agent()
        adam = AdamState.for_tensors(actor.tensors() + critic.tensors())
        buf = synthetic_buffer(actor, critic)
        expect = np.sum(actor.log_std.clip(-5, 2)) + 18 * 0.5 * np.log(2 * np.pi * np.e)
        cfg = PpoConfig(total_timesteps=128, n_steps=128, batch_size=128, n_epochs=1)
        stats = ppo_update(actor, critic, adam, buf, cfg, np.random.default_rng(0))
        assert stats["entropy"] == pytest.approx(expect, rel=1e-10)

    def test_matches_vanilla_policy_gradient_direction(self):
        # entropy off, clip huge, single epoch and full batch: the update's
        # gradient must equal the plain policy-gradient estimator
        actor, critic = tiny_agent(3)
        buf = synthetic_buffer(actor, critic, n=64, seed=5)
        compute_gae(buf, 0.3, 0.95)
        obs = buf.flat(buf.obs)
        actions = buf.flat(buf.actions)
        adv = buf.flat(buf.advantages)
        adv_n = (adv - adv.mean()) / (adv.std() + 1e-8)

        # reference: d/dtheta of -mean(A * logpi) computed with backward()
        means, cache = forward_cached(actor.net, obs)
        std = np.exp(actor.log_std)
        z = (actions - means) / std
        g_logp = -adv_n / obs.shape[0]
        g_means = g_logp[:, None] * z / std
        ref_grads, _ = backward(actor.net, cache, g_means)

        # one update step with adam replaced by gradient capture
        captured = {}
        import foilrl.ppo as ppo_mod

        original = ppo_mod.adam_step

        def capture(tensors, grads, state, lr, frozen=None, **kw):
            captured["grads"] = [g.copy() for g in grads]

        ppo_mod.adam_step = capture
        try:
            cfg = PpoConfig(
                total_timesteps=64, n_steps=64, batch_size=64, n_epochs=1,
                clip_range=1e9, entropy_coef=0.0, max_grad_norm=1e18,
            )
            adam = AdamState.for_tensors(actor.tensors() + critic.tensors())
            ppo_update(actor, critic, adam, buf, cfg, np.random.default_rng(0))
        finally:
            ppo_mod.adam_step = original

        for ref, got in zip(ref_grads, captured["grads"]):
            np.testing.assert_allclose(got, ref, atol=1e-8)


class TestFrozenActorHead:
    """A FreezeMask that freezes the actor's last layer also freezes its log-std."""

    MASK = FreezeMask((False, False, True), (False, False, False))

    @staticmethod
    def _update(max_grad_norm=0.5):
        actor, critic = tiny_agent(2)
        buf = synthetic_buffer(actor, critic, n=64, seed=6)
        cfg = PpoConfig(total_timesteps=64, n_steps=64, batch_size=64, n_epochs=1,
                        max_grad_norm=max_grad_norm)
        adam = AdamState.for_tensors(actor.tensors() + critic.tensors())
        before = [t.copy() for t in actor.tensors()]
        ppo_update(actor, critic, adam, buf, cfg, np.random.default_rng(0),
                   TestFrozenActorHead.MASK)
        return before, actor.tensors()

    def test_log_std_and_head_unchanged(self):
        before, after = self._update()
        for k in (4, 5, 6):  # w2, b2, log_std
            np.testing.assert_array_equal(after[k], before[k])
        assert not np.array_equal(after[0], before[0])

    def test_log_std_gradient_stays_out_of_the_clip_norm(self, monkeypatch):
        captured = []
        monkeypatch.setattr(ppo_module, "adam_step",
                            lambda tensors, grads, *args, **kw: captured.append(
                                [g.copy() for g in grads]))
        self._update(max_grad_norm=1e18)
        self._update(max_grad_norm=1e-3)
        free, clipped = captured
        assert not free[6].any()
        norm = np.sqrt(sum(float((g**2).sum()) for g in free))
        for f, c in zip(free, clipped):
            np.testing.assert_allclose(c, f * (1e-3 / norm), rtol=1e-12, atol=0.0)


class TestTwoThreadUpdate:
    """The update on two threads gives the bits of the one-thread fallback and leaves no trace."""

    CONFIG = PpoConfig(total_timesteps=256, n_steps=256, batch_size=64, n_epochs=2)

    @staticmethod
    def _run(freeze):
        actor, critic = build_agent(np.random.default_rng(8))
        adam = AdamState.for_tensors(actor.tensors() + critic.tensors())
        buf = synthetic_buffer(actor, critic, n=256, seed=9)
        stats = ppo_update(actor, critic, adam, buf, TestTwoThreadUpdate.CONFIG,
                           np.random.default_rng(10), freeze)
        return actor.tensors() + critic.tensors(), adam, stats

    @pytest.mark.parametrize("freeze", [
        None, FreezeMask((True, True, False), (True, True, False)),  # strategy 3
    ])
    def test_same_bits_as_one_thread(self, freeze, monkeypatch):
        assert cores._blas_thread_control() is not None  # the two-thread path runs
        tensors2, adam2, stats2 = self._run(freeze)
        monkeypatch.setattr(cores, "_blas_thread_control", lambda: None)
        tensors1, adam1, stats1 = self._run(freeze)
        assert list(stats2) == list(UPDATE_STATS) and stats2 == stats1
        assert adam2.t == adam1.t
        for a, b in zip(tensors2 + adam2.m + adam2.v, tensors1 + adam1.m + adam1.v):
            np.testing.assert_array_equal(a, b)

    @pytest.fixture
    def threads(self):
        """A function that reads (Python threads, BLAS threads), with BLAS set to 2 meanwhile."""
        get, set_ = cores._blas_thread_control()
        original = get()
        set_(2)  # not the 1 the update holds BLAS to
        yield lambda: (threading.active_count(), get())
        set_(original)

    def test_threads_restored_after_return(self, threads):
        before = threads()
        self._run(None)
        assert threads() == before

    def test_threads_restored_after_divergence(self, threads):
        actor, critic = tiny_agent()
        adam = AdamState.for_tensors(actor.tensors() + critic.tensors())
        buf = synthetic_buffer(actor, critic)
        buf.rewards[5] = np.nan
        cfg = PpoConfig(total_timesteps=128, n_steps=128, batch_size=64, n_epochs=1)
        before = threads()
        with pytest.raises(TrainingDiverged):
            ppo_update(actor, critic, adam, buf, cfg, np.random.default_rng(0))
        assert threads() == before


class TestRollout:
    def test_buffer_length_contract(self):
        env = AirfoilEnv(EnvConfig(rng_seed=0))
        actor, critic = tiny_agent()
        buf = collect_rollout([env], actor, critic, 96, np.random.default_rng(0), 0.3)
        assert buf.n_steps == 96
        assert buf.n_envs == 1

    def test_deterministic_given_seed(self):
        def run():
            env = AirfoilEnv(EnvConfig(rng_seed=5), np.random.default_rng(42))
            actor, critic = tiny_agent(7)
            actor.log_std[:] = -5.0
            return collect_rollout([env], actor, critic, 64, np.random.default_rng(9), 0.3)

        a, b = run(), run()
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.rewards, b.rewards)

    def test_zero_policy_gives_zero_rewards(self):
        env = AirfoilEnv(EnvConfig(rng_seed=1, sigma=0.0), np.random.default_rng(0))
        actor, critic = tiny_agent()
        for w in actor.net.weights:
            w[:] = 0.0
        for b in actor.net.biases:
            b[:] = 0.0
        actor.log_std[:] = -60.0  # clamped to -5; std ~ 6.7e-3, clipped moves are ~0
        buf = collect_rollout([env], actor, critic, 32, np.random.default_rng(0), 0.3)
        # zero mean actions leave the design nearly unchanged; rewards stay tiny
        assert np.abs(buf.rewards).max() < 1.0


class TestTrain:
    def test_single_update_arithmetic(self):
        cfg = EnvConfig(sigma=0.0, fidelity="low", rng_seed=0)
        pcfg = preset("pretrain", total_timesteps=2048)
        result = train(cfg, pcfg, seed=3)
        assert result.checkpoint.train_steps == 2048
        assert len(result.log_rows) == 1

    def test_same_seed_identical_logs(self):
        cfg = EnvConfig(sigma=0.0, fidelity="low", rng_seed=0)
        pcfg = preset("pretrain", total_timesteps=2048, n_steps=1024, n_epochs=2)
        r1 = train(cfg, pcfg, seed=11)
        r2 = train(cfg, pcfg, seed=11)
        assert r1.log_rows == r2.log_rows
        assert r1.solver_calls == r2.solver_calls

    def test_parallel_environments(self):
        cfg = EnvConfig(sigma=0.0, fidelity="low", rng_seed=0)
        pcfg = preset("pretrain", total_timesteps=1024, n_steps=256, n_epochs=2, n_envs=2)
        result = train(cfg, pcfg, seed=4)
        # two envs advance 256 steps per update: 2 updates to cover 1024
        assert result.checkpoint.train_steps == 1024
        assert len(result.log_rows) == 2
        assert result.solver_calls > 1024  # resets included

    @pytest.mark.parametrize("total, n_envs, expected", [
        (64, 1, 512), (512, 1, 512), (513, 1, 1024), (600, 2, 1024), (0, 1, 0),
    ])
    def test_budget_rounds_up_to_whole_rollouts(self, total, n_envs, expected):
        pcfg = preset("finetune", total_timesteps=total, n_envs=n_envs)
        assert trained_timesteps(pcfg) == expected

    def test_trains_the_rounded_budget(self):
        cfg = EnvConfig(sigma=0.0, fidelity="low", rng_seed=0)
        pcfg = preset("pretrain", total_timesteps=300, n_steps=256, n_epochs=1)
        result = train(cfg, pcfg, seed=4)
        assert result.checkpoint.train_steps == trained_timesteps(pcfg) == 512

    def test_checkpoint_metadata(self, tmp_path):
        cfg = EnvConfig(sigma=2.5, fidelity="low", rng_seed=0)
        pcfg = preset("pretrain", total_timesteps=1024, n_steps=512, n_epochs=2)
        result = train(cfg, pcfg, seed=0, checkpoint_path=tmp_path / "a.ckpt")
        assert result.checkpoint.sigma == 2.5
        assert result.checkpoint.fidelity == "low"
        assert result.checkpoint.train_steps == 1024
        assert result.checkpoint.actor.net.sizes == [18, 256, 256, 18]
        assert result.checkpoint.critic.sizes == [18, 256, 256, 1]
        assert (tmp_path / "a.ckpt").exists()

    def test_divergence_saves_a_checkpoint_and_reraises(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingDiverged("non-finite loss")

        monkeypatch.setattr(ppo_module, "ppo_update", diverge)
        cfg = EnvConfig(sigma=0.0, fidelity="low", rng_seed=0)
        pcfg = preset("pretrain", total_timesteps=256, n_steps=256, n_epochs=1)
        path = tmp_path / "diverged.ckpt"
        with pytest.raises(TrainingDiverged):
            train(cfg, pcfg, seed=0, checkpoint_path=path)
        loaded = load_checkpoint(path)  # reads the current format only
        assert loaded.meta == {"diverged": True}
        assert loaded.train_steps == 0

    def test_learning_happens_and_small_gamma_learns_faster(self):
        # directional check: the short-horizon discount reaches a fixed
        # reward level in fewer steps than the long-horizon default
        cfg = EnvConfig(sigma=0.0, fidelity="low", rng_seed=0)
        curves = {}
        for gamma in (0.3, 0.99):
            pcfg = preset("pretrain", total_timesteps=20480, gamma=gamma)
            result = train(cfg, pcfg, seed=13)
            curves[gamma] = [
                r["mean_episode_reward"] for r in result.log_rows
                if np.isfinite(r["mean_episode_reward"])
            ]
        threshold = 0.75 * max(curves[0.99])

        def steps_to_reach(curve):
            for k, v in enumerate(curve):
                if v >= threshold:
                    return k
            return len(curve) + 1

        assert steps_to_reach(curves[0.3]) <= steps_to_reach(curves[0.99])
        # the final quarter of the fast-discount run beats its first quarter
        q = max(len(curves[0.3]) // 4, 1)
        assert np.mean(curves[0.3][-q:]) > np.mean(curves[0.3][:q])

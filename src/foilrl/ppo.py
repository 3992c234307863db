"""Clipped-surrogate policy optimization over the airfoil environment.

Rollout collection, generalized advantage estimation, and minibatch
updates with hand-written gradients through the actor and critic MLPs.
Episode ends at the step limit bootstrap the value function; solver
failures do not.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cores import both_cores
from .env import AirfoilEnv, EnvConfig, StepReason, normalize_observation
from .errors import ConfigValueError, ShapeError, TrainingDiverged
from .geometry import N_PARAMS
from .nets import (
    AdamState,
    AgentCheckpoint,
    FreezeMask,
    LOG_STD_MAX,
    LOG_STD_MIN,
    Mlp,
    Policy,
    adam_step,
    backward,
    forward_cached,
    gaussian_entropy,
    gaussian_log_prob,
    gaussian_sample,
    mlp_init,
    policy_init,
    save_checkpoint,
)
from .outputs import write_csv

HIDDEN_SIZES = [256, 256]

# The per-update means that `ppo_update` returns, in the order it sums them.
UPDATE_STATS = ("policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl")

LOG_COLUMNS = ["update", "timesteps", "mean_episode_reward", *UPDATE_STATS]


@dataclass(frozen=True)
class PpoConfig:
    total_timesteps: int = 81920
    learning_rate: float = 2.5e-4
    n_steps: int = 2048
    batch_size: int = 64
    n_epochs: int = 20
    gamma: float = 0.3
    gae_lambda: float = 0.95
    clip_range: float = 0.3
    entropy_coef: float = 0.001
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    n_envs: int = 1

    def __post_init__(self):
        for name in ("n_steps", "batch_size", "n_epochs", "n_envs"):
            if getattr(self, name) < 1:
                raise ConfigValueError(name, "must be at least 1")
        if self.total_timesteps < 0:
            raise ConfigValueError("total_timesteps", "must be non-negative")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigValueError("gamma", "must be in (0, 1]")
        if self.clip_range <= 0.0:
            raise ConfigValueError("clip_range", "must be positive")
        if (self.n_steps * self.n_envs) % self.batch_size != 0:
            raise ConfigValueError("batch_size", "must divide n_steps * n_envs")


# The three training columns: from-scratch high fidelity, low-fidelity
# pretraining, and the fine-tuning phase (extra entropy for exploration).
PRESETS: dict[str, PpoConfig] = {
    "from-scratch": PpoConfig(),  # the defaults
    "pretrain": PpoConfig(
        total_timesteps=26312, n_steps=2048, n_epochs=10, clip_range=0.6, entropy_coef=0.0
    ),
    "finetune": PpoConfig(
        total_timesteps=10240, n_steps=512, n_epochs=20, clip_range=0.2, entropy_coef=0.005
    ),
}


def preset(name: str, **overrides) -> PpoConfig:
    return replace(PRESETS[name], **overrides)


def trained_timesteps(config: PpoConfig) -> int:
    """The steps `train` runs: `total_timesteps` rounded up to whole rollouts (n_steps x n_envs)."""
    rollout = config.n_steps * config.n_envs
    return -(-config.total_timesteps // rollout) * rollout


@dataclass
class RolloutBuffer:
    obs: np.ndarray          # (T, E, obs_dim)
    actions: np.ndarray      # (T, E, act_dim)
    log_probs: np.ndarray    # (T, E)
    rewards: np.ndarray      # (T, E), truncation bootstrap already folded in
    values: np.ndarray       # (T, E)
    dones: np.ndarray        # (T, E) episode boundary after this step
    bootstrap_value: np.ndarray  # (E,) value of the state after the last step
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None
    episode_returns: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return self.obs.shape[0]

    @property
    def n_envs(self) -> int:
        return self.obs.shape[1]

    def flat(self, arr: np.ndarray) -> np.ndarray:
        return arr.reshape(arr.shape[0] * arr.shape[1], *arr.shape[2:])


def _value(critic: Mlp, obs: np.ndarray) -> np.ndarray:
    out, _ = forward_cached(critic, obs)
    return out[:, 0]


def collect_rollout(
    envs: list[AirfoilEnv],
    actor: Policy,
    critic: Mlp,
    n_steps: int,
    rng: np.random.Generator,
    gamma: float,
) -> RolloutBuffer:
    """Advance every environment n_steps, resetting finished episodes inline."""
    n_envs = len(envs)
    obs_dim = envs[0].config.bounds.lower.size
    act_dim = obs_dim

    current = np.empty((n_envs, obs_dim))
    for e, env in enumerate(envs):
        if env.state is None or env.state.terminated:
            current[e] = env.reset()
        else:
            current[e] = normalize_observation(env.state.params, env.config.bounds)

    obs = np.empty((n_steps, n_envs, obs_dim))
    actions = np.empty((n_steps, n_envs, act_dim))
    log_probs = np.empty((n_steps, n_envs))
    rewards = np.empty((n_steps, n_envs))
    values = np.empty((n_steps, n_envs))
    dones = np.zeros((n_steps, n_envs))
    episode_returns: list[float] = []

    for t in range(n_steps):
        means = actor.mean(current)
        vals = _value(critic, current)
        for e, env in enumerate(envs):
            action, logp = gaussian_sample(means[e], actor.log_std, rng)
            outcome = env.step(action)
            obs[t, e] = current[e]
            actions[t, e] = action
            log_probs[t, e] = logp
            values[t, e] = vals[e]
            reward = outcome.reward
            if outcome.terminated:
                dones[t, e] = 1.0
                episode_returns.append(outcome.info["episode_return"])
                if outcome.reason is StepReason.MAX_STEPS:
                    # Truncation: the episode would have continued.
                    tail = _value(critic, outcome.observation[None, :])[0]
                    reward += gamma * tail
                current[e] = env.reset()
            else:
                current[e] = outcome.observation
            rewards[t, e] = reward

    bootstrap = _value(critic, current)
    return RolloutBuffer(
        obs=obs,
        actions=actions,
        log_probs=log_probs,
        rewards=rewards,
        values=values,
        dones=dones,
        bootstrap_value=bootstrap,
        episode_returns=episode_returns,
    )


def compute_gae(buffer: RolloutBuffer, gamma: float, gae_lambda: float):
    """Backward GAE recursion; the boundary flags cut it at episode ends."""
    T, E = buffer.rewards.shape
    advantages = np.zeros((T, E))
    last = np.zeros(E)
    next_value = buffer.bootstrap_value
    for t in range(T - 1, -1, -1):
        alive = 1.0 - buffer.dones[t]
        delta = buffer.rewards[t] + gamma * next_value * alive - buffer.values[t]
        last = delta + gamma * gae_lambda * alive * last
        advantages[t] = last
        next_value = buffer.values[t]
    returns = advantages + buffer.values
    buffer.advantages = advantages
    buffer.returns = returns
    return advantages, returns


def gae_reference(rewards, values, dones, bootstrap, gamma, lam):
    """Brute-force double loop; the oracle the recursion is tested against."""
    T = len(rewards)
    values_ext = list(values) + [bootstrap]
    deltas = []
    for t in range(T):
        alive = 0.0 if dones[t] else 1.0
        deltas.append(rewards[t] + gamma * values_ext[t + 1] * alive - values[t])
    adv = np.zeros(T)
    for t in range(T):
        acc = 0.0
        factor = 1.0
        for k in range(t, T):
            acc += factor * deltas[k]
            if dones[k]:
                break
            factor *= gamma * lam
        adv[t] = acc
    return adv


def _squares(grads: list[np.ndarray]) -> list[float]:
    """Each gradient's sum of squares, the terms of the global clip norm."""
    return [float((g**2).sum()) for g in grads]


def _global_grad_clip(grads: list[np.ndarray], squares: list[float], max_norm: float) -> float:
    """Scale `grads` in place to a global norm of at most `max_norm`; returns the norm before.

    `squares` are the gradients' `_squares`, each taken on the thread that
    made its gradient; they are added in tensor order.
    """
    total = np.sqrt(sum(squares))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def _actor_half(actor: Policy, ob, ac, adv, lp_old, config: PpoConfig, frozen, log_std_inside):
    """((policy loss, clip fraction, approx KL), actor and log-std gradients, their `_squares`).

    The gradients and squares are None when the loss is not finite.
    """
    b = ob.shape[0]
    means, cache = forward_cached(actor.net, ob)
    std = np.exp(np.clip(actor.log_std, LOG_STD_MIN, LOG_STD_MAX))
    logp = gaussian_log_prob(means, actor.log_std, ac)
    ratio = np.exp(logp - lp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - config.clip_range, 1.0 + config.clip_range) * adv
    policy_loss = -np.minimum(unclipped, clipped).mean()
    # d loss / d logpi: only where the unclipped branch is selected.
    use_unclipped = unclipped <= clipped
    stats = (policy_loss, (~use_unclipped).mean(), (lp_old - logp).mean())
    if not np.isfinite(policy_loss):
        return stats, None, None
    g_logp = np.where(use_unclipped, -adv * ratio / b, 0.0)

    z = (ac - means) / std
    g_means = g_logp[:, None] * z / std
    g_log_std = (g_logp[:, None] * (z**2 - 1.0)).sum(axis=0)
    g_log_std -= config.entropy_coef * 1.0  # entropy bonus, d H / d log_std = 1
    g_log_std = np.where(log_std_inside, g_log_std, 0.0)

    grads, _ = backward(actor.net, cache, g_means, list(frozen))
    if frozen[-1]:
        g_log_std = np.zeros_like(g_log_std)
    grads.append(g_log_std)
    return stats, grads, _squares(grads)


def _critic_half(critic: Mlp, ob, ret, config: PpoConfig, frozen):
    """(value loss, gradients of the critic tensors, their `_squares`).

    The gradients and squares are None when the loss is not finite.
    """
    vals, cache = forward_cached(critic, ob)
    vals = vals[:, 0]
    value_loss = float(((vals - ret) ** 2).mean())
    if not np.isfinite(value_loss):
        return value_loss, None, None
    g_vals = config.value_coef * 2.0 * (vals - ret)[:, None] / ob.shape[0]
    grads, _ = backward(critic, cache, g_vals, list(frozen))
    return value_loss, grads, _squares(grads)


def ppo_update(
    actor: Policy,
    critic: Mlp,
    adam: AdamState,
    buffer: RolloutBuffer,
    config: PpoConfig,
    rng: np.random.Generator,
    freeze: FreezeMask | None = None,
) -> dict:
    """Epochs of shuffled minibatch updates on the collected batch.

    Each minibatch's actor and critic halves (forward, loss, backward and
    the clip norm's squares) and its Adam step run on two threads
    (`cores.both_cores`), with the same bits as on one.
    """
    if buffer.advantages is None:
        compute_gae(buffer, config.gamma, config.gae_lambda)

    obs = buffer.flat(buffer.obs)
    actions = buffer.flat(buffer.actions)
    logp_old = buffer.flat(buffer.log_probs)
    returns = buffer.flat(buffer.returns)
    advantages = buffer.flat(buffer.advantages)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    n = obs.shape[0]
    if freeze is None:
        freeze = FreezeMask.none(actor.net.n_layers, critic.n_layers)
    frozen_flags = freeze.tensor_flags(actor, critic)
    tensors = actor.tensors() + critic.tensors()

    log_std_inside = (actor.log_std > LOG_STD_MIN) & (actor.log_std < LOG_STD_MAX)
    totals = np.zeros(len(UPDATE_STATS))
    n_batches = 0

    with both_cores() as run:
        for _ in range(config.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                ob = obs[idx]
                actor_out, critic_out = run(
                    functools.partial(_actor_half, actor, ob, actions[idx], advantages[idx],
                                      logp_old[idx], config, freeze.actor, log_std_inside),
                    functools.partial(_critic_half, critic, ob, returns[idx], config,
                                      freeze.critic),
                )
                (policy_loss, clip_fraction, approx_kl), actor_grads, actor_squares = actor_out
                value_loss, critic_grads, critic_squares = critic_out
                entropy = gaussian_entropy(actor.log_std)
                total_loss = (
                    policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy
                )
                if not np.isfinite(total_loss):
                    raise TrainingDiverged(f"non-finite loss {total_loss}")

                grads = actor_grads + critic_grads
                _global_grad_clip(grads, actor_squares + critic_squares, config.max_grad_norm)
                adam_step(tensors, grads, adam, config.learning_rate, frozen_flags, run=run)

                totals += (policy_loss, value_loss, entropy, clip_fraction, approx_kl)
                n_batches += 1

    return dict(zip(UPDATE_STATS, (totals / n_batches).tolist()))


@dataclass
class TrainResult:
    checkpoint: AgentCheckpoint
    log_rows: list[dict]
    solver_calls: int


def build_agent(rng: np.random.Generator):
    actor = policy_init([N_PARAMS] + HIDDEN_SIZES + [N_PARAMS], rng)
    critic = mlp_init([N_PARAMS] + HIDDEN_SIZES + [1], rng)
    return actor, critic


def check_agent(actor: Policy, where) -> None:
    """Raise ShapeError unless `actor` reads the design vector and steps each of its parameters."""
    widths = (actor.net.sizes[0], actor.net.sizes[-1])
    if widths != (N_PARAMS, N_PARAMS):
        raise ShapeError(f"{where}: actor maps {widths[0]} inputs to {widths[1]} actions, "
                         f"not the {N_PARAMS} design parameters to {N_PARAMS}")


def train(
    env_config: EnvConfig,
    ppo_config: PpoConfig,
    seed: int,
    checkpoint_path: str | Path | None = None,
    log_path: str | Path | None = None,
    initial: tuple[Policy, Mlp] | None = None,
    freeze: FreezeMask | None = None,
) -> TrainResult:
    """Full training run: collect, estimate advantages, update, repeat."""
    seq = np.random.SeedSequence(seed)
    init_seed, sample_seed, shuffle_seed, *env_seeds = seq.spawn(3 + ppo_config.n_envs)

    if initial is not None:
        actor, critic = initial[0].copy(), initial[1].copy()
    else:
        actor, critic = build_agent(np.random.default_rng(init_seed))
    adam = AdamState.for_tensors(actor.tensors() + critic.tensors())

    envs = [
        AirfoilEnv(env_config, np.random.default_rng(s)) for s in env_seeds
    ]
    sample_rng = np.random.default_rng(sample_seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    log_rows: list[dict] = []
    budget = trained_timesteps(ppo_config)
    steps_done = 0
    update = 0

    def checkpoint(meta: dict) -> AgentCheckpoint:
        return AgentCheckpoint(actor, critic, adam, steps_done, env_config.config_hash(),
                               env_config.sigma, env_config.fidelity, meta)

    while steps_done < budget:
        buffer = collect_rollout(
            envs, actor, critic, ppo_config.n_steps, sample_rng, ppo_config.gamma
        )
        compute_gae(buffer, ppo_config.gamma, ppo_config.gae_lambda)
        try:
            stats = ppo_update(actor, critic, adam, buffer, ppo_config, shuffle_rng, freeze)
        except TrainingDiverged:
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, checkpoint({"diverged": True}))
            raise
        steps_done += buffer.n_steps * buffer.n_envs
        update += 1
        mean_ep = float(np.mean(buffer.episode_returns)) if buffer.episode_returns else float("nan")
        row = {
            "update": update,
            "timesteps": steps_done,
            "mean_episode_reward": mean_ep,
            **stats,
        }
        log_rows.append(row)

    solver_calls = sum(env.solver.calls for env in envs)
    ckpt = checkpoint({
        "solver_calls": solver_calls,
        "nominal_cost_s": sum(env.solver.nominal_cost_s for env in envs),
        "nominal_cost_ms_per_call": envs[0].solver.cfg.nominal_cost_ms,
    })
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, ckpt)
    if log_path is not None:
        write_training_log(log_path, log_rows)
    return TrainResult(ckpt, log_rows, solver_calls)


def write_training_log(path: str | Path, rows: list[dict]) -> None:
    write_csv(path, LOG_COLUMNS, ([row[k] for k in LOG_COLUMNS] for row in rows))

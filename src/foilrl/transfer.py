"""Cross-fidelity transfer: reuse a cheap-solver agent for expensive training.

Four weight-sharing schemes move a pretrained actor-critic pair into a
fine-tuning run against the high-fidelity solver:

  1 share everything, train everything
  2 share all but the last layer (re-initialized), train everything
  3 share everything, freeze all but the last layer
  4 share all but the last layer (re-initialized), freeze the shared part

The log-std vector travels with the actor's last layer. A nominal-cost
ledger prices every solver call so training-time savings are comparable
across machines.
"""
from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .aero import low_fidelity_config, nominal_cost_s
from .env import EnvConfig
from .errors import InvalidParams
from .nets import AgentCheckpoint, FreezeMask, Mlp, Policy, orthogonal, save_checkpoint
from .outputs import write_json
from .ppo import PpoConfig, TrainResult, check_agent, train


class TlStrategy(enum.IntEnum):
    SHARE_ALL = 1
    SHARE_ALL_BUT_LAST = 2
    FREEZE_ALL_BUT_LAST = 3
    SHARE_ALL_BUT_LAST_AND_FREEZE = 4

    @property
    def shares_last_layer(self) -> bool:
        return self in (TlStrategy.SHARE_ALL, TlStrategy.FREEZE_ALL_BUT_LAST)

    @property
    def freezes_shared(self) -> bool:
        return self in (TlStrategy.FREEZE_ALL_BUT_LAST, TlStrategy.SHARE_ALL_BUT_LAST_AND_FREEZE)


def _reinit_last_layer(net: Mlp, rng: np.random.Generator, out_gain: float) -> None:
    shape = net.weights[-1].shape
    net.weights[-1] = orthogonal(shape, rng, out_gain)
    net.biases[-1] = np.zeros(shape[1])


def apply_strategy(
    source: AgentCheckpoint,
    strategy: TlStrategy,
    rng: np.random.Generator,
) -> tuple[Policy, Mlp, FreezeMask]:
    """Build the fine-tuning agent: copied/re-initialized weights plus mask."""
    strategy = TlStrategy(strategy)
    actor = source.actor.copy()
    critic = source.critic.copy()
    n_actor = actor.net.n_layers
    n_critic = critic.n_layers

    if not strategy.shares_last_layer:
        _reinit_last_layer(actor.net, rng, out_gain=0.01)
        actor.log_std = np.zeros_like(actor.log_std)
        _reinit_last_layer(critic, rng, out_gain=1.0)

    if strategy.freezes_shared:
        mask = FreezeMask(
            actor=tuple([True] * (n_actor - 1) + [False]),
            critic=tuple([True] * (n_critic - 1) + [False]),
        )
    else:
        mask = FreezeMask.none(n_actor, n_critic)
    return actor, critic, mask


@dataclass
class CostLedger:
    """Nominal solver-time bookkeeping for a transfer pipeline."""

    pretrain_calls: int
    pretrain_cost_ms_per_call: float
    finetune_calls: int
    finetune_cost_ms_per_call: float

    @property
    def pretrain_cost_s(self) -> float:
        return nominal_cost_s(self.pretrain_calls, self.pretrain_cost_ms_per_call)

    @property
    def finetune_cost_s(self) -> float:
        return nominal_cost_s(self.finetune_calls, self.finetune_cost_ms_per_call)

    @property
    def total_cost_s(self) -> float:
        return self.pretrain_cost_s + self.finetune_cost_s

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "pretrain_cost_s": self.pretrain_cost_s,
            "finetune_cost_s": self.finetune_cost_s,
            "total_cost_s": self.total_cost_s,
        }


def time_reduction(tl_free_cost_s: float, tl_cost_s: float) -> float:
    """Percentage saving of the transfer pipeline against a direct run."""
    if tl_free_cost_s <= 0.0:
        raise InvalidParams("baseline cost must be positive")
    return 100.0 * (tl_free_cost_s - tl_cost_s) / tl_free_cost_s


@dataclass
class FinetuneResult:
    result: TrainResult
    ledger: CostLedger


def finetune(
    source: AgentCheckpoint,
    strategy: TlStrategy,
    env_config: EnvConfig,
    ppo_config: PpoConfig,
    seed: int,
    checkpoint_path: str | Path | None = None,
    log_path: str | Path | None = None,
) -> FinetuneResult:
    """Fine-tune a pretrained agent against the configured (expensive) solver."""
    if env_config.fidelity != "high":
        raise InvalidParams("fine-tuning runs against the high-fidelity solver")
    check_agent(source.actor, "source")

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    actor, critic, mask = apply_strategy(source, strategy, rng)
    result = train(
        env_config,
        ppo_config,
        seed,
        checkpoint_path=checkpoint_path,
        log_path=log_path,
        initial=(actor, critic),
        freeze=mask,
    )
    pretrain_ms = source.meta.get("nominal_cost_ms_per_call", low_fidelity_config().nominal_cost_ms)
    ledger = CostLedger(
        pretrain_calls=int(source.meta.get("solver_calls", source.train_steps)),
        pretrain_cost_ms_per_call=float(pretrain_ms),
        finetune_calls=result.solver_calls,
        finetune_cost_ms_per_call=result.checkpoint.meta["nominal_cost_ms_per_call"],
    )
    result.checkpoint.meta["ledger"] = ledger.to_dict()
    result.checkpoint.meta["strategy"] = int(strategy)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, result.checkpoint)
    return FinetuneResult(result=result, ledger=ledger)


def write_ledger_json(path: str | Path, ledger: CostLedger, tl_free_cost_s: float) -> None:
    write_json(path, {
        **ledger.to_dict(),
        "tl_free_cost_s": tl_free_cost_s,
        "time_reduction_percent": time_reduction(tl_free_cost_s, ledger.total_cost_s),
    })

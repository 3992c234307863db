#!/usr/bin/env python3
"""Criterion 8's timing factor, measured N times in one process.

The acceptance test `TestCriterion8PsoBaseline::test_constrained_mode_and_timing_factor`
times a 12x12 swarm that keeps NACA 0012's thickness within 1% (160
panels, rng 5), then a 100-step batch-1 policy loop, and needs the swarm
to take at least 100x as long. It takes one reading of each. This script
makes the same measurement --repeats times and prints each reading, the
median factor, its quartiles and how many readings fell under 100: how
far the factor lies from 100, on either side.

The actor is a fresh one from `ppo.build_agent`, with the shapes and
memory layout of the test's trained actor. Like the test, the script
leaves the C allocator at its defaults (it does not go through
`foilrl.cli.main`). It imports foilrl from this checkout's `src/`. To
compare two checkouts, alternate between them so that both see the same
phases of the host:

    for i in 1 2 3 4 5; do
        python3 scripts/criterion8_margin.py --repeats 4
        (cd ../other && python3 scripts/criterion8_margin.py --repeats 4)
    done

Uses the standard library and numpy only, and writes no file.
"""
import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from foilrl import naca  # noqa: E402
from foilrl.aero import CountingSolver, high_fidelity_config  # noqa: E402
from foilrl.env import EnvConfig, alpha_vector  # noqa: E402
from foilrl.geometry import default_bounds, fit_cst  # noqa: E402
from foilrl.ppo import build_agent  # noqa: E402
from foilrl.pso import PsoConfig, pso_optimize_airfoil  # noqa: E402

GATE = 100.0


def reading(params, actor) -> tuple[float, float]:
    """One (swarm seconds, policy-loop seconds) pair, as the test takes it."""
    solver = CountingSolver("high", cfg=high_fidelity_config(panel_count=160))
    cfg = PsoConfig(swarm_size=12, max_iterations=12, thickness_tolerance=0.01)
    t0 = time.perf_counter()
    pso_optimize_airfoil(params, solver, cfg, np.random.default_rng(5))
    pso_s = time.perf_counter() - t0

    env_cfg = EnvConfig()
    alpha = alpha_vector(env_cfg)
    bounds = env_cfg.bounds
    t0 = time.perf_counter()
    vec = params.vector.copy()
    for _ in range(100):
        obs = 2.0 * (vec - bounds.lower) / bounds.span - 1.0
        action = np.clip(actor.mean(obs[None, :])[0], -1.0, 1.0)
        vec = bounds.clamp(vec + alpha * action)
    return pso_s, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="readings to take (at least 2)")
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    params, _ = fit_cst(naca.coordinates("0012", 101), default_bounds())
    actor, _ = build_agent(np.random.default_rng(0))
    factors = []
    for k in range(1, args.repeats + 1):
        pso_s, policy_s = reading(params, actor)
        factors.append(pso_s / policy_s)
        print(f"reading {k}: swarm {pso_s:.3f} s, policy loop {1e3 * policy_s:.2f} ms, "
              f"factor {factors[-1]:.1f}")
    q1, median, q3 = statistics.quantiles(factors, n=4, method="inclusive")
    under = sum(f < GATE for f in factors)
    print(f"factor median {median:.1f} (quartiles {q1:.1f}-{q3:.1f}); "
          f"{under}/{len(factors)} readings under {GATE:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

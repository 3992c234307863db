"""One fresh benchmark process: `python3 perfbench/child.py T_SPAWN MODE SPEC OUT`.

T_SPAWN is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start-up plus `import foilrl.cli`.
MODE is one of:

* `import`   set-up only;
* `prepare`  write the workload's inputs and run the probe set;
* `cli`      run the workload's CLI commands in-process through
             `foilrl.cli.main`, untraced or traced;
* `layers`   time each layer in isolation, and the two ratio gates of
             the acceptance suite.

SPEC and OUT are JSON files. The result goes to OUT; the CLI's own
output goes to this process's stdout, which the parent sends to a log.
"""
from __future__ import annotations

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import foilrl.cli  # noqa: E402

T_READY = time.monotonic()

if Path(foilrl.__file__).resolve().parent != (SRC / "foilrl").resolve():
    sys.exit(f"foilrl was imported from {foilrl.__file__}, not from {SRC}")


def digest_dir(directory: Path) -> str:
    """SHA-256 over the deterministic outputs of one command (timing.json excluded)."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name == "timing.json":
            continue
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS identity and the thread count the loaded OpenBLAS will use."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas_name": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_name"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = int(fn())
                info["blas_library"] = os.path.basename(lib_path)
                return info
    return info


def run_prepare(spec: dict) -> dict:
    import numpy as np
    from foilrl.nets import AgentCheckpoint, Policy, mlp_init, save_checkpoint

    import probes

    work = Path(spec["work"])
    for policy in spec["policies"]:
        rng = np.random.default_rng(policy["seed"])
        sizes = [18, 256, 256, 18]
        actor = Policy(mlp_init(sizes, rng, out_gain=policy["head_gain"]), np.zeros(18))
        critic = mlp_init(sizes[:-1] + [1], rng)
        save_checkpoint(
            work / policy["file"],
            AgentCheckpoint(actor, critic, None, 0, "perfbench", 0.0, "low"),
        )
    for name, payload in spec.get("configs", {}).items():
        (work / name).write_text(json.dumps(payload, sort_keys=True) + "\n")
    airfoils = foilrl.bundled_airfoil_dir()
    for subdir, names in spec.get("airfoil_sets", {}).items():
        (work / subdir).mkdir(parents=True, exist_ok=True)
        for name in names:
            (work / subdir / f"{name}.dat").write_bytes((airfoils / f"{name}.dat").read_bytes())
    return {"probes": probes.check()}


def run_cli(spec: dict) -> dict:
    import tracer

    inst = tracer.Instrument(timed=spec["trace"])
    inst.install()
    blas = blas_info()
    commands = []
    t_begin = time.perf_counter()
    for argv in spec["commands"]:
        t0 = time.perf_counter()
        design_before = inst.design.attempted
        steps_before = inst.design.env_steps
        code = foilrl.cli.main(argv)
        commands.append({
            "argv": argv,
            "exit_code": code,
            "wall_s": time.perf_counter() - t0,
            "design_evals": inst.design.attempted - design_before,
            "env_steps": inst.design.env_steps - steps_before,
        })
    wall = time.perf_counter() - t_begin
    inst.uninstall()
    for cmd in commands:
        out = Path(cmd["argv"][cmd["argv"].index("--out") + 1])
        cmd["digest"] = digest_dir(out)
    sys.stdout.flush()
    return {
        "commands": commands,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": inst.report(),
        "blas": blas,
    }


def _durations(call, budget_s: float = 0.4, max_calls: int = 1000, min_calls: int = 20,
               before=None) -> list[float]:
    """Per-call wall times: up to `max_calls`, stopping after `budget_s` once
    `min_calls` are in. `before` runs untimed ahead of each call."""
    out: list[float] = []
    t_end = time.perf_counter() + budget_s
    while len(out) < max_calls and (len(out) < min_calls or time.perf_counter() < t_end):
        if before is not None:
            before()
        t0 = time.perf_counter()
        call()
        out.append(time.perf_counter() - t0)
    return sorted(out)


def run_layers(spec: dict) -> dict:
    """Per-call latency of each layer in isolation, at the workload's shapes.

    Every workload gets a value for every layer, including layers it never
    calls (at the CLI defaults then), so no per-layer time is a constant
    zero. The private aero helpers are timed on the arguments they
    received during one real solve; a helper that no longer exists is
    reported as absent.
    """
    import numpy as np
    from foilrl import aero, geometry, naca, nets
    from foilrl.env import AirfoilEnv, EnvConfig

    import tracer

    flow = aero.FlowConditions()
    hi_cfg = aero.high_fidelity_config(panel_count=spec["high_panels"])
    lo_cfg = aero.low_fidelity_config()
    env_cfg = hi_cfg if spec["fidelity"] == "high" else lo_cfg
    vec = geometry.fit_cst(naca.coordinates("2412", 131), geometry.default_bounds())[0].vector
    hi_geom = geometry.cst_to_geometry(vec, hi_cfg.panel_count // 2 + 1)
    lo_geom = geometry.cst_to_geometry(vec, max(lo_cfg.panel_count // 2 + 1, 64))
    geom = hi_geom if env_cfg is hi_cfg else lo_geom

    rng = np.random.default_rng(spec["policy_seed"])
    actor = nets.Policy(nets.mlp_init([18, 256, 256, 18], rng, out_gain=0.01), np.zeros(18))
    critic = nets.mlp_init([18, 256, 256, 1], rng)
    batch = rng.uniform(-1.0, 1.0, (64, 18))
    _, cache = nets.forward_cached(actor.net, batch)
    tensors = actor.tensors() + critic.tensors()
    grads = [1e-3 * rng.standard_normal(t.shape) for t in tensors]

    calls = {
        "geometry.cst_to_geometry": (geometry.cst_to_geometry, (vec, geom.n_stations), {}),
        "geometry.is_valid": (geometry.is_valid, (geom,), {}),
        "aero.solve_high_fidelity": (aero.solve_high_fidelity, (hi_geom, flow, hi_cfg), {}),
        "aero.solve_low_fidelity": (aero.solve_low_fidelity, (lo_geom, flow, lo_cfg), {}),
        "nets.forward": (nets.forward, (actor.net, batch[:1]), {}),
        "nets.backward": (nets.backward, (actor.net, cache, rng.standard_normal((64, 18))), {}),
        "nets.adam_step": (nets.adam_step, (tensors, grads, nets.AdamState.for_tensors(tensors),
                                            1e-9), {}),
    }
    calls.update(tracer.capture_calls(["aero.panel_solve", "aero.lu_solve", "aero.bl_drag"],
                                      lambda: aero.solve_high_fidelity(hi_geom, flow, hi_cfg)))
    calls.update(tracer.capture_calls(["aero.plausibility_score"],
                                      lambda: aero.solve_low_fidelity(lo_geom, flow, lo_cfg)))
    latency = {}
    for name, (fn, args, kwargs) in calls.items():
        latency[name] = _durations(lambda: fn(*args, **kwargs))

    env = AirfoilEnv(EnvConfig(fidelity=spec["fidelity"], solver_config=env_cfg))
    env.reset(vec)
    action = np.zeros(18)

    def reset_if_done():
        if env.state.terminated:
            env.reset(vec)

    latency["env.step"] = _durations(lambda: env.step(action), before=reset_if_done)

    stats = {name: {"n": len(d), "p50_ms": 1e3 * tracer.quantile(d, 0.50),
                    "p99_ms": 1e3 * tracer.quantile(d, 0.99)} for name, d in latency.items()}
    return {"latency": stats, "gates": gates(spec["policy_seed"])}


def gates(policy_seed: int) -> dict:
    """Headroom of the acceptance suite's two wall-clock ratio gates, at its shapes.

    Criterion 6 needs lo/hi <= about 0.05 (time reduction ~ 75% - 100 lo/hi
    >= 70%); criterion 8 needs the 12x12 swarm to take >= 100x a 100-step
    batch-1 policy loop.
    """
    import numpy as np
    from foilrl import naca
    from foilrl.aero import (
        CountingSolver, FlowConditions, high_fidelity_config, low_fidelity_config,
        solve_high_fidelity, solve_low_fidelity,
    )
    from foilrl.env import EnvConfig, alpha_vector
    from foilrl.geometry import cst_to_geometry, default_bounds, fit_cst
    from foilrl.nets import Policy, mlp_init
    from foilrl.pso import PsoConfig, pso_optimize_airfoil

    bounds = default_bounds()
    hi_cfg = high_fidelity_config(panel_count=160)
    flow = FlowConditions()

    def best_ms(fn, *args, repeats=15):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        return 1e3 * best

    params, _ = fit_cst(naca.coordinates("0012", 131), bounds)
    geom = cst_to_geometry(params, 160 // 2 + 1)
    hi_ms = best_ms(solve_high_fidelity, geom, flow, hi_cfg)
    lo_ms = best_ms(solve_low_fidelity, geom, flow, low_fidelity_config())

    params, _ = fit_cst(naca.coordinates("0012", 101), bounds)
    solver = CountingSolver("high", cfg=hi_cfg)
    t0 = time.perf_counter()
    pso_optimize_airfoil(
        params, solver, PsoConfig(swarm_size=12, max_iterations=12, thickness_tolerance=0.01),
        np.random.default_rng(5),
    )
    pso_s = time.perf_counter() - t0

    rng = np.random.default_rng(policy_seed)
    actor = Policy(mlp_init([18, 256, 256, 18], rng, out_gain=0.01), np.zeros(18))
    env_cfg = EnvConfig()
    alpha = alpha_vector(env_cfg)

    def policy_loop():
        vec = params.vector.copy()
        for _ in range(100):
            obs = 2.0 * (vec - env_cfg.bounds.lower) / env_cfg.bounds.span - 1.0
            action = np.clip(actor.mean(obs[None, :])[0], -1.0, 1.0)
            vec = env_cfg.bounds.clamp(vec + alpha * action)

    policy_s = best_ms(policy_loop, repeats=5) / 1e3
    return {
        "hi_ms": hi_ms,
        "lo_ms": lo_ms,
        "c6_lo_over_hi": lo_ms / hi_ms,
        "pso_s": pso_s,
        "policy_loop_s": policy_s,
        "c8_pso_over_policy": pso_s / policy_s,
    }


MODES = {
    "import": lambda spec: {},
    "prepare": run_prepare,
    "cli": run_cli,
    "layers": run_layers,
}


def main(argv: list[str]) -> int:
    t_spawn, mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text())
    result = MODES[mode](spec)
    result["setup_s"] = T_READY - float(t_spawn)
    result["import_s"] = T_READY - T_START
    Path(out_path).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

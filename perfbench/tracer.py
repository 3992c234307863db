"""Span and count wrappers installed around foilrl's module attributes.

Nothing in the program is edited: every wrapper is set on a module or
class attribute after `foilrl.cli` has been imported. A function that is
imported by name into several modules (`cst_to_geometry` into `env` and
`pso`, `is_valid` into `env` and `aero`, the `nets` helpers into `ppo`)
is replaced at every binding site that holds the same object, so no call
escapes its span.

Two modes share the boundary table:

* counting (both modes): design evaluations, their failures and solver
  runs are counted with no clock reads, for `solves_per_s` and
  `usable_frac`;
* tracing (`--trace 1`): every boundary records calls, busy time, self
  time (busy time minus the time covered by child spans) and per-call
  durations, plus the outcome counts listed in `OUTCOME_COUNTS`.
"""
from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

ALL = ("pretrain-low", "finetune-high", "search-high")
TRAIN = ("pretrain-low", "finetune-high")
HIGH = ("finetune-high", "search-high")


@dataclass(frozen=True)
class Boundary:
    """One traced layer boundary.

    `target` is `module:attribute` or `module:Class.method`. A `factory`
    boundary wraps the callable that the target returns instead of the
    target itself. `expected` lists the workloads that must record calls.
    `latency` marks the layers whose per-call latency is also measured in
    isolation (`child.py`, mode `layers`).
    """

    name: str
    target: str
    latency: bool
    expected: tuple[str, ...]
    factory: bool = False


BOUNDARIES = (
    Boundary("cli.main", "foilrl.cli:main", False, ALL),
    Boundary("geometry.cst_to_geometry", "foilrl.geometry:cst_to_geometry", True, ALL),
    Boundary("geometry.is_valid", "foilrl.geometry:is_valid", True, ALL),
    Boundary("geometry.fit_cst", "foilrl.geometry:fit_cst", False, ALL),
    Boundary("aero.solve_high_fidelity", "foilrl.aero:solve_high_fidelity", True, HIGH),
    Boundary("aero.panel_solve", "foilrl.aero:_linear_vortex_solution", True, HIGH),
    Boundary("aero.lu_solve", "numpy.linalg:solve", True, HIGH),
    Boundary("aero.bl_drag", "foilrl.aero:_profile_drag", True, HIGH),
    Boundary("aero.solve_low_fidelity", "foilrl.aero:solve_low_fidelity", True, ("pretrain-low",)),
    Boundary("aero.plausibility_score", "foilrl.aero:plausibility_score", True, ("pretrain-low",)),
    Boundary("env.step", "foilrl.env:AirfoilEnv.step", True, ALL),
    Boundary("env.reset", "foilrl.env:AirfoilEnv.reset", False, ALL),
    Boundary("nets.forward", "foilrl.nets:forward", True, ALL),
    Boundary("nets.forward_cached", "foilrl.nets:forward_cached", False, ALL),
    Boundary("nets.backward", "foilrl.nets:backward", True, TRAIN),
    Boundary("nets.adam_step", "foilrl.nets:adam_step", True, TRAIN),
    Boundary("nets.save_checkpoint", "foilrl.nets:save_checkpoint", False, TRAIN),
    Boundary("nets.load_checkpoint", "foilrl.nets:load_checkpoint", False, HIGH),
    Boundary("ppo.collect_rollout", "foilrl.ppo:collect_rollout", False, TRAIN),
    Boundary("ppo.compute_gae", "foilrl.ppo:compute_gae", False, TRAIN),
    Boundary("ppo.ppo_update", "foilrl.ppo:ppo_update", False, TRAIN),
    Boundary("evaluate.evaluate_policy", "foilrl.evaluate:evaluate_policy", False, ("search-high",)),
    Boundary("evaluate.episode", "foilrl.evaluate:_roll_episode", False, ("search-high",)),
    Boundary("pso.pso_optimize_airfoil", "foilrl.pso:pso_optimize_airfoil", False, ("search-high",)),
    Boundary("pso.fitness", "foilrl.pso:make_aero_fitness", False, ("search-high",), factory=True),
    Boundary("transfer.finetune", "foilrl.transfer:finetune", False, ("finetune-high",)),
)

# Outcome counts the traced run reports next to the spans; all repeat
# exactly for a given seed.
OUTCOME_COUNTS = (
    "aero.solve_high_fidelity.fail.rejected",
    "aero.solve_high_fidelity.fail.linalg",
    "aero.solve_high_fidelity.fail.nonfinite",
    "aero.solve_high_fidelity.fail.drag",
    "env.end.max_steps",
    "env.end.solver_failure",
    "env.end.invalid_geometry",
)


def _resolve(target: str):
    """(owner, attribute name, original) or None when the target is absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _binding_sites(owner, attr: str, original) -> list[tuple[object, str]]:
    """Every foilrl module attribute bound to `original`, plus the owner."""
    sites = [(owner, attr)]
    if isinstance(owner, type):
        return sites
    for name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if not (name == "foilrl" or name.startswith("foilrl.")):
            continue
        for key, value in vars(module).items():
            if value is original:
                sites.append((module, key))
    return sites


@dataclass
class Design:
    """Counted without clock reads.

    `attempted` counts design evaluations (env steps, episode starts and
    PSO candidates) and `failed` those that ended without a usable solve.
    `solves` counts solver calls that ran, i.e. were not rejected by the
    validity check before any aerodynamics.
    """

    attempted: int = 0
    failed: int = 0
    solves: int = 0
    env_steps: int = 0


@dataclass
class Span:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


# Where the counting mode hooks in, and the wrapper factory for each.
COUNTING_TARGETS = (
    ("foilrl.env:AirfoilEnv._solve", "_count_env_solve"),
    ("foilrl.env:AirfoilEnv.step", "_count_env_step"),
    ("foilrl.aero:CountingSolver.__call__", "_count_solver_call"),
    ("foilrl.pso:make_aero_fitness", "_count_pso_factory"),
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_all(self, owner, attr, original, wrapper) -> list[str]:
        """Replace `original` at every binding site; returns the sites patched."""
        patched = []
        for site, key in _binding_sites(owner, attr, original):
            self.set(site, key, wrapper)
            patched.append(f"{getattr(site, '__name__', site)}.{key}")
        return patched

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def capture_calls(names: list[str], thunk) -> dict:
    """Run `thunk` once with the named boundaries wrapped; return
    {name: (original, args, kwargs)} of the first call each one received.
    Boundaries that are absent or were not called are left out."""
    captured: dict = {}
    patches = Patches()
    targets = {b.name: b.target for b in BOUNDARIES}

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            captured.setdefault(name, (fn, args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        resolved = _resolve(targets[name])
        if resolved is not None:
            patches.patch_all(*resolved, recorder(name, resolved[2]))
    try:
        thunk()
    finally:
        patches.restore()
    return captured


class Instrument:
    """Installs the wrappers; `timed=False` gives the counting mode."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.design = Design()
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {k: 0 for k in OUTCOME_COUNTS}
        self.counts.update({"geometry.is_valid.rejected": 0, "pso.fitness.feasible": 0})
        self.sites: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._pending_failure: str | None = None
        self.patches = Patches()

    # -- installation -------------------------------------------------
    def install(self) -> None:
        import foilrl.cli  # noqa: F401  (loads every module that binds a target)

        for target, make in COUNTING_TARGETS:
            resolved = _resolve(target)
            if resolved is None:
                self.absent.append(target)
                continue
            self.patches.patch_all(*resolved, getattr(self, make)(resolved[2]))
        if not self.timed:
            return
        for boundary in BOUNDARIES:
            resolved = _resolve(boundary.target)
            if resolved is None:
                self.absent.append(boundary.name)
                continue
            owner, attr, original = resolved
            if boundary.factory:
                wrapper = self._span_factory(boundary.name, original)
            else:
                wrapper = self._span(boundary.name, original, self._observer(boundary.name))
            self.sites[boundary.name] = self.patches.patch_all(owner, attr, original, wrapper)

    def uninstall(self) -> None:
        self.patches.restore()

    # -- counting (no clock) ------------------------------------------
    def _count_env_solve(self, fn):
        design = self.design

        def _solve(env, params):
            solved = fn(env, params)
            design.attempted += 1
            design.failed += solved is None
            return solved

        return _solve

    def _count_env_step(self, fn):
        design = self.design

        def step(env, action):
            design.env_steps += 1
            return fn(env, action)

        return step

    def _count_solver_call(self, fn):
        design = self.design

        def __call__(solver, geom):
            result = fn(solver, geom)  # a rejected geometry raises and is not counted
            design.solves += 1
            return result

        return __call__

    def _count_pso_factory(self, factory):
        design = self.design
        from foilrl.errors import GeometryRejected

        def make_aero_fitness(solver, *args, **kwargs):
            def counted_solver(geom):
                design.attempted += 1
                try:
                    result = solver(geom)
                except GeometryRejected:
                    design.failed += 1
                    raise
                design.failed += not result.converged
                return result

            return factory(counted_solver, *args, **kwargs)

        return make_aero_fitness

    # -- spans --------------------------------------------------------
    def _span(self, name: str, fn, observe=None):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = clock() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += dt
                span.calls += 1
                span.busy_s += dt
                span.self_s += dt - covered
                span.durations.append(dt)
                if observe is not None:
                    observe(result, exc)

        return wrapper

    def _span_factory(self, name: str, factory):
        counts = self.counts

        def feasible(result, exc):
            if exc is None and result != float("-inf"):
                counts["pso.fitness.feasible"] += 1

        def make(*args, **kwargs):
            return self._span(name, factory(*args, **kwargs), feasible)

        return make

    def _observer(self, name: str):
        counts = self.counts
        if name == "geometry.is_valid":
            def observe(result, exc):
                if exc is None and not result[0]:
                    counts["geometry.is_valid.rejected"] += 1
            return observe
        if name == "env.step":
            def observe(outcome, exc):
                if exc is None and outcome.terminated:
                    key = f"env.end.{outcome.reason.value}"
                    counts[key] = counts.get(key, 0) + 1
            return observe
        if name == "aero.panel_solve":
            def observe(result, exc):
                if exc is not None:
                    self._pending_failure = "linalg"
                elif not _all_finite(result[0]):
                    self._pending_failure = "nonfinite"
            return observe
        if name == "aero.bl_drag":
            def observe(cd, exc):
                if exc is None and (cd is None or not 0.0 < cd < float("inf")):
                    self._pending_failure = "drag"
            return observe
        if name == "aero.solve_high_fidelity":
            from foilrl.errors import GeometryRejected

            def observe(result, exc):
                reason, self._pending_failure = self._pending_failure, None
                if isinstance(exc, GeometryRejected):
                    counts["aero.solve_high_fidelity.fail.rejected"] += 1
                elif exc is None and not result.converged:
                    key = f"aero.solve_high_fidelity.fail.{reason or 'other'}"
                    counts[key] = counts.get(key, 0) + 1
            return observe
        return None

    # -- report -------------------------------------------------------
    def report(self) -> dict:
        spans = {}
        for name, span in self.spans.items():
            durations = sorted(span.durations)
            spans[name] = {
                "calls": span.calls,
                "busy_s": span.busy_s,
                "self_s": span.self_s,
                "p50_ms": 1e3 * quantile(durations, 0.50),
                "p99_ms": 1e3 * quantile(durations, 0.99),
            }
        return {
            "design": vars(self.design).copy(),
            "spans": spans,
            "counts": dict(self.counts),
            "sites": self.sites,
            "absent": self.absent,
        }


def _all_finite(values) -> bool:
    import numpy as np

    return bool(np.all(np.isfinite(values)))


def quantile(sorted_values: list, q: float) -> float:
    """Linear-interpolation quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


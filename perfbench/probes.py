"""Fixed probe set for both solvers, checked against stored reference values.

The probes are the 60 bundled airfoil fits, seeded perturbations of eight
of them (the panel solver rejects or fails on about half of these) and
three hand-built edge shapes: crossing surfaces and a collapsed section
below the thickness floor, which the panel solver rejects, and an extreme
camber that the surrogate scores near kappa 0. The design vectors are
stored in `probe_reference.json`, so the check exercises geometry
evaluation and the two solvers only, not the fit.

Each probe records `cl`, `cd`, `kappa` and `converged` from the panel
solver at 160 panels (81 stations, the acceptance desk shape) and from
the surrogate at its defaults (128 stations). A value matches when it is
within RELATIVE_TOLERANCE of the reference; a failed solve or a rejected
geometry must fail the same way.

Regenerate the reference from the current program (run from the repo
root) only when a change is meant to alter solver output:

    python3 perfbench/probes.py --regenerate
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "probe_reference.json"
RELATIVE_TOLERANCE = 1e-12

PERTURBED = ("naca0006", "naca0012", "naca1410", "naca2412",
             "naca4415", "naca6412", "naca8409", "naca9421")
PERTURBATION_SCALES = (0.05, 0.15, 0.3)
PERTURBATION_SEED = 2505


def build_probes() -> list[dict]:
    import numpy as np
    from foilrl import bundled_airfoil_dir
    from foilrl.geometry import default_bounds, fit_cst, read_dat

    bounds = default_bounds()
    fits = {}
    for path in sorted(bundled_airfoil_dir().glob("*.dat")):
        fits[path.stem] = fit_cst(read_dat(path)[1], bounds)[0].vector
    probes = [{"name": name, "vector": vec.tolist()} for name, vec in fits.items()]

    rng = np.random.default_rng(PERTURBATION_SEED)
    for name in PERTURBED:
        for scale in PERTURBATION_SCALES:
            step = rng.uniform(-1.0, 1.0, fits[name].size) * scale * bounds.span
            probes.append({
                "name": f"{name}+{scale}",
                "vector": bounds.clamp(fits[name] + step).tolist(),
            })

    probes += [
        {"name": "crossing", "vector": [-0.2] * 8 + [0.2] * 8 + [0.001, 0.0]},
        {"name": "collapsed", "vector": [0.0] * 16 + [0.0005, 0.0]},
        {"name": "extreme-camber", "vector": [1.2] * 8 + [1.0] * 8 + [0.001, 0.0]},
    ]
    return probes


def solve(vector: list[float]) -> dict:
    from foilrl.aero import (
        FlowConditions, high_fidelity_config, low_fidelity_config,
        solve_high_fidelity, solve_low_fidelity,
    )
    from foilrl.errors import GeometryRejected
    from foilrl.geometry import cst_to_geometry

    flow = FlowConditions()
    out = {}
    try:
        res = solve_high_fidelity(
            cst_to_geometry(vector, 81), flow, high_fidelity_config(panel_count=160)
        )
        out["high"] = _fields(res)
    except GeometryRejected:
        out["high"] = {"rejected": True}
    out["low"] = _fields(solve_low_fidelity(cst_to_geometry(vector, 128), flow, low_fidelity_config()))
    return out


def _fields(result) -> dict:
    return {
        "cl": result.cl,
        "cd": result.cd,
        "kappa": result.confidence,
        "converged": bool(result.converged),
    }


def _mismatch(expected: dict, got: dict) -> float | None:
    """Largest relative error, or None when the outcomes differ in kind."""
    if expected.keys() != got.keys():
        return None
    worst = 0.0
    for key, want in expected.items():
        have = got[key]
        if isinstance(want, float) and isinstance(have, float):
            if want != have:
                worst = max(worst, abs(have - want) / max(abs(want), abs(have)))
        elif want != have:
            return None
    return worst


def check() -> dict:
    """Solve every stored probe; report the probes outside the tolerance."""
    reference = json.loads(REFERENCE.read_text())
    bad, worst = [], 0.0
    for probe in reference["probes"]:
        got = solve(probe["vector"])
        for solver in ("high", "low"):
            err = _mismatch(probe[solver], got[solver])
            if err is None or err > RELATIVE_TOLERANCE:
                bad.append(f"{probe['name']}/{solver}")
            if err is not None:
                worst = max(worst, err)
    return {"count": len(reference["probes"]), "mismatches": bad, "max_rel_err": worst}


def regenerate() -> None:
    probes = build_probes()
    for probe in probes:
        probe.update(solve(probe["vector"]))
    payload = {"relative_tolerance": RELATIVE_TOLERANCE, "probes": probes}
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    failed = sum(not p["high"].get("converged", False) for p in probes)
    print(f"wrote {len(probes)} probes ({failed} failing on the panel solver) to {REFERENCE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python3 perfbench/probes.py --regenerate")
    sys.path.insert(0, str(Path.cwd() / "src"))
    regenerate()

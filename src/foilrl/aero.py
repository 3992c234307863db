"""Two-fidelity aerodynamic solver pair behind one result contract.

High fidelity: linear-strength vortex panel method with a Kutta condition
for lift, plus a profile-drag model combining flat-plate turbulent skin
friction (thickness form factor) with a pressure-drag proxy from the
trailing-edge momentum thickness of an integral boundary-layer march.
It reports kappa = 1 and can legitimately fail to converge.

Low fidelity: thin-airfoil theory on the camber line plus flat-plate
friction with a quadratic thickness form factor. It never fails and
reports a geometric-plausibility confidence kappa in [0, 1].

Both apply the subcritical compressibility correction cl / sqrt(1 - Ma^2).
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cores import one_blas_thread
from .errors import ConfigValueError, GeometryRejected, InvalidParams
from .geometry import AirfoilGeometry, is_valid, max_thickness, station_grid

CD_FLOOR = 1e-4

# Plausibility-score calibration: crossing area, thickness-curvature excess,
# and camber beyond what the surrogate can be trusted on. The thresholds are
# set so every airfoil in the bundled reset list scores above 0.99.
KAPPA_CROSSING_GAIN = 400.0
KAPPA_CURVATURE_GAIN = 0.02
KAPPA_CURVATURE_ALLOWANCE = 25.0
KAPPA_CAMBER_GAIN = 60.0
KAPPA_CAMBER_ALLOWANCE = 0.105
KAPPA_PINCH_GAIN = 35.0
KAPPA_PINCH_ALLOWANCE = 0.035

# Integral boundary layer constants (fully turbulent march).
_BL_H_INIT = 1.4
_BL_H_SEPARATION = 2.9
_BL_U_START = 0.3
_MASSIVE_SEPARATION_X = 0.3
_SEPARATED_DRAG_GAIN = 0.12

# Influence-matrix rows built per block: the per-pair temporaries of a
# block at 255 panels take ~130 kB each, against ~520 kB for whole matrices.
_INFLUENCE_ROWS = 64


@dataclass(frozen=True)
class FlowConditions:
    """Single-point operating condition."""

    angle_of_attack_deg: float = 2.0
    reynolds: float = 1e6
    mach: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.mach < 0.7):
            raise ConfigValueError("mach", "must be in [0, 0.7) for the compressibility correction")
        if self.reynolds <= 0.0:
            raise ConfigValueError("reynolds", "must be positive")


@dataclass(frozen=True)
class SolverConfig:
    panel_count: int = 255
    max_iterations: int = 200
    timeout_s: float = 30.0
    nominal_cost_ms: float = 73.0

    def __post_init__(self):
        for name in ("panel_count", "max_iterations"):
            if getattr(self, name) < 1:
                raise ConfigValueError(name, "must be at least 1")
        if self.timeout_s <= 0:
            raise ConfigValueError("timeout_s", "must be positive")
        if self.nominal_cost_ms < 0:
            raise ConfigValueError("nominal_cost_ms", "must be non-negative")

    @property
    def geometry_stations(self) -> int:
        """Stations per surface at which a design is sampled for this solver."""
        return max(self.panel_count // 2 + 1, 64)


class Fidelity(NamedTuple):
    solver: str  # the name of a solve function of this module
    config: SolverConfig  # its default settings


# The one table of fidelities. `CountingSolver` looks a solver up by name when it
# is built, so a wrapper set on the module attribute (as perfbench sets) sees every call.
FIDELITIES = {
    "high": Fidelity("solve_high_fidelity", SolverConfig()),
    "low": Fidelity("solve_low_fidelity", SolverConfig(nominal_cost_ms=4.0)),
}


def high_fidelity_config(**overrides) -> SolverConfig:
    return replace(FIDELITIES["high"].config, **overrides)


def low_fidelity_config(**overrides) -> SolverConfig:
    return replace(FIDELITIES["low"].config, **overrides)


@dataclass(frozen=True)
class AeroResult:
    cl: float | None
    cd: float | None
    confidence: float
    converged: bool


def _prandtl_glauert(cl: float, mach: float) -> float:
    return cl / np.sqrt(1.0 - mach**2)


def _resample(geom: AirfoilGeometry, n_per_side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = station_grid(n_per_side + 1).x
    yu = np.interp(x, geom.x, geom.y_upper)
    yl = np.interp(x, geom.x, geom.y_lower)
    return x, yu, yl


def _panel_nodes(geom: AirfoilGeometry, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed node loop: lower TE -> LE -> upper TE, cosine spaced per side."""
    n_side = max(n_panels // 2, 16)
    x, yu, yl = _resample(geom, n_side)
    xs = np.concatenate([x[::-1], x[1:]])
    ys = np.concatenate([yl[::-1], yu[1:]])
    return xs, ys


def _influence_rows(lo, hi, xj, yj, xm, ym, s, cos_t, sin_t, an, at):
    """Write rows lo:hi of the normal (`an`) and tangential (`at`) influence matrices.

    Row i holds the velocity that each node's unit vortex strength induces
    at panel i's midpoint. Node k gets the first-node coefficient of panel
    k and the last-node coefficient of panel k - 1. Every operation is
    elementwise per panel pair, so a row's bits do not depend on which
    block computes it. sin and cos of theta_i - theta_j come from angle
    addition on per-panel values, and angle addition also turns the
    theta_i - 2 theta_j terms into p = -(a c + d e) and q = c e - a d, so
    log1p and arctan2 are the only transcendentals evaluated per panel
    pair. Arrays are dropped as soon as they are spent.
    """
    m = s.size
    rx = xm[lo:hi, None] - xj[None, :]
    ry = ym[lo:hi, None] - yj[None, :]
    sj = s[None, :]

    a = -rx * cos_t - ry * sin_t
    e = rx * sin_t - ry * cos_t
    b = rx**2 + ry**2
    del rx, ry
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.log1p(sj * (sj + 2.0 * a) / b)
        g = np.arctan2(e * sj, b + a * sj)
    del b
    c = np.multiply.outer(sin_t[lo:hi], cos_t)
    c -= np.multiply.outer(cos_t[lo:hi], sin_t)
    d = np.multiply.outer(cos_t[lo:hi], cos_t)
    d += np.multiply.outer(sin_t[lo:hi], sin_t)
    p = -(a * c + d * e)
    q = c * e - a * d
    del a, e
    with np.errstate(divide="ignore", invalid="ignore"):
        cn2 = d + (0.5 * q * f + p * g) / sj
        ct2 = c + (0.5 * p * f - q * g) / sj
        del p, q
        cn1 = 0.5 * d * f + c * g - cn2
        ct1 = 0.5 * c * f - d * g - ct2
    del c, d, f, g

    # A panel's own midpoint: the self-induced values.
    own = (np.arange(hi - lo), np.arange(lo, hi))
    cn1[own] = -1.0
    cn2[own] = 1.0
    ct1[own] = 0.5 * np.pi
    ct2[own] = 0.5 * np.pi

    an[lo:hi, :m] = cn1
    an[lo:hi, 1:] += cn2
    at[lo:hi, :m] = ct1
    at[lo:hi, 1:] += ct2


def _linear_vortex_solution(xs, ys, alpha_rad):
    """Nodal vortex strengths (normalized by 2 pi V) and panel geometry.

    Classic linear-strength formulation: flow tangency at panel midpoints
    plus the Kutta condition tying the two trailing-edge node strengths.
    The influence matrices are built `_INFLUENCE_ROWS` rows at a time, so
    the per-pair temporaries stay small. The LU and the tangential product
    run at one BLAS thread, whose results do not depend on the core count.
    """
    xj, yj = xs[:-1], ys[:-1]
    dx = np.diff(xs)
    dy = np.diff(ys)
    s = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    xm = xj + 0.5 * dx
    ym = yj + 0.5 * dy
    m = s.size
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    an = np.zeros((m + 1, m + 1))
    at = np.zeros((m, m + 1))
    for lo in range(0, m, _INFLUENCE_ROWS):
        _influence_rows(lo, min(lo + _INFLUENCE_ROWS, m), xj, yj, xm, ym, s, cos_t, sin_t, an, at)
    an[m, 0] = 1.0
    an[m, m] = 1.0

    rhs = np.zeros(m + 1)
    rhs[:m] = np.sin(theta - alpha_rad)
    with one_blas_thread():
        gamma = np.linalg.solve(an, rhs)
        v_t = np.cos(theta - alpha_rad) + at @ gamma
    return gamma, v_t, s


def _circulation_cl(gamma: np.ndarray, s: np.ndarray) -> float:
    """Kutta-Joukowski lift from total circulation (chord-normalized)."""
    return float(4.0 * np.pi * np.sum(0.5 * (gamma[:-1] + gamma[1:]) * s))


# Head's H1(H) at the initial shape factor, on its H <= 1.6 branch.
_BL_H1_INIT = 3.3 + 0.8234 * max(_BL_H_INIT - 1.1, 1e-3) ** -1.287


def _gradient_weights(x: np.ndarray) -> tuple:
    """The x-only factors of np.gradient on a 1-D non-uniform grid.

    Second-order interior and first-order edges: interior weights for
    f[:-2], f[1:-1] and f[2:], then the first and the last spacing.
    """
    dx = x[1:] - x[:-1]
    dx1, dx2 = dx[:-1], dx[1:]
    dx12 = dx1 + dx2
    return (
        -dx2 / (dx1 * dx12),
        (dx2 - dx1) / (dx1 * dx2),
        dx1 / (dx2 * dx12),
        dx[0],
        dx[-1],
    )


def _apply_gradient(f: np.ndarray, weights: tuple) -> np.ndarray:
    lo, mid, hi, dx_first, dx_last = weights
    out = np.empty_like(f, dtype=float)
    out[1:-1] = lo * f[:-2] + mid * f[1:-1] + hi * f[2:]
    out[0] = (f[1] - f[0]) / dx_first
    out[-1] = (f[-1] - f[-2]) / dx_last
    return out


def _gradient(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.gradient(f, x) on a 1-D non-uniform grid, without its set-up cost.

    numpy's operations in numpy's order, so the result is bit-identical. On
    an exactly uniform grid np.gradient switches to the plain central
    difference; the two then agree to rounding only.
    """
    return _apply_gradient(f, _gradient_weights(x))


def _trapezoid_widths(y: np.ndarray, widths: np.ndarray) -> float:
    return (widths * (y[1:] + y[:-1]) / 2.0).sum()


def _march_boundary_layer(s, u_e, reynolds, max_substeps):
    """Head's entrainment method along one surface, turbulent from the start.

    Returns (theta, h, u) at the trailing edge or at separation, plus the
    arclength fraction covered before separation (1.0 means attached to TE).
    """
    s = np.asarray(s, dtype=float)
    u_e = np.asarray(u_e, dtype=float)
    s_total = s[-1] if s.size else 0.0

    # Start at the stagnation point: the front-region velocity minimum.
    front = s < 0.3 * s_total
    if front.sum() >= 2:
        i0 = int(np.argmin(u_e[front]))
        s, u_e = s[i0:], u_e[i0:]
    # Drop the blunt-trailing-edge velocity spike (potential-flow artifact).
    te_keep = s <= s_total - 0.01
    s, u_e = s[te_keep], u_e[te_keep]

    keep = u_e > _BL_U_START
    if keep.sum() < 4:
        return None
    s = s[keep]
    u = u_e[keep]
    s = s - s[0] + max(s[0], 1e-4)
    du_ds = np.clip(_gradient(u, s), -60.0, 60.0)

    # Only theta, H and H1 feed back into the march, so every other input of a
    # substep is built here, with the operations of the scalar recurrence in
    # its order: interval k = [s_k, s_k+1] takes n_sub substeps, and substep j
    # of it sits at frac = (j + 0.5) / n_sub, u_loc = u_k + frac * (u_k+1 - u_k).
    # n_sub is min(max(1, int(ds_full / 2e-3) + 1), max_substeps); floor and
    # int() differ only below 0, where max(1, .) gives 1 either way.
    ds_full = s[1:] - s[:-1]
    steps = ds_full / 2e-3
    n = steps.size
    finite = np.isfinite(steps)
    if not finite.all():
        # int() cannot size a non-finite interval: march up to it, then raise.
        n = int(finite.argmin())
    n_sub = np.minimum(np.maximum(np.floor(steps[:n]) + 1.0, 1.0), max_substeps).astype(np.int64)
    k = np.repeat(np.arange(n), n_sub)
    j = np.arange(k.size) - (np.cumsum(n_sub) - n_sub)[k]
    frac = (j + 0.5) / n_sub[k]
    u_loc = u[k] + frac * (u[1:] - u[:-1])[k]
    dudx = du_ds[k] + frac * (du_ds[1:] - du_ds[:-1])[k]
    ds = (ds_full[:n] / n_sub)[k]
    s_loc = s[k] + (j + 1) * ds
    # The recurrence itself is scalar: Python floats cost far less per
    # operation than numpy scalars, and the arithmetic is the same.
    s_end = float(s[-1])

    def flat_plate_theta(s_loc, u_loc):
        return 0.036 * s_loc * max(u_loc * reynolds * s_loc, 10.0) ** -0.2

    theta = flat_plate_theta(float(s[0]), float(u[0]))
    h = _BL_H_INIT
    h1 = _BL_H1_INIT

    # Ludwieg-Tillmann skin friction and Head's H(H1) are written out inline.
    # Each max(x, c) is `c if c > x else x` and min(x, c) is `c if c < x else x`:
    # the operand the builtins return, on ties and NaN too.
    for u_loc, dudx, ds, s_loc in zip(u_loc.tolist(), dudx.tolist(), ds.tolist(), s_loc.tolist()):
        re_theta = u_loc * theta * reynolds
        cf = 0.246 * 10.0 ** (-0.678 * h) * (1.0 if 1.0 > re_theta else re_theta) ** -0.268
        dtheta = 0.5 * cf - (h + 2.0) * theta / u_loc * dudx
        h1_excess = h1 - 3.0
        dth1 = 0.0306 * (0.05 if 0.05 > h1_excess else h1_excess) ** -0.6169 \
            - (theta * h1 / u_loc) * dudx
        theta_new = theta + ds * dtheta
        th1_new = theta * h1 + ds * dth1
        if theta_new <= 0.0 or th1_new <= 3.32 * theta_new:
            # Strong acceleration collapsed the layer; restart it thin.
            theta = flat_plate_theta(s_loc, u_loc)
            h = _BL_H_INIT
            h1 = _BL_H1_INIT
            continue
        theta = theta_new
        h1 = th1_new / theta
        if 25.0 < h1:
            h1 = 25.0
        if h1 <= 3.32:
            h = _BL_H_SEPARATION
        else:
            h = 1.1 + (0.8234 / (h1 - 3.3)) ** (1.0 / 1.287)
            if h > 1.6:
                h = 0.6778 + (1.5501 / (h1 - 3.3)) ** (1.0 / 3.064)
        if h >= _BL_H_SEPARATION and dudx < 0.0:
            return theta, h, u_loc, s_loc / s_end
    if n < steps.size:
        int(steps[n])  # raises the ValueError or OverflowError of the interval loop
    return theta, h, float(u[-1]), 1.0


def _squire_young(theta: float, h: float, u: float) -> float:
    return 2.0 * theta * u ** (0.5 * (h + 5.0))


def _flat_plate_cf(reynolds: float) -> float:
    return 0.074 * reynolds**-0.2


def _profile_drag(geom, v_t, s, reynolds, n_lower, max_substeps):
    """Friction plus pressure-drag proxy; None signals a failed drag model."""
    tc = max_thickness(geom)
    cf = _flat_plate_cf(reynolds)
    cd_friction = 2.0 * cf * (1.0 + 2.7 * tc + 100.0 * tc**4)

    # Arclength from the leading edge along each surface, midpoint stations.
    mid_s = np.concatenate([[0.0], np.cumsum(s)])
    mid = 0.5 * (mid_s[:-1] + mid_s[1:])
    s_le = mid_s[n_lower]
    lower_s = (s_le - mid[:n_lower])[::-1]
    lower_u = np.abs(v_t[:n_lower])[::-1]
    upper_s = mid[n_lower:] - s_le
    upper_u = np.abs(v_t[n_lower:])

    cd_wake = 0.0
    for s_arr, u_arr in ((upper_s, upper_u), (lower_s, lower_u)):
        out = _march_boundary_layer(s_arr, u_arr, reynolds, max_substeps)
        if out is None:
            return None
        theta_te, h_te, u_te, attached = out
        if attached < 1.0:
            x_sep = attached * s_arr[-1]
            if x_sep < _MASSIVE_SEPARATION_X:
                return None
            cd_wake += _squire_young(theta_te, h_te, u_te)
            cd_wake += _SEPARATED_DRAG_GAIN * (s_arr[-1] - x_sep) ** 2
        else:
            cd_wake += _squire_young(theta_te, h_te, u_te)

    # Excess momentum loss over a two-sided flat plate stands in for pressure drag.
    cd_flat = 4.0 * 0.036 * reynolds**-0.2
    cd_pressure = max(0.0, cd_wake - cd_flat)
    return cd_friction + cd_pressure


def solve_high_fidelity(
    geom: AirfoilGeometry,
    flow: FlowConditions | None = None,
    cfg: SolverConfig | None = None,
) -> AeroResult:
    """Panel-method lift and boundary-layer drag; honest non-convergence."""
    flow = flow or FlowConditions()
    cfg = cfg or SolverConfig()
    t0 = time.monotonic()

    ok, reason = is_valid(geom)
    if not ok:
        raise GeometryRejected(reason)

    xs, ys = _panel_nodes(geom, cfg.panel_count)
    n_lower = (xs.size - 1) // 2
    alpha = np.radians(flow.angle_of_attack_deg)
    try:
        gamma, v_t, s = _linear_vortex_solution(xs, ys, alpha)
    except np.linalg.LinAlgError:
        return AeroResult(None, None, 1.0, False)
    if not np.all(np.isfinite(gamma)):
        return AeroResult(None, None, 1.0, False)

    cl = _circulation_cl(gamma, s)
    if time.monotonic() - t0 > cfg.timeout_s:
        return AeroResult(None, None, 1.0, False)

    cd = _profile_drag(geom, v_t, s, flow.reynolds, n_lower, cfg.max_iterations)
    if cd is None or not np.isfinite(cd):
        return AeroResult(None, None, 1.0, False)
    if cd <= 0.0:
        return AeroResult(None, None, 1.0, False)

    cl = _prandtl_glauert(cl, flow.mach)
    return AeroResult(float(cl), float(max(cd, CD_FLOOR)), 1.0, True)


class _SurrogateGrid:
    """Every term of the surrogate that depends on the stations `x` alone."""

    def __init__(self, x: np.ndarray):
        self.x = x
        self.gradient = _gradient_weights(x)
        self.widths = x[1:] - x[:-1]
        # Thin-airfoil variable: x = (1 - cos theta) / 2.
        theta = np.arccos((1.0 - 2.0 * x).clip(-1.0, 1.0))
        self.theta_widths = theta[1:] - theta[:-1]
        self.cos_theta_m1 = np.cos(theta) - 1.0
        past_nose = x > 0.1
        interior = past_nose & (x < 0.9)
        self.interior = interior if np.count_nonzero(interior) >= 5 else None
        aft = past_nose & (x < 0.95)
        self.aft = aft if aft.any() else None
        self.aft_denom = 1.0 - x[aft] + 0.02


@functools.cache
def _station_terms(n: int) -> _SurrogateGrid:
    return _SurrogateGrid(station_grid(n).x)


def _surrogate_grid(x: np.ndarray) -> _SurrogateGrid:
    """The terms of `x`: kept per station count for that count's station vector,
    built per call for any other vector."""
    grid = _station_terms(x.size)
    return grid if grid.x is x else _SurrogateGrid(x)


def _camber_zero_lift_angle(grid: _SurrogateGrid, camber: np.ndarray) -> float:
    """Thin-airfoil zero-lift angle from the camber-line slope."""
    slope = _apply_gradient(camber, grid.gradient)
    return -_trapezoid_widths(slope * grid.cos_theta_m1, grid.theta_widths) / np.pi


def plausibility_score(geom: AirfoilGeometry) -> float:
    """Confidence in [0, 1]; penalizes crossing, wavy thickness, wild camber.

    Shapes resembling catalogued airfoils score 1; the score decays on
    geometries outside the surrogate's trustworthy envelope.
    """
    grid = _surrogate_grid(geom.x)
    gap = geom.y_upper - geom.y_lower
    crossing = float(_trapezoid_widths(np.maximum(0.0, -gap), grid.widths))
    if grid.interior is not None:
        d1 = _apply_gradient(gap, grid.gradient)
        d2 = _apply_gradient(d1, grid.gradient)
        excess = np.maximum(0.0, np.abs(d2[grid.interior]) - KAPPA_CURVATURE_ALLOWANCE)
        curvature = float(excess.sum() / excess.size)
    else:
        curvature = 0.0
    camber = 0.5 * np.abs(geom.y_upper + geom.y_lower)
    over = np.maximum(0.0, camber - KAPPA_CAMBER_ALLOWANCE)
    camber_excess = float(over.sum() / over.size)
    # Gap shrinking faster than the normal taper towards the trailing edge
    # marks a shape about to self-intersect.
    if grid.aft is not None:
        pinch = float((gap[grid.aft] / grid.aft_denom).min())
    else:
        pinch = KAPPA_PINCH_ALLOWANCE
    pinch_deficit = max(0.0, KAPPA_PINCH_ALLOWANCE - pinch)
    score = np.exp(
        -KAPPA_CROSSING_GAIN * crossing
        - KAPPA_CURVATURE_GAIN * curvature
        - KAPPA_CAMBER_GAIN * camber_excess
        - KAPPA_PINCH_GAIN * pinch_deficit
    )
    return min(max(float(score), 0.0), 1.0)


def solve_low_fidelity(
    geom: AirfoilGeometry,
    flow: FlowConditions | None = None,
    cfg: SolverConfig | None = None,
) -> AeroResult:
    """Camber-line surrogate: always converges, grades itself with kappa.

    `cfg` is accepted for the common solver signature; the surrogate has
    no setting to read from it.
    """
    flow = flow or FlowConditions()
    arrays = (geom.x, geom.y_upper, geom.y_lower)
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidParams("geometry must be finite")

    camber = 0.5 * (geom.y_upper + geom.y_lower)
    alpha = np.radians(flow.angle_of_attack_deg)
    alpha_zl = _camber_zero_lift_angle(_surrogate_grid(geom.x), camber)
    cl = 2.0 * np.pi * np.sin(alpha - alpha_zl)
    cl = _prandtl_glauert(cl, flow.mach)

    tc = max(max_thickness(geom), 0.0)
    cd = 2.0 * _flat_plate_cf(flow.reynolds) * (1.0 + 2.7 * tc + 60.0 * tc**2)
    cd = max(cd, CD_FLOOR)

    kappa = plausibility_score(geom)
    return AeroResult(float(cl), float(cd), kappa, True)


def nominal_cost_s(calls: int, ms_per_call: float) -> float:
    """The one pricing rule: `calls` solver calls at `ms_per_call` nominal ms each, in seconds."""
    return calls * ms_per_call / 1000.0


@dataclass
class CountingSolver:
    """Wraps a solver function and accumulates call/cost bookkeeping."""

    fidelity: str
    flow: FlowConditions = field(default_factory=FlowConditions)
    cfg: SolverConfig | None = None
    calls: int = 0

    def __post_init__(self):
        fidelity = FIDELITIES.get(self.fidelity)
        if fidelity is None:
            raise InvalidParams(f"unknown fidelity {self.fidelity!r}")
        if self.cfg is None:
            self.cfg = fidelity.config
        self._fn = globals()[fidelity.solver]

    def __call__(self, geom: AirfoilGeometry) -> AeroResult:
        self.calls += 1
        return self._fn(geom, self.flow, self.cfg)

    @property
    def nominal_cost_s(self) -> float:
        return nominal_cost_s(self.calls, self.cfg.nominal_cost_ms)

"""CST (Kulfan) airfoil parameterization.

The design vector has 18 components in a fixed canonical order:
8 upper-surface shape weights, 8 lower-surface shape weights, the
trailing-edge thickness and the leading-edge modification weight.
Checkpoints and environment states rely on this ordering.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import FitError, InvalidParams

N_WEIGHTS = 8  # per surface
N_PARAMS = 2 * N_WEIGHTS + 2
IDX_UPPER = slice(0, N_WEIGHTS)
IDX_LOWER = slice(N_WEIGHTS, 2 * N_WEIGHTS)
IDX_TE = 2 * N_WEIGHTS
IDX_LE = 2 * N_WEIGHTS + 1

# Class function exponents: round nose, sharp-ish tail.
CLASS_N1 = 0.5
CLASS_N2 = 1.0

# Leading-edge modification decays as (1-x)^(N_WEIGHTS + 0.5).
_LE_EXPONENT = N_WEIGHTS + 0.5

_BINOMIAL = np.array([math.comb(N_WEIGHTS - 1, j) for j in range(N_WEIGHTS)], dtype=float)

THICKNESS_FLOOR = 0.001  # fraction of chord; collapsed shapes break the solver
CROSSING_TOL = 1e-4


@dataclass(frozen=True)
class ParamBounds:
    """Componentwise box bounds on the 18-dimensional design vector."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != (N_PARAMS,) or hi.shape != (N_PARAMS,):
            raise InvalidParams("bounds must have 18 components")
        if not np.all(lo < hi):
            raise InvalidParams("each lower bound must be below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @cached_property
    def span(self) -> np.ndarray:
        # Computed once: the policy loop and every observation read it.
        span = self.upper - self.lower
        span.flags.writeable = False
        return span

    def clamp(self, vec: np.ndarray) -> np.ndarray:
        # Same values as np.clip, without its dispatch cost on 18 components.
        return np.minimum(np.maximum(vec, self.lower), self.upper)


def default_bounds() -> ParamBounds:
    """Bounds used by the environments (per-surface weights, TE gap, LE weight)."""
    lower = np.concatenate([
        np.full(N_WEIGHTS, -1.5),
        np.full(N_WEIGHTS, -0.75),
        [0.0005, -0.05],
    ])
    upper = np.concatenate([
        np.full(N_WEIGHTS, 1.25),
        np.full(N_WEIGHTS, 1.5),
        [0.01, 0.775],
    ])
    return ParamBounds(lower, upper)


@dataclass(frozen=True)
class CstParams:
    """The 18-component design/state vector in canonical order."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if vec.shape != (N_PARAMS,):
            raise InvalidParams(f"expected {N_PARAMS} parameters, got shape {vec.shape}")
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True)
class AirfoilGeometry:
    """Discrete upper/lower surfaces sampled on shared chordwise stations.

    The maximum thickness is computed on first use and kept, so the arrays
    must not change afterwards; `cst_to_geometry` returns read-only ones.
    """

    x: np.ndarray
    y_upper: np.ndarray
    y_lower: np.ndarray

    @property
    def n_stations(self) -> int:
        return self.x.size

    @cached_property
    def max_thickness(self) -> float:
        return _peak_thickness(self)


def cosine_stations(n: int) -> np.ndarray:
    """Chord stations clustered at both ends; x(0)=0, x(n-1)=1."""
    return 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))


@dataclass(frozen=True)
class StationGrid:
    """The cosine stations of one station count and the CST terms that depend only on them."""

    x: np.ndarray
    basis: np.ndarray  # Bernstein basis, (n, N_WEIGHTS)
    class_fn: np.ndarray
    le_term: np.ndarray


@cache
def station_grid(n: int) -> StationGrid:
    """The grid of `n` stations, built on first use and kept read-only."""
    x = cosine_stations(n)
    grid = StationGrid(x, _bernstein(x), _class_fn(x), _le_term(x))
    for a in (grid.x, grid.basis, grid.class_fn, grid.le_term):
        a.flags.writeable = False
    return grid


def _bernstein(x: np.ndarray) -> np.ndarray:
    """Bernstein basis matrix, shape (len(x), N_WEIGHTS)."""
    x = x[:, None]
    j = np.arange(N_WEIGHTS)
    return _BINOMIAL * x**j * (1.0 - x) ** (N_WEIGHTS - 1 - j)


def _class_fn(x: np.ndarray) -> np.ndarray:
    return x**CLASS_N1 * (1.0 - x) ** CLASS_N2


def _le_term(x: np.ndarray) -> np.ndarray:
    return x * (1.0 - x) ** _LE_EXPONENT


def cst_to_geometry(params: CstParams | np.ndarray, n_stations: int) -> AirfoilGeometry:
    """Evaluate the parameterization on cosine-spaced stations.

    Upper and lower surfaces are class function times Bernstein shape
    function, plus the leading-edge modification and half the trailing-edge
    gap on each side.
    """
    vec = params.vector if isinstance(params, CstParams) else np.asarray(params, dtype=float)
    if vec.shape != (N_PARAMS,):
        raise InvalidParams(f"expected {N_PARAMS} parameters, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise InvalidParams("parameters must be finite")
    if n_stations < 32:
        raise InvalidParams("need at least 32 stations")

    grid = station_grid(n_stations)
    x = grid.x
    le = vec[IDX_LE] * grid.le_term
    te_half = 0.5 * vec[IDX_TE] * x
    y_upper = grid.class_fn * (grid.basis @ vec[IDX_UPPER]) + te_half + le
    y_lower = grid.class_fn * (grid.basis @ vec[IDX_LOWER]) - te_half - le
    y_upper.flags.writeable = False
    y_lower.flags.writeable = False
    return AirfoilGeometry(x=x, y_upper=y_upper, y_lower=y_lower)


def max_thickness(geom: AirfoilGeometry) -> float:
    """Peak of (y_upper - y_lower), refined by a parabola through the top three stations.

    Computed once per geometry and kept on it.
    """
    return geom.max_thickness


def _peak_thickness(geom: AirfoilGeometry) -> float:
    t = geom.y_upper - geom.y_lower
    i = int(np.argmax(t))
    if i == 0 or i == t.size - 1:
        return float(t[i])
    x0, x1, x2 = geom.x[i - 1 : i + 2]
    t0, t1, t2 = t[i - 1 : i + 2]
    # Lagrange parabola vertex; falls back to the grid value when degenerate.
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    if denom == 0.0:
        return float(t1)
    a = (x2 * (t1 - t0) + x1 * (t0 - t2) + x0 * (t2 - t1)) / denom
    b = (x2**2 * (t0 - t1) + x1**2 * (t2 - t0) + x0**2 * (t1 - t2)) / denom
    if a >= 0.0:
        return float(t1)
    xv = -b / (2.0 * a)
    if not (x0 <= xv <= x2):
        return float(t1)
    c = t1 - a * x1**2 - b * x1
    return float(a * xv**2 + b * xv + c)


def is_valid(geom: AirfoilGeometry) -> tuple[bool, str]:
    """Check the surfaces describe a physically meaningful, solver-safe shape."""
    arrays = (geom.x, geom.y_upper, geom.y_lower)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return False, "non-finite"
    if np.any(geom.x[1:] <= geom.x[:-1]):  # the solver interpolates on the stations
        return False, "non-increasing-stations"
    gap = geom.y_upper - geom.y_lower
    if np.any(gap[1:-1] < -CROSSING_TOL):
        return False, "crossing"
    if max_thickness(geom) < THICKNESS_FLOOR:
        return False, "below-thickness-floor"
    return True, "ok"


def geometry_to_selig(geom: AirfoilGeometry) -> np.ndarray:
    """Assemble the Selig loop: upper surface TE -> LE, then lower LE -> TE."""
    upper = np.column_stack([geom.x[::-1], geom.y_upper[::-1]])
    lower = np.column_stack([geom.x[1:], geom.y_lower[1:]])
    return np.vstack([upper, lower])


def _split_selig(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a Selig loop at the leading edge into (upper, lower) point sets.

    Loop order is trusted: the segment before the leading edge is the upper
    surface. Crossing or inverted shapes carry no other reliable labeling.
    """
    i_le = int(np.argmin(coords[:, 0]))
    if i_le < 3 or i_le > coords.shape[0] - 4:
        raise FitError("cannot split surfaces: leading edge too close to an end of the loop")
    return coords[: i_le + 1], coords[i_le:]


def fit_cst(
    coords: np.ndarray,
    bounds: ParamBounds | None = None,
) -> tuple[CstParams, float]:
    """Least-squares fit of the 18 parameters to a Selig-ordered coordinate loop.

    The model is linear in every parameter, so a single lstsq solves it.
    The result is clamped to the bounds; the returned residual is the RMS
    surface mismatch of the clamped parameters, in chord fractions.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 20:
        raise FitError("need at least 20 coordinate pairs")
    if not np.all(np.isfinite(coords)):
        raise FitError("coordinates must be finite")
    if bounds is None:
        bounds = default_bounds()

    coords = coords.copy()
    coords[:, 0] -= coords[:, 0].min()
    chord = coords[:, 0].max()
    if chord <= 0.0:
        raise FitError("degenerate chord")
    coords /= chord
    y_le = coords[np.argmin(coords[:, 0]), 1]
    coords[:, 1] -= y_le

    upper, lower = _split_selig(coords)

    def rows(points: np.ndarray, sign: float) -> tuple[np.ndarray, np.ndarray]:
        x = np.clip(points[:, 0], 0.0, 1.0)
        a = np.zeros((x.size, N_PARAMS))
        shape_cols = _class_fn(x)[:, None] * _bernstein(x)
        if sign > 0:
            a[:, IDX_UPPER] = shape_cols
        else:
            a[:, IDX_LOWER] = shape_cols
        a[:, IDX_TE] = sign * 0.5 * x
        a[:, IDX_LE] = sign * _le_term(x)
        return a, points[:, 1]

    a_up, y_up = rows(upper, +1.0)
    a_lo, y_lo = rows(lower, -1.0)
    design = np.vstack([a_up, a_lo])
    target = np.concatenate([y_up, y_lo])

    sol, *_ = np.linalg.lstsq(design, target, rcond=None)
    clamped = bounds.clamp(sol)
    residual = float(np.sqrt(np.mean((design @ clamped - target) ** 2)))
    return CstParams(clamped), residual


def read_dat(path: str | Path) -> tuple[str, np.ndarray]:
    """Parse an airfoil coordinate file.

    Selig files carry a name line followed by one x-y loop. Lednicer files
    are detected by their point-count header (two values > 1.5) and two
    LE -> TE blocks, and are converted to a Selig loop.
    """
    path = Path(path)
    raw = path.read_text(errors="replace").splitlines()
    name = ""
    pairs: list[tuple[float, float]] = []
    breaks: list[int] = []
    for line in raw:
        parts = line.split()
        vals = None
        if len(parts) >= 2:
            try:
                vals = (float(parts[0]), float(parts[1]))
            except ValueError:
                vals = None
        if vals is None:
            if not pairs and not name:
                name = line.strip()
            elif pairs:
                breaks.append(len(pairs))
            continue
        pairs.append(vals)
    if not name:
        name = path.stem
    if len(pairs) < 20:
        raise FitError(f"{path.name}: too few coordinate points")
    pts = np.array(pairs)

    if pts[0, 0] > 1.5 and pts[0, 1] > 1.5:
        n_up = int(round(pts[0, 0]))
        n_lo = int(round(pts[0, 1]))
        body = pts[1:]
        if body.shape[0] != n_up + n_lo:
            raise FitError(f"{path.name}: point counts disagree with header")
        upper = body[:n_up]
        lower = body[n_up:]
        pts = np.vstack([upper[::-1], lower[1:]])
    return name, pts

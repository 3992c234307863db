from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foilrl import aero, bundled_airfoil_dir, naca
from foilrl.aero import (
    AeroResult,
    CountingSolver,
    FlowConditions,
    high_fidelity_config,
    low_fidelity_config,
    plausibility_score,
    solve_high_fidelity,
    solve_low_fidelity,
    _BL_H1_INIT,
    _BL_H_INIT,
    _BL_H_SEPARATION,
    _BL_U_START,
    _flat_plate_cf,
    _gradient,
    _march_boundary_layer,
    _surrogate_grid,
    _trapezoid_widths,
)
from foilrl.env import RESET_POOL_NAMES
from foilrl.errors import GeometryRejected, InvalidParams
from foilrl.geometry import (
    AirfoilGeometry,
    cosine_stations,
    cst_to_geometry,
    default_bounds,
    fit_cst,
    is_valid,
    max_thickness,
    read_dat,
    station_grid,
)

BOUNDS = default_bounds()
INCOMPRESSIBLE = FlowConditions(angle_of_attack_deg=2.0, reynolds=1e6, mach=0.0)
THIN_AIRFOIL_CL_2DEG = 2.0 * np.pi * np.sin(np.radians(2.0))


def fitted(code: str):
    params, _ = fit_cst(naca.coordinates(code, 131), BOUNDS)
    return params


def geom_of(code: str, n=200):
    return cst_to_geometry(fitted(code), n)


class TestFlowConditions:
    def test_defaults_match_operating_point(self):
        flow = FlowConditions()
        assert flow.angle_of_attack_deg == 2.0
        assert flow.reynolds == 1e6
        assert flow.mach == 0.5

    def test_supercritical_mach_rejected(self):
        with pytest.raises(InvalidParams):
            FlowConditions(mach=0.8)

    def test_nonpositive_reynolds_rejected(self):
        with pytest.raises(InvalidParams, match="reynolds"):
            FlowConditions(reynolds=0.0)


class TestSolverConfig:
    def test_high_fidelity_defaults(self):
        cfg = high_fidelity_config()
        assert cfg.panel_count == 255
        assert cfg.max_iterations == 200
        assert cfg.timeout_s == 30.0
        assert cfg.nominal_cost_ms == 73.0

    def test_low_fidelity_nominal_cost(self):
        assert low_fidelity_config().nominal_cost_ms == 4.0


class TestHighFidelity:
    def test_symmetric_airfoil_zero_lift(self):
        result = solve_high_fidelity(geom_of("0012"), FlowConditions(0.0, 1e6, 0.0))
        assert result.converged
        assert abs(result.cl) < 1e-6

    def test_naca0012_within_15pct_of_thin_airfoil(self):
        result = solve_high_fidelity(geom_of("0012"), INCOMPRESSIBLE)
        assert result.converged
        assert abs(result.cl - THIN_AIRFOIL_CL_2DEG) / THIN_AIRFOIL_CL_2DEG < 0.15

    def test_prandtl_glauert_identity(self):
        geom = geom_of("2412")
        cl0 = solve_high_fidelity(geom, INCOMPRESSIBLE).cl
        cl5 = solve_high_fidelity(geom, FlowConditions(2.0, 1e6, 0.5)).cl
        assert abs(cl5 * np.sqrt(1.0 - 0.25) - cl0) < 1e-10

    def test_panel_refinement_changes_cl_under_2pct(self):
        geom = geom_of("0012", 400)
        cl128 = solve_high_fidelity(geom, INCOMPRESSIBLE, high_fidelity_config(panel_count=128)).cl
        cl256 = solve_high_fidelity(geom, INCOMPRESSIBLE, high_fidelity_config(panel_count=256)).cl
        assert abs(cl256 - cl128) / abs(cl256) < 0.02

    def test_cl_monotone_in_aoa(self):
        geom = geom_of("0012")
        cls = []
        for aoa in [-2.0, 0.0, 2.0, 4.0, 6.0]:
            result = solve_high_fidelity(geom, FlowConditions(aoa, 1e6, 0.0))
            assert result.converged, f"failed at aoa={aoa}"
            cls.append(result.cl)
        assert np.all(np.diff(cls) > 0)

    def test_invalid_geometry_rejected_distinctly(self):
        geom = geom_of("0012")
        swapped = AirfoilGeometry(geom.x, geom.y_lower, geom.y_upper)
        with pytest.raises(GeometryRejected):
            solve_high_fidelity(swapped, INCOMPRESSIBLE)

    @settings(max_examples=100, deadline=None)
    @given(factor=st.floats(0.0, 1.5), spread=st.floats(0.0, 0.3),
           direction=st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18))
    @example(factor=0.0, spread=0.0, direction=[0.0] * 18)  # below the thickness floor
    def test_rejects_exactly_what_is_valid_rejects(self, factor, spread, direction):
        # A scaled NACA 2412 fit plus a perturbation, in and out of the bounds:
        # the environment's solve relies on the solver refusing no shape that
        # `is_valid` passes.
        vec = factor * fitted("2412").vector + spread * np.asarray(direction) * BOUNDS.span
        cfg = high_fidelity_config(panel_count=64)
        geom = cst_to_geometry(vec, cfg.geometry_stations)
        ok, _ = is_valid(geom)
        try:
            solve_high_fidelity(geom, INCOMPRESSIBLE, cfg)
        except GeometryRejected:
            assert not ok
        else:
            assert ok

    def test_kappa_is_one(self):
        assert solve_high_fidelity(geom_of("4412"), INCOMPRESSIBLE).confidence == 1.0

    def test_positive_drag(self):
        for code in ("0006", "0012", "4412", "0024"):
            result = solve_high_fidelity(geom_of(code), INCOMPRESSIBLE)
            assert result.converged and result.cd > 0


class TestHighFidelityFailures:
    """Each way the panel solve or the drag model can fail gives the one unconverged result."""

    FAILED = AeroResult(None, None, 1.0, False)
    CFG = high_fidelity_config(panel_count=96)

    @pytest.fixture
    def geom(self):
        geom = cst_to_geometry(fitted("2412"), self.CFG.geometry_stations)
        assert solve_high_fidelity(geom, INCOMPRESSIBLE, self.CFG).converged
        return geom

    def test_singular_system(self, geom, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(aero, "_linear_vortex_solution", singular)
        assert solve_high_fidelity(geom, INCOMPRESSIBLE, self.CFG) == self.FAILED

    def test_nonfinite_vortex_strengths(self, geom, monkeypatch):
        solve = aero._linear_vortex_solution

        def nan_gamma(*args):
            gamma, v_t, s = solve(*args)
            gamma[3] = np.nan
            return gamma, v_t, s

        monkeypatch.setattr(aero, "_linear_vortex_solution", nan_gamma)
        assert solve_high_fidelity(geom, INCOMPRESSIBLE, self.CFG) == self.FAILED

    @pytest.mark.parametrize("cd", [None, np.nan, 0.0])
    def test_failed_drag_model(self, cd, geom, monkeypatch):
        monkeypatch.setattr(aero, "_profile_drag", lambda *args: cd)
        assert solve_high_fidelity(geom, INCOMPRESSIBLE, self.CFG) == self.FAILED

    def test_timeout(self, geom):
        cfg = high_fidelity_config(panel_count=96, timeout_s=1e-12)
        assert solve_high_fidelity(geom, INCOMPRESSIBLE, cfg) == self.FAILED


class TestLowFidelity:
    def test_flat_plate_exact_thin_airfoil(self):
        geom = cst_to_geometry(np.zeros(18), 200)
        result = solve_low_fidelity(geom, INCOMPRESSIBLE)
        assert result.cl == pytest.approx(THIN_AIRFOIL_CL_2DEG, abs=1e-12)

    def test_symmetric_zero_lift_and_full_confidence(self):
        result = solve_low_fidelity(geom_of("0015"), FlowConditions(0.0, 1e6, 0.0))
        assert abs(result.cl) < 1e-9
        assert result.confidence == 1.0

    def test_prandtl_glauert_identity(self):
        geom = geom_of("2412")
        cl0 = solve_low_fidelity(geom, INCOMPRESSIBLE).cl
        cl5 = solve_low_fidelity(geom, FlowConditions(2.0, 1e6, 0.5)).cl
        assert abs(cl5 * np.sqrt(1.0 - 0.25) - cl0) < 1e-10

    def test_never_fails_on_finite_input(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = BOUNDS.lower + rng.random(18) * BOUNDS.span
            result = solve_low_fidelity(cst_to_geometry(p, 128))
            assert result.converged
            assert 0.0 <= result.confidence <= 1.0
            assert result.cd > 0

    def test_crossing_shape_low_confidence_but_converged(self):
        x = cosine_stations(200)
        bulge = 0.05 * np.sin(np.pi * x)
        crossed = AirfoilGeometry(x, -bulge, bulge)
        result = solve_low_fidelity(crossed, INCOMPRESSIBLE)
        assert result.converged
        assert result.confidence < 0.5
        # the score is the documented formula evaluated on this shape
        assert result.confidence == pytest.approx(plausibility_score(crossed))

    def test_nonfinite_geometry_rejected(self):
        x = cosine_stations(64)
        y = np.zeros(64)
        y[3] = np.nan
        with pytest.raises(InvalidParams):
            solve_low_fidelity(AirfoilGeometry(x, y, -np.abs(y)), INCOMPRESSIBLE)

    def test_few_stations_skip_the_curvature_and_pinch_terms(self):
        # No station lies in (0.1, 0.9), where curvature is scored, nor in
        # (0.1, 0.95), where the pinch is; only the camber term is left.
        x = np.array([0.0, 0.05, 0.97, 1.0])
        thin = np.array([0.0, 0.02, 0.01, 0.0])
        assert plausibility_score(AirfoilGeometry(x, thin, -thin)) == 1.0
        upper = np.array([0.0, 0.2, 0.15, 0.0])
        lower = np.array([0.0, 0.1, 0.1, 0.0])
        camber_excess = (0.15 - 0.105 + 0.125 - 0.105) / 4
        assert plausibility_score(AirfoilGeometry(x, upper, lower)) == pytest.approx(
            np.exp(-60.0 * camber_excess), rel=1e-12)

    def test_reset_pool_scores_high_confidence(self):
        from foilrl.env import load_reset_pool

        for name, vec in load_reset_pool(RESET_POOL_NAMES).items():
            geom = cst_to_geometry(vec, 200)
            assert plausibility_score(geom) > 0.99, name


class TestLiftDragRatio:
    def test_closed_form_pair(self):
        # flat-plate surrogate values recomputed by hand from the two formulas
        cl = 2.0 * np.pi * np.sin(np.radians(2.0))
        cd = 2.0 * _flat_plate_cf(1e6)  # zero-thickness form factor is 1
        result = solve_low_fidelity(cst_to_geometry(np.zeros(18), 200), INCOMPRESSIBLE)
        assert result.cl / result.cd == pytest.approx(cl / cd, rel=1e-12)


class TestCountingSolver:
    def test_counts_and_nominal_cost(self):
        solver = CountingSolver("low")
        geom = geom_of("0012")
        for _ in range(5):
            solver(geom)
        assert solver.calls == 5
        assert solver.nominal_cost_s == pytest.approx(5 * 4.0 / 1000.0)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(InvalidParams, match="unknown fidelity 'medium'"):
            CountingSolver("medium")


def _reference_low_fidelity(geom: AirfoilGeometry, flow: FlowConditions):
    """The surrogate written with np.gradient and np.trapezoid, terms built per call."""
    x, yu, yl = geom.x, geom.y_upper, geom.y_lower
    slope = np.gradient(0.5 * (yu + yl), x)
    theta = np.arccos((1.0 - 2.0 * x).clip(-1.0, 1.0))
    alpha_zl = -np.trapezoid(slope * (np.cos(theta) - 1.0), theta) / np.pi
    cl = 2.0 * np.pi * np.sin(np.radians(flow.angle_of_attack_deg) - alpha_zl)
    cl = cl / np.sqrt(1.0 - flow.mach**2)
    tc = max(max_thickness(geom), 0.0)
    cd = max(2.0 * _flat_plate_cf(flow.reynolds) * (1.0 + 2.7 * tc + 60.0 * tc**2), 1e-4)

    gap = yu - yl
    crossing = float(np.trapezoid(np.maximum(0.0, -gap), x))
    interior = (x > 0.1) & (x < 0.9)
    curvature = 0.0
    if np.count_nonzero(interior) >= 5:
        d2 = np.gradient(np.gradient(gap, x), x)
        excess = np.maximum(0.0, np.abs(d2[interior]) - 25.0)
        curvature = float(excess.sum() / excess.size)
    over = np.maximum(0.0, 0.5 * np.abs(yu + yl) - 0.105)
    camber_excess = float(over.sum() / over.size)
    aft = (x > 0.1) & (x < 0.95)
    pinch = float((gap[aft] / (1.0 - x[aft] + 0.02)).min()) if aft.any() else 0.035
    score = np.exp(-400.0 * crossing - 0.02 * curvature - 60.0 * camber_excess
                   - 35.0 * max(0.0, 0.035 - pinch))
    return float(cl), float(cd), min(max(float(score), 0.0), 1.0)


class TestSurrogateGridTerms:
    """Terms kept per cached station grid give the per-call formulas' bits."""

    @pytest.mark.parametrize("n", [64, 81, 128])
    def test_cached_grid_matches_reference(self, n):
        rng = np.random.default_rng(n)
        vectors = [fitted("0012").vector, fitted("4415").vector]
        vectors += [BOUNDS.lower + rng.random(18) * BOUNDS.span for _ in range(20)]
        for vec in vectors:
            geom = cst_to_geometry(vec, n)
            for flow in (FlowConditions(), INCOMPRESSIBLE):
                result = solve_low_fidelity(geom, flow)
                assert (result.cl, result.cd, result.confidence) == \
                    _reference_low_fidelity(geom, flow)

    def test_uncached_non_cosine_stations_match_reference(self):
        rng = np.random.default_rng(11)
        for n in (12, 64, 150):
            x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
            yu = 0.1 * np.sqrt(x) * (1.0 - x) + 0.01 * rng.standard_normal(n)
            yl = -0.05 * np.sqrt(x) * (1.0 - x) + 0.01 * rng.standard_normal(n)
            geom = AirfoilGeometry(x, yu, yl)
            result = solve_low_fidelity(geom, FlowConditions())
            assert (result.cl, result.cd, result.confidence) == \
                _reference_low_fidelity(geom, FlowConditions())

    @pytest.mark.parametrize("n", [64, 81, 128])
    def test_one_object_per_station_vector_and_the_same_bits_for_a_copy(self, n):
        x = station_grid(n).x
        cached = _surrogate_grid(x)
        assert _surrogate_grid(station_grid(n).x) is cached
        copy = _surrogate_grid(x.copy())
        assert copy is not cached and copy is not _surrogate_grid(x.copy())

        def bits(grid):
            terms = [*grid.gradient, grid.widths, grid.theta_widths, grid.cos_theta_m1,
                     grid.interior, grid.aft, grid.aft_denom]
            return [np.asarray(t).tobytes() for t in terms]

        assert bits(copy) == bits(cached)


class TestLeanKernels:
    """The hand-written kernels equal the numpy calls they replace, bit for bit."""

    @pytest.mark.parametrize("n", [64, 81, 128])
    def test_gradient_on_cosine_stations(self, n):
        x = cosine_stations(n)
        rng = np.random.default_rng(n)
        for f in (np.sin(3.0 * x), rng.standard_normal(n)):
            assert _gradient(f, x).tobytes() == np.gradient(f, x).tobytes()

    def test_gradient_on_random_grids(self):
        rng = np.random.default_rng(2505)
        for n in (3, 4, 17, 200):
            x = np.cumsum(rng.uniform(1e-3, 1.0, n))
            f = rng.standard_normal(n)
            assert _gradient(f, x).tobytes() == np.gradient(f, x).tobytes()

    def test_trapezoid(self):
        rng = np.random.default_rng(7)
        for x in (cosine_stations(81), np.cumsum(rng.uniform(1e-3, 1.0, 50))):
            y = rng.standard_normal(x.size)
            assert _trapezoid_widths(y, x[1:] - x[:-1]) == np.trapezoid(y, x)


# The per-interval boundary-layer march that the flattened one replaced, kept
# verbatim as the reference, plus a count of the branches it takes.


def _head_h_from_h1(h1: float) -> float:
    if h1 <= 3.32:
        return _BL_H_SEPARATION
    h = 1.1 + (0.8234 / (h1 - 3.3)) ** (1.0 / 1.287)
    if h > 1.6:
        h = 0.6778 + (1.5501 / (h1 - 3.3)) ** (1.0 / 3.064)
    return float(h)


def _cf_ludwieg_tillmann(h: float, re_theta: float) -> float:
    return 0.246 * 10.0 ** (-0.678 * h) * max(re_theta, 1.0) ** -0.268


def _reference_march(s, u_e, reynolds, max_substeps, branches):
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
        branches["too_few_points"] += 1
        return None
    s = s[keep]
    u = u_e[keep]
    s = s - s[0] + max(s[0], 1e-4)
    du_ds = np.clip(_gradient(u, s), -60.0, 60.0)
    # The march is a scalar recurrence: Python floats cost far less per
    # operation than numpy scalars, and the arithmetic is the same.
    s, u, du_ds = s.tolist(), u.tolist(), du_ds.tolist()
    s_end = s[-1]

    def flat_plate_theta(s_loc, u_loc):
        return 0.036 * s_loc * max(u_loc * reynolds * s_loc, 10.0) ** -0.2

    theta = flat_plate_theta(s[0], u[0])
    h = _BL_H_INIT
    h1 = _BL_H1_INIT

    for k in range(len(s) - 1):
        s_k, u_k, dudx_k = s[k], u[k], du_ds[k]
        ds_full = s[k + 1] - s_k
        du_k = u[k + 1] - u_k
        ddudx_k = du_ds[k + 1] - dudx_k
        n_sub = min(max(1, int(ds_full / 2e-3) + 1), max_substeps)
        if n_sub < int(ds_full / 2e-3) + 1:
            branches["substep_cap"] += 1
        ds = ds_full / n_sub
        for j in range(n_sub):
            frac = (j + 0.5) / n_sub
            u_loc = u_k + frac * du_k
            dudx = dudx_k + frac * ddudx_k
            re_theta = u_loc * theta * reynolds
            cf = _cf_ludwieg_tillmann(h, re_theta)
            dtheta = 0.5 * cf - (h + 2.0) * theta / u_loc * dudx
            dth1 = 0.0306 * max(h1 - 3.0, 0.05) ** -0.6169 - (theta * h1 / u_loc) * dudx
            theta_new = theta + ds * dtheta
            th1_new = theta * h1 + ds * dth1
            s_loc = s_k + (j + 1) * ds
            if theta_new <= 0.0 or th1_new <= 3.32 * theta_new:
                # Strong acceleration collapsed the layer; restart it thin.
                branches["restart"] += 1
                theta = flat_plate_theta(s_loc, u_loc)
                h = _BL_H_INIT
                h1 = _BL_H1_INIT
                continue
            theta = theta_new
            h1 = min(th1_new / theta, 25.0)
            h = _head_h_from_h1(h1)
            if h >= _BL_H_SEPARATION and dudx < 0.0:
                branches["separation"] += 1
                return theta, h, u_loc, s_loc / s_end
    branches["attached"] += 1
    return theta, h, u[-1], 1.0


def _outcome(march, args):
    """What a march returns, or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return march(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def recorded_marches():
    """Every march the panel solver runs on the bundled fits and seeded
    perturbations of them, at 96, 160 and 255 panels."""
    vectors = [fit_cst(read_dat(path)[1], BOUNDS)[0].vector
               for path in sorted(bundled_airfoil_dir().glob("*.dat"))]
    rng = np.random.default_rng(2002)
    vectors += [BOUNDS.clamp(vectors[i] + rng.uniform(-scale, scale, 18) * BOUNDS.span)
                for i in range(0, 60, 8) for scale in (0.05, 0.15)]
    calls = []

    def record(*args):
        calls.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
        return march(*args)

    march = aero._march_boundary_layer
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aero, "_march_boundary_layer", record)
        for panels in (96, 160, 255):
            cfg = high_fidelity_config(panel_count=panels)
            for vec in vectors:
                geom = cst_to_geometry(vec, cfg.geometry_stations)
                if is_valid(geom)[0]:
                    solve_high_fidelity(geom, FlowConditions(), cfg)
    return calls


# (branch of the reference, s, u_e, max_substeps): constructed marches that
# reach the branches the recorded ones do not, on 60 stations 0.02 apart.
_S = np.cumsum(np.full(60, 0.02))
_X = np.linspace(0.0, 1.0, 60)
CONSTRUCTED_MARCHES = [
    ("too_few_points", _S, np.where(_X > 0.95, 1.0, 0.1), 200),
    ("substep_cap", _S, 1.0 + 0.2 * _X, 3),
    ("restart", _S, 0.31 + 60.0 * _S, 1),
    ("separation", _S, 1.5 - 1.2 * _X, 200),
    ("attached", _S, 1.0 + 0.2 * _X, 200),
]


class TestFlattenedMarch:
    """The flattened march returns what the per-interval one returned, bit for bit."""

    def test_recorded_marches_equal_reference(self, recorded_marches):
        branches = Counter()
        assert len(recorded_marches) > 400
        for args in recorded_marches:
            assert _march_boundary_layer(*args) == _reference_march(*args, branches)
        assert branches["attached"] > 0
        assert branches["separation"] > 0

    @pytest.mark.parametrize("branch,s,u_e,max_substeps", CONSTRUCTED_MARCHES,
                             ids=[case[0] for case in CONSTRUCTED_MARCHES])
    def test_constructed_branch(self, branch, s, u_e, max_substeps):
        branches = Counter()
        args = (s, u_e, 1e6, max_substeps)
        expected = _reference_march(*args, branches)
        assert branches[branch] > 0
        assert _march_boundary_layer(*args) == expected
        assert (expected is None) == (branch == "too_few_points")

    def test_drag_model_fails_on_a_surface_too_slow_to_march(self):
        geom = geom_of("2412", 81)
        xs, ys = aero._panel_nodes(geom, 160)
        _, v_t, s = aero._linear_vortex_solution(xs, ys, np.radians(2.0))
        n_lower = (xs.size - 1) // 2
        assert aero._profile_drag(geom, v_t, s, 1e6, n_lower, 200) is not None
        v_t[:n_lower] = 0.1  # no lower-surface station above _BL_U_START
        assert aero._profile_drag(geom, v_t, s, 1e6, n_lower, 200) is None

    @pytest.mark.parametrize("s,error", [
        (np.append(_S[:-1], np.inf), OverflowError),
        (np.insert(_S[1:], 0, -np.inf), ValueError),
    ], ids=["inf", "nan"])
    def test_non_finite_interval_raises_as_int_did(self, s, error):
        args = (s, 1.0 + 0.2 * _X, 1e6, 200)
        expected = _outcome(_reference_march, (*args, Counter()))
        assert expected[0] is error
        assert _outcome(_march_boundary_layer, args) == expected


# Reference values captured from the solvers before the angle-addition panel
# assembly and the float-only boundary-layer march replaced the direct
# per-pair trigonometry and the numpy-scalar march. Design vectors are bundled
# fits rounded to four digits. The upper-surface march separates on naca4412
# and both surfaces separate on naca8421; naca9210 separates too close to the
# leading edge and the drag model fails. None marks a failed solve.
GOLDEN_VECTORS = {
    "naca0012": [0.1771, 0.1737, 0.1467, 0.1579, 0.1382, 0.1438, 0.1378, 0.1421, -0.1771,
                 -0.1737, -0.1467, -0.1579, -0.1382, -0.1438, -0.1378, -0.1421, 0.002515, -0.05],
    "naca2412": [0.2057, 0.2215, 0.2038, 0.2069, 0.1958, 0.2047, 0.202, 0.2108, -0.1596,
                 -0.1621, -0.05043, -0.1484, -0.04794, -0.1035, -0.06473, -0.0771, 0.002479, -0.05],
    "naca4412": [0.1896, 0.2709, 0.2461, 0.1966, 0.3878, 0.04831, 0.4457, 0.107, -0.1707,
                 -0.0877, -0.03248, -0.1366, 0.1309, -0.2589, 0.1826, -0.1901, 0.002313, -0.05],
    "naca8421": [0.3375, 0.4402, 0.6049, -0.1339, 1.25, -0.7845, 1.25, -0.3258, -0.3057,
                 -0.2963, 0.2837, -0.75, 1.305, -0.75, 1.238, -0.75, 0.001123, -0.05],
    "naca9210": [0.2477, 0.5404, 0.2655, 0.1552, 0.7224, -0.1567, 0.7017, 0.05035, -0.1134,
                 0.3923, -0.03105, -0.1562, 0.5986, -0.5057, 0.5355, -0.2303, 0.0016, 0.0776],
    "crossing": [-0.2] * 8 + [0.2] * 8 + [0.001, 0.0],
    "extreme-camber": [1.2] * 8 + [1.0] * 8 + [0.001, 0.0],
}
# (name, panel count): (cl, cd), solved on panel_count // 2 + 1 stations.
GOLDEN_HIGH = {
    ("naca0012", 160): (0.2792507171319292, 0.014725110717063169),
    ("naca0012", 255): (0.27927552385237464, 0.014738898807459976),
    ("naca2412", 160): (0.5735354272339303, 0.015310372623953131),
    ("naca2412", 255): (0.5736559367141023, 0.015318094824503381),
    ("naca4412", 160): (0.6445788381223942, 0.015471754511030082),
    ("naca4412", 255): (0.644316560387541, 0.015524741590732345),
    ("naca8421", 160): (0.6553000452020643, 0.0609122999221305),
    ("naca8421", 255): (0.6536804932609647, 0.0615673489279277),
    ("naca9210", 160): (None, None),
    ("naca9210", 255): (None, None),
}
# (name, stations): (cl, cd, kappa) of the surrogate, which must not move at all.
GOLDEN_LOW = {
    ("naca0012", 81): (0.25320273972436175, 0.020443007114167765, 1.0),
    ("naca0012", 128): (0.25320273972436175, 0.020442749810644967, 1.0),
    ("naca2412", 81): (0.5197231986436178, 0.020684800209878704, 1.0),
    ("naca2412", 128): (0.5197782020026814, 0.020685062887227358, 1.0),
    ("naca4412", 81): (0.5666038007191571, 0.020500722254339222, 1.0),
    ("naca4412", 128): (0.5671702664613496, 0.020500651296805568, 1.0),
    ("naca8421", 81): (0.5474649931160898, 0.036451192334972356, 1.0),
    ("naca8421", 128): (0.550179052980184, 0.036450528605566364, 1.0),
    ("naca9210", 81): (0.9094379813283359, 0.01741187819199913, 1.0),
    ("naca9210", 128): (0.9107085874628775, 0.01741188838069603, 1.0),
    ("crossing", 81): (0.25320273972436175, 0.009363942043914183, 1.3716402464988207e-24),
    ("crossing", 128): (0.25320273972436175, 0.009363942043914183, 1.3602551026331958e-24),
    ("extreme-camber", 81): (4.862787744171485, 0.014636704868913874, 0.00017735725980517258),
    ("extreme-camber", 128): (4.8647486543228435, 0.014636633755253774, 0.00017043157177040259),
}


class TestGoldenValues:
    @pytest.mark.parametrize("name,panels", sorted(GOLDEN_HIGH))
    def test_high_fidelity(self, name, panels):
        geom = cst_to_geometry(GOLDEN_VECTORS[name], panels // 2 + 1)
        result = solve_high_fidelity(geom, FlowConditions(), high_fidelity_config(panel_count=panels))
        cl, cd = GOLDEN_HIGH[name, panels]
        if cl is None:
            assert not result.converged
            return
        assert result.converged
        assert result.cl == pytest.approx(cl, rel=1e-12, abs=0.0)
        assert result.cd == pytest.approx(cd, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name,stations", sorted(GOLDEN_LOW))
    def test_low_fidelity_unchanged(self, name, stations):
        result = solve_low_fidelity(cst_to_geometry(GOLDEN_VECTORS[name], stations), FlowConditions())
        assert (result.cl, result.cd, result.confidence) == GOLDEN_LOW[name, stations]

import numpy as np
import pytest

from foilrl import naca
from foilrl.aero import (
    AeroResult,
    CountingSolver,
    FlowConditions,
    SolverConfig,
    high_fidelity_config,
    lift_drag_ratio,
    low_fidelity_config,
    plausibility_score,
    solve_high_fidelity,
    solve_low_fidelity,
    _flat_plate_cf,
    _gradient,
    _surrogate_grid,
    _trapezoid,
)
from foilrl.env import RESET_POOL_NAMES
from foilrl.errors import ContractViolation, GeometryRejected, InvalidParams
from foilrl.geometry import (
    AirfoilGeometry,
    cosine_stations,
    cst_to_geometry,
    default_bounds,
    fit_cst,
    max_thickness,
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

    def test_kappa_is_one(self):
        assert solve_high_fidelity(geom_of("4412"), INCOMPRESSIBLE).confidence == 1.0

    def test_positive_drag(self):
        for code in ("0006", "0012", "4412", "0024"):
            result = solve_high_fidelity(geom_of(code), INCOMPRESSIBLE)
            assert result.converged and result.cd > 0


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

    def test_reset_pool_scores_high_confidence(self):
        from foilrl.env import load_reset_pool

        for name, vec in load_reset_pool(RESET_POOL_NAMES).items():
            geom = cst_to_geometry(vec, 200)
            assert plausibility_score(geom) > 0.99, name


class TestLiftDragRatio:
    def test_arithmetic(self):
        assert lift_drag_ratio(AeroResult(0.5, 0.005, 1.0, True)) == pytest.approx(100.0)

    def test_zero_lift(self):
        assert lift_drag_ratio(AeroResult(0.0, 0.01, 1.0, True)) == 0.0

    def test_closed_form_pair(self):
        # flat-plate surrogate values recomputed by hand from the two formulas
        cl = 2.0 * np.pi * np.sin(np.radians(2.0))
        cd = 2.0 * _flat_plate_cf(1e6)  # zero-thickness form factor is 1
        result = solve_low_fidelity(cst_to_geometry(np.zeros(18), 200), INCOMPRESSIBLE)
        assert lift_drag_ratio(result) == pytest.approx(cl / cd, rel=1e-12)

    def test_unconverged_is_contract_violation(self):
        with pytest.raises(ContractViolation):
            lift_drag_ratio(AeroResult(None, None, 1.0, False))


class TestCountingSolver:
    def test_counts_and_nominal_cost(self):
        solver = CountingSolver("low")
        geom = geom_of("0012")
        for _ in range(5):
            solver(geom)
        assert solver.calls == 5
        assert solver.nominal_cost_s == pytest.approx(5 * 4.0 / 1000.0)


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
            assert _trapezoid(y, x) == np.trapezoid(y, x)


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

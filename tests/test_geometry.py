import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foilrl import geometry, naca
from foilrl.errors import FitError, InvalidParams
from foilrl.geometry import (
    AirfoilGeometry,
    CstParams,
    N_PARAMS,
    ParamBounds,
    cst_to_geometry,
    default_bounds,
    fit_cst,
    geometry_to_selig,
    is_valid,
    max_thickness,
    read_dat,
)

BOUNDS = default_bounds()


def random_inbounds(rng: np.random.Generator) -> np.ndarray:
    return BOUNDS.lower + rng.random(N_PARAMS) * BOUNDS.span


def naca_params(code: str) -> CstParams:
    params, _ = fit_cst(naca.coordinates(code, 131), BOUNDS)
    return params


class TestBounds:
    def test_defaults_match_environment_table(self):
        assert np.all(BOUNDS.lower[:8] == -1.5)
        assert np.all(BOUNDS.upper[:8] == 1.25)
        assert np.all(BOUNDS.lower[8:16] == -0.75)
        assert np.all(BOUNDS.upper[8:16] == 1.5)
        assert BOUNDS.lower[16] == 0.0005 and BOUNDS.upper[16] == 0.01
        assert BOUNDS.lower[17] == -0.05 and BOUNDS.upper[17] == 0.775

    def test_span_is_computed_once_and_read_only(self):
        bounds = ParamBounds(BOUNDS.lower, BOUNDS.upper)
        np.testing.assert_array_equal(bounds.span, bounds.upper - bounds.lower)
        assert bounds.span is bounds.span
        with pytest.raises(ValueError):
            bounds.span[0] = 1.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidParams):
            ParamBounds(BOUNDS.upper, BOUNDS.lower)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidParams):
            ParamBounds(BOUNDS.lower[:-1], BOUNDS.upper[:-1])


class TestCstToGeometry:
    def test_zero_params_give_flat_plate(self):
        geom = cst_to_geometry(np.zeros(N_PARAMS), 64)
        assert np.all(geom.y_upper == 0.0)
        assert np.all(geom.y_lower == 0.0)

    def test_naca0012_fit_thickness_matches_closed_form(self):
        geom = cst_to_geometry(naca_params("0012"), 200)
        assert max_thickness(geom) == pytest.approx(naca.peak_thickness(0.12), abs=1e-3)

    def test_mirrored_params_give_symmetric_airfoil(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.05, 0.4, 8)
        params = CstParams(np.concatenate([w, -w, [0.002, 0.0]]))
        geom = cst_to_geometry(params, 100)
        np.testing.assert_allclose(geom.y_upper, -geom.y_lower, atol=1e-14)

    def test_station_contract(self):
        geom = cst_to_geometry(naca_params("2412"), 150)
        assert geom.x[0] == 0.0 and geom.x[-1] == 1.0
        assert np.all(np.diff(geom.x) > 0)
        assert geom.n_stations == 150

    def test_rejects_nonfinite(self):
        bad = np.zeros(N_PARAMS)
        bad[3] = np.nan
        with pytest.raises(InvalidParams):
            cst_to_geometry(bad, 64)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidParams):
            cst_to_geometry(np.zeros(N_PARAMS - 1), 64)

    def test_rejects_too_few_stations(self):
        with pytest.raises(InvalidParams):
            cst_to_geometry(np.zeros(N_PARAMS), 16)

    def test_continuity_under_small_perturbation(self):
        rng = np.random.default_rng(4)
        base = naca_params("2412").vector
        geom0 = cst_to_geometry(base, 200)
        eps = 1e-6
        for i in [0, 7, 8, 16, 17]:
            p = base.copy()
            p[i] += eps
            geom1 = cst_to_geometry(p, 200)
            delta = max(
                np.abs(geom1.y_upper - geom0.y_upper).max(),
                np.abs(geom1.y_lower - geom0.y_lower).max(),
            )
            assert delta < 10 * eps


def _cst_oracle(vec: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CST evaluation as written before the station grids were cached."""
    x = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))
    xc = x[:, None]
    j = np.arange(8)
    binomial = np.array([1.0, 7.0, 21.0, 35.0, 35.0, 21.0, 7.0, 1.0])
    basis = binomial * xc**j * (1.0 - xc) ** (7 - j)
    cls = x**0.5 * (1.0 - x) ** 1.0
    le = vec[17] * (x * (1.0 - x) ** 8.5)
    te_half = 0.5 * vec[16] * x
    y_upper = cls * (basis @ vec[:8]) + te_half + le
    y_lower = cls * (basis @ vec[8:16]) - te_half - le
    return x, y_upper, y_lower


class TestCachedStationGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=N_PARAMS, max_size=N_PARAMS),
        st.integers(32, 300),
    )
    def test_bitwise_equal_to_uncached_formula(self, unit, n):
        vec = BOUNDS.lower + np.array(unit) * BOUNDS.span
        geom = cst_to_geometry(vec, n)
        for got, want in zip((geom.x, geom.y_upper, geom.y_lower), _cst_oracle(vec, n)):
            assert got.tobytes() == want.tobytes()

    def test_same_read_only_stations_per_count(self):
        a = cst_to_geometry(naca_params("0012"), 97)
        b = cst_to_geometry(naca_params("4415"), 97)
        assert a.x is b.x
        assert cst_to_geometry(naca_params("0012"), 98).x is not a.x
        for arr in (a.x, a.y_upper, a.y_lower):
            with pytest.raises(ValueError):
                arr[1] = 0.5

    def test_thickness_computed_once_per_geometry(self, monkeypatch):
        calls = []
        peak = geometry._peak_thickness
        monkeypatch.setattr(geometry, "_peak_thickness", lambda g: calls.append(g) or peak(g))
        geom = cst_to_geometry(naca_params("2412"), 128)
        first = max_thickness(geom)
        assert is_valid(geom) == (True, "ok")
        assert max_thickness(geom) == first == geom.max_thickness
        assert len(calls) == 1


class TestMaxThickness:
    def test_flat_plate_is_zero(self):
        assert max_thickness(cst_to_geometry(np.zeros(N_PARAMS), 64)) == 0.0

    def test_naca0012_against_polynomial_oracle(self):
        geom = cst_to_geometry(naca_params("0012"), 300)
        assert max_thickness(geom) == pytest.approx(0.120, abs=1e-3)

    def test_vertical_scaling_is_linear(self):
        geom = cst_to_geometry(naca_params("0012"), 200)
        doubled = AirfoilGeometry(geom.x, 2.0 * geom.y_upper, 2.0 * geom.y_lower)
        assert max_thickness(doubled) == pytest.approx(2.0 * max_thickness(geom), rel=1e-12)

    def test_resampling_invariance(self):
        params = naca_params("4415")
        t_coarse = max_thickness(cst_to_geometry(params, 64))
        t_fine = max_thickness(cst_to_geometry(params, 400))
        assert abs(t_coarse - t_fine) < 1e-4

    @pytest.mark.parametrize("x, t", [
        # two stations at one x: no parabola
        ([0.0, 0.3, 0.3, 1.0, 1.0], [0.0, 0.05, 0.1, 0.09, 0.0]),
        # the peak station lies beyond both neighbours: the parabola is not concave
        ([0.0, 0.2, 0.5, 0.45, 1.0], [0.0, 0.05, 0.1, 0.02, 0.0]),
        # concave, but the vertex lies outside the three stations
        ([0.0, 0.2, 0.5, 0.4, 1.0], [0.0, 0.05, 0.1, 0.09, 0.0]),
    ])
    def test_parabola_falls_back_to_the_peak_station(self, x, t):
        t = np.array(t)
        assert max_thickness(AirfoilGeometry(np.array(x), 0.5 * t, -0.5 * t)) == 0.1


class TestIsValid:
    def test_naca0012_is_valid(self):
        ok, reason = is_valid(cst_to_geometry(naca_params("0012"), 200))
        assert ok and reason == "ok"

    def test_swapped_surfaces_cross(self):
        geom = cst_to_geometry(naca_params("0012"), 200)
        swapped = AirfoilGeometry(geom.x, geom.y_lower, geom.y_upper)
        ok, reason = is_valid(swapped)
        assert not ok and reason == "crossing"

    def test_nan_coordinate_flagged(self):
        geom = cst_to_geometry(naca_params("0012"), 200)
        y = geom.y_upper.copy()
        y[10] = np.nan
        ok, reason = is_valid(AirfoilGeometry(geom.x, y, geom.y_lower))
        assert not ok and reason == "non-finite"

    def test_thin_shape_hits_floor(self):
        geom = cst_to_geometry(np.zeros(N_PARAMS), 64)
        ok, reason = is_valid(geom)
        assert not ok and reason == "below-thickness-floor"


class TestFit:
    def test_naca0012_residual(self):
        _, residual = fit_cst(naca.coordinates("0012", 101), BOUNDS)
        assert residual < 1e-3

    def test_roundtrip_identity_exact_case(self):
        rng = np.random.default_rng(0)
        p = random_inbounds(rng)
        fitted, residual = fit_cst(geometry_to_selig(cst_to_geometry(p, 200)), BOUNDS)
        assert residual < 1e-6
        assert np.abs(fitted.vector - p).max() < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        p = random_inbounds(rng)
        fitted, _ = fit_cst(geometry_to_selig(cst_to_geometry(p, 200)), BOUNDS)
        assert np.abs(fitted.vector - p).max() < 1e-5

    def test_leading_edge_at_an_end_of_the_loop_rejected(self):
        coords = naca.coordinates("0012", 31)
        rolled = np.roll(coords, -int(np.argmin(coords[:, 0])) + 1, axis=0)
        with pytest.raises(FitError, match="cannot split surfaces"):
            fit_cst(rolled, BOUNDS)

    def test_nonfinite_coordinates_rejected(self):
        coords = naca.coordinates("0012", 31)
        coords[5, 1] = np.inf
        with pytest.raises(FitError, match="finite"):
            fit_cst(coords, BOUNDS)

    def test_zero_chord_rejected(self):
        coords = naca.coordinates("0012", 31)
        coords[:, 0] = 0.5
        with pytest.raises(FitError, match="degenerate chord"):
            fit_cst(coords, BOUNDS)

    def test_three_points_rejected(self):
        with pytest.raises(FitError):
            fit_cst(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, -0.01]]), BOUNDS)

    def test_result_respects_bounds(self):
        params, _ = fit_cst(naca.coordinates("9421", 101), BOUNDS)
        assert np.all(params.vector >= BOUNDS.lower) and np.all(params.vector <= BOUNDS.upper)


class TestDatParsing:
    def test_selig_roundtrip(self, tmp_path):
        coords = naca.coordinates("2412", 61)
        naca.write_dat(tmp_path / "a.dat", "NACA 2412", coords)
        name, parsed = read_dat(tmp_path / "a.dat")
        assert name == "NACA 2412"
        np.testing.assert_allclose(parsed, coords, atol=5e-7)

    def test_lednicer_detected_and_converted(self, tmp_path):
        coords = naca.coordinates("0012", 41)
        le = np.argmin(coords[:, 0])
        upper = coords[: le + 1][::-1]
        lower = coords[le:]
        lines = ["EXAMPLE AIRFOIL", f"      {len(upper)}.     {len(lower)}.", ""]
        lines += [f"{x:.6f} {y:.6f}" for x, y in upper]
        lines.append("")
        lines += [f"{x:.6f} {y:.6f}" for x, y in lower]
        (tmp_path / "l.dat").write_text("\n".join(lines) + "\n")
        _, parsed = read_dat(tmp_path / "l.dat")
        fitted, residual = fit_cst(parsed, BOUNDS)
        assert residual < 1e-3

    def test_too_few_points(self, tmp_path):
        (tmp_path / "bad.dat").write_text("tiny\n1.0 0.0\n0.0 0.0\n1.0 0.0\n")
        with pytest.raises(FitError):
            read_dat(tmp_path / "bad.dat")

    def test_file_without_a_name_line_is_named_by_its_stem(self, tmp_path):
        coords = naca.coordinates("2412", 31)
        (tmp_path / "bare.dat").write_text("".join(f"{x:.6f} {y:.6f}\n" for x, y in coords))
        name, parsed = read_dat(tmp_path / "bare.dat")
        assert name == "bare"
        np.testing.assert_allclose(parsed, coords, atol=5e-7)

    def test_lednicer_counts_that_disagree_with_the_points(self, tmp_path):
        lines = ["EXAMPLE AIRFOIL", "      21.     21."]
        lines += [f"{x:.6f} 0.0" for x in np.linspace(0.0, 1.0, 40)]
        (tmp_path / "l.dat").write_text("\n".join(lines) + "\n")
        with pytest.raises(FitError, match="point counts disagree"):
            read_dat(tmp_path / "l.dat")


class TestCstParams:
    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidParams):
            CstParams(np.zeros(17))


class TestNacaCodes:
    def test_parse_code(self):
        assert naca.parse_code("NACA2412") == (0.02, 0.4, 0.12)

    @pytest.mark.parametrize("code", ["23012", "naca24x2", "412"])
    def test_rejects_a_code_that_is_not_four_digits(self, code):
        with pytest.raises(ValueError, match="not a 4-digit NACA code"):
            naca.parse_code(code)

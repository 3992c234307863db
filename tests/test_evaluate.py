import sys
import threading

import numpy as np
import pytest

from foilrl import bundled_airfoil_dir, cores, evaluate, naca
from foilrl.aero import high_fidelity_config
from foilrl.env import EnvConfig
from foilrl.errors import EmptyEvalError
from foilrl.evaluate import (
    RECORD_COLUMNS,
    EvalRecord,
    compare_report,
    evaluate_policy,
    load_dataset,
    pareto_front,
    read_records_csv,
    summarize,
    write_records_csv,
)
from foilrl.geometry import fit_cst, read_dat
from foilrl.nets import AgentCheckpoint, mlp_init, policy_init

FAST_HIGH = high_fidelity_config(panel_count=96)


def record(name="x", initial=50.0, best=100.0, mt0=0.12, mt_b=0.12, converged=True,
           reason="max_steps"):
    return EvalRecord(
        airfoil=name,
        initial_ratio=initial,
        best_ratio=best,
        improvement=best - initial,
        mt_initial=mt0,
        mt_at_best=mt_b,
        delta_mt_percent=100.0 * abs(mt_b - mt0) / mt0,
        episode_length=100,
        termination_reason=reason if converged else "initial_solve_failed",
        nominal_solver_cost_s=1.0,
        wall_time_s=0.5,
    )


def zero_policy_checkpoint(sigma=0.0):
    rng = np.random.default_rng(0)
    actor = policy_init([18, 16, 16, 18], rng)
    for w in actor.net.weights:
        w[:] = 0.0
    for b in actor.net.biases:
        b[:] = 0.0
    critic = mlp_init([18, 16, 16, 1], rng)
    return AgentCheckpoint(actor, critic, None, 0, "0" * 16, sigma, "low")


class TestLoadDataset:
    def test_bundled_directory(self):
        entries = load_dataset(bundled_airfoil_dir())
        assert len(entries) >= 50
        names = [e[0] for e in entries]
        assert names == sorted(names)
        by_name = {n: r for n, _, r in entries}
        # moderate sections fit tightly; extreme camber clamps at the bounds
        assert by_name["naca0012"] < 1e-3
        assert all(residual < 0.05 for _, _, residual in entries)

    def test_single_file_directory(self, tmp_path):
        naca.write_dat(tmp_path / "naca0012.dat", "NACA0012", naca.coordinates("0012", 81))
        entries = load_dataset(tmp_path)
        assert len(entries) == 1
        assert entries[0][0] == "naca0012"
        assert entries[0][2] < 1e-3

    def test_empty_directory_is_empty_list(self, tmp_path):
        assert load_dataset(tmp_path) == []

    def test_malformed_file_isolated(self, tmp_path):
        naca.write_dat(tmp_path / "good.dat", "GOOD", naca.coordinates("2412", 81))
        (tmp_path / "bad.dat").write_text("garbage\n1.0\nnot numbers\n")
        entries = load_dataset(tmp_path)
        assert [e[0] for e in entries] == ["good"]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope")


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("ds")
    for code in ("0012", "2412", "4412"):
        naca.write_dat(d / f"naca{code}.dat", f"NACA{code}", naca.coordinates(code, 81))
    return load_dataset(d)


class TestEvaluatePolicy:
    def test_zero_policy_zero_improvement(self, small_dataset):
        ckpt = zero_policy_checkpoint()
        cfg = EnvConfig(fidelity="high", solver_config=FAST_HIGH)
        records, summary = evaluate_policy(ckpt, small_dataset, cfg, deterministic=True)
        assert summary.n_evaluated == 3
        for r in records:
            assert r.improvement == pytest.approx(0.0, abs=1e-9)
            assert r.delta_mt_percent == pytest.approx(0.0, abs=1e-9)
            assert r.episode_length == 100

    def test_deterministic_repeatable(self, small_dataset):
        ckpt = zero_policy_checkpoint()
        cfg = EnvConfig(fidelity="high", solver_config=FAST_HIGH)
        r1, _ = evaluate_policy(ckpt, small_dataset, cfg, deterministic=True)
        r2, _ = evaluate_policy(ckpt, small_dataset, cfg, deterministic=True)
        for a, b in zip(r1, r2):
            assert a.best_ratio == b.best_ratio
            assert a.episode_length == b.episode_length

    def test_low_fidelity_env_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            evaluate_policy(zero_policy_checkpoint(), small_dataset, EnvConfig(fidelity="low"))


def bundled_dataset(step=10):
    """Every `step`-th bundled airfoil by name, fitted, as `load_dataset` lists it."""
    paths = sorted(bundled_airfoil_dir().glob("*.dat"))[::step]
    return [(path.stem, fit_cst(read_dat(path)[1])[0], 0.0) for path in paths]


def spread_policy_checkpoint():
    """A policy whose mean actions end episodes at different lengths and for different reasons."""
    ckpt = zero_policy_checkpoint()
    rng = np.random.default_rng(4)
    ckpt.actor.net.weights[-1][:] = rng.normal(0.0, 0.3, ckpt.actor.net.weights[-1].shape)
    ckpt.actor.net.biases[-1][:] = rng.normal(0.0, 0.3, 18)
    return ckpt


class TestTwoThreadEvaluate:
    """Mean-action episodes on two threads give the records of one thread and leave no trace."""

    CFG = EnvConfig(fidelity="high", solver_config=FAST_HIGH)

    def test_same_records_as_one_thread(self, monkeypatch):
        assert cores._blas_thread_control() is not None  # the two-thread path runs
        dataset, ckpt = bundled_dataset(), spread_policy_checkpoint()
        threads = set()
        roll = evaluate._roll_episode

        def roll_noting_thread(*args):
            threads.add(threading.get_ident())
            return roll(*args)

        monkeypatch.setattr(evaluate, "_roll_episode", roll_noting_thread)
        two, summary_two = evaluate_policy(ckpt, dataset, self.CFG)
        assert len(threads) == 2
        monkeypatch.setattr(cores, "_blas_thread_control", lambda: None)
        threads.clear()
        one, summary_one = evaluate_policy(ckpt, dataset, self.CFG)
        assert len(threads) == 1
        assert len(one) == len(dataset) >= 6
        assert len({r.episode_length for r in one}) > 1  # the threads' airfoils interleave
        assert len({r.termination_reason for r in one}) == 3
        for a, b in zip(two, one):
            assert [getattr(a, c) for c in RECORD_COLUMNS] == [getattr(b, c) for c in RECORD_COLUMNS]
            if b.best_params is None:
                assert a.best_params is None
            else:
                np.testing.assert_array_equal(a.best_params, b.best_params)
        assert summary_two == summary_one

    @pytest.fixture
    def settings(self):
        """A function that reads (BLAS threads, switch interval, Python threads), with BLAS at 2."""
        get, set_ = cores._blas_thread_control()
        original = get()
        set_(2)  # not the 1 that the two threads hold BLAS to
        yield lambda: (get(), sys.getswitchinterval(), threading.active_count())
        set_(original)

    def test_settings_restored_after_return(self, settings):
        before = settings()
        evaluate_policy(zero_policy_checkpoint(), bundled_dataset(20), self.CFG)
        assert settings() == before

    def test_episode_error_reaches_the_caller_and_settings_restored(self, settings, monkeypatch):
        dataset = bundled_dataset(20)
        roll = evaluate._roll_episode
        rolled = []

        def roll_failing_on_second(env, checkpoint, params, *args):
            rolled.append(params)
            if params is dataset[1][1]:
                raise RuntimeError("episode failed")
            return roll(env, checkpoint, params, *args)

        monkeypatch.setattr(evaluate, "_roll_episode", roll_failing_on_second)
        before = settings()
        with pytest.raises(RuntimeError, match="episode failed"):
            evaluate_policy(zero_policy_checkpoint(), dataset, self.CFG)
        assert settings() == before
        # The failure ends the evaluation: the thread still rolling the first
        # airfoil takes no other.
        assert len(dataset) == 3 and not any(p is dataset[2][1] for p in rolled)


class TestSummarize:
    def test_singleton(self):
        s = summarize([record(initial=60.0, best=100.0)])
        assert s.best_median == 100.0
        assert s.best_iqr == 0.0
        assert s.improvement_mean == 40.0
        assert s.improvement_std == 0.0

    def test_hand_computed_quantiles(self):
        records = [record(name=str(k), initial=0.0, best=float(k)) for k in (1, 2, 3, 4, 5)]
        s = summarize(records)
        assert s.best_median == 3.0
        assert s.best_iqr == 2.0  # linear-interpolation quartiles: 4 - 2

    def test_constant_improvements(self):
        records = [record(name=str(k), initial=10.0, best=17.0) for k in range(4)]
        s = summarize(records)
        assert s.improvement_mean == 7.0
        assert s.improvement_std == 0.0

    def test_unconverged_excluded(self):
        records = [record(), record(name="dead", converged=False)]
        s = summarize(records)
        assert s.n_evaluated == 1
        assert s.n_excluded == 1

    def test_empty_after_filtering(self):
        with pytest.raises(EmptyEvalError):
            summarize([record(converged=False)])

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        records = [record(name=str(k), best=float(rng.uniform(50, 300))) for k in range(9)]
        a = summarize(records)
        b = summarize(records[::-1])
        assert a == b


class TestRecordsCsv:
    def test_roundtrip(self, tmp_path):
        records = [record(name="a"), record(name="b", converged=False)]
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        loaded = read_records_csv(path)
        assert [r.airfoil for r in loaded] == ["a", "b"]
        assert loaded[0].best_ratio == records[0].best_ratio
        assert not loaded[1].converged

    def test_every_column_read_back_with_its_type(self, tmp_path):
        records = [record(name="a"), record(name="b", initial=float("nan"), converged=False)]
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        loaded = read_records_csv(path)
        for original, back in zip(records, loaded, strict=True):
            for column in RECORD_COLUMNS:
                want, got = getattr(original, column), getattr(back, column)
                assert type(got) is type(want), column
                assert got == want or (want != want and got != got), column
            assert back.converged == original.converged
            assert np.isnan(back.wall_time_s)

    def test_no_wall_time_column(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(path, [record()])
        header = path.read_text().splitlines()[0]
        assert "wall" not in header


class TestCompare:
    def test_identical_sets_tie(self):
        records = [record(name=n) for n in ("a", "b", "c")]
        rows, aggregate = compare_report(records, [record(name=n) for n in ("a", "b", "c")])
        assert all(r["winner"] == "tie" for r in rows)
        assert aggregate["ties"] == 3

    def test_winner_marking(self):
        drl = [record(name="a", best=200.0), record(name="b", best=90.0)]
        pso = [record(name="a", best=150.0), record(name="b", best=120.0)]
        rows, aggregate = compare_report(drl, pso)
        winners = {r["airfoil"]: r["winner"] for r in rows}
        assert winners == {"a": "drl", "b": "pso"}
        assert aggregate["drl_wins"] == 1 and aggregate["pso_wins"] == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvalError):
            compare_report([], [record()])

    def test_airfoil_one_side_lacks_or_did_not_solve_is_skipped(self):
        drl = [record(name="a"), record(name="b"), record(name="c", converged=False),
               record(name="d")]
        pso = [record(name="a"), record(name="b", converged=False), record(name="c")]
        rows, aggregate = compare_report(drl, pso)
        assert [r["airfoil"] for r in rows] == ["a"] and aggregate["n_common"] == 1

    def test_each_side_counts_its_unconverged_records(self):
        drl = [record(name="a"), record(name="b", converged=False), record(name="c")]
        pso = [record(name="a"), record(name="b"), record(name="c", converged=False),
               record(name="d", converged=False)]
        _, aggregate = compare_report(drl, pso)
        assert aggregate["drl"]["n_evaluated"] == 2 and aggregate["drl"]["n_excluded"] == 1
        assert aggregate["pso"]["n_evaluated"] == 2 and aggregate["pso"]["n_excluded"] == 2

    def test_no_common_converged_airfoil_rejected(self):
        with pytest.raises(EmptyEvalError, match="no common converged airfoils"):
            compare_report([record(name="a"), record(name="b", converged=False)],
                           [record(name="b"), record(name="c")])


class TestPareto:
    def test_sigma_sweep_all_nondominated(self):
        points = [
            {"sigma": 0.0, "delta_mt": 64.0, "best": 241.0},
            {"sigma": 15.0, "delta_mt": 12.0, "best": 180.0},
            {"sigma": 100.0, "delta_mt": 5.0, "best": 176.0},
        ]
        flagged = pareto_front(points)
        assert all(p["on_front"] for p in flagged)

    def test_dominated_point_excluded(self):
        points = [
            {"sigma": 0.0, "delta_mt": 10.0, "best": 200.0},
            {"sigma": 1.0, "delta_mt": 20.0, "best": 150.0},  # worse in both
        ]
        flagged = pareto_front(points)
        assert flagged[0]["on_front"] and not flagged[1]["on_front"]

    def test_tied_points_both_kept(self):
        points = [
            {"sigma": 0.0, "delta_mt": 10.0, "best": 200.0},
            {"sigma": 1.0, "delta_mt": 10.0, "best": 200.0},
        ]
        flagged = pareto_front(points)
        assert all(p["on_front"] for p in flagged)

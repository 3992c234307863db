import csv
import json
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foilrl
from foilrl import bundled_airfoil_dir, cli, naca
from foilrl.cli import main
from foilrl.errors import UsageError
from foilrl.evaluate import EvalRecord, write_records_csv
from foilrl.nets import AgentCheckpoint, Mlp, Policy, forward, load_checkpoint, mlp_init
from foilrl.nets import policy_init, save_checkpoint

FAST = {
    "solver": {
        "high": {"panel_count": 96, "max_iterations": 200, "timeout_s": 30.0,
                 "nominal_cost_ms": 73.0},
        "low": {"panel_count": 128, "max_iterations": 200, "timeout_s": 30.0,
                "nominal_cost_ms": 4.0},
    }
}


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(FAST))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, fast_config):
    out = tmp_path_factory.mktemp("trained")
    rc = main([
        "train", "--solver", "low", "--sigma", "0", "--timesteps", "2048",
        "--seed", "7", "--preset", "pretrain", "--config", fast_config,
        "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def dat_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("dat")
    path = d / "naca2412.dat"
    naca.write_dat(path, "NACA2412", naca.coordinates("2412", 81))
    return str(path)


class TestTrain:
    def test_outputs_present(self, trained):
        assert (trained / "checkpoint.ckpt").exists()
        assert (trained / "training_log.csv").exists()
        assert (trained / "resolved_config.json").exists()

    def test_negative_sigma_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["train", "--sigma", "-1", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_byte_identical_reruns(self, tmp_path, fast_config):
        args = ["train", "--solver", "low", "--sigma", "0", "--timesteps", "1024",
                "--seed", "3", "--preset", "finetune", "--config", fast_config]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("training_log.csv", "resolved_config.json", "checkpoint.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestPresetFromConfig:
    def test_resolved_config_reproduces_the_run(self, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--preset", "finetune", "--timesteps", "512", "--solver", "low",
                     "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["train", "--config", str(first / "resolved_config.json"),
                     "--out", str(second)]) == 0
        for name in ("checkpoint.ckpt", "training_log.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_flag_overrides_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ppo": {"preset": "bogus"}}))
        assert main(["train", "--config", str(cfg), "--preset", "finetune", "--timesteps", "512",
                     "--solver", "low", "--out", str(tmp_path / "out")]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["ppo"]["preset"] == "finetune"


class TestFinetune:
    def test_usage_error_on_bad_strategy(self, trained, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["finetune", "--from", str(trained / "checkpoint.ckpt"),
                  "--strategy", "5", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_ledger_written(self, trained, tmp_path, fast_config):
        rc = main([
            "finetune", "--from", str(trained / "checkpoint.ckpt"), "--strategy", "1",
            "--timesteps", "512", "--seed", "5", "--config", fast_config,
            "--out", str(tmp_path),
        ])
        assert rc == 0
        ledger = json.loads((tmp_path / "cost_ledger.json").read_text())
        assert ledger["finetune_cost_ms_per_call"] == 73.0
        assert "time_reduction_percent" in ledger


class TestOptimize:
    def test_trace_has_bounded_rows(self, trained, dat_file, tmp_path, fast_config):
        rc = main(["optimize", "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--airfoil", dat_file, "--config", fast_config,
                   "--out", str(tmp_path), "--seed", "0"])
        assert rc == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert 2 <= len(lines) <= 102  # header plus at most 101 states
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert timing["inference_s"] >= 0.0
        assert timing["solver_metric_s"] > timing["inference_s"]

    def test_missing_airfoil_file(self, trained, tmp_path, capsys):
        rc = main(["optimize", "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--airfoil", "/nonexistent/x.dat", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_small_dataset(self, trained, tmp_path, fast_config):
        ds = tmp_path / "ds"
        ds.mkdir()
        for code in ("0012", "2412"):
            naca.write_dat(ds / f"naca{code}.dat", code, naca.coordinates(code, 81))
        out = tmp_path / "out"
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--dataset", str(ds), "--config", fast_config,
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        records = (out / "records.csv").read_text().splitlines()
        assert len(records) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_evaluated"] + summary["n_excluded"] == 2

    def test_empty_dataset_dir_fails(self, trained, tmp_path, capsys):
        ds = tmp_path / "empty"
        ds.mkdir()
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--dataset", str(ds), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_determinism_across_runs(self, trained, tmp_path, fast_config):
        ds = tmp_path / "ds2"
        ds.mkdir()
        naca.write_dat(ds / "naca0012.dat", "0012", naca.coordinates("0012", 81))
        args = ["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt"),
                "--dataset", str(ds), "--config", fast_config, "--seed", "1"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        for name in ("records.csv", "summary.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


class TestPsoCommand:
    def test_trace_and_result(self, dat_file, tmp_path, fast_config):
        rc = main(["pso", "--airfoil", dat_file, "--swarm", "6", "--iterations", "4",
                   "--seed", "2", "--config", fast_config, "--out", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["solver_calls"] == 6 * (4 + 1)
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(trace) == 5  # header + 4 iterations

    def test_missing_airfoil_file(self, tmp_path, capsys):
        rc = main(["pso", "--airfoil", str(tmp_path / "missing.dat"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_identical_records_tie(self, trained, tmp_path, fast_config):
        ds = tmp_path / "ds"
        ds.mkdir()
        for code in ("0012", "4412"):
            naca.write_dat(ds / f"naca{code}.dat", code, naca.coordinates(code, 81))
        e1 = tmp_path / "e1"
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--dataset", str(ds), "--config", fast_config, "--out", str(e1),
                   "--seed", "0"])
        assert rc == 0
        out = tmp_path / "cmp"
        rc = main(["compare", "--drl", str(e1 / "records.csv"),
                   "--pso", str(e1 / "records.csv"), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "comparison_summary.json").read_text())
        assert summary["ties"] == summary["n_common"]

    def test_sweep_emits_pareto(self, trained, tmp_path, fast_config):
        e1 = tmp_path / "e1"
        ds = tmp_path / "ds"
        ds.mkdir()
        naca.write_dat(ds / "naca0012.dat", "0012", naca.coordinates("0012", 81))
        main(["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt"),
              "--dataset", str(ds), "--config", fast_config, "--out", str(e1),
              "--seed", "0"])
        sweeps = []
        for k, (sig, dmt, best) in enumerate([(0, 64, 241), (15, 12, 180), (100, 5, 176)]):
            p = tmp_path / f"s{k}.json"
            p.write_text(json.dumps({"sigma": sig, "delta_mt_mean": dmt, "best_median": best}))
            sweeps.append(str(p))
        out = tmp_path / "cmp2"
        rc = main(["compare", "--drl", str(e1 / "records.csv"),
                   "--pso", str(e1 / "records.csv"), "--sweep", *sweeps,
                   "--out", str(out)])
        assert rc == 0
        pareto = (out / "pareto.csv").read_text().splitlines()
        assert len(pareto) == 4
        assert all(line.endswith("True") for line in pareto[1:])


class TestSvgEmission:
    def test_train_and_evaluate_svgs(self, tmp_path, fast_config):
        out = tmp_path / "t"
        rc = main(["train", "--solver", "low", "--sigma", "0", "--timesteps", "1024",
                   "--seed", "1", "--preset", "finetune", "--config", fast_config,
                   "--out", str(out), "--svg"])
        assert rc == 0
        svg = (out / "reward_curve.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

        ds = tmp_path / "ds"
        ds.mkdir()
        naca.write_dat(ds / "naca0012.dat", "0012", naca.coordinates("0012", 81))
        ev = tmp_path / "ev"
        rc = main(["evaluate", "--checkpoint", str(out / "checkpoint.ckpt"),
                   "--dataset", str(ds), "--config", fast_config,
                   "--out", str(ev), "--seed", "0", "--svg"])
        assert rc == 0
        assert "<circle" in (ev / "best_vs_initial.svg").read_text()


class TestWeightsRoundTrip:
    def test_export_import_identical_forward(self, trained, tmp_path):
        ckpt_path = trained / "checkpoint.ckpt"
        npz = tmp_path / "w.npz"
        assert main(["export-weights", "--checkpoint", str(ckpt_path),
                     "--out", str(npz)]) == 0
        rebuilt = tmp_path / "rebuilt.ckpt"
        assert main(["import-weights", "--weights", str(npz),
                     "--out", str(rebuilt)]) == 0
        a = load_checkpoint(ckpt_path)
        b = load_checkpoint(rebuilt)
        x = np.random.default_rng(0).standard_normal((4, 18))
        np.testing.assert_array_equal(forward(a.actor.net, x), forward(b.actor.net, x))
        np.testing.assert_array_equal(forward(a.critic, x), forward(b.critic, x))
        assert b.train_steps == a.train_steps
        assert b.sigma == a.sigma


class TestConfigKeys:
    @pytest.mark.parametrize("payload, key", [
        ({"pso": {"swarm": 3}}, "pso.swarm"),
        ({"solver": {"high": {"tolerence": 3}}}, "solver.high.tolerence"),
        ({"eval": {"deterministic": True}}, "eval.deterministic"),
        ({"solver": 3}, "solver"),
    ])
    def test_bad_key_is_one_line_usage_error(self, payload, key, dat_file, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        rc = main(["pso", "--airfoil", dat_file, "--swarm", "2", "--iterations", "1",
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err and "Traceback" not in err
        assert not (tmp_path / "out" / "resolved_config.json").exists()

    @pytest.mark.parametrize("content", [b"{oops", b"\xff\xfe{}"])
    def test_file_that_is_not_json_is_one_line_usage_error(self, content, dat_file, tmp_path,
                                                           capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        rc = main(["pso", "--airfoil", dat_file, "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_known_partial_section_merges(self, fast_config, dat_file, tmp_path):
        rc = main(["pso", "--airfoil", dat_file, "--swarm", "2", "--iterations", "1",
                   "--config", fast_config, "--out", str(tmp_path)])
        assert rc == 0
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        assert resolved["solver"]["high"]["panel_count"] == 96
        assert resolved["pso"]["inertia"] == 0.729
        assert resolved["eval"] == {"dataset": None}


class TestConfigValues:
    @pytest.mark.parametrize("payload, key", [
        ({"ppo": {"n_envs": 0}}, "ppo.n_envs"),
        ({"ppo": {"total_timesteps": -5}}, "ppo.total_timesteps"),
        ({"ppo": {"n_envs": "two"}}, "ppo.n_envs"),
        ({"env": {"fidelity": "medium"}}, "env.fidelity"),
        ({"env": {"episode_max_length": 0}}, "env.episode_max_length"),
        ({"seed": "x"}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"env": {"sigma": "nan"}}, "env.sigma"),
        ({"env": {"sigma": float("nan")}}, "env.sigma"),
        ({"ppo": {"preset": "bogus"}}, "ppo.preset"),
        ({"env": {"sigma": 10**400}}, "env.sigma"),
        ({"env": {"sigma": -1}}, "env.sigma"),
    ])
    def test_train_rejects_out_of_range_value(self, payload, key, tmp_path, capsys):
        self._assert_usage_error(["train"], payload, key, tmp_path, capsys)

    @pytest.mark.parametrize("payload, key", [
        ({"pso": {"swarm_size": 0}}, "pso.swarm_size"),
        ({"pso": {"inertia": 0.0}}, "pso.inertia"),
        ({"solver": {"high": {"panel_count": "abc"}}}, "solver.high.panel_count"),
        ({"solver": {"high": {"panel_count": 0}}}, "solver.high.panel_count"),
        ({"solver": {"high": {"timeout_s": -1}}}, "solver.high.timeout_s"),
        ({"flow": {"mach": 0.9}}, "flow.mach"),
        ({"flow": {"reynolds": float("inf")}}, "flow.reynolds"),
    ])
    def test_pso_rejects_out_of_range_value(self, payload, key, dat_file, tmp_path, capsys):
        self._assert_usage_error(["pso", "--airfoil", dat_file], payload, key, tmp_path, capsys)

    @pytest.mark.parametrize("payload, key", [
        ({"pso": {"swarm_size": "abc"}}, "pso.swarm_size"),
        ({"pso": {"max_iterations": 2.5}}, "pso.max_iterations"),
        ({"pso": {"thickness_tolerance": "tight"}}, "pso.thickness_tolerance"),
        ({"pso": {"swarm_size": True}}, "pso.swarm_size"),
        ({"flow": {"mach": "x"}}, "flow.mach"),
        ({"flow": {"reynolds": None}}, "flow.reynolds"),
        ({"solver": {"high": {"panel_count": 96.9}}}, "solver.high.panel_count"),
        ({"solver": {"high": {"panel_count": True}}}, "solver.high.panel_count"),
    ])
    def test_pso_rejects_wrong_type(self, payload, key, dat_file, tmp_path, capsys):
        self._assert_usage_error(["pso", "--airfoil", dat_file], payload, key, tmp_path, capsys)

    @pytest.mark.parametrize("payload, key", [
        ({"ppo": {"total_timesteps": 0}}, "ppo.total_timesteps"),
        ({"flow": {"angle_of_attack_deg": [2]}}, "flow.angle_of_attack_deg"),
        ({"flow": {"mach": False}}, "flow.mach"),
    ])
    def test_train_rejects_zero_budget_and_wrong_type(self, payload, key, tmp_path, capsys):
        self._assert_usage_error(["train"], payload, key, tmp_path, capsys)

    def test_evaluate_rejects_wrong_type_dataset(self, trained, tmp_path, capsys):
        argv = ["evaluate", "--checkpoint", str(trained / "checkpoint.ckpt")]
        self._assert_usage_error(argv, {"eval": {"dataset": 5}}, "eval.dataset", tmp_path, capsys)

    @pytest.mark.parametrize("payload, key", [
        ({"pso": {"swarm_size": 0}, "eval": {"dataset": 5}}, "eval.dataset"),
        ({"pso": {"swarm_size": 0}}, "pso.swarm_size"),
        ({"solver": {"high": {"panel_count": 0}}}, "solver.high.panel_count"),
    ])
    def test_train_rejects_a_section_it_does_not_read(self, payload, key, tmp_path, capsys):
        argv = ["train", "--solver", "low", "--preset", "finetune", "--timesteps", "64"]
        self._assert_usage_error(argv, payload, key, tmp_path, capsys)

    @pytest.mark.parametrize("payload, key", [
        ({"ppo": {"n_envs": 0}}, "ppo.n_envs"),
        ({"env": {"episode_max_length": 0}}, "env.episode_max_length"),
        ({"solver": {"low": {"nominal_cost_ms": -1}}}, "solver.low.nominal_cost_ms"),
    ])
    def test_pso_rejects_a_section_it_does_not_read(self, payload, key, dat_file, tmp_path,
                                                    capsys):
        argv = ["pso", "--airfoil", dat_file, "--swarm", "2", "--iterations", "1"]
        self._assert_usage_error(argv, payload, key, tmp_path, capsys)

    def test_integer_flow_value_is_kept_as_given(self, tmp_path):
        cfg = tmp_path / "int.json"
        cfg.write_text(json.dumps({"flow": {"reynolds": 1000000}}))
        args = cli.build_parser().parse_args(["train", "--config", str(cfg)])
        flow = cli._env_config(cli._load_config(args)).flow
        assert type(flow.reynolds) is int and flow.reynolds == 1000000

    @staticmethod
    def _assert_usage_error(argv, payload, key, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {key} ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["train", "--n-envs", "0"],
        ["train", "--timesteps", "-5"],
        ["train", "--timesteps", "0"],
        ["finetune", "--from", "x.ckpt", "--strategy", "1", "--timesteps", "-1"],
        ["pso", "--airfoil", "x.dat", "--swarm", "0"],
        ["pso", "--airfoil", "x.dat", "--iterations", "-3"],
        ["train", "--sigma", "nan"],
        ["train", "--sigma", "inf"],
    ])
    def test_nonpositive_counts_exit_2(self, argv, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path)])
        assert err.value.code == 2
        assert not (tmp_path / "resolved_config.json").exists()


class TestFinetuneLedger:
    def test_low_cost_override_reaches_both_ledgers(self, trained, tmp_path, fast_config):
        rc = main([
            "finetune", "--from", str(trained / "checkpoint.ckpt"), "--strategy", "1",
            "--timesteps", "512", "--seed", "5", "--config", fast_config,
            "--low-cost-ms", "8", "--out", str(tmp_path),
        ])
        assert rc == 0
        written = json.loads((tmp_path / "cost_ledger.json").read_text())
        stored = load_checkpoint(tmp_path / "checkpoint.ckpt").meta["ledger"]
        assert written["pretrain_cost_ms_per_call"] == 8.0
        assert {k: written[k] for k in stored} == stored

    @pytest.mark.parametrize("price", ["-3", "nan"])
    def test_bad_low_cost_is_usage_error_before_training(self, price, trained, tmp_path,
                                                          fast_config, capsys):
        rc = main(["finetune", "--from", str(trained / "checkpoint.ckpt"), "--strategy", "1",
                   "--timesteps", "512", "--config", fast_config, "--low-cost-ms", price,
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config solver.low.nominal_cost_ms ") and err.count("\n") == 1
        assert not (tmp_path / "checkpoint.ckpt").exists()


@pytest.fixture(scope="module")
def untrained(tmp_path_factory):
    """A fresh policy: near-zero actions, so episodes run to max_steps."""
    rng = np.random.default_rng(0)
    out = tmp_path_factory.mktemp("untrained")
    save_checkpoint(out / "checkpoint.ckpt", AgentCheckpoint(
        policy_init([18, 32, 32, 18], rng), mlp_init([18, 32, 32, 1], rng),
        None, 0, "0" * 16, 0.0, "low",
    ))
    return out


class TestOptimizeEpisode:
    @pytest.mark.parametrize("which", ["trained", "untrained"])
    def test_same_episode_as_evaluate(self, which, request, dat_file, tmp_path, fast_config):
        ckpt = str(request.getfixturevalue(which) / "checkpoint.ckpt")
        opt = tmp_path / "opt"
        assert main(["optimize", "--checkpoint", ckpt, "--airfoil", dat_file,
                     "--config", fast_config, "--out", str(opt)]) == 0
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "naca2412.dat").write_bytes(Path(dat_file).read_bytes())
        ev = tmp_path / "ev"
        assert main(["evaluate", "--checkpoint", ckpt, "--dataset", str(ds),
                     "--config", fast_config, "--out", str(ev)]) == 0

        metrics = json.loads((opt / "metrics.json").read_text())
        (record,) = csv.DictReader((ev / "records.csv").open())
        assert record["initial_ratio"] == f"{metrics['initial_ratio']:.10g}"
        assert record["best_ratio"] == f"{metrics['best_ratio']:.10g}"
        summary = json.loads((ev / "summary.json").read_text())
        assert summary["best_median"] == metrics["best_ratio"]

        trace = list(csv.DictReader((opt / "trace.csv").open()))
        failed_last_step = record["termination_reason"] in ("solver_failure", "invalid_geometry")
        solved_steps = int(record["episode_length"]) - failed_last_step
        assert metrics["episode_length"] == solved_steps
        assert [int(row["step"]) for row in trace] == list(range(solved_steps + 1))
        best = max(trace, key=lambda row: float(row["ratio"]))
        assert [f"{p:.10g}" for p in metrics["best_params"]] == [best[f"p{i}"] for i in range(18)]

    def test_unsolvable_start_exits_1(self, trained, tmp_path, capsys):
        # naca9210 does not solve at the default 255 panels
        rc = main(["optimize", "--checkpoint", str(trained / "checkpoint.ckpt"),
                   "--airfoil", str(bundled_airfoil_dir() / "naca9210.dat"),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: no solvable initial state found\n"
        assert not (tmp_path / "trace.csv").exists()


class TestByteIdenticalReruns:
    def test_optimize(self, trained, dat_file, tmp_path, fast_config):
        args = ["optimize", "--checkpoint", str(trained / "checkpoint.ckpt"),
                "--airfoil", dat_file, "--config", fast_config, "--seed", "4"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("trace.csv", "metrics.json", "resolved_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_pso(self, dat_file, tmp_path, fast_config):
        args = ["pso", "--airfoil", dat_file, "--swarm", "5", "--iterations", "3",
                "--keep-thickness", "0.05", "--seed", "9", "--config", fast_config]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("trace.csv", "result.json", "resolved_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestWeightsLayout:
    def test_npz_keys_and_no_adam_moments(self, trained, tmp_path):
        npz = tmp_path / "w.npz"
        assert main(["export-weights", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--out", str(npz)]) == 0
        names = set(np.load(npz).files)
        layers = [f"{net}_{kind}{k}" for net in ("actor", "critic")
                  for k in range(3) for kind in ("w", "b")]
        assert names == {"meta", "actor_log_std", *layers}


class TestCheckpointBytes:
    @pytest.mark.parametrize("mangle", [lambda b: b[:-100], lambda b: b + b"\0"])
    def test_damaged_checkpoint_is_one_line_runtime_error(self, mangle, trained, dat_file,
                                                          tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(mangle((trained / "checkpoint.ckpt").read_bytes()))
        rc = main(["optimize", "--checkpoint", str(bad), "--airfoil", dat_file,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


def _rewrite_checkpoint(src: Path, dst: Path, edit) -> None:
    """`src` with its header and tensor payload replaced by `edit(header, payload)`."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header, payload = edit(json.loads(raw[12:12 + hlen]), raw[12 + hlen:])
    blob = json.dumps(header).encode()
    dst.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + payload)


def _with_header(key: str, value):
    """A `_rewrite_checkpoint` edit that sets `key`, to `value(old)` when `value` is callable."""
    def edit(header, payload):
        return {**header, key: value(header[key]) if callable(value) else value}, payload
    return edit


def _first_tensor(entry):
    return lambda table: [entry(table[0])] + table[1:]


def _without_tensor(name: str):
    def edit(header, payload):
        entries = header["tensors"]
        i = [e["name"] for e in entries].index(name)
        start = 8 * sum(int(np.prod(e["shape"])) for e in entries[:i])
        end = start + 8 * int(np.prod(entries[i]["shape"]))
        return {**header, "tensors": entries[:i] + entries[i + 1:]}, payload[:start] + payload[end:]
    return edit


def _with_tensor(name: str):
    """A `_rewrite_checkpoint` edit that appends a tensor `name` of 7.0s, shaped like `actor.b1`."""
    def edit(header, payload):
        shape = next(e["shape"] for e in header["tensors"] if e["name"] == "actor.b1")
        entry = {"name": name, "shape": shape, "order": "C"}
        extra = np.full(shape, 7.0, dtype="<f8").tobytes()
        return {**header, "tensors": header["tensors"] + [entry]}, payload + extra
    return edit


# Agents that `save_checkpoint` writes but that no command can roll, and what the error names.
_BROKEN_AGENTS = [
    pytest.param(lambda rng: (policy_init([18, 8, 5], rng), mlp_init([18, 8, 1], rng)),
                 "actor maps 18 inputs to 5 actions", id="action-width-5"),
    pytest.param(lambda rng: (policy_init([12, 8, 18], rng), mlp_init([12, 8, 1], rng)),
                 "actor maps 12 inputs", id="input-width-12"),
    pytest.param(lambda rng: (Policy(Mlp([np.zeros((18, 8)), np.zeros((9, 18))],
                                         [np.zeros(8), np.zeros(18)]), np.zeros(18)),
                              mlp_init([18, 8, 1], rng)), "actor tensor shapes", id="w1-9x18"),
    pytest.param(lambda rng: (Policy(Mlp([np.zeros((18, 18))], [np.zeros(7)]), np.zeros(18)),
                              mlp_init([18, 8, 1], rng)), "actor tensor shapes", id="b0-width-7"),
    pytest.param(lambda rng: (Policy(mlp_init([18, 8, 18], rng), np.zeros(3)),
                              mlp_init([18, 8, 1], rng)), "actor.log_std", id="log-std-3"),
    pytest.param(lambda rng: (policy_init([18, 8, 18], rng), mlp_init([18, 8, 2], rng)),
                 "critic sizes", id="critic-output-2"),
    pytest.param(lambda rng: (policy_init([18, 8, 18], rng), mlp_init([6, 8, 1], rng)),
                 "critic sizes", id="critic-input-6"),
]


class TestBadCheckpointInputs:
    """A checkpoint or weights file that lacks what loading reads: exit 1, one line, no output."""

    @staticmethod
    def _fails(argv, bad, out, capsys, key=""):
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1 and key in err
        assert not out.exists()

    def _optimize_fails(self, edit, trained, dat_file, tmp_path, capsys, key=""):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained / "checkpoint.ckpt", bad, edit)
        self._fails(["optimize", "--checkpoint", str(bad), "--airfoil", dat_file],
                    bad, tmp_path / "out", capsys, key)

    @pytest.mark.parametrize("key", ["format_version", "tensors", "sigma", "dtype",
                                     "actor_sizes", "critic_sizes"])
    def test_checkpoint_header_without_a_key(self, key, trained, dat_file, tmp_path, capsys):
        edit = lambda header, payload: ({k: v for k, v in header.items() if k != key}, payload)
        self._optimize_fails(edit, trained, dat_file, tmp_path, capsys)

    @pytest.mark.parametrize("command, key, value", [
        ("optimize", "sigma", "abc"),
        ("evaluate", "sigma", "abc"),
        ("optimize", "sigma", -1.0),
        ("optimize", "sigma", float("nan")),
        ("optimize", "sigma", float("inf")),
        ("optimize", "sigma", True),
        ("optimize", "train_steps", "2048"),
        ("optimize", "train_steps", 2048.5),
        ("optimize", "env_config_hash", 12),
        ("optimize", "fidelity", None),
        ("optimize", "format_version", 1),
        ("evaluate", "tensors", "actor.w0"),
        ("optimize", "tensors", _first_tensor(lambda e: {"name": e["name"]})),
        ("optimize", "tensors", _first_tensor(lambda e: {**e, "shape": [-18, -256]})),
        ("optimize", "tensors", _first_tensor(lambda e: {**e, "shape": [18.0, 256]})),
        ("optimize", "tensors", _first_tensor(lambda e: {**e, "name": 7})),
        ("optimize", "tensors", _first_tensor(lambda e: [e["name"], e["shape"]])),
        ("optimize", "dtype", ">f8"),
        ("optimize", "actor_sizes", [18, 256, 18]),
        ("evaluate", "critic_sizes", [18, 256, 256, 2]),
        ("optimize", "critic_sizes", "18"),
        ("optimize", "tensors", _first_tensor(lambda e: {**e, "order": "K"})),
    ])
    def test_checkpoint_header_with_a_bad_value(self, command, key, value, trained, dat_file,
                                                tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained / "checkpoint.ckpt", bad, _with_header(key, value))
        argv = [command, "--checkpoint", str(bad)]
        argv += ["--airfoil", dat_file] if command == "optimize" else []
        self._fails(argv, bad, tmp_path / "out", capsys, key)

    @pytest.mark.parametrize("meta, key", [
        ("abc", "meta"),
        ({"solver_calls": "abc"}, "meta.solver_calls"),
        ({"solver_calls": -1}, "meta.solver_calls"),
        ({"solver_calls": 2048.0}, "meta.solver_calls"),
        ({"nominal_cost_ms_per_call": "4"}, "meta.nominal_cost_ms_per_call"),
        ({"nominal_cost_ms_per_call": -1.0}, "meta.nominal_cost_ms_per_call"),
        ({"nominal_cost_ms_per_call": float("nan")}, "meta.nominal_cost_ms_per_call"),
    ])
    def test_finetune_source_with_a_bad_meta(self, meta, key, trained, fast_config, tmp_path,
                                             capsys):
        bad = tmp_path / "bad.ckpt"
        edit = (lambda old: {**old, **meta}) if isinstance(meta, dict) else meta
        _rewrite_checkpoint(trained / "checkpoint.ckpt", bad, _with_header("meta", edit))
        self._fails(["finetune", "--from", str(bad), "--strategy", "1", "--timesteps", "64",
                     "--config", fast_config], bad, tmp_path / "out", capsys, key)

    @pytest.mark.parametrize("build, fragment", _BROKEN_AGENTS)
    @pytest.mark.parametrize("command", ["optimize", "evaluate", "finetune"])
    def test_agent_that_does_not_fit(self, build, fragment, command, fast_config, dat_file,
                                     tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        actor, critic = build(np.random.default_rng(0))
        save_checkpoint(bad, AgentCheckpoint(actor, critic, None, 64, "beef", 0.0, "low"))
        argv = {"optimize": ["optimize", "--checkpoint", str(bad), "--airfoil", dat_file],
                "evaluate": ["evaluate", "--checkpoint", str(bad), "--sample",
                             "--dataset", str(Path(dat_file).parent)],
                "finetune": ["finetune", "--from", str(bad), "--strategy", "1",
                             "--timesteps", "64"]}[command]
        self._fails(argv + ["--config", fast_config], bad, tmp_path / "out", capsys, fragment)

    def test_checkpoint_without_critic_layers(self, trained, dat_file, tmp_path, capsys):
        def edit(header, payload):
            for name in [e["name"] for e in header["tensors"] if e["name"].startswith("critic.")]:
                header, payload = _without_tensor(name)(header, payload)
            return header, payload
        self._optimize_fails(edit, trained, dat_file, tmp_path, capsys)

    @pytest.mark.parametrize("name", ["actor.b0"])
    def test_checkpoint_without_a_tensor(self, name, trained, dat_file, tmp_path, capsys):
        self._optimize_fails(_without_tensor(name), trained, dat_file, tmp_path, capsys)

    @pytest.mark.parametrize("name", ["actor.b1", "adam.m0"])
    def test_checkpoint_with_a_duplicate_or_unknown_tensor(self, name, trained, dat_file,
                                                           tmp_path, capsys):
        self._optimize_fails(_with_tensor(name), trained, dat_file, tmp_path, capsys, name)

    @pytest.fixture
    def weights(self, trained, tmp_path):
        npz = tmp_path / "w.npz"
        assert main(["export-weights", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--out", str(npz)]) == 0
        return dict(np.load(npz))

    def _import_fails(self, bad, tmp_path, capsys, key=""):
        self._fails(["import-weights", "--weights", str(bad)], bad, tmp_path / "out.ckpt", capsys,
                    key)

    @pytest.mark.parametrize("content", [b"not weights\n", b"", b"PK\x03\x04damaged"])
    def test_weights_file_that_is_not_an_npz(self, content, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(content)
        self._import_fails(bad, tmp_path, capsys)

    @pytest.mark.parametrize("drop", ["meta", "actor_b0"])
    def test_weights_without_an_entry(self, drop, weights, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{k: v for k, v in weights.items() if k != drop})
        self._import_fails(bad, tmp_path, capsys)

    def test_weights_meta_without_a_key(self, weights, tmp_path, capsys):
        meta = json.loads(str(weights["meta"]))
        del meta["train_steps"]
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{**weights, "meta": json.dumps(meta)})
        self._import_fails(bad, tmp_path, capsys)

    @pytest.mark.parametrize("key, value", [
        ("sigma", "abc"), ("sigma", -0.5), ("train_steps", "2048"), ("env_config_hash", 3),
    ])
    def test_weights_meta_with_a_bad_value(self, key, value, weights, tmp_path, capsys):
        meta = json.loads(str(weights["meta"]))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{**weights, "meta": json.dumps({**meta, key: value})})
        self._import_fails(bad, tmp_path, capsys, key)

    def test_weights_meta_that_is_not_json(self, weights, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{**weights, "meta": "{sigma"})
        self._import_fails(bad, tmp_path, capsys, "meta")

    @pytest.mark.parametrize("key", ["adam_m0"])
    def test_weights_with_an_unknown_entry(self, key, weights, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{**weights, key: weights["actor_b1"]})
        self._import_fails(bad, tmp_path, capsys, key.replace("_", ".", 1))

    @pytest.mark.parametrize("tensor", [
        np.full((18, 256), "x"), np.full((18, 256), None, dtype=object), np.ones((18, 256), int),
    ])
    def test_weights_with_a_tensor_that_is_not_float(self, tensor, weights, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{**weights, "actor_w0": tensor})
        self._import_fails(bad, tmp_path, capsys, "actor.w0")


class TestTimingJson:
    def test_commands_report_minor_page_faults(self, trained, dat_file, tmp_path, fast_config):
        ckpt = str(trained / "checkpoint.ckpt")
        ds = tmp_path / "ds"
        ds.mkdir()
        naca.write_dat(ds / "naca0012.dat", "0012", naca.coordinates("0012", 81))
        runs = {
            "evaluate": ["evaluate", "--checkpoint", ckpt, "--dataset", str(ds)],
            "optimize": ["optimize", "--checkpoint", ckpt, "--airfoil", dat_file],
            "pso": ["pso", "--airfoil", dat_file, "--swarm", "2", "--iterations", "1"],
        }
        for name, argv in runs.items():
            out = tmp_path / name
            assert main(argv + ["--config", fast_config, "--out", str(out)]) == 0
            faults = json.loads((out / "timing.json").read_text())["minor_page_faults"]
            assert isinstance(faults, int) and faults >= 0


# Minor page faults of 20 repeated 255-panel solves in a fresh interpreter,
# after `cli.main` ran ("main") or after a bare `import foilrl.cli` ("import").
FAULT_PROBE = """
import resource, sys
import foilrl.cli as cli
from foilrl import aero, geometry, naca
if sys.argv[1] == "main":
    try:
        cli.main(["--version"])
    except SystemExit:
        pass
params, _ = geometry.fit_cst(naca.coordinates("2412", 131), geometry.default_bounds())
geom = geometry.cst_to_geometry(params, 128)
cfg = aero.high_fidelity_config(panel_count=255)
for _ in range(3):
    aero.solve_high_fidelity(geom, None, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    aero.solve_high_fidelity(geom, None, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _probe_faults(setup: str) -> int:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(foilrl.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE, setup], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


class TestFreedMemoryKept:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_main_keeps_solver_arrays_resident(self):
        assert _probe_faults("main") < 100

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_import_leaves_allocator_alone(self):
        # glibc's default trims the heap after every solve: ~1,100 faults a call
        assert _probe_faults("import") > 20 * 100

    def test_sets_both_thresholds_on_every_call(self, monkeypatch):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_memory()
        cli._keep_freed_memory()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)] * 2

    def test_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
        cli._keep_freed_memory()

        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        cli._keep_freed_memory()


class TestFlagsEachCommandReads:
    @pytest.mark.parametrize("argv", [
        ["finetune", "--from", "x.ckpt", "--strategy", "1", "--svg"],
        ["optimize", "--checkpoint", "x.ckpt", "--airfoil", "x.dat", "--svg"],
        ["pso", "--airfoil", "x.dat", "--svg"],
        ["compare", "--drl", "a.csv", "--pso", "b.csv", "--config", "c.json"],
        ["compare", "--drl", "a.csv", "--pso", "b.csv", "--seed", "1"],
    ])
    def test_unread_flag_is_usage_error(self, argv, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_compare_svg_without_config(self, tmp_path):
        records = tmp_path / "records.csv"
        write_records_csv(records, [EvalRecord("naca0012", 50.0, 80.0, 30.0, 0.12, 0.12, 0.0,
                                               3, "max_steps", 0.2, 0.1, True)])
        sweeps = []
        for k, (sig, dmt, best) in enumerate([(0, 64, 241), (15, 12, 180), (30, 20, 170)]):
            p = tmp_path / f"s{k}.json"
            p.write_text(json.dumps({"sigma": sig, "delta_mt_mean": dmt, "best_median": best}))
            sweeps.append(str(p))
        out = tmp_path / "cmp"
        rc = main(["compare", "--drl", str(records), "--pso", str(records),
                   "--sweep", *sweeps, "--out", str(out), "--svg"])
        assert rc == 0
        svg = (out / "pareto.svg").read_text()
        assert svg.count("<circle") == 3
        assert ">front</text>" in svg and ">dominated</text>" in svg


class TestTlFreeSteps:
    @pytest.mark.parametrize("steps", ["0", "-4096"])
    def test_nonpositive_is_usage_error_before_training(self, steps, trained, tmp_path,
                                                        fast_config):
        with pytest.raises(SystemExit) as err:
            main(["finetune", "--from", str(trained / "checkpoint.ckpt"), "--strategy", "1",
                  "--timesteps", "512", "--tl-free-steps", steps, "--config", fast_config,
                  "--out", str(tmp_path)])
        assert err.value.code == 2
        assert not (tmp_path / "checkpoint.ckpt").exists()


def _outputs(run: Path) -> dict:
    """Each deterministic output file of a run, by name."""
    return {p.name: p.read_bytes() for p in run.iterdir() if p.name != "timing.json"}


class TestFlagKeys:
    def test_each_pairing_names_a_flag_and_a_config_key(self):
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        dests = {a.dest for p in commands.values() for a in p._actions}
        for dest, key in cli.FLAG_KEYS.items():
            assert dest in dests
            section = cli.DEFAULT_CONFIG
            for name in key.split("."):
                section = section[name]


@pytest.fixture(scope="module")
def sigma15(tmp_path_factory, trained, fast_config):
    """A fine-tuned checkpoint with sigma 15."""
    out = tmp_path_factory.mktemp("sigma15")
    assert main(["finetune", "--from", str(trained / "checkpoint.ckpt"), "--strategy", "1",
                 "--sigma", "15", "--timesteps", "512", "--seed", "5", "--config", fast_config,
                 "--out", str(out)]) == 0
    return str(out / "checkpoint.ckpt")


class TestResolvedConfigRepeatsTheRun:
    """A second run given only the first's resolved_config.json and the non-config arguments."""

    @staticmethod
    def _rerun(tmp_path, command, flags) -> dict:
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(command + flags + ["--out", str(first)]) == 0
        resolved = first / "resolved_config.json"
        assert main(command + ["--config", str(resolved), "--out", str(second)]) == 0
        assert _outputs(first) == _outputs(second)
        return json.loads(resolved.read_text())

    def test_train_records_the_trained_budget(self, tmp_path, fast_config):
        cfg = self._rerun(tmp_path, ["train"], [
            "--solver", "low", "--sigma", "2.5", "--preset", "finetune", "--timesteps", "64",
            "--seed", "3", "--config", fast_config])
        assert cfg["ppo"]["total_timesteps"] == 512
        assert load_checkpoint(tmp_path / "first" / "checkpoint.ckpt").train_steps == 512

    def test_finetune(self, trained, tmp_path, fast_config):
        cfg = self._rerun(tmp_path, [
            "finetune", "--from", str(trained / "checkpoint.ckpt"), "--strategy", "3",
            "--tl-free-steps", "4096"], [
            "--sigma", "15", "--timesteps", "512", "--high-cost-ms", "50", "--seed", "6",
            "--config", fast_config])
        assert cfg["env"] == {"fidelity": "high", "sigma": 15.0, "episode_max_length": 100}
        assert cfg["ppo"]["preset"] == "finetune"
        assert cfg["solver"]["high"]["nominal_cost_ms"] == 50.0

    def test_evaluate(self, sigma15, tmp_path, fast_config):
        dataset = tmp_path / "ds"
        dataset.mkdir()
        for name in ("naca0012", "naca2412"):
            (dataset / f"{name}.dat").write_bytes((bundled_airfoil_dir() / f"{name}.dat")
                                                  .read_bytes())
        cfg = self._rerun(tmp_path, ["evaluate", "--checkpoint", sigma15, "--sample"], [
            "--dataset", str(dataset), "--seed", "2", "--config", fast_config])
        assert cfg["eval"]["dataset"] == str(dataset)
        assert cfg["env"]["fidelity"] == "high" and cfg["env"]["sigma"] == 15.0

    def test_optimize(self, sigma15, dat_file, tmp_path, fast_config):
        cfg = self._rerun(tmp_path, ["optimize", "--checkpoint", sigma15, "--airfoil", dat_file],
                          ["--seed", "4", "--config", fast_config])
        assert cfg["env"]["fidelity"] == "high" and cfg["env"]["sigma"] == 15.0


class TestBestStepIsTheObjectiveBest:
    def test_optimize_reports_the_row_that_maximises_the_objective(self, sigma15, dat_file,
                                                                   tmp_path, fast_config):
        out = tmp_path / "opt"
        assert main(["optimize", "--checkpoint", sigma15, "--airfoil", dat_file,
                     "--config", fast_config, "--out", str(out)]) == 0
        trace = list(csv.DictReader((out / "trace.csv").open()))
        objective = [float(r["lambda"]) * float(r["kappa"]) * float(r["ratio"]) for r in trace]
        best = trace[int(np.argmax(objective))]
        metrics = json.loads((out / "metrics.json").read_text())
        assert f"{metrics['best_ratio']:.10g}" == best["ratio"]
        assert [f"{p:.10g}" for p in metrics["best_params"]] == [best[f"p{i}"] for i in range(18)]


class TestFinetunePresetInConfig:
    @pytest.mark.parametrize("name", ["pretrain", "from-scratch", 5])
    def test_other_preset_is_one_line_usage_error(self, name, trained, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST, "ppo": {"preset": name}}))
        rc = main(["finetune", "--from", str(trained / "checkpoint.ckpt"), "--strategy", "1",
                   "--timesteps", "512", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ppo.preset ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_finetune_preset_changes_nothing(self, trained, tmp_path, fast_config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST, "ppo": {"preset": "finetune"}}))
        argv = ["finetune", "--from", str(trained / "checkpoint.ckpt"), "--strategy", "1",
                "--timesteps", "512", "--seed", "5"]
        assert main(argv + ["--config", fast_config, "--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert _outputs(tmp_path / "a") == _outputs(tmp_path / "b")


class TestCompareChecksItsInputs:
    @pytest.fixture
    def records(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(path, [EvalRecord("naca0012", 50.0, 80.0, 30.0, 0.12, 0.12, 0.0,
                                            3, "max_steps", 0.2, 0.1, True)])
        return path

    @staticmethod
    def _assert_runtime_error(argv, path, key, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column", ["best_ratio", "termination_reason"])
    def test_records_without_a_column(self, column, records, tmp_path, capsys):
        with records.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = tmp_path / "bad.csv"
        with bad.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, [c for c in rows[0] if c != column], extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        self._assert_runtime_error(["compare", "--drl", str(records), "--pso", str(bad)],
                                   bad, column, tmp_path, capsys)

    @pytest.mark.parametrize("line, fragment", [
        ("naca0012,50,abc,30,0.12,0.12,0,3,max_steps,0.2", "abc"),
        ("naca0012,50,80", "line 2"),
    ])
    def test_records_with_a_bad_row(self, line, fragment, records, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(records.read_text().splitlines()[0] + "\n" + line + "\n")
        self._assert_runtime_error(["compare", "--drl", str(bad), "--pso", str(records)],
                                   bad, fragment, tmp_path, capsys)

    @pytest.mark.parametrize("key", ["sigma", "delta_mt_mean", "best_median"])
    def test_sweep_without_a_key(self, key, records, tmp_path, capsys):
        sweep = tmp_path / "summary.json"
        payload = {"sigma": 15, "delta_mt_mean": 12.0, "best_median": 180.0}
        del payload[key]
        sweep.write_text(json.dumps(payload))
        self._assert_runtime_error(["compare", "--drl", str(records), "--pso", str(records),
                                    "--sweep", str(sweep)], sweep, key, tmp_path, capsys)

    @pytest.mark.parametrize("content, fragment", [
        ({"sigma": 15, "delta_mt_mean": "abc", "best_median": 180.0}, "delta_mt_mean"),
        ({"sigma": 15, "delta_mt_mean": 12.0, "best_median": None}, "best_median"),
        ({"sigma": [15], "delta_mt_mean": 12.0, "best_median": 180.0}, "sigma"),
        ({"sigma": True, "delta_mt_mean": 12.0, "best_median": 180.0}, "sigma"),
        (b"{not json", "JSON"),
        (b"\xff\xfe\x00", "JSON"),
        ({"sigma": float("nan"), "delta_mt_mean": 12.0, "best_median": 180.0}, "sigma"),
        ({"sigma": -15, "delta_mt_mean": 12.0, "best_median": 180.0}, "sigma"),
        ({"sigma": 15, "delta_mt_mean": float("inf"), "best_median": 180.0}, "delta_mt_mean"),
        ({"sigma": 15, "delta_mt_mean": -0.5, "best_median": 180.0}, "delta_mt_mean"),
        ({"sigma": 15, "delta_mt_mean": 12.0, "best_median": float("-inf")}, "best_median"),
        ({"sigma": 15, "delta_mt_mean": 12.0, "best_median": float("nan")}, "best_median"),
    ])
    def test_sweep_with_a_bad_value(self, content, fragment, records, tmp_path, capsys):
        sweep = tmp_path / "summary.json"
        sweep.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        self._assert_runtime_error(["compare", "--drl", str(records), "--pso", str(records),
                                    "--sweep", str(sweep)], sweep, fragment, tmp_path, capsys)


# Every JSON kind, plus the strings that some keys accept.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["high", "low", *cli.PRESETS]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)


def _config_objects(defaults: dict):
    """JSON objects over some of `defaults`' keys; a section may also get any JSON value."""
    return st.fixed_dictionaries({}, optional={
        key: (_config_objects(default) | _JSON_VALUES) if isinstance(default, dict)
        else _JSON_VALUES
        for key, default in defaults.items()})


class TestConfigProperty:
    """Any --config object either resolves through every section builder or is a UsageError.

    Only the builders run: a drawn panel count or budget may be huge.
    """

    @pytest.fixture(scope="class")
    def cfg_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("drawn") / "config.json"

    @settings(max_examples=300, deadline=None)
    @given(payload=_config_objects(cli.DEFAULT_CONFIG), finetune=st.booleans())
    def test_resolves_or_is_usage_error(self, payload, finetune, cfg_path):
        cfg_path.write_text(json.dumps(payload))
        defaults = cli._FINETUNE_DEFAULTS if finetune else cli.DEFAULT_CONFIG
        try:
            cfg = cli._load_config(SimpleNamespace(config=str(cfg_path)), defaults)
        except UsageError:
            return
        np.random.default_rng(cfg["seed"])  # what every command seeds
        for build in (cli._env_config, cli._ppo_config, cli._flow, cli._pso_config,
                      lambda c: cli._solver_config(c, "high"),
                      lambda c: cli._solver_config(c, "low")):
            try:
                build(cfg)
            except UsageError:
                pass

    @pytest.mark.parametrize("payload, key", [
        ({"env": {"fidelity": []}}, "env.fidelity"),
        ({"env": {"fidelity": {"high": 1}}}, "env.fidelity"),
        ({"seed": -1}, "seed"),
    ])
    def test_unusable_value_is_one_line_usage_error(self, payload, key, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {key} ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "resolved_config.json").exists()

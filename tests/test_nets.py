import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foilrl import nets
from foilrl.errors import ContractViolation, ShapeError
from foilrl.nets import (
    AdamState,
    AgentCheckpoint,
    FreezeMask,
    Mlp,
    adam_step,
    backward,
    export_weights,
    forward,
    forward_cached,
    gaussian_entropy,
    gaussian_log_prob,
    gaussian_sample,
    import_weights,
    load_checkpoint,
    mlp_init,
    orthogonal,
    policy_init,
    save_checkpoint,
)
from foilrl.ppo import build_agent


def reference_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Straight-line re-implementation used as the oracle."""
    h = np.atleast_2d(x)
    for k in range(net.n_layers):
        h = h @ net.weights[k] + net.biases[k]
        if k < net.n_layers - 1:
            h = np.tanh(h)
    return h


class TestForward:
    def test_zero_net_zero_output(self):
        net = Mlp([np.zeros((4, 3)), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)])
        out = forward(net, np.ones(4))
        assert np.all(out == 0.0)

    def test_single_linear_identity(self):
        net = Mlp([np.eye(5)], [np.zeros(5)])
        x = np.arange(5.0)
        np.testing.assert_array_equal(forward(net, x)[0], x)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            net = mlp_init([6, 16, 16, 3], rng)
            x = rng.standard_normal((7, 6))
            np.testing.assert_allclose(forward(net, x), reference_forward(net, x), atol=1e-12)

    def test_shape_mismatch(self):
        net = mlp_init([4, 8, 2], np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward(net, np.zeros(5))

    @pytest.mark.parametrize("batch", [1, 2, 3, 8, 64, 257])
    def test_same_bits_as_reference_at_any_weight_address(self, batch):
        # Policy and critic shapes. Weights are stored cache-line aligned for
        # speed; results must not depend on that, nor on np.dot versus `@`.
        rng = np.random.default_rng(batch)
        for sizes in ([18, 256, 256, 18], [18, 256, 256, 1]):
            src = mlp_init(sizes, rng)
            for w, b in zip(src.weights, src.biases):
                w += 0.05 * rng.standard_normal(w.shape)
                b += 0.1 * rng.standard_normal(b.shape)
            x = rng.uniform(-1.0, 1.0, (batch, 18))
            for offset in (0, 8, 16, 32, 48):
                misaligned = []
                for w in src.weights:
                    buf = np.empty(w.size + 16)
                    shift = (-buf.ctypes.data % 64 + offset) // 8
                    order = "F" if w.flags.f_contiguous and not w.flags.c_contiguous else "C"
                    misaligned.append(buf[shift:shift + w.size].reshape(w.shape, order=order))
                    misaligned[-1][...] = w
                    assert misaligned[-1].ctypes.data % 64 == offset
                # `@` on the misaligned arrays themselves, not on an Mlp's copies
                raw = SimpleNamespace(weights=misaligned, biases=src.biases, n_layers=3)
                np.testing.assert_array_equal(forward(src, x), reference_forward(raw, x))

    def test_weights_stored_aligned_in_their_layout(self):
        rng = np.random.default_rng(0)
        net = mlp_init([18, 256, 256, 18], rng)
        w = np.empty(256 * 256 + 1)[1:].reshape(256, 256)
        w[...] = rng.standard_normal((256, 256))
        copied = net.copy()
        for m in (net, copied, Mlp([w], [np.zeros(256)]), Mlp([w.T], [np.zeros(256)])):
            assert all(w.ctypes.data % 64 == 0 for w in m.weights)
        # The layout picks the BLAS kernel, hence the rounding: an init keeps
        # the transposed (Fortran) first layer, and so does a copy.
        assert net.weights[0].flags.f_contiguous and not net.weights[0].flags.c_contiguous
        assert Mlp([w.T], [np.zeros(256)]).weights[0].flags.f_contiguous
        assert [w.flags.f_contiguous for w in copied.weights] == [
            w.flags.f_contiguous for w in net.weights]
        copied.weights[0] += 1.0
        assert not np.array_equal(copied.weights[0], net.weights[0])


class TestCopy:
    def test_copy_gives_its_source_bits_at_batch_1(self):
        rng = np.random.default_rng(3)
        actor, critic = policy_init([18, 256, 256, 18], rng), mlp_init([18, 256, 256, 1], rng)
        actor_copy, critic_copy = actor.copy(), critic.copy()
        for obs in rng.standard_normal((500, 1, 18)):
            np.testing.assert_array_equal(actor_copy.mean(obs), actor.mean(obs))
            np.testing.assert_array_equal(forward(critic_copy, obs), forward(critic, obs))


class TestBackward:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            sizes = [int(rng.integers(2, 8)) for _ in range(3)] + [int(rng.integers(1, 5))]
            net = mlp_init(sizes, rng)
            x = rng.standard_normal((3, sizes[0]))
            v = rng.standard_normal((3, sizes[-1]))  # projection defining the scalar loss

            _, cache = forward_cached(net, x)
            grads, _ = backward(net, cache, v)

            li = int(rng.integers(net.n_layers))
            w = net.weights[li]
            i, j = int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1]))
            h = 1e-5
            w[i, j] += h
            up = float((forward(net, x) * v).sum())
            w[i, j] -= 2 * h
            down = float((forward(net, x) * v).sum())
            w[i, j] += h
            fd = (up - down) / (2 * h)
            rel = abs(fd - grads[2 * li][i, j]) / max(abs(fd), 1e-8)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_input_gradient_matches_differences(self):
        rng = np.random.default_rng(2)
        net = mlp_init([5, 12, 4], rng)
        x = rng.standard_normal((1, 5))
        v = rng.standard_normal((1, 4))
        _, cache = forward_cached(net, x)
        _, gin = backward(net, cache, v)
        h = 1e-6
        for i in range(5):
            xp = x.copy()
            xp[0, i] += h
            xm = x.copy()
            xm[0, i] -= h
            fd = ((forward(net, xp) * v).sum() - (forward(net, xm) * v).sum()) / (2 * h)
            assert abs(fd - gin[0, i]) < 1e-6

    def test_linear_scalar_closed_form(self):
        # loss = w . x  ->  dloss/dw = x
        net = Mlp([np.array([[0.3], [0.7]])], [np.zeros(1)])
        x = np.array([[2.0, -5.0]])
        _, cache = forward_cached(net, x)
        grads, _ = backward(net, cache, np.ones((1, 1)))
        np.testing.assert_array_equal(grads[0][:, 0], x[0])

    def test_fully_frozen_net_gets_zero_gradients(self):
        rng = np.random.default_rng(3)
        net = mlp_init([4, 8, 2], rng)
        _, cache = forward_cached(net, rng.standard_normal((5, 4)))
        grads, _ = backward(net, cache, np.ones((5, 2)), frozen=[True, True])
        assert all(np.all(g == 0.0) for g in grads)

    def test_frozen_layers_leave_the_other_gradients_unchanged(self):
        rng = np.random.default_rng(4)
        net = mlp_init([4, 8, 8, 2], rng)
        _, cache = forward_cached(net, rng.standard_normal((5, 4)))
        grad_out = rng.standard_normal((5, 2))
        full, gin_full = backward(net, cache, grad_out)
        part, gin_part = backward(net, cache, grad_out, frozen=[True, True, False])
        for a, b in zip(full[4:], part[4:]):
            np.testing.assert_array_equal(a, b)
        for g, t in zip(part[:4], net.tensors()[:4]):
            assert g.shape == t.shape and np.all(g == 0.0)
        np.testing.assert_array_equal(gin_full, gin_part)

    def test_missing_cache_is_contract_violation(self):
        net = mlp_init([4, 8, 2], np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            backward(net, None, np.ones((1, 2)))


class TestGaussian:
    def test_vanishing_variance_sample_near_mean(self):
        rng = np.random.default_rng(4)
        mean = np.linspace(-1, 1, 18)
        devs = [
            np.abs(gaussian_sample(mean, np.full(18, -5.0), rng)[0] - mean).mean()
            for _ in range(50)
        ]
        assert np.mean(devs) < 1e-2

    def test_log_prob_closed_form_at_mean(self):
        lp = gaussian_log_prob(np.zeros(18), np.zeros(18), np.zeros(18))
        assert lp == pytest.approx(-9.0 * np.log(2 * np.pi), abs=1e-10)

    def test_entropy_closed_form(self):
        s = np.array([0.0, -1.0, 0.5])
        expect = s.sum() + 3 * 0.5 * np.log(2 * np.pi * np.e)
        assert gaussian_entropy(s) == pytest.approx(expect, abs=1e-10)

    def test_monte_carlo_sample_mean(self):
        rng = np.random.default_rng(5)
        samples = np.array(
            [gaussian_sample(np.zeros(1), np.zeros(1), rng)[0][0] for _ in range(100_000)]
        )
        assert abs(samples.mean()) < 0.02

    def test_log_std_clamped(self):
        rng = np.random.default_rng(6)
        action, _ = gaussian_sample(np.zeros(4), np.full(4, 10.0), rng)
        assert np.abs(action).max() < np.exp(2.0) * 6  # would explode without the clamp


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = [np.full((2, 2), 3.0)]
        state = AdamState.for_tensors(params)
        adam_step(params, [np.zeros((2, 2))], state, lr=0.5)
        assert np.all(params[0] == 3.0)

    def test_first_step_closed_form(self):
        # with fresh moments the first bias-corrected step is
        # -lr * g / (|g| + eps) elementwise
        g = np.array([[0.3, -2.0]])
        params = [np.zeros((1, 2))]
        state = AdamState.for_tensors(params)
        adam_step(params, [g], state, lr=0.01)
        expect = -0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params[0], expect, rtol=1e-9)

    def test_frozen_tensor_untouched_with_nonzero_grad(self):
        params = [np.ones((2, 2)), np.ones((2, 2))]
        state = AdamState.for_tensors(params)
        adam_step(params, [np.ones((2, 2))] * 2, state, 0.1, frozen=[True, False])
        assert np.all(params[0] == 1.0)
        assert not np.all(params[1] == 1.0)

    def test_shape_mismatch(self):
        params = [np.ones((2, 2))]
        state = AdamState.for_tensors(params)
        with pytest.raises(ShapeError):
            adam_step(params, [np.ones((3, 2))], state, 0.1)

    def test_count_mismatch(self):
        params = [np.ones((2, 2)), np.ones(2)]
        state = AdamState.for_tensors(params)
        with pytest.raises(ShapeError, match="counts disagree"):
            adam_step(params, [np.ones((2, 2))], state, 0.1)
        assert state.t == 0


class TestBothCores:
    def test_worker_half_that_raises_reaches_the_caller(self):
        assert nets._blas_thread_control() is not None  # the worker thread runs
        with nets.both_cores() as run:
            with pytest.raises(ZeroDivisionError):
                run(lambda: 1, lambda: 1 / 0)
            assert run(lambda: 1, lambda: 2) == (1, 2)  # and the worker serves on

    def test_caller_half_that_raises_waits_for_the_worker_half(self):
        assert nets._blas_thread_control() is not None  # the worker thread runs
        finished = threading.Event()

        def there():
            time.sleep(0.05)
            finished.set()

        with nets.both_cores() as run:
            with pytest.raises(ZeroDivisionError):
                run(lambda: 1 / 0, there)
            assert finished.is_set()

    @pytest.fixture
    def fresh_lookup(self, monkeypatch):
        """Monkeypatch, with the BLAS thread control looked up afresh inside the test and after it."""
        nets._blas_thread_control.cache_clear()
        yield monkeypatch
        monkeypatch.undo()
        nets._blas_thread_control.cache_clear()

    def test_no_control_without_the_symbols(self, fresh_lookup):
        fresh_lookup.setattr(nets, "_BLAS_THREAD_SYMBOLS", (("no_get", "no_set"),))
        assert nets._blas_thread_control() is None
        with nets.both_cores() as run:
            assert run(lambda: 1, lambda: 2) == (1, 2)

    def test_no_control_without_the_library(self, fresh_lookup):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        fresh_lookup.setattr(nets.ctypes, "CDLL", missing)
        assert nets._blas_thread_control() is None


class TestFreezeMask:
    def test_frozen_layers_bit_stable_under_optimization(self):
        rng = np.random.default_rng(7)
        actor = policy_init([6, 8, 8, 6], rng)
        critic = mlp_init([6, 8, 8, 1], rng)
        mask = FreezeMask(actor=(True, True, False), critic=(True, True, False))
        flags = mask.tensor_flags(actor, critic)
        tensors = actor.tensors() + critic.tensors()
        snapshot = [t.copy() for t in tensors]
        state = AdamState.for_tensors(tensors)
        for _ in range(200):
            grads = [rng.standard_normal(t.shape) for t in tensors]
            adam_step(tensors, grads, state, 1e-3, flags)
        for k, frozen in enumerate(flags):
            if frozen:
                np.testing.assert_array_equal(tensors[k], snapshot[k])
            else:
                assert not np.array_equal(tensors[k], snapshot[k])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        actor, critic = build_agent(rng)
        adam = AdamState.for_tensors(actor.tensors() + critic.tensors())
        adam.t = 42
        ckpt = AgentCheckpoint(actor, critic, adam, 512, "cafe1234", 15.0, "high", {"k": 1})
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        export_weights(loaded, tmp_path / "agent.npz")
        save_checkpoint(tmp_path / "rebuilt.ckpt", import_weights(tmp_path / "agent.npz"))
        rebuilt = load_checkpoint(tmp_path / "rebuilt.ckpt")

        # Batch 1 is what a policy rollout computes, and its BLAS kernel depends
        # on each weight's memory order; batch 64 is what an update computes.
        rows = rng.standard_normal((2000, 18))
        batch = rng.standard_normal((64, 18))
        for agent in (loaded, rebuilt):
            for net, again in ((actor.net, agent.actor.net), (critic, agent.critic)):
                np.testing.assert_array_equal([forward(net, x) for x in rows],
                                              [forward(again, x) for x in rows])
                np.testing.assert_array_equal(forward(net, batch), forward(again, batch))
            np.testing.assert_array_equal(actor.log_std, agent.actor.log_std)
        assert loaded.train_steps == 512
        assert loaded.env_config_hash == "cafe1234"
        assert loaded.sigma == 15.0
        assert loaded.fidelity == "high"
        assert loaded.adam is None
        assert loaded.meta == {"k": 1}

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ContractViolation):
            load_checkpoint(path)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        rng = np.random.default_rng(3)
        actor = policy_init([18, 8, 18], rng)
        critic = mlp_init([18, 8, 1], rng)
        adam = AdamState.for_tensors(actor.tensors() + critic.tensors())
        path = tmp_path_factory.mktemp("ckpt") / "agent.ckpt"
        save_checkpoint(path, AgentCheckpoint(actor, critic, adam, 64, "beef", 0.0, "low"))
        return path, path.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_truncated_file_rejected(self, saved, data):
        path, blob = saved
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bad = path.with_name("cut.ckpt")
        bad.write_bytes(blob[:cut])
        with pytest.raises(ContractViolation):
            load_checkpoint(bad)

    @settings(max_examples=40, deadline=None)
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_trailing_bytes_rejected(self, saved, tail):
        path, blob = saved
        bad = path.with_name("tail.ckpt")
        bad.write_bytes(blob + tail)
        with pytest.raises(ContractViolation):
            load_checkpoint(bad)

    def test_cut_inside_payload_names_the_sizes(self, saved):
        path, blob = saved
        bad = path.with_name("short.ckpt")
        bad.write_bytes(blob[:-8])
        with pytest.raises(ContractViolation, match=f"{len(blob) - 8} bytes where the header "
                           f"implies {len(blob)}"):
            load_checkpoint(bad)


class TestOrthogonal:
    def test_square_is_orthogonal(self):
        q = orthogonal((16, 16), np.random.default_rng(9), gain=1.0)
        np.testing.assert_allclose(q @ q.T, np.eye(16), atol=1e-12)

    def test_wide_has_orthonormal_rows(self):
        q = orthogonal((4, 32), np.random.default_rng(10), gain=1.0)
        np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-12)

    def test_tall_has_orthonormal_columns(self):
        q = orthogonal((32, 4), np.random.default_rng(11), gain=2.0)
        np.testing.assert_allclose(q.T @ q, 4.0 * np.eye(4), atol=1e-12)

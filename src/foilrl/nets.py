"""Dense-network machinery with hand-written reverse-mode gradients.

Everything the training loop needs and nothing more: tanh MLPs, a
diagonal-Gaussian policy head with a state-independent log-std vector,
Adam with per-layer freeze masks, the two-thread runner that PPO's
update splits its work over (the calling thread plus a one-thread
`concurrent.futures` executor that lives for one update), and the two
agent files: a versioned binary checkpoint with a JSON header and fixed
little-endian float64 payload, and an `.npz` of the network weights.
This module alone reads and writes both.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import itertools
import json
import math
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, ShapeError
from .outputs import checked, is_count, is_finite_nonnegative

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

_LOG_2PI = float(np.log(2.0 * np.pi))

CHECKPOINT_MAGIC = b"FOILCKP1"
CHECKPOINT_VERSION = 2

# Adam's moment decay rates and denominator floor (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_ALIGN = 64  # bytes: one cache line, one AVX-512 load


def _order(a: np.ndarray) -> str:
    """`a`'s memory order, "F" or "C". Results depend on it: it picks the BLAS kernel."""
    return "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"


def _aligned(a: np.ndarray) -> np.ndarray:
    """`a`, or a copy of it in the same order, starting on a cache-line boundary.

    OpenBLAS's gemv reads a misaligned 256x256 matrix ~1.4x slower (batch-1
    inference), and its results do not depend on the address.
    """
    if a.ctypes.data % _ALIGN == 0:
        return a
    buf = np.empty(a.nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape, order=_order(a))
    out[...] = a
    return out


def orthogonal(shape: tuple[int, int], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    big, small = max(shape), min(shape)
    a = rng.standard_normal((big, small))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    q = _aligned(q)
    q *= gain
    return q


@dataclass
class Mlp:
    """Affine layers with tanh on all but the last."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        self.weights = [_aligned(w) for w in self.weights]

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def tensors(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out

    def copy(self) -> "Mlp":
        """A copy that keeps each weight's memory layout, and so its source's bits."""
        return Mlp([w.copy(order="K") for w in self.weights], [b.copy() for b in self.biases])


def mlp_init(sizes: list[int], rng: np.random.Generator, out_gain: float = 1.0) -> Mlp:
    """Orthogonal init, gain sqrt(2) on hidden layers, out_gain on the head."""
    weights, biases = [], []
    for k in range(len(sizes) - 1):
        gain = out_gain if k == len(sizes) - 2 else np.sqrt(2.0)
        weights.append(orthogonal((sizes[k], sizes[k + 1]), rng, gain))
        biases.append(np.zeros(sizes[k + 1]))
    return Mlp(weights, biases)


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    y, _ = forward_cached(net, x)
    return y


def forward_cached(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass keeping post-activation values for the backward pass."""
    # A 2-D float64 array, what every caller passes, goes through untouched.
    if type(x) is not np.ndarray or x.ndim != 2 or x.dtype != np.float64:
        x = np.asarray(x, dtype=float)
        if x.ndim < 2:
            x = np.atleast_2d(x)
    weights, biases = net.weights, net.biases
    if x.shape[1] != weights[0].shape[0]:
        raise ShapeError(f"input width {x.shape[1]} != {weights[0].shape[0]}")
    cache = [x]
    h = x
    last = len(weights) - 1
    for k in range(last + 1):
        # np.dot makes the same BLAS call as `@` with less dispatch; in place
        # on its fresh output: same values, fewer allocations.
        h = np.dot(h, weights[k])
        h += biases[k]
        if k < last:
            np.tanh(h, out=h)
        cache.append(h)
    return h, cache


def backward(
    net: Mlp,
    cache: list[np.ndarray],
    grad_out: np.ndarray,
    frozen: list[bool] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact gradients for every parameter; frozen layers get zeros.

    Returns (tensor gradients in [w0, b0, w1, b1, ...] order, input gradient).
    """
    if cache is None or len(cache) != net.n_layers + 1:
        raise ContractViolation("forward cache missing or stale")
    if frozen is None:
        frozen = [False] * net.n_layers
    grad = np.atleast_2d(np.asarray(grad_out, dtype=float))
    grads: list[np.ndarray] = [None] * (2 * net.n_layers)
    for k in range(net.n_layers - 1, -1, -1):
        if k < net.n_layers - 1:
            grad = grad * (1.0 - cache[k + 1] ** 2)  # d tanh
        if frozen[k]:  # no product: its gradient is zeros anyway
            grads[2 * k] = np.zeros(net.weights[k].shape)
            grads[2 * k + 1] = np.zeros(net.biases[k].shape)
        else:
            grads[2 * k] = cache[k].T @ grad
            grads[2 * k + 1] = grad.sum(axis=0)
        grad = grad @ net.weights[k].T
    return grads, grad


@dataclass
class Policy:
    """Mean network plus one state-independent log-std vector."""

    net: Mlp
    log_std: np.ndarray

    def copy(self) -> "Policy":
        return Policy(self.net.copy(), self.log_std.copy())

    def mean(self, obs: np.ndarray) -> np.ndarray:
        return forward(self.net, obs)

    def tensors(self) -> list[np.ndarray]:
        return self.net.tensors() + [self.log_std]


def policy_init(sizes: list[int], rng: np.random.Generator) -> Policy:
    # Small head gain keeps early actions near zero (small shape changes).
    return Policy(mlp_init(sizes, rng, out_gain=0.01), np.zeros(sizes[-1]))


def gaussian_sample(
    mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Draw an action and its log density under the diagonal Gaussian."""
    log_std = log_std.clip(LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(log_std)
    noise = rng.standard_normal(mean.shape)
    action = mean + std * noise
    return action, gaussian_log_prob(mean, log_std, action)


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, action: np.ndarray):
    log_std = log_std.clip(LOG_STD_MIN, LOG_STD_MAX)
    z = (action - mean) / np.exp(log_std)
    per_dim = -0.5 * z**2 - log_std - 0.5 * _LOG_2PI
    return per_dim.sum(axis=-1)


def gaussian_entropy(log_std: np.ndarray) -> float:
    log_std = log_std.clip(LOG_STD_MIN, LOG_STD_MAX)
    return float(np.sum(log_std + 0.5 * (1.0 + _LOG_2PI)))


@dataclass
class FreezeMask:
    """Per-layer freeze flags; the policy log-std follows the last actor layer."""

    actor: tuple[bool, ...]
    critic: tuple[bool, ...]

    @classmethod
    def none(cls, n_actor: int, n_critic: int) -> "FreezeMask":
        return cls((False,) * n_actor, (False,) * n_critic)

    def tensor_flags(self, actor: Policy, critic: Mlp) -> list[bool]:
        flags: list[bool] = []
        for frozen in self.actor:
            flags += [frozen, frozen]
        flags.append(self.actor[-1])  # log_std
        for frozen in self.critic:
            flags += [frozen, frozen]
        return flags


@dataclass
class AdamState:
    """Adam's moments and step count.

    Each moment list holds views into one flat array (`m_flat`, `v_flat`)
    in tensor order, so `adam_step` updates a run of consecutive tensors as
    one array.
    """

    m_flat: np.ndarray
    v_flat: np.ndarray
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_tensors(cls, tensors: list[np.ndarray]) -> "AdamState":
        """Zero moments for `tensors`."""
        ends = [0, *itertools.accumulate(t.size for t in tensors)]
        m_flat, v_flat = np.zeros(ends[-1]), np.zeros(ends[-1])
        m, v = ([flat[lo:hi].reshape(t.shape) for t, lo, hi in zip(tensors, ends, ends[1:])]
                for flat in (m_flat, v_flat))
        return cls(m_flat, v_flat, m, v)


def adam_step(
    tensors: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    frozen: list[bool] | None = None,
    run=None,
) -> None:
    """In-place Adam with bias correction. Frozen tensors are left untouched.

    Each run of consecutive unfrozen tensors is updated as one flat array.
    Every operation is elementwise, so the bits do not depend on that
    grouping, nor on `run` (see `both_cores`), whose worker thread updates
    the later tensors while this thread updates about as many elements of
    the earlier ones.
    """
    if len(tensors) != len(grads) or len(tensors) != len(state.m):
        raise ShapeError("tensor/gradient/moment counts disagree")
    if frozen is None:
        frozen = [False] * len(tensors)
    for tensor, grad, m, v, skip in zip(tensors, grads, state.m, state.v, frozen):
        if not skip and not tensor.shape == grad.shape == m.shape == v.shape:
            raise ShapeError(f"gradient or moment shapes {grad.shape}, {m.shape}, {v.shape} "
                             f"!= parameter {tensor.shape}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    offsets = [0, *itertools.accumulate(m.size for m in state.m)]

    def update(lo: int, hi: int) -> None:
        for skip, group in itertools.groupby(range(lo, hi), key=frozen.__getitem__):
            if skip:
                continue
            ks = list(group)
            start, stop = offsets[ks[0]], offsets[ks[-1] + 1]
            m, v = state.m_flat[start:stop], state.v_flat[start:stop]
            # m = beta1 m + (1 - beta1) g; v = beta2 v + (1 - beta2) g**2;
            # step = lr (m / c1) / (sqrt(v / c2) + eps): one numpy operation each.
            g = np.concatenate([grads[k].ravel() for k in ks])
            step = np.multiply(g, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += step
            np.multiply(g, g, out=step)
            step *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += step
            np.divide(m, c1, out=step)
            step *= lr
            np.divide(v, c2, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            step /= g
            for k in ks:
                tensor = tensors[k]
                tensor -= step[offsets[k] - start:offsets[k + 1] - start].reshape(tensor.shape)

    if run is None:
        update(0, len(tensors))
    else:
        live = [0, *itertools.accumulate(0 if skip else m.size for m, skip in zip(state.m, frozen))]
        cut = min(range(len(live)), key=lambda k: abs(2 * live[k] - live[-1]))
        run(lambda: update(0, cut), lambda: update(cut, len(tensors)))


def _one_after_other(here, there):
    return here(), there()


# OpenBLAS's thread-count getter and setter: as numpy's wheels and as a system library name them.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_control():
    """(get, set) of the thread count of numpy's own BLAS, or None when it exports neither pair."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def both_cores():
    """A runner `run(here, there) -> (here(), there())` that calls `there` on a second thread.

    The second thread is a one-worker standard-library executor's, started
    by the first call and shut down (joined) when the block ends, also
    when it raises. A call returns or raises only once `there` has finished.
    For the length of the block numpy's BLAS is held to one thread, so the
    two threads' products do not fight BLAS's own helper thread for the
    cores; the count it had on entry is restored on the way out, also when
    the block raises. Where numpy's BLAS has no thread control, the runner
    calls the two one after the other on this thread.
    """
    control = _blas_thread_control()
    if control is None:
        yield _one_after_other
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        with concurrent.futures.ThreadPoolExecutor(1, "foilrl-update") as worker:
            def run(here, there):
                theirs = worker.submit(there)
                try:
                    return here(), theirs.result()
                finally:  # `there` never outlives the call, also when `here` raises
                    concurrent.futures.wait([theirs])

            yield run
    finally:
        set_(before)


@dataclass
class AgentCheckpoint:
    """An agent and what it was trained on.

    `adam` is the optimizer state of the run that built the agent. No file
    holds it, so a checkpoint read from a file has None.
    """

    actor: Policy
    critic: Mlp
    adam: AdamState | None
    train_steps: int
    env_config_hash: str
    sigma: float
    fidelity: str
    meta: dict = field(default_factory=dict)


def _named_tensors(ckpt: AgentCheckpoint) -> list[tuple[str, np.ndarray]]:
    out = []
    for k, (w, b) in enumerate(zip(ckpt.actor.net.weights, ckpt.actor.net.biases)):
        out += [(f"actor.w{k}", w), (f"actor.b{k}", b)]
    out.append(("actor.log_std", ckpt.actor.log_std))
    for k, (w, b) in enumerate(zip(ckpt.critic.weights, ckpt.critic.biases)):
        out += [(f"critic.w{k}", w), (f"critic.b{k}", b)]
    return out


def _is_tensor_table(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(e, dict) and isinstance(e.get("name"), str)
        and isinstance(e.get("shape"), list) and all(map(is_count, e["shape"]))
        and e.get("order") in ("C", "F")
        for e in value)


# What a checkpoint header holds besides the recorded fields: key -> (check, what it must be).
_LAYOUT = {
    "format_version": (lambda v: is_count(v) and v == CHECKPOINT_VERSION, str(CHECKPOINT_VERSION)),
    "dtype": (lambda v: v == "<f8", "'<f8'"),
    "tensors": (_is_tensor_table,
                "a list of {name: string, shape: [integer >= 0], order: 'C' or 'F'}"),
}

# The AgentCheckpoint fields that a checkpoint header and an exported weights file record.
_RECORDED = {
    "train_steps": (is_count, "an integer >= 0"),
    "env_config_hash": (lambda v: isinstance(v, str), "a string"),
    "sigma": (is_finite_nonnegative, "a finite number >= 0"),
    "fidelity": (lambda v: isinstance(v, str), "a string"),
}

# The `meta` entries that fine-tuning prices the source with; each may be absent.
_META = {
    "solver_calls": (is_count, "an integer >= 0"),
    "nominal_cost_ms_per_call": (is_finite_nonnegative, "a finite number >= 0"),
}


def _agent_from_tensors(path, named: list[tuple[str, np.ndarray]]) -> tuple[Policy, Mlp]:
    """Actor and critic from (name, tensor) pairs read from `path`, named as by `_named_tensors`.

    Each name is given once and read by a network. Each network has at least
    one layer, its layers chain and each bias is as wide as its layer; the
    log-std is as wide as the actor's output, and the critic reads the
    actor's input and ends in one value.
    """
    tensors = {}
    for name, tensor in named:
        if name in tensors:
            raise ContractViolation(f"{path}: tensor {name} is given twice")
        tensors[name] = tensor

    def take(name: str) -> np.ndarray:
        if name not in tensors:
            raise ContractViolation(f"{path}: no tensor {name}")
        return tensors.pop(name)

    def mlp(prefix: str) -> Mlp:
        n = sum(1 for name in tensors if name.startswith(f"{prefix}.w"))
        net = Mlp(
            [take(f"{prefix}.w{k}") for k in range(n)],
            [take(f"{prefix}.b{k}") for k in range(n)],
        )
        shapes = [t.shape for t in net.tensors()]
        chained = n and all(w.ndim == 2 for w in net.weights) and shapes == [
            s for a, b in zip(net.sizes, net.sizes[1:]) for s in ((a, b), (b,))]
        if not chained:
            raise ContractViolation(f"{path}: {prefix} tensor shapes {shapes} "
                                    "do not chain into a network")
        return net

    actor, critic = Policy(mlp("actor"), take("actor.log_std")), mlp("critic")
    if tensors:
        raise ContractViolation(f"{path}: no network reads tensor {next(iter(tensors))}")
    if actor.log_std.shape != (actor.net.sizes[-1],):
        raise ContractViolation(f"{path}: actor.log_std shape {actor.log_std.shape} "
                                f"is not the actor's output width {actor.net.sizes[-1]}")
    if [critic.sizes[0], critic.sizes[-1]] != [actor.net.sizes[0], 1]:
        raise ContractViolation(f"{path}: critic sizes {critic.sizes} must read the "
                                f"actor's {actor.net.sizes[0]} inputs and end in 1")
    return actor, critic


def save_checkpoint(path: str | Path, ckpt: AgentCheckpoint) -> None:
    named = _named_tensors(ckpt)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "dtype": "<f8",
        "actor_sizes": ckpt.actor.net.sizes,
        "critic_sizes": ckpt.critic.sizes,
        "train_steps": ckpt.train_steps,
        "env_config_hash": ckpt.env_config_hash,
        "sigma": ckpt.sigma,
        "fidelity": ckpt.fidelity,
        "tensors": [{"name": n, "shape": list(t.shape), "order": _order(t)} for n, t in named],
        "meta": ckpt.meta,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for entry, (_, tensor) in zip(header["tensors"], named):
            fh.write(np.asarray(tensor, dtype="<f8").tobytes(order=entry["order"]))


def load_checkpoint(path: str | Path) -> AgentCheckpoint:
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC or len(raw) < 12:
        raise ContractViolation(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12 : 12 + hlen].decode())
    except ValueError:
        raise ContractViolation(f"{path}: checkpoint header is cut short or corrupt") from None
    where = f"{path}: header "
    checked(header, _LAYOUT, where)
    recorded = checked(header, _RECORDED, where)
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ContractViolation(f"{where}meta must be an object, not {meta!r}")
    checked(meta, {key: rule for key, rule in _META.items() if key in meta}, f"{where}meta.")
    counts = [math.prod(entry["shape"]) for entry in header["tensors"]]
    expected = 12 + hlen + 8 * sum(counts)
    if len(raw) != expected:
        raise ContractViolation(f"{path}: {len(raw)} bytes where the header implies {expected}")
    offset = 12 + hlen
    named = []
    for entry, count in zip(header["tensors"], counts):
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        arr = arr.reshape(entry["shape"], order=entry["order"]).astype(float)
        named.append((entry["name"], arr))
        offset += count * 8

    actor, critic = _agent_from_tensors(path, named)
    for key, sizes in (("actor_sizes", actor.net.sizes), ("critic_sizes", critic.sizes)):
        checked(header, {key: (lambda v: v == sizes, f"the tensors' sizes {sizes}")}, where)
    return AgentCheckpoint(actor, critic, None, **recorded, meta=meta)


def export_weights(ckpt: AgentCheckpoint, path: str | Path) -> None:
    """The network tensors, each in its memory order, and the recorded fields, as an `.npz`."""
    arrays = {name.replace(".", "_"): tensor for name, tensor in _named_tensors(ckpt)}
    meta = {key: getattr(ckpt, key) for key in _RECORDED}
    with open(path, "wb") as fh:  # np.savez given a path would add `.npz` to a bare name
        np.savez(fh, meta=json.dumps(meta, sort_keys=True), **arrays)


def import_weights(path: str | Path) -> AgentCheckpoint:
    """The checkpoint, without Adam state, that `export_weights` wrote to an `.npz`."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # a text, empty or damaged file
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ContractViolation(f"{path}: not an .npz file")
    with data:
        if "meta" not in data.files:
            raise ContractViolation(f"{path}: no meta entry")
        try:
            meta = json.loads(str(data["meta"]))
        except ValueError:
            raise ContractViolation(f"{path}: meta is not a JSON string") from None
        recorded = checked(meta, _RECORDED, f"{path}: meta ")
        named = []
        for key in data.files:
            if key == "meta":
                continue
            name = key.replace("_", ".", 1)
            try:
                tensor = data[key]
            except ValueError:  # an object array, which loading without pickle refuses
                tensor = None
            if tensor is None or tensor.dtype.kind != "f":
                raise ContractViolation(f"{path}: tensor {name} is not an array of floats")
            named.append((name, tensor))
        actor, critic = _agent_from_tensors(path, named)
    return AgentCheckpoint(actor, critic, None, **recorded)

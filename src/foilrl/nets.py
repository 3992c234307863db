"""Dense-network machinery with hand-written reverse-mode gradients.

Everything the training loop needs and nothing more: tanh MLPs, a
diagonal-Gaussian policy head with a state-independent log-std vector,
Adam with per-layer freeze masks, and a versioned binary checkpoint
format with a JSON header and fixed little-endian float64 payload.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, ShapeError

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

_LOG_2PI = float(np.log(2.0 * np.pi))

CHECKPOINT_MAGIC = b"FOILCKP1"
CHECKPOINT_VERSION = 1

_ALIGN = 64  # bytes: one cache line, one AVX-512 load


def _aligned(a: np.ndarray) -> np.ndarray:
    """`a`, or a copy of it in the same layout, starting on a cache-line boundary.

    OpenBLAS's gemv reads a misaligned 256x256 matrix ~1.4x slower (batch-1
    inference), and its results do not depend on the address. They do depend
    on the layout, which picks the BLAS kernel, so Fortran order is kept.
    """
    if a.ctypes.data % _ALIGN == 0:
        return a
    order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
    buf = np.empty(a.nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape, order=order)
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
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases])


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
        gw = cache[k].T @ grad
        gb = grad.sum(axis=0)
        if frozen[k]:
            gw = np.zeros_like(gw)
            gb = np.zeros_like(gb)
        grads[2 * k] = gw
        grads[2 * k + 1] = gb
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
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_tensors(cls, tensors: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(t) for t in tensors], [np.zeros_like(t) for t in tensors])


def adam_step(
    tensors: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    frozen: list[bool] | None = None,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """In-place Adam with bias correction. Frozen tensors are left untouched."""
    if len(tensors) != len(grads) or len(tensors) != len(state.m):
        raise ShapeError("tensor/gradient/moment counts disagree")
    if frozen is None:
        frozen = [False] * len(tensors)
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for tensor, grad, m, v, skip in zip(tensors, grads, state.m, state.v, frozen):
        if skip:
            continue
        if tensor.shape != grad.shape:
            raise ShapeError(f"gradient shape {grad.shape} != parameter {tensor.shape}")
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad**2
        tensor -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@dataclass
class AgentCheckpoint:
    actor: Policy
    critic: Mlp
    adam: AdamState | None
    train_steps: int
    env_config_hash: str
    sigma: float
    fidelity: str
    meta: dict = field(default_factory=dict)


def _tensor_entries(names_tensors: list[tuple[str, np.ndarray]]):
    return [{"name": n, "shape": list(t.shape)} for n, t in names_tensors]


def _named_tensors(ckpt: AgentCheckpoint) -> list[tuple[str, np.ndarray]]:
    out = []
    for k, (w, b) in enumerate(zip(ckpt.actor.net.weights, ckpt.actor.net.biases)):
        out += [(f"actor.w{k}", w), (f"actor.b{k}", b)]
    out.append(("actor.log_std", ckpt.actor.log_std))
    for k, (w, b) in enumerate(zip(ckpt.critic.weights, ckpt.critic.biases)):
        out += [(f"critic.w{k}", w), (f"critic.b{k}", b)]
    if ckpt.adam is not None:
        for k, m in enumerate(ckpt.adam.m):
            out.append((f"adam.m{k}", m))
        for k, v in enumerate(ckpt.adam.v):
            out.append((f"adam.v{k}", v))
    return out


# The AgentCheckpoint fields that a checkpoint header and an exported weights file record.
RECORDED_FIELDS = ("train_steps", "env_config_hash", "sigma", "fidelity")


def _check_header(header, keys: tuple[str, ...], path) -> None:
    """A file's JSON header lacking one of `keys` is a ContractViolation naming the file."""
    for key in keys:
        if not (isinstance(header, dict) and key in header):
            raise ContractViolation(f"{path}: header has no {key}")


class _FileTensors(dict):
    """Tensors read from `path`; looking up a name the file lacks is a ContractViolation."""

    def __init__(self, path, tensors: dict[str, np.ndarray]):
        super().__init__(tensors)
        self.path = path

    def __missing__(self, name: str):
        raise ContractViolation(f"{self.path}: no tensor {name}")


def _agent_from_tensors(tensors: dict[str, np.ndarray]) -> tuple[Policy, Mlp]:
    """Actor and critic from tensors named as by `_named_tensors`."""

    def mlp(prefix: str) -> Mlp:
        n = sum(1 for name in tensors if name.startswith(f"{prefix}.w"))
        return Mlp(
            [tensors[f"{prefix}.w{k}"] for k in range(n)],
            [tensors[f"{prefix}.b{k}"] for k in range(n)],
        )

    return Policy(mlp("actor"), tensors["actor.log_std"]), mlp("critic")


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
        "adam_t": ckpt.adam.t if ckpt.adam is not None else None,
        "tensors": _tensor_entries(named),
        "meta": ckpt.meta,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, tensor in named:
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> AgentCheckpoint:
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC or len(raw) < 12:
        raise ContractViolation(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12 : 12 + hlen].decode())
    except ValueError:
        raise ContractViolation(f"{path}: checkpoint header is cut short or corrupt") from None
    _check_header(header, ("format_version", "tensors", "adam_t", *RECORDED_FIELDS), path)
    if header["format_version"] != CHECKPOINT_VERSION:
        raise ContractViolation(f"unsupported checkpoint version {header['format_version']}")
    counts = [math.prod(entry["shape"]) for entry in header["tensors"]]
    expected = 12 + hlen + 8 * sum(counts)
    if len(raw) != expected:
        raise ContractViolation(f"{path}: {len(raw)} bytes where the header implies {expected}")
    offset = 12 + hlen
    tensors = _FileTensors(path, {})
    for entry, count in zip(header["tensors"], counts):
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        tensors[entry["name"]] = arr.reshape(entry["shape"]).astype(float)
        offset += count * 8

    actor, critic = _agent_from_tensors(tensors)
    adam = None
    if header["adam_t"] is not None:
        n_tensors = len(actor.tensors()) + len(critic.tensors())
        adam = AdamState(
            m=[tensors[f"adam.m{k}"] for k in range(n_tensors)],
            v=[tensors[f"adam.v{k}"] for k in range(n_tensors)],
            t=header["adam_t"],
        )
    return AgentCheckpoint(
        actor=actor,
        critic=critic,
        adam=adam,
        **{key: header[key] for key in RECORDED_FIELDS},
        meta=header.get("meta", {}),
    )

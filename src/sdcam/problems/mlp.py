"""MLP regression with an lp sample loss and l1-regularized box-constrained
weights.

    min_v  lambda*||v||_1 + delta_C(v) + (1/m) sum_i |MLP(a_i; v) - y_i|^p / p

with C the sup-norm ball whose radius makes it contain every minimizer
(evaluate the loss at v = 0).  Composite mapping: f = 0, g = the l1 term plus
the box indicator, c_i(v) = MLP(a_i; v) - y_i (vjp by reverse accumulation),
h(u) = (1/(p*m)) * sum_i |u_i|^p with a separable scalar prox.

Randomness: Philox streams (0,) features, (1,) teacher weights, (2,) target
noise, (3,) the default initial point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from ..oracles import MapOracle, Problem, ProxOracle, SmoothOracle, Vector
from ..prox import LpProxParams, prox_l1_box, prox_lp_power
from .mnist_idx import read_idx

__all__ = [
    "MlpInstance",
    "mlp_generate",
    "mlp_problem",
    "mlp_initial_point",
    "mlp_sup_abs_fg",
]

_ACTIVATIONS = ("tanh", "sigmoid")


@dataclasses.dataclass
class MlpInstance:
    layer_dims: Tuple[int, ...]  # (n0, n1, ..., 1)
    activation: str
    features: np.ndarray  # (n_samples, n0)
    targets: np.ndarray  # (n_samples,)
    p: float
    lam: float
    C_radius: float
    seed: int

    @property
    def param_count(self) -> int:
        return _param_count(self.layer_dims)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    return 1.0 / (1.0 + np.exp(-z))


def _act_prime_from_value(a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - a * a
    return a * (1.0 - a)


def _unpack(v: Vector, dims: Tuple[int, ...]) -> List[Tuple[np.ndarray, np.ndarray]]:
    layers = []
    off = 0
    for l in range(len(dims) - 1):
        n_out, n_in = dims[l + 1], dims[l]
        W = v[off : off + n_out * n_in].reshape(n_out, n_in)
        off += n_out * n_in
        b = v[off : off + n_out]
        off += n_out
        layers.append((W, b))
    return layers


def _forward(
    v: Vector, dims: Tuple[int, ...], kind: str, X: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Batched forward pass; returns outputs (n_samples,) and the list of
    post-activation layer values (including the input) for backprop."""
    layers = _unpack(np.asarray(v, dtype=float), dims)
    Z = X
    acts = [Z]
    for W, b in layers[:-1]:
        Z = _act(Z @ W.T + b, kind)
        acts.append(Z)
    W, b = layers[-1]
    out = Z @ W.T + b  # last layer linear, one output unit
    return out[:, 0], acts


def _vjp(v: Vector, dims: Tuple[int, ...], kind: str, X: np.ndarray, w: Vector) -> Vector:
    """Gradient of sum_i w_i * MLP(a_i; v) with respect to the packed
    parameter vector, by reverse accumulation."""
    layers = _unpack(np.asarray(v, dtype=float), dims)
    _, acts = _forward(v, dims, kind, X)
    grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore
    G = np.asarray(w, dtype=float)[:, None]  # (n_samples, 1) at the output
    for l in range(len(layers) - 1, -1, -1):
        W, _ = layers[l]
        grads[l] = (G.T @ acts[l], G.sum(axis=0))
        if l > 0:
            G = (G @ W) * _act_prime_from_value(acts[l], kind)
    return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])


def mlp_generate(
    seed: int,
    layer_dims: Tuple[int, ...] = (20, 8, 4, 1),
    n_samples: int = 100,
    p: float = 0.5,
    lam: float = 0.05,
    activation: str = "tanh",
    source: str = "synthetic",
    images_path: Optional[str] = None,
    labels_path: Optional[str] = None,
) -> MlpInstance:
    """Synthetic source: features uniform on [0,1], targets in [-1,1] from a
    random teacher network plus 0.05-level noise.  IDX source: image files
    flattened and scaled by 1/255, labels mapped to [-1,1] via (x-4.5)/4.5.
    """
    layer_dims = tuple(int(d) for d in layer_dims)
    if layer_dims[-1] != 1:
        raise ValueError("layer_dims must end in 1")
    if len(layer_dims) < 2:
        raise ValueError("need at least one layer")
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be one of {_ACTIVATIONS}")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0,1)")
    if lam <= 0.0:
        raise ValueError("lam must be positive")

    if source == "synthetic":
        X = _stream(seed, 0).uniform(0.0, 1.0, (n_samples, layer_dims[0]))
        rng_t = _stream(seed, 1)
        teacher = []
        for l in range(len(layer_dims) - 1):
            n_out, n_in = layer_dims[l + 1], layer_dims[l]
            teacher.append(rng_t.standard_normal((n_out, n_in)) / math.sqrt(n_in))
            teacher.append(rng_t.standard_normal(n_out))
        v_teacher = np.concatenate([a.ravel() for a in teacher])
        raw, _ = _forward(v_teacher, layer_dims, activation, X)
        scale = max(1.0, float(np.max(np.abs(raw))))
        y = np.clip(raw / scale + 0.05 * _stream(seed, 2).standard_normal(n_samples), -1.0, 1.0)
    elif source == "idx":
        if images_path is None or labels_path is None:
            raise ValueError("idx source requires images_path and labels_path")
        images = read_idx(images_path)
        labels = read_idx(labels_path)
        X = images.data.reshape(images.dims[0], -1).astype(float) / 255.0
        y = (labels.data.astype(float) - 4.5) / 4.5
        if X.shape[0] < n_samples or y.shape[0] < n_samples:
            raise ValueError("IDX files contain fewer than n_samples records")
        X, y = X[:n_samples], y[:n_samples]
        if X.shape[1] != layer_dims[0]:
            raise ValueError(
                f"layer_dims[0]={layer_dims[0]} does not match flattened image size {X.shape[1]}"
            )
    else:
        raise ValueError(f"unknown source {source!r}")

    out0, _ = _forward(np.zeros(_param_count(layer_dims)), layer_dims, activation, X)
    C_radius = float(np.sum(np.abs(out0 - y) ** p) / p / (lam * n_samples))
    if C_radius <= 0.0:
        raise ValueError("degenerate instance: C_radius is zero (all targets fit at v=0)")
    return MlpInstance(
        layer_dims=layer_dims,
        activation=activation,
        features=X,
        targets=np.asarray(y, dtype=float),
        p=p,
        lam=lam,
        C_radius=C_radius,
        seed=seed,
    )


def _param_count(dims: Tuple[int, ...]) -> int:
    return sum(dims[l + 1] * dims[l] + dims[l + 1] for l in range(len(dims) - 1))


def mlp_problem(inst: MlpInstance) -> Problem:
    dims, kind = inst.layer_dims, inst.activation
    X, y = inst.features, inst.targets
    m = X.shape[0]
    p, lam, R = inst.p, inst.lam, inst.C_radius
    nv = inst.param_count
    h_weight = 1.0 / (p * m)

    def f_value(v: Vector) -> float:
        return 0.0

    def f_grad(v: Vector) -> Vector:
        return np.zeros(nv)

    def g_value(v: Vector) -> float:
        if np.any(np.abs(v) > R):
            return float("inf")
        return float(lam * np.sum(np.abs(v)))

    def g_prox(z: Vector, gamma: float) -> Vector:
        return prox_l1_box(z, gamma * lam, R)

    def c_value(v: Vector) -> Vector:
        out, _ = _forward(v, dims, kind, X)
        return out - y

    def c_vjp(v: Vector, w: Vector) -> Vector:
        return _vjp(v, dims, kind, X, w)

    def h_value(u: Vector) -> float:
        return float(h_weight * np.sum(np.abs(u) ** p))

    def h_prox(z: Vector, gamma: float) -> Vector:
        return prox_lp_power(z, LpProxParams(p=p, alpha=h_weight, gamma=gamma))

    # sup over C of h(c(v)): hidden activations are bounded by 1, so
    # |MLP(a; v)| <= R*(n_{L-1}+1) and |c_i| <= that plus |y_i|.
    B = R * (dims[-2] + 1) + np.abs(y)
    h_sup = float(h_weight * np.sum(B**p))

    return Problem(
        f=SmoothOracle(f_value, f_grad, lipschitz_bound=0.0),
        g=ProxOracle(g_value, g_prox),
        h=ProxOracle(h_value, h_prox),
        c=MapOracle(c_value, c_vjp),
        n=nv,
        m=m,
        inf_fg_lower_bound=0.0,
        h_sup_on_image_bound=h_sup,
    )


def mlp_sup_abs_fg(inst: MlpInstance) -> float:
    """Bound on sup |f+g| over C: f = 0 and the l1 term is at most
    lam * (parameter count) * C_radius."""
    return inst.lam * inst.param_count * inst.C_radius


def mlp_initial_point(inst: MlpInstance, seed: Optional[int] = None):
    """Xavier-uniform weights (zero biases) projected onto the box C; y0 = 0."""
    rng = _stream(inst.seed if seed is None else seed, 3)
    dims = inst.layer_dims
    parts = []
    for l in range(len(dims) - 1):
        n_out, n_in = dims[l + 1], dims[l]
        a = math.sqrt(6.0 / (n_in + n_out))
        parts.append(rng.uniform(-a, a, n_out * n_in))
        parts.append(np.zeros(n_out))
    x0 = np.clip(np.concatenate(parts), -inst.C_radius, inst.C_radius)
    return x0, np.zeros(inst.features.shape[0])

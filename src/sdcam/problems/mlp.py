"""MLP regression with an lp sample loss and l1-regularized box-constrained
weights.

    min_v  lambda*||v||_1 + delta_C(v) + (1/m) sum_i |MLP(a_i; v) - y_i|^p / p

with C the sup-norm ball whose radius makes it contain every minimizer
(evaluate the loss at v = 0).  Composite mapping: f = 0, g = the l1 term plus
the box indicator, c_i(v) = MLP(a_i; v) - y_i (vjp by reverse accumulation),
h(u) = (1/(p*m)) * sum_i |u_i|^p with a separable scalar prox.

The data are synthetic, from a random teacher network: the family stands for
the paper's case of an h finite everywhere but not Lipschitz.

Randomness: Philox streams (0,) features, (1,) teacher weights, (2,) target
noise, (3,) the default initial point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Tuple

import numpy as np

from ..oracles import MapOracle, Problem, ProxOracle, Pullback, SmoothOracle, Vector
from ..prox import LpProxParams, prox_l1_box, prox_lp_power

__all__ = [
    "MlpInstance",
    "mlp_generate",
    "mlp_problem",
    "mlp_initial_point",
    "mlp_sup_abs_fg",
]

_ACTIVATIONS = ("tanh", "sigmoid")


def _check_params(layer_dims: Tuple[int, ...], activation: str, p: float, lam: float) -> None:
    """The parameter checks of ``mlp_generate``, which every instance passes."""
    if any(isinstance(d, bool) or not isinstance(d, int) for d in layer_dims):
        raise ValueError(f"layer_dims entries must be integers, got {list(layer_dims)}")
    if len(layer_dims) < 2:
        raise ValueError("need at least one layer")
    if layer_dims[-1] != 1:
        raise ValueError("layer_dims must end in 1")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be one of {_ACTIVATIONS}")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0,1)")
    if lam <= 0.0:
        raise ValueError("lam must be positive")


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

    def __post_init__(self) -> None:
        _check_params(self.layer_dims, self.activation, self.p, self.lam)
        for name in ("features", "targets"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        # the radius of g's box, checked once here rather than mid-run by g.prox
        if not 0.0 < self.C_radius < math.inf:
            raise ValueError(f"C_radius must be positive and finite, got {self.C_radius}")

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
) -> Tuple[np.ndarray, List[np.ndarray], List[Tuple[np.ndarray, np.ndarray]]]:
    """Batched forward pass; returns outputs (n_samples,), the list of
    post-activation layer values (including the input) and the unpacked
    layers of v, both for backprop."""
    layers = _unpack(np.asarray(v, dtype=float), dims)
    Z = X
    acts = [Z]
    for W, b in layers[:-1]:
        Z = _act(Z @ W.T + b, kind)
        acts.append(Z)
    W, b = layers[-1]
    out = Z @ W.T + b  # last layer linear, one output unit
    return out[:, 0], acts, layers


def _backward(
    layers: List[Tuple[np.ndarray, np.ndarray]], acts: List[np.ndarray], kind: str, w: Vector
) -> Vector:
    """Gradient of sum_i w_i * MLP(a_i; v) with respect to the packed
    parameter vector, by reverse accumulation over the layers of v and the
    activations ``_forward`` returned for them."""
    grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore
    G = np.asarray(w, dtype=float)[:, None]  # (n_samples, 1) at the output
    for l in range(len(layers) - 1, -1, -1):
        W, _ = layers[l]
        grads[l] = (G.T @ acts[l], G.sum(axis=0))
        if l > 0:
            G = (G @ W) * _act_prime_from_value(acts[l], kind)
    return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])


def _linearize(
    v: Vector, dims: Tuple[int, ...], kind: str, X: np.ndarray
) -> Tuple[np.ndarray, Pullback]:
    """The network outputs at v and the pullback w -> sum_i w_i grad MLP(a_i; v),
    which reuses this forward pass.  The pullback holds its own copy of v."""
    v = np.array(v, dtype=float)
    out, acts, layers = _forward(v, dims, kind, X)
    return out, lambda w: _backward(layers, acts, kind, w)


def mlp_generate(
    seed: int,
    layer_dims: Tuple[int, ...] = (20, 8, 4, 1),
    n_samples: int = 100,
    p: float = 0.5,
    lam: float = 0.05,
    activation: str = "tanh",
) -> MlpInstance:
    """Features uniform on [0,1]; targets from a random teacher network scaled
    into [-1,1], plus 0.05-level noise, clipped to [-1,1]."""
    layer_dims = tuple(layer_dims)
    _check_params(layer_dims, activation, p, lam)
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    X = _stream(seed, 0).uniform(0.0, 1.0, (n_samples, layer_dims[0]))
    rng_t = _stream(seed, 1)
    teacher = []
    for l in range(len(layer_dims) - 1):
        n_out, n_in = layer_dims[l + 1], layer_dims[l]
        teacher.append(rng_t.standard_normal((n_out, n_in)) / math.sqrt(n_in))
        teacher.append(rng_t.standard_normal(n_out))
    v_teacher = np.concatenate([a.ravel() for a in teacher])
    raw = _forward(v_teacher, layer_dims, activation, X)[0]
    scale = max(1.0, float(np.max(np.abs(raw))))
    y = np.clip(raw / scale + 0.05 * _stream(seed, 2).standard_normal(n_samples), -1.0, 1.0)

    out0 = _forward(np.zeros(_param_count(layer_dims)), layer_dims, activation, X)[0]
    C_radius = float(np.sum(np.abs(out0 - y) ** p) / p / (lam * n_samples))
    return MlpInstance(
        layer_dims=layer_dims,
        activation=activation,
        features=X,
        targets=y,
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
        a = np.abs(v)
        return float("inf") if (a > R).any() else float(lam * a.sum())

    def g_prox(z: Vector, gamma: float) -> Vector:
        return prox_l1_box(z, gamma * lam, R)

    def c_linearize(v: Vector) -> Tuple[Vector, Pullback]:
        out, pullback = _linearize(v, dims, kind, X)
        return out - y, pullback

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
        c=MapOracle(linearize=c_linearize),
        n=nv,
        m=m,
        inf_fg_lower_bound=0.0,
        h_sup_on_image_bound=h_sup,
    )


def mlp_sup_abs_fg(inst: MlpInstance) -> float:
    """Bound on sup |f+g| over C: f = 0 and the l1 term is at most
    lam * (parameter count) * C_radius."""
    return inst.lam * inst.param_count * inst.C_radius


def mlp_initial_point(inst: MlpInstance):
    """Xavier-uniform weights (zero biases) projected onto the box C; y0 = 0."""
    rng = _stream(inst.seed, 3)
    dims = inst.layer_dims
    parts = []
    for l in range(len(dims) - 1):
        n_out, n_in = dims[l + 1], dims[l]
        a = math.sqrt(6.0 / (n_in + n_out))
        parts.append(rng.uniform(-a, a, n_out * n_in))
        parts.append(np.zeros(n_out))
    x0 = np.clip(np.concatenate(parts), -inst.C_radius, inst.C_radius)
    return x0, np.zeros(inst.features.shape[0])

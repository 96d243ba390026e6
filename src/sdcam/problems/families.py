"""The table of built-in problem families.

Each entry records everything the CLI and the instance files need to know
about a family: its instance class, generator and problem set-up, the solver
defaults, the ``rate_bound_check`` regime the family falls under (the paper's
three cases: Lipschitz ``h``, finite-everywhere ``h``, ``h`` without full
domain on bounded domains), the instance size that ``sdcam check`` uses, and
an optional structure check.  Adding a family means adding one entry: the
generator's annotated parameters give the config keys and ``sdcam gen`` flags.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..oracles import Problem
from .mimo import MimoInstance, mimo_generate, mimo_initial_point, mimo_problem, mimo_sup_abs_fg
from .mlp import MlpInstance, mlp_generate, mlp_initial_point, mlp_problem, mlp_sup_abs_fg
from .qcqp import (
    QcqpInstance,
    qcqp_generate,
    qcqp_initial_point,
    qcqp_problem,
    relative_feasibility,
)

__all__ = ["Family", "FAMILIES", "family_of"]

# (problem, x0, y0, rel_feas or None, sup |f+g| bound or None)
Setup = Tuple[Problem, np.ndarray, np.ndarray, Optional[Callable[[np.ndarray], float]],
              Optional[float]]


@dataclasses.dataclass(frozen=True)
class Family:
    name: str
    instance_type: type
    generate: Callable[..., Any]  # generate(seed, **problem_keys) -> instance
    setup: Callable[[Any], Setup]
    solver_defaults: Mapping[str, float]  # mu_max, mu_init, rho, eta
    regime: str  # rate_bound_check regime
    check_kwargs: Mapping[str, Any]  # generator kwargs of the `sdcam check` instance
    # Returns (what is checked, passed); None when the family has nothing to check.
    structure_check: Optional[Callable[[Any], Tuple[str, bool]]] = None

    def problem_keys(self) -> Dict[str, bool]:
        """The family's ``problem`` config keys, each mapped to whether it is
        required: the generator's parameters after ``seed``, required when
        they have no default."""
        params = list(inspect.signature(self.generate).parameters.values())[1:]
        return {p.name: p.default is inspect.Parameter.empty for p in params}


def _qcqp_setup(inst: QcqpInstance) -> Setup:
    x0, y0 = qcqp_initial_point(inst)
    return qcqp_problem(inst), x0, y0, functools.partial(relative_feasibility, inst), None


def _qcqp_structure(inst: QcqpInstance) -> Tuple[str, bool]:
    eigs = np.linalg.eigvalsh(inst.Q).min(axis=1)
    return "PSD blocks", bool(np.all(eigs >= -1e-10))


def _mimo_setup(inst: MimoInstance) -> Setup:
    x0, y0 = mimo_initial_point(inst)
    return mimo_problem(inst), x0, y0, None, mimo_sup_abs_fg(inst)


def _mlp_setup(inst: MlpInstance) -> Setup:
    x0, y0 = mlp_initial_point(inst)
    return mlp_problem(inst), x0, y0, None, mlp_sup_abs_fg(inst)


FAMILIES: Dict[str, Family] = {
    fam.name: fam
    for fam in (
        Family(
            name="qcqp",
            instance_type=QcqpInstance,
            generate=qcqp_generate,
            setup=_qcqp_setup,
            solver_defaults={"mu_max": 1e7, "mu_init": 1.0, "rho": 0.8, "eta": 1.2},
            regime="bounded_domains",  # h is the indicator of the nonpositive orthant
            check_kwargs={"n": 10, "m": 3},
            structure_check=_qcqp_structure,
        ),
        Family(
            name="mimo",
            instance_type=MimoInstance,
            generate=mimo_generate,
            setup=_mimo_setup,
            solver_defaults={"mu_max": 1e7, "mu_init": 1.0, "rho": 0.5, "eta": 2.0},
            regime="lipschitz_h",  # h = lambda2 * l1 norm
            check_kwargs={"n": 6, "m": 12},
        ),
        Family(
            name="mlp",
            instance_type=MlpInstance,
            generate=mlp_generate,
            setup=_mlp_setup,
            solver_defaults={"mu_max": 1e7, "mu_init": 0.01, "rho": 0.5, "eta": 2.0},
            regime="full_domain_h",  # h = lp sample loss, finite everywhere
            check_kwargs={"layer_dims": (8, 5, 3, 1), "n_samples": 20},
        ),
    )
}


def family_of(inst: Any) -> Family:
    """The table entry whose instance class ``inst`` belongs to."""
    for fam in FAMILIES.values():
        if isinstance(inst, fam.instance_type):
            return fam
    raise TypeError(f"unsupported instance type {type(inst).__name__}")

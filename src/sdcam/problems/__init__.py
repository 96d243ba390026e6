"""Built-in problem families: box-constrained QCQP with an lp penalty, MIMO
signal detection, and an MLP fitting problem with an lp sample loss.
``FAMILIES`` is the table that the CLI and the instance files look each
family up in."""

from .qcqp import (
    QcqpInstance,
    qcqp_generate,
    qcqp_problem,
    qcqp_initial_point,
    relative_feasibility,
)
from .mimo import MimoInstance, mimo_generate, mimo_problem, mimo_initial_point, mimo_sup_abs_fg
from .mlp import MlpInstance, mlp_generate, mlp_problem, mlp_initial_point, mlp_sup_abs_fg
from .families import Family, FAMILIES, family_of
from .io import save_instance, load_instance

__all__ = [
    "QcqpInstance",
    "qcqp_generate",
    "qcqp_problem",
    "qcqp_initial_point",
    "relative_feasibility",
    "MimoInstance",
    "mimo_generate",
    "mimo_problem",
    "mimo_initial_point",
    "mimo_sup_abs_fg",
    "MlpInstance",
    "mlp_generate",
    "mlp_problem",
    "mlp_initial_point",
    "mlp_sup_abs_fg",
    "Family",
    "FAMILIES",
    "family_of",
    "save_instance",
    "load_instance",
]

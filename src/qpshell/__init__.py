"""Exact s-wave scattering and bound states of four relativistic
quasipotential equations with superpositions of delta shells, all solved
through one real K-matrix shell system for any number of shells."""

from .errors import (
    AccuracyError,
    DomainError,
    EvaluationError,
    PoleError,
    QpshellError,
    SingularPointError,
    ThresholdError,
    UnsupportedBranchError,
    UnsupportedFormError,
)
from .kinematics import (
    ALL_VARIANTS,
    BoundEnergy,
    EquationVariant,
    Kinematics,
    k_factor,
    k_factor_bound,
    momentum_from_rapidity,
    rapidity_from_momentum,
)

__all__ = [
    "ALL_VARIANTS",
    "AccuracyError",
    "BoundEnergy",
    "DomainError",
    "EquationVariant",
    "EvaluationError",
    "Kinematics",
    "PoleError",
    "QpshellError",
    "SingularPointError",
    "ThresholdError",
    "UnsupportedBranchError",
    "UnsupportedFormError",
    "k_factor",
    "k_factor_bound",
    "momentum_from_rapidity",
    "rapidity_from_momentum",
]

__version__ = "0.1.0"

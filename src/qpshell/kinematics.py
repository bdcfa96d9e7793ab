"""Kinematic maps between rapidity, momentum and two-particle energy.

Natural units (hbar = c = 1).  On the scattering branch the rapidity chi is
real and non-negative, q = m sinh(chi), E = m cosh(chi), so E^2 - q^2 = m^2
holds identically.  Bound states live on the imaginary-rapidity branch
chi = i w with 0 < w < pi/2, where the single-particle energy is m cos(w)
and the two-particle energy 2m cos(w) stays below threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import DomainError, ThresholdError

# Open solver window for the bound-branch parameter w.  Endpoints are
# excluded because every quantization function degenerates there.
BOUND_W_LO = 1e-9
BOUND_W_HI = math.pi / 2 - 1e-9


class EquationVariant(IntEnum):
    """The four s-wave quasipotential equation variants."""

    LT = 1   # Logunov-Tavkhelidze
    K = 2    # Kadyshevsky
    MLT = 3  # modified Logunov-Tavkhelidze
    MK = 4   # modified Kadyshevsky


ALL_VARIANTS = tuple(EquationVariant)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Kinematics:
    """Scattering-branch state: mass m > 0 and real rapidity chi >= 0."""

    m: float
    chi: float

    def __post_init__(self):
        m = _check_finite("m", self.m)
        chi = _check_finite("chi", self.chi)
        if m <= 0:
            raise DomainError(f"mass must be positive, got {m}")
        if chi < 0:
            raise DomainError(f"rapidity must be non-negative, got {chi}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "chi", chi)

    @property
    def q(self) -> float:
        """Center-of-mass momentum m sinh(chi)."""
        return self.m * math.sinh(self.chi)

    @property
    def energy(self) -> float:
        """Single-particle energy m cosh(chi)."""
        return self.m * math.cosh(self.chi)


@dataclass(frozen=True)
class BoundEnergy:
    """Bound-branch state chi = i w with 0 < w < pi/2."""

    m: float
    w: float

    def __post_init__(self):
        m = _check_finite("m", self.m)
        w = _check_finite("w", self.w)
        if m <= 0:
            raise DomainError(f"mass must be positive, got {m}")
        if not 0.0 < w < math.pi / 2:
            raise DomainError(f"w must lie in the open interval (0, pi/2), got {w}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "w", w)

    @property
    def energy(self) -> float:
        """Single-particle energy m cos(w)."""
        return self.m * math.cos(self.w)

    @property
    def two_body_energy(self) -> float:
        """Total two-particle energy 2m cos(w)."""
        return 2.0 * self.m * math.cos(self.w)


def rapidity_from_momentum(q: float, m: float) -> float:
    """Inverse of q = m sinh(chi) for q >= 0."""
    q = _check_finite("q", q)
    m = _check_finite("m", m)
    if m <= 0:
        raise DomainError(f"mass must be positive, got {m}")
    if q < 0:
        raise DomainError(f"momentum must be non-negative, got {q}")
    return math.asinh(q / m)


def momentum_from_rapidity(chi: float, m: float) -> float:
    """q = m sinh(chi); accepts any real rapidity."""
    chi = _check_finite("chi", chi)
    m = _check_finite("m", m)
    if m <= 0:
        raise DomainError(f"mass must be positive, got {m}")
    return m * math.sinh(chi)


def k_factor(j: int, kin: Kinematics) -> float:
    """Variant-dependent flux factor multiplying the free Green function.

    m sinh(2 chi) for variants 1 and 2, 2m sinh(chi) for variants 3 and 4.
    Degenerates to zero at threshold, which is rejected; a rapidity so large
    that the factor overflows raises DomainError.
    """
    j = EquationVariant(j)
    if kin.chi == 0.0:
        raise ThresholdError("k_factor vanishes at chi = 0 (elastic threshold)")
    try:
        kj = (kin.m * math.sinh(2.0 * kin.chi) if j in (EquationVariant.LT, EquationVariant.K)
              else 2.0 * kin.m * math.sinh(kin.chi))
    except OverflowError:
        kj = math.inf
    if kj == math.inf:
        raise DomainError(
            f"rapidity too large: K_{int(j)} overflows at chi = {kin.chi!r}, m = {kin.m!r}"
        )
    return kj


def k_factor_bound(j: int, be: BoundEnergy) -> float:
    """Bound-branch continuation K(i w) / i, real and positive on (0, pi/2).

    m sin(2 w) for variants 1 and 2, 2m sin(w) for variants 3 and 4.
    """
    j = EquationVariant(j)
    if j in (EquationVariant.LT, EquationVariant.K):
        return be.m * math.sin(2.0 * be.w)
    return 2.0 * be.m * math.sin(be.w)

"""Kinematic maps between rapidity, momentum and two-particle energy.

Natural units (hbar = c = 1).  On the scattering branch the rapidity chi is
real and non-negative, q = m sinh(chi), E = m cosh(chi), so E^2 - q^2 = m^2
holds identically.  Bound states live on the imaginary-rapidity branch
chi = i w with 0 < w < pi/2, where the single-particle energy is m cos(w)
and the two-particle energy 2m cos(w) stays below threshold.

The mass is the only scale.  The kernels depend on r only through x = m r,
and K_j is m times a reduced factor of chi (or w) alone, so m G depends only
on (chi, m r, m r'), and the shell system only on chi (or w), x_k = m a_k
and g_k = V_k / m.  `_dimensionless` is where a mass enters that core.
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


@dataclass(frozen=True, slots=True)
class _Variant:
    """One row of the variant table: all that sets variant j's kernels and
    K_j apart.  The independent oracles keep their own formulas."""

    j: int
    rate: float      # hyperbolic rate: pi/2 (j = 1, 3) or pi (j = 2, 4)
    tanh: bool       # tanh/cosh-ratio form (j = 3); coth/sinh-ratio otherwise
    k_scale: float   # K_j = k_scale m sinh(k_rate chi), and on the bound
    k_rate: float    # branch K_j(i w) / i = k_scale m sin(k_rate w)
    sech: bool       # the extra sech term of j = 2


_VARIANTS = {
    1: _Variant(1, math.pi / 2, False, 1.0, 2.0, False),
    2: _Variant(2, math.pi, False, 1.0, 2.0, True),
    3: _Variant(3, math.pi / 2, True, 2.0, 1.0, False),
    4: _Variant(4, math.pi, False, 2.0, 1.0, False),
}


def _variant(j) -> _Variant:
    """The table row of variant j; DomainError for anything but 1..4."""
    try:
        return _VARIANTS[j]
    except (KeyError, TypeError):
        raise DomainError(f"equation variant must be 1, 2, 3 or 4, got {j!r}") from None


def _dimensionless(m, shells=()) -> tuple[float, tuple[tuple[float, float], ...]]:
    """The boundary of the dimensionless core: the mass as a float, and each
    shell (V_k, a_k) as (g_k, x_k) = (V_k / m, m a_k), in the given order.

    m must be finite and positive (DomainError).  The shells are never
    merged, since m a_k can round to one value for distinct a_k.  A V_k / m
    or an m a_k beyond the float range is a DomainError.
    """
    m = float(m)
    if not (math.isfinite(m) and m > 0):
        raise DomainError(f"mass must be finite and positive, got {m!r}")
    scaled = tuple((v / m, m * a) for v, a in shells)
    for (v, a), (g, x) in zip(shells, scaled):
        if not math.isfinite(x):
            # then chi m r overflows too, on either branch (|chi| = w there)
            raise DomainError(f"chi m r is not finite: m r = {m!r} * {a!r} overflows")
        if not math.isfinite(g):
            raise DomainError(f"strength over mass V / m = {v!r} / {m!r} is not finite")
    return m, scaled


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
    v = _variant(j)
    if kin.chi == 0.0:
        raise ThresholdError("k_factor vanishes at chi = 0 (elastic threshold)")
    try:
        kj = v.k_scale * kin.m * math.sinh(v.k_rate * kin.chi)
    except OverflowError:
        kj = math.inf
    if kj == math.inf:
        raise DomainError(
            f"rapidity too large: K_{v.j} overflows at chi = {kin.chi!r}, m = {kin.m!r}"
        )
    return kj


def k_factor_bound(j: int, be: BoundEnergy) -> float:
    """Bound-branch continuation K(i w) / i, real and positive on (0, pi/2).

    m sin(2 w) for variants 1 and 2, 2m sin(w) for variants 3 and 4.
    """
    v = _variant(j)
    return v.k_scale * be.m * math.sin(v.k_rate * be.w)

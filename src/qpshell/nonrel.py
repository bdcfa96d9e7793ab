"""Schroedinger (non-relativistic) reference solutions and limit checks.

The same delta-shell problems solved in closed form for the ordinary radial
Schroedinger equation: half-line kernel, scattering amplitude, single-shell
inverse strength and quantization determinant.  The shell system is the
real K-matrix one of `scattering`, with the kernel -sin(q r<) exp(i q r>) / q:
its imaginary part is -s s^T / q with s_k = sin(q a_k), so kappa = 1 / q and
again f = -c / (q D).  Every relativistic
variant must collapse onto these as the mass grows at fixed momentum q (or
fixed binding momentum kappa), which `limit_convergence` quantifies; the
deviations it reports are the package's cross-check that the relativistic
kernels carry the correct non-relativistic limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

from .errors import DomainError, ThresholdError, UnsupportedFormError
from .greens import green_partial, green_partial_bound
from .kinematics import BoundEnergy, Kinematics, _variant
from .scattering import (DeltaSystem, ShellPotential, _check_pole, _det, _k_parts,
                         _shell_matrix, amplitude)
from .boundstates import v0_of_w


def _check_q(q: float, r: float = 0.0) -> None:
    """Refuse q < 0, q = 0 and, at the largest radius r in play, a q r
    beyond the float range, where sin has no value."""
    if q < 0:
        raise DomainError(f"q must be non-negative, got {q}")
    if q == 0:
        raise ThresholdError("q = 0 is the elastic threshold")
    if not math.isfinite(q * r):
        raise DomainError(f"q r is not finite at q = {q!r}, r = {r!r}")


def nr_green(q: float, r: float, rp: float) -> complex:
    """Half-line Schroedinger kernel -sin(q r_<) exp(i q r_>) / q."""
    if r < 0 or rp < 0:
        raise DomainError(f"radial coordinates must be non-negative, got {r}, {rp}")
    r_lo, r_hi = (r, rp) if r <= rp else (rp, r)
    _check_q(q, r_hi)
    return -math.sin(q * r_lo) * cmath.exp(1j * q * r_hi) / q


def nr_green_bound(kappa: float, r: float, rp: float) -> float:
    """Bound-branch kernel -sinh(kappa r_<) exp(-kappa r_>) / kappa."""
    if kappa <= 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if r < 0 or rp < 0:
        raise DomainError(f"radial coordinates must be non-negative, got {r}, {rp}")
    r_lo, r_hi = (r, rp) if r <= rp else (rp, r)
    # expm1 keeps precision when kappa r_< is small.
    return 0.5 * math.expm1(-2.0 * kappa * r_lo) * math.exp(-kappa * (r_hi - r_lo)) / kappa


def _nr_system(q: float, pot: ShellPotential) -> DeltaSystem:
    """The Schroedinger shell system D = det A + i c, adj(A) s at momentum q."""
    a = _shell_matrix(pot.shells, lambda r, rp: nr_green(q, r, rp).real)
    det, c, nums, scale = _k_parts(a, [math.sin(q * r) for r in pot.radii], 1.0 / q,
                                   pot.shells)
    sys = DeltaSystem(complex(det, c), tuple(nums), scale)
    _check_pole(sys, "q", q)
    return sys


def nr_amplitude(q: float, pot: ShellPotential) -> complex:
    """Schroedinger s-wave amplitude f = -c / (q D) of the delta shells."""
    _check_q(q, max(pot.radii))
    sys = _nr_system(q, pot)
    return -sys.delta.imag / (q * sys.delta)


def nr_wavefunction(q: float, pot: ShellPotential, r: float) -> complex:
    """Schroedinger wave psi(r) = sin(q r) + sum_k V_k G0(r, a_k) psi(a_k);
    normalized so psi -> sin(q r) + q f exp(i q r) far outside the shells.
    No caller in the package: it stays as the Schroedinger reference for
    the relativistic wave functions."""
    if not 0 <= r < math.inf:
        raise DomainError(f"r must be {'non-negative' if r < 0 else 'finite'}, got {r}")
    _check_q(q, max(r, *pot.radii))
    sys = _nr_system(q, pot)
    psi = complex(math.sin(q * r))
    for (v, a), dk in zip(pot.shells, sys.numerators):
        psi += v * nr_green(q, r, a) * dk / sys.delta
    return psi


def nr_amplitude_explicit(q: float, pot: ShellPotential) -> complex:
    """Expanded closed forms of nr_amplitude (independent route).

    Single shell:
        f = -V0 sin^2(q a) / ( q [ q + V0 sin(q a) exp(i q a) ] ).
    Two shells, with sk = sin(q a_k) and d = sin(q (a2 - a1)):
        D = 1 + (V1/q) s1 exp(i q a1) + (V2/q) s2 exp(i q a2)
              + (V1 V2 / q^2) s1 exp(i q a2) d
        f = -[ V1 s1^2 + V2 s2^2 + (V1 V2 / q) s1 s2 d ] / (q^2 D).

    The V1 numerator term carries sin^2(q a1): anything else breaks the
    V2 = 0 reduction to the single-shell form.  Three or more shells raise
    UnsupportedFormError.  No caller in the package: it stays as the
    independent route the tests check nr_amplitude against.
    """
    _check_q(q, max(pot.radii))
    shells = pot.shells
    if len(shells) > 2:
        raise UnsupportedFormError(
            f"no expanded form for {len(shells)} shells; use nr_amplitude()"
        )
    if len(shells) == 1:
        v0, a = shells[0]
        s_a = math.sin(q * a)
        den = q + v0 * s_a * cmath.exp(1j * q * a)
        return -v0 * s_a * s_a / (q * den)
    (v1, a1), (v2, a2) = shells
    s1 = math.sin(q * a1)
    s2 = math.sin(q * a2)
    d21 = math.sin(q * (a2 - a1))
    delta = (
        1.0
        + v1 * s1 * cmath.exp(1j * q * a1) / q
        + v2 * s2 * cmath.exp(1j * q * a2) / q
        + v1 * v2 * s1 * cmath.exp(1j * q * a2) * d21 / (q * q)
    )
    num = v1 * s1 * s1 + v2 * s2 * s2 + v1 * v2 * s1 * s2 * d21 / q
    return -num / (q * q * delta)


def nr_v0_of_kappa(kappa: float, a: float) -> float:
    """Single-shell strength binding at kappa: V0 = -2k / (1 - exp(-2 k a))."""
    if kappa <= 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if a <= 0:
        raise DomainError(f"shell radius must be positive, got {a}")
    return 2.0 * kappa / math.expm1(-2.0 * kappa * a)


def nr_det_bound(kappa: float, pot: ShellPotential) -> float:
    """Schroedinger quantization determinant det[1 - G V] at kappa.

    No caller in the package: it stays as the Schroedinger reference for the
    relativistic quantization determinant."""
    if kappa <= 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    return _det(_shell_matrix(pot.shells, partial(nr_green_bound, kappa)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Deviation of a relativistic observable from its Schroedinger limit."""

    observable: str
    j: int
    masses: tuple[float, ...]
    deviations: tuple[float, ...]

    @property
    def monotone(self) -> bool:
        """True when the deviation strictly decreases along the mass ladder."""
        return all(b < a for a, b in zip(self.deviations, self.deviations[1:]))

    @property
    def final_deviation(self) -> float:
        return self.deviations[-1]


def limit_convergence(observable: str, j: int, masses, **params) -> ConvergenceReport:
    """Deviation |relativistic - Schroedinger| / (|Schroedinger| + tiny)
    along an increasing ladder of masses, at fixed physical parameters.

    observable:
      "amplitude"     params: q, pot          (fixed momentum, fixed shells)
      "gf"            params: q, r, rp        (half-line kernel)
      "quantization"  params: kappa, a        (single-shell inverse strength)
    """
    j = _variant(j).j
    masses = tuple(float(m) for m in masses)
    if len(masses) < 3:
        raise DomainError("need at least three masses to judge convergence")
    if any(m <= 0 for m in masses):
        raise DomainError(f"masses must be positive, got {masses}")
    if any(b <= a for a, b in zip(masses, masses[1:])):
        raise DomainError(f"masses must be strictly increasing, got {masses}")
    tiny = 1e-300

    if observable == "amplitude":
        q = float(params["q"])
        pot = params["pot"]
        ref = nr_amplitude(q, pot)
        devs = []
        for m in masses:
            kin = Kinematics(m, math.asinh(q / m))
            devs.append(abs(amplitude(j, kin, pot) - ref) / (abs(ref) + tiny))
    elif observable == "gf":
        q = float(params["q"])
        r = float(params["r"])
        rp = float(params["rp"])
        ref = nr_green(q, r, rp)
        devs = []
        for m in masses:
            kin = Kinematics(m, math.asinh(q / m))
            devs.append(abs(green_partial(j, kin, r, rp) - ref) / (abs(ref) + tiny))
    elif observable == "quantization":
        kappa = float(params["kappa"])
        a = float(params["a"])
        ref = nr_v0_of_kappa(kappa, a)
        devs = []
        for m in masses:
            if m <= kappa:
                raise DomainError(
                    f"mass {m} must exceed kappa = {kappa} on the bound branch"
                )
            be = BoundEnergy(m, math.asin(kappa / m))
            devs.append(abs(v0_of_w(j, be, a) - ref) / (abs(ref) + tiny))
    else:
        raise DomainError(
            f"unknown observable {observable!r}; "
            "expected amplitude, gf or quantization"
        )
    return ConvergenceReport(observable, j, masses, tuple(devs))

"""The scaling law of the natural units, as a property of the solvers.

m is the only scale: m -> lam m, r -> r / lam, V -> lam V maps every
reduced input (m a_k, V_k / m) onto itself.  At lam = 2^k each of those
products and quotients is exact, so the solvers must return bit-identical
reduced columns: f / lam, the level positions, the curve strengths times
lam, the determinant.  The draws keep lam m, a / lam and lam V in the
normal float range.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qpshell.boundstates import (level_roots, sample_det_curve, sample_v0_curve,
                                 sample_v1pm_curve, sample_v2_curve)
from qpshell.errors import QpshellError
from qpshell.scattering import ShellPotential, scan_zero_locus, sweep

_CHI = np.linspace(0.05, 4.0, 16)


def _scaled(pot: ShellPotential, lam: float) -> ShellPotential:
    return ShellPotential(tuple((lam * v, a / lam) for v, a in pot.shells))


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(call):
    """call()'s value, or the type of the QpshellError it raised."""
    try:
        return call()
    except QpshellError as exc:
        return type(exc)


# strengths 0 or of normal size, so lam V stays exact
_strength = st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))
_shells = st.lists(st.tuples(_strength, st.floats(0.1, 6.0)),
                   min_size=1, max_size=2, unique_by=lambda s: s[1])


@settings(deadline=None, max_examples=60)
@given(j=st.integers(1, 4), m=st.floats(0.2, 3.0), k=st.integers(-8, 8), shells=_shells,
       alpha=st.sampled_from((-1.0, 0.5, 2.0)))
def test_solvers_are_bit_identical_under_power_of_two_scaling(j, m, k, shells, alpha):
    lam = 2.0 ** k
    pot = ShellPotential(tuple(shells))
    big = _scaled(pot, lam)
    (v1, a1), *rest = pot.shells
    a2 = rest[0][1] if rest else a1 + 1.0

    one, other = _outcome(lambda: sweep(j, m, pot, _CHI)), \
        _outcome(lambda: sweep(j, lam * m, big, _CHI))
    if isinstance(one, type):
        assert other is one
    else:
        assert _same(other.q, lam * one.q) and _same(lam * other.f, one.f)
        assert _same(other.s_matrix, one.s_matrix) and _same(other.phase, one.phase)
        assert _same(lam * lam * other.sigma0, one.sigma0)

    assert _same(level_roots(j, lam * m, big), level_roots(j, m, pot))

    curves = (
        (lambda m_, a_: [sample_v0_curve(j, m_, a_, n=64)], lam),
        (lambda m_, a_: [sample_v2_curve(j, m_, a_, a2 / a1 * a_, v1 * m_ / m, n=64)], lam),
        (lambda m_, a_: list(sample_v1pm_curve(j, m_, a_, a2 / a1 * a_, alpha, n=64)), lam),
    )
    for sample, factor in curves:
        for c_one, c_big in zip(sample(m, a1), sample(lam * m, a1 / lam)):
            assert _same(c_big.w, c_one.w) and _same(c_big.finite, c_one.finite)
            assert _same(c_big.value, factor * c_one.value)
    det_one, det_big = sample_det_curve(j, m, pot, n=64), sample_det_curve(j, lam * m, big, n=64)
    assert _same(det_big.value, det_one.value) and _same(det_big.finite, det_one.finite)


@settings(deadline=None, max_examples=30)
@given(j=st.integers(1, 4), m=st.floats(0.2, 3.0), k=st.integers(-8, 8),
       a1=st.floats(0.5, 3.0), v1=st.floats(0.2, 4.0), v2=st.floats(-4.0, -0.2))
def test_zero_locus_scales_with_its_field(j, m, k, a1, v1, v2):
    # the field is zero_condition, m times a reduced condition, so at
    # lam = 2^k it scales by exactly lam: the crossing edges, segments and
    # curve lengths are bit-identical.  The vertices stop at a residual
    # below 1e-10 of the field itself, which is not scale-free, so they
    # need only stay on their edge: within a grid pitch of each other
    lam = 2.0 ** k
    window = ((a1, a1 + 5.0), (0.1, 3.0))
    one = scan_zero_locus(j, m, a1, v1, v2, *window, grid=(16, 16))
    big = scan_zero_locus(j, lam * m, a1 / lam, lam * v1, lam * v2,
                          (a1 / lam, (a1 + 5.0) / lam), (0.1, 3.0), grid=(16, 16))
    assert [len(c) for c in big.curves] == [len(c) for c in one.curves]
    pitch = np.array([5.0, 2.9]) / 15
    for c_one, c_big in zip(one.curves, big.curves):
        for (x, y, r), (xb, yb, rb) in zip(c_one, c_big):
            assert abs(lam * xb - x) <= pitch[0] and abs(yb - y) <= pitch[1]
            assert r < 1e-10 and rb < 1e-10

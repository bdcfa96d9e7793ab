"""The cross-check suite must pass clean and notice an injected fault."""

import pytest

from qpshell import verification
from qpshell.errors import DomainError
from qpshell.verification import GROUP_NAMES, run_verification


def test_all_groups_pass():
    results = run_verification()
    assert tuple(r.name for r in results) == GROUP_NAMES
    for r in results:
        assert r.passed, f"{r.name}: worst {r.worst:.3e} vs {r.tolerance:.1e}"
        assert r.worst < r.tolerance
        assert r.violations == 0
        assert r.n_checks > 0


def test_fault_injection_is_caught(monkeypatch):
    # a 1e-6 relative error in the expanded closed forms must fail two_path
    explicit = verification.amplitude_explicit
    monkeypatch.setattr(verification, "amplitude_explicit",
                        lambda j, kin, pot: explicit(j, kin, pot) * (1.0 + 1e-6))
    results = run_verification(groups=("two_path",))
    assert len(results) == 1
    assert not results[0].passed


def test_group_selection():
    results = run_verification(groups=("unitarity", "rt_zeros"))
    assert [r.name for r in results] == ["unitarity", "rt_zeros"]
    with pytest.raises(DomainError):
        run_verification(groups=("no_such_suite",))

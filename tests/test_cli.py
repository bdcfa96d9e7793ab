"""Command-line surface: exit codes, CSV shape, value formatting, determinism."""

import math
import re

import numpy as np
import pytest

from qpshell import boundstates, scattering, verification
from qpshell.cli import _parse_range, build_parser, main
from qpshell.kinematics import Kinematics
from qpshell.scattering import ShellPotential, amplitude_explicit, sweep
from qpshell.tables import write_table

VALUE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# qpshell ")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return lines[0], header, rows


def test_parse_range_inclusive():
    pts = _parse_range("0.1:1:10")
    assert len(pts) == 10
    assert pts[0] == 0.1 and pts[-1] == 1.0
    assert _parse_range("2:2:1") == [2.0]
    for bad in ("1:0.5:10", "0.1:1:0", "0.1:1", "a:b:c", "1:2:2.5"):
        with pytest.raises(Exception):
            _parse_range(bad)


def test_scatter_csv(capsys):
    code, out, err = run(
        capsys, "scatter", "--j", "all", "--m", "1", "--a", "5", "--v0", "2",
        "--chi", "0.05:4:40",
    )
    assert code == 0 and err == ""
    meta, header, rows = parse_csv(out)
    assert header == ["j", "chi", "q", "re_f", "im_f", "sigma0", "re_S", "im_S",
                      "phase_unwrapped", "unitarity_defect"]
    assert len(rows) == 160
    for row in rows:
        assert row[0] in {"1", "2", "3", "4"}
        for cell in row[1:]:
            assert VALUE.match(cell)
        assert float(row[9]) < 1e-12


def test_scatter_csv_is_the_sweep_columns(capsys):
    pot = ShellPotential.double(1.0, 3.0, -1.0, 4.0)
    code, out, _ = run(capsys, "scatter", "--j", "all", "--m", "1.3", "--v1", "1",
                       "--a1", "3", "--v2", "-1", "--a2", "4", "--chi", "0.05:4:50")
    assert code == 0
    rows = out.splitlines()[2:]
    expected = []
    for j in (1, 2, 3, 4):
        sw = sweep(j, 1.3, pot, _parse_range("0.05:4:50"))
        for chi, q, f, s_mat, sigma0, phase in zip(*(c.tolist() for c in sw.columns())):
            defect = abs(f.imag - q * abs(f) ** 2) / (1.0 + abs(f) ** 2)
            expected.append(",".join([str(j)] + ["%.16e" % v for v in (
                chi, q, f.real, f.imag, sigma0, s_mat.real, s_mat.imag, phase)]))
            assert math.isclose(float(rows[len(expected) - 1].split(",")[9]), defect,
                                rel_tol=1e-14, abs_tol=1e-30)
    assert [r.rsplit(",", 1)[0] for r in rows] == expected


def test_scatter_repeated_runs_are_byte_identical(capsys):
    argv = ("scatter", "--j", "all", "--m", "0.8", "--v1", "-2", "--a1", "1.2",
            "--v2", "3", "--a2", "3.5", "--chi", "0.05:4:800")
    outs = {run(capsys, *argv)[1] for _ in range(3)}
    assert len(outs) == 1


def test_scatter_failure_before_an_overflow_decides(capsys, monkeypatch):
    # a NaN kernel value at chi = 2 (exit 3) comes before K_1 overflows at
    # chi = 356 (exit 2) on the grid 1, 2, ..., 400
    array = scattering._partial_re_array

    def forced(v, chi, kt, sech_den, d, s):
        return np.where(chi == 2.0, math.nan, array(v, chi, kt, sech_den, d, s))

    monkeypatch.setattr(scattering, "_partial_re_array", forced)
    argv = ("scatter", "--j", "1", "--m", "1", "--a", "5", "--v0", "2", "--chi", "1:400:400")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("accuracy failure") and "chi = 2.0" in err
    code, out, err = run(capsys, *argv[:-1], "3:400:398")
    assert code == 2 and out == ""
    assert "K_1 overflows at chi = 356.0" in err


def test_scatter_rejects_threshold(capsys):
    code, _out, err = run(
        capsys, "scatter", "--j", "1", "--m", "1", "--a", "5", "--v0", "2",
        "--chi", "0:1:5",
    )
    assert code == 2
    assert err != ""


def test_potential_flags_are_exclusive(capsys):
    code, _out, err = run(
        capsys, "scatter", "--j", "1", "--m", "1", "--a", "5", "--v0", "2",
        "--v1", "1", "--a1", "1", "--v2", "1", "--a2", "2", "--chi", "0.1:1:5",
    )
    assert code == 2 and err != ""
    code, _out, err = run(capsys, "scatter", "--j", "1", "--m", "1", "--chi", "0.1:1:5")
    assert code == 2 and err != ""


def test_greens_branches(capsys):
    code, out, _ = run(
        capsys, "greens", "--j", "3", "--m", "1", "--branch", "real",
        "--chi", "0.1:2:8", "--r", "1.5", "--rp", "0.5",
    )
    assert code == 0
    _meta, header, rows = parse_csv(out)
    assert header == ["j", "branch", "chi_or_w", "r", "rp", "re_G", "im_G"]
    assert len(rows) == 8 and all(r[1] == "real" for r in rows)
    code, out, _ = run(
        capsys, "greens", "--j", "3", "--m", "1", "--branch", "bound",
        "--w", "0.2:1.4:8", "--r", "1.5",
    )
    assert code == 0
    _meta, _header, rows = parse_csv(out)
    assert all(float(r[6]) == 0.0 for r in rows)     # bound kernel is real
    # branch/grid mismatch is a parameter error
    code, _out, err = run(
        capsys, "greens", "--j", "3", "--m", "1", "--branch", "real",
        "--w", "0.2:1.4:8", "--r", "1.5",
    )
    assert code == 2 and err != ""


def test_bound_levels(capsys):
    code, out, _ = run(
        capsys, "bound", "--j", "all", "--m", "1", "--a", "1", "--v0", "-2",
        "--levels",
    )
    assert code == 0
    _meta, header, rows = parse_csv(out)
    assert header == ["j", "w", "two_body_energy", "residual", "norm_check"]
    assert {r[0] for r in rows} == {"1", "2", "3", "4"}
    for row in rows:
        assert float(row[3]) < 1e-10
        assert float(row[4]) < 1e-8
        assert 0.0 < float(row[1]) < math.pi / 2


def test_bound_v2_curve_flags_pole(capsys):
    code, out, _ = run(
        capsys, "bound", "--j", "2", "--m", "1", "--v1", "-3.5", "--a1", "1",
        "--v2", "0", "--a2", "4", "--curve", "v2", "--n", "400",
    )
    assert code == 0
    _meta, header, rows = parse_csv(out)
    assert header == ["j", "w", "curve_id", "value", "finite_flag"]
    flagged = [r for r in rows if r[4] == "0"]
    assert len(flagged) == 1
    assert flagged[0][3] == ""                        # empty value cell
    for r in rows:
        if r[4] == "1":
            assert VALUE.match(r[3])


def test_bound_v1pm_curve_ids(capsys):
    code, out, _ = run(
        capsys, "bound", "--j", "3", "--m", "1", "--a1", "1", "--v1", "0",
        "--a2", "2", "--v2", "0", "--alpha", "1.0", "--curve", "v1pm",
        "--n", "50",
    )
    assert code == 0
    _meta, _header, rows = parse_csv(out)
    assert {r[2] for r in rows} == {"v1plus", "v1minus"}
    assert len(rows) == 100


def test_zeros_scan(capsys):
    code, out, _ = run(
        capsys, "zeros", "--j", "1", "--m", "1", "--a1", "3", "--v1", "1",
        "--v2", "-1", "--a2", "3:8:60", "--chi", "0.1:3:60",
    )
    assert code == 0
    _meta, header, rows = parse_csv(out)
    assert header == ["curve_id", "vertex_id", "x", "y", "residual"]
    assert rows
    for row in rows:
        assert float(row[4]) < 1e-8
    code, _out, err = run(
        capsys, "zeros", "--j", "all", "--m", "1", "--a1", "3", "--v1", "1",
        "--v2", "-1", "--a2", "3:8:60", "--chi", "0.1:3:60",
    )
    assert code == 2 and err != ""


def test_zeros_large_rapidity_is_a_parameter_error(capsys):
    # K_1 = m sinh(2 chi) overflows above chi ~ 355 at m = 1
    code, out, err = run(
        capsys, "zeros", "--j", "1", "--m", "1", "--a1", "1", "--v1", "1",
        "--v2", "-1", "--a2", "1:3:16", "--chi", "300:400:16",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("greens", "--j", "1", "--m", "1", "--branch", "real", "--chi", "400:400:1",
     "--r", "1.5", "--rp", "0.5"),
    ("scatter", "--j", "1", "--m", "1", "--a", "5", "--v0", "2", "--chi", "399:400:2"),
])
def test_flux_factor_overflow_is_a_parameter_error(capsys, argv):
    # K_1 = m sinh(2 chi) overflows for chi above ~355
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error") and "Traceback" not in err


def test_greens_refuses_where_the_reduced_kernel_does(capsys):
    # K_1 = m sinh(2 chi) overflows at m = 1e300, chi = 10, but K_1 / m and
    # m G are finite there: a table, as scatter gives at that point.  At
    # chi = 400 K_1 / m overflows too
    code, out, err = run(capsys, *"greens --j 1 --m 1e300 --branch real --chi 10:10:1 "
                                  "--r 1e-300".split())
    assert code == 0 and err == ""
    _meta, _header, rows = parse_csv(out)
    assert len(rows) == 1 and all(math.isfinite(float(cell)) for cell in rows[0][2:])
    code, out, err = run(capsys, *"scatter --j 1 --m 1e300 --a 1e-300 --v0 2 "
                                  "--chi 10:10:1".split())
    assert code == 0 and err == ""
    code, out, err = run(capsys, *"greens --j 1 --m 1e300 --branch real --chi 400:400:1 "
                                  "--r 1e-300".split())
    assert code == 2 and out == ""
    assert err.startswith("parameter error: rapidity too large: K_1")


@pytest.mark.parametrize("chi", ["-1:-0.5:3", "-1:1:3", "-1e-300:-1e-300:1"])
def test_greens_refuses_a_negative_rapidity(capsys, chi):
    # Im G is odd in chi, so a negative row would be the conjugate kernel
    code, out, err = run(capsys, *f"greens --j 1 --m 1 --branch real --chi={chi} --r 1".split())
    assert code == 2 and out == ""
    assert err.startswith("parameter error: rapidity must be non-negative")


@pytest.mark.parametrize("m", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("branch", ["real --chi 0.5:1:3", "bound --w 0.5:1:3"])
def test_greens_refuses_a_bad_mass(capsys, m, branch):
    code, out, err = run(capsys, "greens", "--j", "1", "--m", m, "--branch", *branch.split(),
                         "--r", "1", "--rp", "2")
    assert code == 2 and out == ""
    assert err.startswith("parameter error: mass must be finite and positive")


@pytest.mark.parametrize("argv", [
    "greens --j all --m 1e200 --branch real --chi 0.1:1:3 --r 1e200",
    "nrlimit --masses 1,2,1e308",
    "scatter --j all --m 1e200 --a 1e200 --v0 2 --chi 0.1:1:3",
    "zeros --j 1 --m 1e200 --a1 1e108 --v1 2 --v2 -3 --a2 1e108:2e108:20 --chi 0.2:4:20",
])
def test_non_finite_chi_m_r_is_a_parameter_error(capsys, argv):
    # sin(chi m r) has no value once chi m r overflows
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error: chi m r is not finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "scatter --j 1 --m 1 --v1 1e308 --a1 1 --v2 1e308 --a2 1 --chi 0.5:0.5:1",
    "bound --j 1 --m 1 --v1 1e308 --a1 1 --v2 1e308 --a2 1 --curve det --n 3",
])
def test_merged_shells_beyond_the_float_range_are_a_parameter_error(capsys, argv):
    # two finite strengths at one radius merge into 2e308, which overflows
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == "parameter error: shell (inf, 1.0) must be finite\n"


def test_zero_condition_product_overflow_is_a_parameter_error(capsys):
    # g1 g2 = V1 V2 / m^2 = -1e600 overflows: refused before the field
    code, out, err = run(capsys, *"zeros --j 1 --m 1e-300 --a1 1 --v1 1 --v2 -1 "
                                  "--a2 1:3:16 --chi 0.1:1:16".split())
    assert code == 2
    assert out == ""
    assert err == ("parameter error: V1 V2 / m^2 = 1.0 * -1.0 / 1e-300^2 is not finite: "
                   "m = 1e-300 is too small for these strengths\n")


def test_scatter_cross_section_overflow_is_a_parameter_error(capsys):
    # f = 1e154 is finite, 4 pi |f|^2 is not
    code, out, err = run(capsys, *"scatter --j 1 --m 1e-160 --v0=-1e146 --a 1e4 "
                                  "--chi 0.001:1:2".split())
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error: cross section 4 pi |f|^2 overflows at chi = 0.001")
    # V / m = -1e460 is beyond the float range: refused before the system
    code, out, err = run(capsys, *"scatter --j 1 --m 1e-160 --v0=-1e300 --a 1 "
                                  "--chi 0.001:1:2".split())
    assert code == 2
    assert out == ""
    assert err == ("parameter error: strength over mass V / m = -1e+300 / 1e-160 "
                   "is not finite\n")


def test_scatter_large_rapidity_is_finite(capsys):
    # K_3 and q are finite at chi = 400, but q K_3 is not; the amplitude is
    # the Born value, about 1e-346, which underflows to zero
    code, out, err = run(capsys, "scatter", "--j", "3", "--m", "1", "--a", "5",
                         "--v0", "2", "--chi", "399:400:2")
    assert code == 0 and err == ""
    _meta, _header, rows = parse_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row[1:])
        assert float(row[3]) == float(row[4]) == 0.0
        assert (float(row[6]), float(row[7])) == (1.0, 0.0)


# Sweeps that once failed the 1e-12 S-matrix cross-check (the first two) or
# the 1e-12 agreement with the expanded variant-3 form (the third).
KNOWN_HARD_SWEEPS = (
    ("scatter", "--j", "4", "--m", "1.31281", "--v1", "-1.43227", "--a1", "1.1044",
     "--v2", "3.52588", "--a2", "3.73078", "--chi", "0.05:4:128"),
    ("scatter", "--j", "all", "--m", "1.22032", "--v1", "-2.74056", "--a1", "0.902928",
     "--v2", "3.93034", "--a2", "3.57658", "--chi", "0.05:4:128"),
    ("scatter", "--j", "all", "--m", "1.12148", "--v1", "-2.77237", "--a1", "1.62901",
     "--v2", "1.53345", "--a2", "2.37862", "--chi", "0.05:4:16"),
)


@pytest.mark.parametrize("argv", KNOWN_HARD_SWEEPS)
def test_known_hard_sweeps_pass_both_rules(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    _meta, _header, rows = parse_csv(out)
    flags = dict(zip(argv[1::2], argv[2::2]))
    pot = ShellPotential.double(*(float(flags[k]) for k in ("--v1", "--a1", "--v2", "--a2")))
    for row in rows:
        j, chi, q = int(row[0]), float(row[1]), float(row[2])
        f = complex(float(row[3]), float(row[4]))
        s_mat = complex(float(row[6]), float(row[7]))
        # rule 1: the unitarity defect, as written and recomputed, and
        # | |S| - 1 | stay below 1e-12
        defect = abs(f.imag - q * abs(f) ** 2) / (1.0 + abs(f) ** 2)
        assert max(float(row[9]), defect, abs(abs(s_mat) - 1.0)) < 1e-12
        # rule 2: variant-3 rows equal the expanded closed form to 1e-12
        if j == 3:
            f_exp = amplitude_explicit(3, Kinematics(float(flags["--m"]), chi), pot)
            assert abs(f - f_exp) <= 1e-12 * abs(f_exp)


def test_nrlimit_table(capsys):
    code, out, _ = run(capsys, "nrlimit", "--observable", "gf", "--j", "2")
    assert code == 0
    _meta, header, rows = parse_csv(out)
    assert header == ["observable", "j", "mass", "deviation"]
    devs = [float(r[3]) for r in rows]
    assert devs == sorted(devs, reverse=True)         # monotone decrease
    assert devs[-1] < 1e-2


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--group", "rt_zeros", "--group", "gf_identity")
    assert code == 0
    assert "rt_zeros" in out and "PASS" in out
    explicit = verification.amplitude_explicit
    monkeypatch.setattr(verification, "amplitude_explicit",
                        lambda j, kin, pot: explicit(j, kin, pot) * (1.0 + 1e-6))
    code, _out, err = run(capsys, "verify", "--group", "two_path")
    assert code == 3
    assert "two_path" in err


def test_argparse_rejects_bad_values(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--j", "5", "--m", "1", "--a", "5", "--v0", "2",
              "--chi", "0.1:1:5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--j", "1", "--m", "1", "--a", "5", "--v0", "2",
              "--chi", "1:0.5:5"])
    assert exc.value.code == 2


def test_byte_determinism(tmp_path, capsys):
    argsets = (
        ["scatter", "--j", "all", "--m", "1", "--a", "5", "--v0", "2",
         "--chi", "0.05:4:25"],
        ["zeros", "--j", "4", "--m", "1", "--a1", "3", "--v1", "1", "--v2", "-1",
         "--a2", "3:8:48", "--chi", "0.1:3:48"],
        ["bound", "--j", "all", "--m", "1", "--a", "1", "--curve", "v0",
         "--v0", "0", "--n", "64"],
    )
    for i, args in enumerate(argsets):
        p1 = tmp_path / f"{i}_run1.csv"
        p2 = tmp_path / f"{i}_run2.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        capsys.readouterr()
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        assert b1.startswith(b"# qpshell ")
        assert b"run1" not in b1                      # --out not echoed


@pytest.mark.parametrize("argv", [
    ("--curve", "v0", "--m", "-1", "--a", "1"),
    ("--curve", "v0", "--m", "nan", "--a", "1"),
    ("--curve", "v0", "--m", "1", "--a", "0"),
    ("--curve", "v2", "--m", "1", "--v1", "1", "--a1", "2", "--a2", "1"),
    ("--curve", "v1pm", "--m", "1", "--a1", "1", "--a2", "2", "--alpha", "0"),
    ("--curve", "v1pm", "--m", "1", "--a1", "1", "--a2", "2", "--alpha", "nan"),
    ("--curve", "v2", "--m", "1", "--v1", "nan", "--a1", "1", "--a2", "2"),
    ("--curve", "det", "--m", "1", "--v0", "-2", "--a", "1", "--n", "1"),
    ("--curve", "det", "--m", "inf", "--v0", "-2", "--a", "1"),
])
def test_bound_curve_bad_parameters_are_parameter_errors(capsys, argv):
    code, out, err = run(capsys, "bound", "--j", "all", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--j", "all", "--m", "1", "--a", "1", "--v0", "-2", "--levels"),
    ("--j", "all", "--m", "1", "--v1", "7", "--a1", "1", "--v2", "-2", "--a2", "3", "--levels"),
    ("--j", "all", "--m", "1", "--a", "1", "--v0", "0", "--curve", "v0"),
    ("--j", "all", "--m", "1", "--v1", "-2", "--a1", "1", "--v2", "-1", "--a2", "3",
     "--curve", "det"),
    ("--j", "2", "--m", "1", "--v1", "-3.5", "--a1", "1", "--v2", "0", "--a2", "4",
     "--curve", "v2"),
    ("--j", "3", "--m", "1", "--v1", "0", "--a1", "1", "--v2", "0", "--a2", "2",
     "--alpha", "-1", "--curve", "v1pm"),
])
def test_bound_runs_write_nothing_to_stderr(capsys, argv):
    code, out, err = run(capsys, "bound", *argv)
    assert code == 0
    assert err == ""
    assert out.startswith("# qpshell bound ")


@pytest.mark.parametrize("argv", [
    "greens --j all --m 1e200 --branch real --chi 0.1:1:3 --r 1e200",
    "nrlimit --masses 1,2,1e308",
    "nrlimit --j 1 --observable amplitude --q 1e308",
    "greens --j all --m 1e200 --branch bound --w 0.1:1:3 --r 1e200",
    "greens --j all --m 1 --branch real --chi 0:1:3 --r 1",
    "greens --j 1 --m 1 --branch real --chi=-1:-0.5:3 --r 1",
    "scatter --j all --m 1 --a 5 --v0 2 --chi 700:800:3",
    "bound --j all --m 1e200 --levels --v0 -2 --a 1e200",
    "bound --j all --m 1e-300 --curve v0 --a 1 --n 50",
    "bound --j all --m 1 --curve v0 --a 1e300 --n 50",
    "bound --j 1 --m 1e-320 --v1 1 --a1 1 --a2 2 --curve v2 --n 4",
    "zeros --j 1 --m 1e200 --a1 1 --v1 2 --v2 -3 --a2 1.2:4:20 --chi 0.2:4:20",
])
def test_edge_inputs_give_a_table_or_a_typed_refusal(capsys, argv):
    # an exception escaping main fails the test before any assert
    code, out, _err = run(capsys, *argv.split())
    assert code in (0, 2, 3)
    assert "nan" not in out.lower()
    if code:
        assert out == ""


@pytest.mark.parametrize("argv, code", [
    # overflows in the curve algebra are flagged on the curve, or refused by
    # the level scan, without a numpy warning (RuntimeWarning is an error in
    # this suite, so a warning escapes main and fails the test)
    ("bound --j 1 --m 1 --a1 1 --a2 2 --alpha 1e200 --curve v1pm --n 4", 0),
    ("bound --j 3 --m 1 --v1 1e308 --a1 1 --a2 2 --curve v2 --n 10", 0),
    ("bound --j 1 --m 1 --v1 1e308 --a1 1 --v2 1e308 --a2 2 --levels", 3),
    ("bound --j 1 --m 1 --v1 1e308 --a1 1 --v2 1e308 --a2 2 --curve det --n 4", 0),
])
def test_curve_overflow_is_judged_without_warnings(capsys, argv, code):
    got, out, err = run(capsys, *argv.split())
    assert got == code
    if code:
        assert out == "" and err.startswith("accuracy failure: scanned function non-finite")
    else:
        assert err == "" and "nan" not in out.lower() and "inf" not in out.lower()


@pytest.mark.parametrize("m, code, message", [
    # chi m (a2 + a2) = 3.2e201: far above 2^53, sin keeps no digit
    ("1e200", 2, r"parameter error: chi m \(r \+ r'\) reaches 3\.200e\+201 at chi = 4\.0"),
    # 3.2e14 is below 2^53, so the scan runs; its refinement stalls
    ("1e13", 3, r"accuracy failure: zero-locus vertex refinement stalled near"),
])
def test_zeros_sine_argument_limit(capsys, m, code, message):
    got, out, err = run(capsys, *f"zeros --j 1 --m {m} --a1 1 --v1 2 --v2 -3 "
                                 f"--a2 1.2:4:20 --chi 0.2:4:20".split())
    assert got == code
    assert out == ""
    assert re.match(message, err) and "Traceback" not in err


def test_one_parser_per_process():
    assert build_parser() is build_parser()


# One run of each table kind, with a letter per column: f a float, i an int,
# s a name, v a curve value (empty where finite_flag is 0).
TABLE_KINDS = (
    ("scatter --j all --m 1 --a 5 --v0 2 --chi 0.05:4:40", "ifffffffff"),
    ("scatter --j all --m 1.3 --v1 1 --a1 3 --v2 -1 --a2 4 --chi 0.05:4:50", "ifffffffff"),
    ("greens --j all --m 1 --branch real --chi 0.1:2:20 --r 1.5 --rp 0.5", "isfffff"),
    ("greens --j all --m 1 --branch bound --w 0.2:1.4:20 --r 1.5", "isfffff"),
    ("bound --j all --m 1 --a 1 --v0 -2 --levels", "iffff"),
    ("bound --j all --m 1 --a 1 --curve v0 --n 200", "ifsvi"),
    ("bound --j all --m 1 --v1 -2 --a1 1 --v2 -1 --a2 3 --curve det --n 200", "ifsvi"),
    ("bound --j 2 --m 1 --v1 -3.5 --a1 1 --v2 0 --a2 4 --curve v2 --n 400", "ifsvi"),
    ("bound --j all --m 1 --a1 1 --a2 2 --alpha -1 --curve v1pm --n 200", "ifsvi"),
    ("zeros --j 1 --m 1 --a1 3 --v1 1 --v2 -1 --a2 3:8:60 --chi 0.1:3:60", "iifff"),
    ("nrlimit --observable all --j all", "siff"),
)


@pytest.mark.parametrize("argv, kinds", TABLE_KINDS)
def test_every_field_reads_back_as_written(capsys, argv, kinds):
    # independent of the writer: a float field is "%.16e" of its own value,
    # an int field str() of its own value
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    _meta, header, rows = parse_csv(out)
    assert rows and len(header) == len(kinds)
    flagged = 0
    for row in rows:
        assert len(row) == len(kinds)
        for kind, field in zip(kinds, row):
            if kind == "v" and row[-1] == "0":
                assert field == ""
                flagged += 1
            elif kind in "fv":
                assert "%.16e" % float(field) == field
            elif kind == "i":
                assert str(int(field)) == field
            else:
                assert field.isidentifier()
    if "--curve v2" in argv:
        assert flagged == 1


def _sampled_curves(ns):
    """(j, curve_id, QuantCurve) in table order, from the samplers themselves."""
    for j in ns.j:
        if ns.curve == "v0":
            yield j, "v0", boundstates.sample_v0_curve(j, ns.m, ns.a, n=ns.n)
        elif ns.curve == "det":
            pot = ShellPotential.double(ns.v1, ns.a1, ns.v2, ns.a2)
            yield j, "det", boundstates.sample_det_curve(j, ns.m, pot, n=ns.n)
        elif ns.curve == "v2":
            yield j, "v2", boundstates.sample_v2_curve(j, ns.m, ns.a1, ns.a2, ns.v1, n=ns.n)
        else:
            plus, minus = boundstates.sample_v1pm_curve(j, ns.m, ns.a1, ns.a2, ns.alpha,
                                                        n=ns.n)
            yield j, "v1plus", plus
            yield j, "v1minus", minus


@pytest.mark.parametrize("argv", [argv for argv, _ in TABLE_KINDS if "--curve" in argv])
def test_curve_table_holds_the_sampler_columns(capsys, argv):
    code, out, _err = run(capsys, *argv.split())
    assert code == 0
    _meta, _header, rows = parse_csv(out)
    expected = []
    for j, curve_id, curve in _sampled_curves(build_parser().parse_args(argv.split())):
        assert curve.w.tolist() == sorted(curve.w.tolist())
        for w, value, finite in zip(curve.w.tolist(), curve.value.tolist(),
                                    curve.finite.tolist()):
            expected.append((str(j), w.hex(), curve_id, value.hex() if finite else "",
                             str(int(finite))))
    # float.hex() tells every float bit pattern apart, -0.0 from 0.0 too
    got = [(j, float(w).hex(), curve_id, float(value).hex() if value else "", flag)
           for j, w, curve_id, value, flag in rows]
    assert got == expected


@pytest.mark.parametrize("argv, n_curves", [
    # V1, V2 of one sign: no curve, so the table is the header only
    ("zeros --j 1 --m 1 --a1 1 --v1 1 --v2 0.5 --a2 1:3:16 --chi 0.1:0.2:16", 0),
    ("zeros --j 1 --m 1 --a1 3 --v1 1 --v2 -1 --a2 3:5:24 --chi 0.1:0.6:24", 1),
    ("zeros --j 1 --m 1 --a1 3 --v1 1 --v2 -1 --a2 3:8:300 --chi 0.1:3:300", None),
], ids=["empty", "one_curve", "readme"])
def test_zeros_columns_are_the_vertex_tuples(capsys, argv, n_curves):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    # the table as the vertex tuples of the locus write it, one row per vertex
    ns = build_parser().parse_args(argv.split())
    locus = scattering.scan_zero_locus(ns.j[0], ns.m, ns.a1, ns.v1, ns.v2,
                                       (ns.a2[0], ns.a2[-1]), (ns.chi[0], ns.chi[-1]),
                                       grid=(len(ns.a2), len(ns.chi)))
    rows = [(ci, vi, x, y, residual) for ci, curve in enumerate(locus.curves)
            for vi, (x, y, residual) in enumerate(curve)]
    write_table(None, argv, ["curve_id", "vertex_id", "x", "y", "residual"], list(zip(*rows)))
    got, want = out.splitlines(), capsys.readouterr().out.splitlines()
    assert len(got) == len(want) == 2 + len(rows)
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, f"line {first}: {got[first]!r} != {want[first]!r}"
    assert out.endswith("\n")
    if n_curves is not None:
        assert len(locus.curves) == n_curves


@pytest.mark.parametrize("typed, joined", [
    ("scatter --j 1 --m 1 --v0 -1e-3 --a 1 --chi 0.5:1:3",
     "scatter --j 1 --m 1 --v0=-1e-3 --a 1 --chi 0.5:1:3"),
    ("bound --j 3 --m 1 --v1 0 --a1 1 --v2 0 --a2 2 --alpha -2e-1 --curve v1pm --n 5",
     "bound --j 3 --m 1 --v1 0 --a1 1 --v2 0 --a2 2 --alpha=-2e-1 --curve v1pm --n 5"),
    ("zeros --j 1 --m 1 --a1 3 --v1 1 --v2 -1E0 --a2 3:5:24 --chi 0.1:0.6:24",
     "zeros --j 1 --m 1 --a1 3 --v1 1 --v2=-1E0 --a2 3:5:24 --chi 0.1:0.6:24"),
], ids=["v0", "alpha", "v2"])
def test_negative_values_in_exponent_form_are_values(capsys, typed, joined):
    # argparse before Python 3.13 takes -1e-3 for an option, not a value
    code, out, err = run(capsys, *typed.split())
    assert code == 0 and err == ""
    assert out.startswith(f"# qpshell {typed}\n")
    _, out_joined, _ = run(capsys, *joined.split())
    assert out.split("\n", 1)[1] == out_joined.split("\n", 1)[1]


def test_a_negative_range_after_its_option_is_a_typed_refusal(capsys):
    code, out, err = run(capsys, *"greens --j 1 --m 1 --branch real --chi -1:1:3 --r 1".split())
    assert code == 2 and out == ""
    assert err.startswith("parameter error: rapidity must be non-negative")

"""Command-line surface: exit codes, CSV shape, value formatting, determinism."""

import math
import re

import pytest

from qpshell.cli import _parse_range, main

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


def test_nrlimit_table(capsys):
    code, out, _ = run(capsys, "nrlimit", "--observable", "gf", "--j", "2")
    assert code == 0
    _meta, header, rows = parse_csv(out)
    assert header == ["observable", "j", "mass", "deviation"]
    devs = [float(r[3]) for r in rows]
    assert devs == sorted(devs, reverse=True)         # monotone decrease
    assert devs[-1] < 1e-2


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--group", "rt_zeros", "--group", "gf_identity")
    assert code == 0
    assert "rt_zeros" in out and "PASS" in out
    code, _out, err = run(
        capsys, "verify", "--group", "two_path", "--fault-v0-bump", "1e-6",
    )
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

"""The table writer: e16 against Python's "%.16e", and write_table's layout."""

import contextlib
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpshell import tables
from qpshell.cli import main
from qpshell.tables import e16, write_table


def printf_lines(values) -> bytes:
    return b"".join(b"%.16e\n" % v for v in np.asarray(values, dtype=float).tolist())


def e16_lines(values) -> bytes:
    fields = e16(values)
    lines = np.concatenate((fields, np.full((len(fields), 1), ord("\n"), np.uint8)), axis=1)
    return lines[lines != 0].tobytes()


def assert_printf(values):
    assert e16_lines(values) == printf_lines(values)


def test_special_values():
    tiny = sys.float_info.min
    assert_printf([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                   tiny, -tiny, tiny / 3, math.nextafter(tiny, 0.0), sys.float_info.max,
                   -sys.float_info.max, 1e-290, 1e290, 1e-300, 1e308, 1e-280, 1e281, 1.0,
                   -1.0, -3.0, 0.1, 2.0 ** 53, 1e16, 4.0 * math.pi])


def test_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_printf(np.concatenate((p, np.nextafter(p, 0.0), np.nextafter(p, math.inf), -p)))


def test_large_integers_and_exact_ties():
    rng = np.random.default_rng(19)
    ints = rng.integers(2 ** 53, 10 ** 18, 20_000, dtype=np.int64).astype(float)
    # 123456789012345685 is no double (it reads ...680); 1e15 + k / 4 has an
    # 18th digit of exactly 5 for odd k, a tie that rounds half to even
    ties = 1e15 + np.arange(1, 4001, 2) / 4
    assert_printf(np.concatenate((ints, [123456789012345685.0, 99999999999999999.0], ties)))


def test_random_bit_patterns():
    bits = np.random.default_rng(401).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    assert_printf(bits.view(np.float64))


def test_only_values_out_of_range_reach_printf(monkeypatch):
    calls = []
    printf = tables._printf
    monkeypatch.setattr(tables, "_printf", lambda v: calls.append(len(v)) or printf(v))
    x = np.array([0.1, 2.5, -7.0, 0.0, -0.0, math.nan, 5e-324, 1e300])
    assert_printf(x)
    assert sum(calls) == 3                  # NaN, the subnormal and 1e300; not the zeros


@given(st.lists(st.floats(), min_size=1, max_size=8))
def test_e16_is_printf(values):
    assert_printf(values)


README_RUNS = (
    "scatter --j all --m 1 --a 5 --v0 2 --chi 0.05:4:800",
    "greens --j 3 --m 1 --branch real --chi 0.1:2:100 --r 1.5 --rp 0.5",
    "greens --j 3 --m 1 --branch bound --w 0.2:1.4:100 --r 1.5",
    "bound --j all --m 1 --a 1 --v0 -2 --levels",
    "bound --j all --m 1 --a 1 --v0 0 --curve v0",
    "bound --j 2 --m 1 --v1 -3.5 --a1 1 --v2 0 --a2 4 --curve v2",
    "bound --j 3 --m 1 --v1 0 --a1 1 --v2 0 --a2 2 --alpha 1 --curve v1pm",
    "zeros --j 1 --m 1 --a1 3 --v1 1 --v2 -1 --a2 3:8:300 --chi 0.1:3:300",
    "nrlimit --observable all --j all --masses 10,100,1000",
)


def test_readme_tables_take_the_fast_path(monkeypatch, capsys):
    tables._glyphs()                        # builds zero's fields through _printf
    calls = []
    printf = tables._printf
    monkeypatch.setattr(tables, "_printf", lambda v: calls.append(len(v)) or printf(v))
    for argv in README_RUNS:
        assert main(argv.split()) == 0
    capsys.readouterr()
    assert sum(calls) == 0


def test_write_table_layout(tmp_path, capsys):
    out = tmp_path / "t.csv"
    write_table(str(out), "demo --x 1", ["j", "name", "a", "b"],
                [[1, 22], ["v1plus", "real"], [0.5, -2.0], [1e-300, 0.0]],
                empty={2: np.array([False, True])})
    assert out.read_bytes() == (
        b"# qpshell demo --x 1\nj,name,a,b\n"
        b"1,v1plus,5.0000000000000000e-01,1.0000000000000000e-300\n"
        b"22,real,,0.0000000000000000e+00\n")
    write_table(None, "demo", ["a", "b"], [])
    assert capsys.readouterr().out == "# qpshell demo\na,b\n"


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
NAME = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=9)


def stdout_table(header, columns) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_table(None, "demo", header, columns)
    return out.getvalue()


@given(st.lists(st.tuples(INT64, NAME), max_size=12))
@example([])
@example([(0, "")])
@example([(-2 ** 63, "v1minus"), (2 ** 63 - 1, "v1plus"), (0, "real"), (-1, "b"), (9999, "")])
@example([(10 ** 4, "x"), (-10 ** 8, "yy"), (10 ** 18, "zzz"), (7, "")])
def test_int_and_name_columns_are_their_str(rows):
    # zero rows too: a header and nothing else
    ints = np.array([i for i, _ in rows], dtype=np.int64)
    names = np.array([n for _, n in rows], dtype=str)
    expected = "".join(f"{i},{n}\n" for i, n in rows)
    assert stdout_table(["i", "name"], [ints, names]) == "# qpshell demo\ni,name\n" + expected


@given(st.lists(INT64, max_size=12))
def test_narrow_int_columns_are_their_str(values):
    for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32):
        info = np.iinfo(dtype)
        column = np.clip(np.array(values, dtype=np.int64), info.min, info.max).astype(dtype)
        expected = "".join(f"{v}\n" for v in column.tolist())
        assert stdout_table(["i"], [column]) == "# qpshell demo\ni\n" + expected


def test_non_ascii_name_fails_as_on_encoding():
    # as "caf\u00e9".encode("ascii") fails
    with pytest.raises(UnicodeEncodeError, match="position 3: ordinal not in range"):
        stdout_table(["name"], [["real", "caf\u00e9"]])

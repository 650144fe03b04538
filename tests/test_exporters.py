"""Tests for the artifact readers and writers: the repr round-trip contract
and the rejection of malformed files."""
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stefanlab.errors import ConfigError
from stefanlab.exporters import (read_frontier_csv, read_json, read_jumps_json,
                                 read_matrix_csv, read_nu_csv,
                                 write_frontier_csv, write_matrix_csv,
                                 write_nu_csv, write_profile_csv)

NAN, INF = float("nan"), float("inf")
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, 2.2250738585072014e-308,
           1e300, -1e300, 1.7976931348623157e308, NAN, INF, -INF, 0.1, 1 / 3]
# NaN is written as 'nan' whatever its sign and payload, so only the
# canonical NaN can come back bit for bit
floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL))


def _repr(v) -> str:
    return repr(float(v))


def matrix_oracle(x, t, values) -> bytes:
    """The matrix layout formatted one element at a time."""
    lines = ["nan," + ",".join(_repr(v) for v in x)]
    lines += [_repr(tv) + "," + ",".join(_repr(v) for v in row)
              for tv, row in zip(t, values)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(floats, min_size=cols, max_size=cols)))
    t = np.array(draw(st.lists(floats, min_size=rows, max_size=rows)))
    values = np.array(draw(st.lists(floats, min_size=rows * cols,
                                    max_size=rows * cols))).reshape(rows, cols)
    return x, t, values


@settings(max_examples=150, deadline=None)
@given(matrices())
@example((np.array(SPECIAL), np.array([-0.0, NAN]),
          np.array([SPECIAL, SPECIAL[::-1]])))
def test_matrix_csv_round_trips_bit_for_bit(tmp_path_factory, mat):
    x, t, values = mat
    path = tmp_path_factory.mktemp("m") / "m.csv"
    write_matrix_csv(path, x, t, values)
    assert path.read_bytes() == matrix_oracle(x, t, values)
    rx, rt, rv = read_matrix_csv(path)
    assert same_bits(rx, x) and same_bits(rt, t) and same_bits(rv, values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(floats, floats, floats, st.booleans()),
                min_size=1, max_size=6))
def test_small_writers_match_repr_oracle(tmp_path_factory, rows):
    a, b, c, flags = (np.array(col) for col in zip(*rows))
    labels = ["interior" if f else "jump" for f in flags]
    out = tmp_path_factory.mktemp("s")

    write_frontier_csv(out / "f.csv", SimpleNamespace(times=a, lam=b))
    assert (out / "f.csv").read_text() == "t,lambda\n" + "".join(
        f"{_repr(u)},{_repr(v)}\n" for u, v in zip(a, b))
    rt, rl = read_frontier_csv(out / "f.csv")
    assert same_bits(rt, a) and same_bits(rl, b)

    write_nu_csv(out / "n.csv", SimpleNamespace(x=a, nu=b, recorded=flags))
    assert (out / "n.csv").read_text() == "x,nu,recorded\n" + "".join(
        f"{_repr(u)},{_repr(v)},{int(f)}\n" for u, v, f in zip(a, b, flags))

    write_profile_csv(out / "p.csv", SimpleNamespace(
        x=a, s=b, s_prime=c, labels=labels, boundary_value=a))
    assert (out / "p.csv").read_text() == \
        "x,s,s_prime,label,boundary_value\n" + "".join(
            f"{_repr(u)},{_repr(v)},{_repr(w)},{lb},{_repr(u)}\n"
            for u, v, w, lb in zip(a, b, c, labels))


MALFORMED = {
    "frontier": (read_frontier_csv, "t,lambda\n0.0,0.1\n0.1,abc\n"),
    "matrix": (read_matrix_csv, "nan,0.1,0.2\n0.0,1.0,2.0\n0.1,1.0\n"),
    "nu": (lambda p: read_nu_csv(p, 1.0), "x,nu,recorded\n0.1,0.5\n"),
    "json": (read_json, '{"scenario_id": "x", "alpha": '),
    "jumps": (read_jumps_json, '[{"t": 0.1, "lambda_minus": 0.2}]'),
}


@pytest.mark.parametrize("reader", sorted(MALFORMED))
def test_malformed_artifact_is_config_error_naming_file(tmp_path, reader):
    read, text = MALFORMED[reader]
    path = tmp_path / f"{reader}.bad"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        read(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        read_json(tmp_path / "absent.json")

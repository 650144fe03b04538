"""Tests for the artifact readers and writers: the repr round-trip contract
of the text tables, the bit-exact .npy round trip of the matrices and the
freezing weight, and the rejection of malformed files."""
import io
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stefanlab.errors import ConfigError
from stefanlab.exporters import (read_frontier_csv, read_json, read_jumps_json,
                                 read_matrix_csv, read_nu_csv, write_frontier_csv,
                                 write_matrix_csv, write_nu_csv, write_profile_csv)
from stefanlab.potential import SCAN_ROWS


def _bits(u: int) -> float:
    return float(np.array(u, dtype=np.uint64).view(np.float64))


NAN, INF = float("nan"), float("inf")
NEG_NAN = _bits(0xFFF8000000000000)      # sign bit set
PAYLOAD_NAN = _bits(0x7FF800000000DEAD)  # non-canonical payload
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, 2.2250738585072014e-308,
           1e300, -1e300, 1.7976931348623157e308, NAN, INF, -INF, 0.1, 1 / 3]
# text writes NaN as 'nan' whatever its sign and payload, so only the
# canonical NaN comes back from CSV; .npy keeps every NaN bit for bit
text_floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL))
npy_floats = st.one_of(st.floats(),
                       st.sampled_from(SPECIAL + [NEG_NAN, PAYLOAD_NAN]))


def _repr(v) -> str:
    return repr(float(v))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(npy_floats, min_size=cols, max_size=cols)))
    t = np.array(draw(st.lists(npy_floats, min_size=rows, max_size=rows)))
    values = np.array(draw(st.lists(npy_floats, min_size=rows * cols,
                                    max_size=rows * cols))).reshape(rows, cols)
    return x, t, values


@settings(max_examples=150, deadline=None)
@given(matrices())
@example((np.array(SPECIAL + [NEG_NAN, PAYLOAD_NAN]),
          np.array([-0.0, NAN, NEG_NAN, PAYLOAD_NAN]),
          np.array([SPECIAL + [NEG_NAN, PAYLOAD_NAN]] * 2
                   + [(SPECIAL + [NEG_NAN, PAYLOAD_NAN])[::-1]] * 2)))
def test_matrix_npy_round_trips_bit_for_bit(tmp_path_factory, mat):
    x, t, values = mat
    path = tmp_path_factory.mktemp("m") / "m.npy"
    write_matrix_csv(path, x, t, values)
    # the layout: x in the first row, t in the first column, nan corner
    raw = np.load(path, allow_pickle=False)
    assert raw.dtype == np.float64 and raw.shape == (len(t) + 1, len(x) + 1)
    assert same_bits(raw[0, 0], NAN)
    assert same_bits(raw[0, 1:], x) and same_bits(raw[1:, 0], t)
    assert same_bits(raw[1:, 1:], values)
    rx, rt, rv = read_matrix_csv(path)
    assert same_bits(rx, x) and same_bits(rt, t) and same_bits(rv, values)


def np_save_bytes(x, t, values) -> bytes:
    """np.save of the bordered matrix: the bytes write_matrix_csv must give."""
    a = np.empty((len(t) + 1, len(x) + 1))
    a[0, 0] = NAN
    a[0, 1:], a[1:, 0], a[1:, 1:] = x, t, values
    buf = io.BytesIO()
    np.save(buf, a, allow_pickle=False)
    return buf.getvalue()


@pytest.mark.parametrize("rows", [1, SCAN_ROWS - 1, SCAN_ROWS, SCAN_ROWS + 1,
                                  2 * SCAN_ROWS - 1, 2 * SCAN_ROWS, 2 * SCAN_ROWS + 1,
                                  4 * SCAN_ROWS + 1])
def test_matrix_written_in_blocks_equals_np_save(tmp_path, rows):
    # one row and the row counts around one, two and four blocks; NaN payloads,
    # signed zeros and subnormals in every part of the file
    rng = np.random.default_rng(rows)
    special = np.array(SPECIAL + [NEG_NAN, PAYLOAD_NAN])
    x = np.concatenate((special, rng.standard_normal(3)))
    t = rng.choice(special, rows)
    values = rng.standard_normal((rows, len(x)))
    values[rng.random(values.shape) < 0.3] = PAYLOAD_NAN
    values[:, 1] = -0.0
    values[-1, :len(special)] = special[::-1]
    want = np_save_bytes(x, t, values)
    write_matrix_csv(tmp_path / "a.npy", x, t, values)
    assert (tmp_path / "a.npy").read_bytes() == want
    # the same rows given as blocks, last first, as w's recurrence gives them
    blocks = [(lo, values[lo:lo + 7]) for lo in range(0, rows, 7)][::-1]
    write_matrix_csv(tmp_path / "b.npy", x, t, iter(blocks))
    assert (tmp_path / "b.npy").read_bytes() == want
    rx, rt, rv = read_matrix_csv(tmp_path / "b.npy")
    assert same_bits(rx, x) and same_bits(rt, t) and same_bits(rv, values)


@pytest.mark.parametrize("blocks", [
    [(0, np.zeros((2, 3)))],                        # a row missing
    [(0, np.zeros((3, 2)))],                        # too narrow
    [(2, np.zeros((2, 3))), (0, np.zeros((1, 3)))],  # past the last row
], ids=["short", "narrow", "past-the-end"])
def test_matrix_blocks_that_miss_the_axes_are_refused(tmp_path, blocks):
    with pytest.raises(ConfigError, match="matrix block"):
        write_matrix_csv(tmp_path / "m.npy", np.arange(3.0), np.arange(3.0),
                         iter(blocks))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(npy_floats, npy_floats, st.booleans()),
                min_size=1, max_size=6))
@example([(u, v, f) for u, v, f in zip(SPECIAL + [NEG_NAN, PAYLOAD_NAN],
                                       [PAYLOAD_NAN, NEG_NAN] + SPECIAL,
                                       [True, False] * 8)])
def test_nu_npy_round_trips_bit_for_bit(tmp_path_factory, rows):
    x, nu, flags = (np.array(col) for col in zip(*rows))
    path = tmp_path_factory.mktemp("n") / "n.npy"
    write_nu_csv(path, SimpleNamespace(x=x, nu=nu, recorded=flags))
    raw = np.load(path, allow_pickle=False)
    assert raw.dtype == np.float64 and raw.shape == (len(x), 3)
    assert same_bits(raw[:, 0], x) and same_bits(raw[:, 1], nu)
    assert same_bits(raw[:, 2], flags.astype(float))
    got = read_nu_csv(path, 0.7)
    assert same_bits(got.x, x) and same_bits(got.nu, nu)
    assert got.recorded.dtype == bool and np.array_equal(got.recorded, flags)
    assert got.alpha == 0.7


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(text_floats, text_floats, text_floats, st.booleans()),
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

    write_profile_csv(out / "p.csv", SimpleNamespace(
        x=a, s=b, s_prime=c, labels=labels, boundary_value=a))
    assert (out / "p.csv").read_text() == \
        "x,s,s_prime,label,boundary_value\n" + "".join(
            f"{_repr(u)},{_repr(v)},{_repr(w)},{lb},{_repr(u)}\n"
            for u, v, w, lb in zip(a, b, c, labels))


UNPICKLED = []


def _unpickled():
    UNPICKLED.append(True)


class Tripwire:
    """Records its own unpickling, which no reader may ever do."""

    def __reduce__(self):
        return _unpickled, ()


def _npy(a, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, a, allow_pickle=allow_pickle)
    return buf.getvalue()


def _bordered(corner=NAN) -> np.ndarray:
    a = np.arange(12.0).reshape(3, 4)
    a[0, 0] = corner
    return a


_GOOD = _npy(_bordered())
_HEADER = len(_GOOD) - _bordered().nbytes
_NU = np.array([[0.1, 0.5, 1.0], [0.2, 0.0, 0.0]])

# malformed binary artifacts, as (reader kind, file bytes); `analyze` reads
# the matrix kind from field.npy and w.npy and the nu kind from nu.npy
MALFORMED_NPY = {
    "matrix": ("matrix", _GOOD[:-5]),                  # truncated body
    "matrix-empty": ("matrix", b""),
    "matrix-header-only": ("matrix", _GOOD[:_HEADER]),
    "matrix-csv-text": ("matrix", b"nan,0.1,0.2\n0.0,1.0,2.0\n"),
    "matrix-pickled": ("matrix", _npy(np.array([Tripwire()], dtype=object),
                                      allow_pickle=True)),
    "matrix-1d": ("matrix", _npy(np.arange(4.0))),
    "matrix-corner": ("matrix", _npy(_bordered(corner=0.0))),
    "matrix-fortran": ("matrix", _npy(np.asfortranarray(_bordered()))),
    "nu": ("nu", _npy(_NU[:, :2])),
    "nu-recorded-half": ("nu", _npy(np.where(_NU == 1.0, 0.5, _NU))),
}
NPY_READERS = {"matrix": read_matrix_csv, "nu": lambda p: read_nu_csv(p, 1.0)}

MALFORMED = {
    "frontier": (read_frontier_csv, b"t,lambda\n0.0,0.1\n0.1,abc\n"),
    "json": (read_json, b'{"scenario_id": "x", "alpha": '),
    "jumps": (read_jumps_json, b'[{"t": 0.1, "lambda_minus": 0.2}]'),
    **{name: (NPY_READERS[kind], data)
       for name, (kind, data) in MALFORMED_NPY.items()},
}


def test_unbroken_npy_cases_read(tmp_path):
    # so each malformed case fails by what it breaks
    (tmp_path / "m.npy").write_bytes(_GOOD)
    (tmp_path / "n.npy").write_bytes(_npy(_NU))
    x, t, values = read_matrix_csv(tmp_path / "m.npy")
    assert same_bits(values, _bordered()[1:, 1:])
    assert np.array_equal(read_nu_csv(tmp_path / "n.npy", 1.0).recorded,
                          [True, False])


@pytest.mark.parametrize("reader", sorted(MALFORMED))
def test_malformed_artifact_is_config_error_naming_file(tmp_path, reader):
    read, data = MALFORMED[reader]
    path = tmp_path / f"{reader}.bad"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        read(path)
    assert not UNPICKLED


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        read_json(tmp_path / "absent.json")
    with pytest.raises(ConfigError, match="cannot read"):
        read_matrix_csv(tmp_path / "absent.npy")

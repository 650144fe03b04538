"""Artifact readers and writers, byte-deterministic.

The small tables are CSV and JSON text.  Numbers in CSV are written with
repr, the shortest digit string that round-trips the exact float; text files
use '.' decimals, '\\n' newlines, UTF-8.  The matrices (field, w) and the
freezing weight are binary .npy float64 arrays in np.save's format (the
matrices written in row blocks), read without unpickling, which keep every
bit of every value, NaN payloads included.  Rereading an artifact
reproduces the run bit for bit.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath, JumpRecord, WeightField
from stefanlab.potential import row_blocks


def _row(values) -> str:
    """One CSV row of float reprs.

    repr of a list of Python floats is the shortest round-trip repr of each
    element, joined by ', ', so this equals ','.join(repr(float(v)) ...)
    byte for byte while the formatting loop runs in C.
    """
    return repr(np.asarray(values, dtype=float).tolist())[1:-1].replace(", ", ",")


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _open_r(path):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None


def _expect_header(fh, path, expected: str) -> None:
    try:
        header = fh.readline().rstrip("\n")
    except ValueError as exc:  # undecodable bytes
        raise ConfigError(f"{path}: {exc}") from None
    if header != expected:
        raise ConfigError(f"{path}: expected header {expected!r}")


def _read_table(fh, path, n_cols: int) -> np.ndarray:
    """The remaining lines of fh as a float matrix with n_cols columns."""
    try:
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if data.shape[1] != n_cols:
        raise ConfigError(f"{path}: expected {n_cols} columns,"
                          f" found {data.shape[1]}")
    return data


def write_frontier_csv(path, frontier: FrontierPath) -> None:
    with _open_w(path) as fh:
        fh.write("t,lambda\n")
        for row in np.column_stack((frontier.times, frontier.lam)):
            fh.write(_row(row) + "\n")


def read_frontier_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with _open_r(path) as fh:
        _expect_header(fh, path, "t,lambda")
        data = _read_table(fh, path, 2)
    return data[:, 0], data[:, 1]


def _save(path, a: np.ndarray) -> None:
    # through a file handle: np.save given a path appends '.npy' to it
    with open(path, "wb") as fh:
        np.save(fh, a, allow_pickle=False)


def _header(path) -> tuple[tuple[int, int], int]:
    """(shape, offset of the data) of the .npy file at path, whose header
    must be a v1 or v2 one of a 2-d C-ordered float64 array and whose
    length must match it; only the header is parsed, nothing unpickled."""
    fmt = np.lib.format
    try:
        with open(path, "rb") as fh:
            version = fmt.read_magic(fh)
            read_header = {(1, 0): fmt.read_array_header_1_0,
                           (2, 0): fmt.read_array_header_2_0}.get(version)
            if read_header is None:
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = read_header(fh)
            offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    if len(shape) != 2 or dtype != np.float64 or fortran_order:
        raise ConfigError(f"{path}: expected a 2-d C-ordered float64 .npy array")
    if size != offset + 8 * shape[0] * shape[1]:
        raise ConfigError(f"{path}: cannot read: file length does not match"
                          f" its {shape[0]} x {shape[1]} header")
    return shape, offset


def _read(path, offset: int, out: np.ndarray) -> np.ndarray:
    """out, filled with the file at path's bytes from offset on."""
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            n = fh.readinto(out)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    if n != out.nbytes:
        raise ConfigError(f"{path}: cannot read: file is truncated")
    return out


def _load(path) -> np.ndarray:
    """The 2-d float64 array stored in the .npy file at path."""
    shape, offset = _header(path)
    return _read(path, offset, np.empty(shape))


# The four functions below keep "csv" in their names and take the file path
# first: perfbench/spans.py looks them up by name and sizes each file from
# the first argument.

def write_matrix_csv(path, x: np.ndarray, t: np.ndarray, values) -> None:
    """Matrix layout in .npy: first row holds x, first column holds t,
    corner is nan.

    values is the (len(t), len(x)) matrix, walked by potential.row_blocks,
    or an iterable of (lo, rows) blocks that give its rows lo, lo + 1, ...
    and cover each row once, in any order (potential.w_rows).  The header
    is written first, then each block, bordered by its t, at its own row
    of the file, so no bordered copy of the whole matrix is made; the
    bytes are np.save's of that copy.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    nt, nx = len(t), len(x)
    blocks = values
    if isinstance(values, np.ndarray):
        if values.shape != (nt, nx):
            raise ConfigError("matrix shape does not match axes")
        blocks = row_blocks(values)
    row_bytes = 8 * (nx + 1)
    buf = np.empty((0, nx + 1))
    covered = 0
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(buf.dtype),
            "fortran_order": False, "shape": (nt + 1, nx + 1)})
        start = fh.tell()
        fh.write(np.concatenate(([np.nan], x)).tobytes())
        for lo, rows in blocks:
            k = len(rows)
            if rows.shape != (k, nx) or not 0 <= lo <= nt - k:
                raise ConfigError("matrix block does not match axes")
            if len(buf) < k:
                buf = np.empty((k, nx + 1))
            block = buf[:k]
            block[:, 0] = t[lo:lo + k]
            block[:, 1:] = rows
            fh.seek(start + (1 + lo) * row_bytes)
            fh.write(block)
            covered += k
    if covered != nt:
        raise ConfigError("matrix blocks do not cover its rows")


def read_matrix_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, t, values) of a matrix file, views of the one array loaded."""
    a = _load(path)
    if a.size == 0 or not np.isnan(a[0, 0]):
        raise ConfigError(f"{path}: corner cell must be nan")
    return a[0, 1:], a[1:, 0], a[1:, 1:]


class MatrixRows:
    """The values of a matrix file on the axes x and t, read by row slices.

    rows[lo:hi] opens the file, reads rows lo..hi-1, bordered by their
    times, from their own offset into one buffer that the next slice
    reuses, and returns the values; so a consumer that walks the rows
    block by block holds one block, never the whole matrix.  Making one
    checks the header (a 2-d C-ordered float64 .npy array of len(t) + 1
    rows and len(x) + 1 columns), the file's length, the nan corner and
    the x row against x; each slice checks its times against t.  Any of
    these that fails is a ConfigError naming the file.
    """

    def __init__(self, path, x: np.ndarray, t: np.ndarray):
        self.path, self._t = path, np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        self.shape = nt, nx = len(self._t), len(x)
        shape, self._start = _header(path)
        if shape != (nt + 1, nx + 1):
            raise ConfigError(f"{path}: a {shape[0] - 1} x {shape[1] - 1} matrix,"
                              f" not {nt} x {nx} on the given axes")
        self._buf = _read(path, self._start, np.empty((1, nx + 1)))
        if not np.isnan(self._buf[0, 0]):
            raise ConfigError(f"{path}: corner cell must be nan")
        if not np.array_equal(self._buf[0, 1:], x):
            raise ConfigError(f"{path}: its x row is not the given x axis")

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(self.shape[0])
        if len(self._buf) < hi - lo:
            self._buf = np.empty((hi - lo, self.shape[1] + 1))
        # the values' row lo, bordered, is the file's row 1 + lo
        block = _read(self.path, self._start + 8 * (1 + lo) * (self.shape[1] + 1),
                      self._buf[:hi - lo])
        if not np.array_equal(block[:, 0], self._t[lo:hi]):
            raise ConfigError(f"{self.path}: its t column is not the given t axis"
                              f" on rows {lo} to {hi - 1}")
        return block[:, 1:]


def write_nu_csv(path, nu: WeightField) -> None:
    """Columns x, nu, recorded (1.0 or 0.0)."""
    _save(path, np.column_stack((nu.x, nu.nu, nu.recorded)).astype(float))


def read_nu_csv(path, alpha: float) -> WeightField:
    a = _load(path)
    if a.shape[1] != 3:
        raise ConfigError(f"{path}: expected 3 columns, found {a.shape[1]}")
    recorded = a[:, 2]
    if not np.all((recorded == 0.0) | (recorded == 1.0)):
        raise ConfigError(f"{path}: recorded must be 0 or 1")
    return WeightField(x=a[:, 0].copy(), nu=a[:, 1].copy(), alpha=alpha,
                       recorded=recorded == 1.0)


def write_profile_csv(path, profile) -> None:
    with _open_w(path) as fh:
        fh.write("x,s,s_prime,label,boundary_value\n")
        floats = np.column_stack((profile.x, profile.s, profile.s_prime,
                                  profile.boundary_value))
        for row, lb in zip(floats, profile.labels):
            fh.write(f"{_row(row[:3])},{lb},{_row(row[3:])}\n")


def jsonify(obj):
    """Make an object JSON-safe: numpy scalars to python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def write_json(path, obj) -> None:
    with _open_w(path) as fh:
        json.dump(jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with _open_r(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise ConfigError(f"{path}: {exc}") from None


def write_jumps_json(path, jumps: list[JumpRecord]) -> None:
    write_json(path, [rec.to_dict() for rec in jumps])


def read_jumps_json(path) -> list[JumpRecord]:
    raw = read_json(path)
    if not isinstance(raw, list) or not all(isinstance(i, dict) for i in raw):
        raise ConfigError(f"{path}: expected a JSON array of jump objects")
    out = []
    for item in raw:
        try:
            out.append(JumpRecord(
                t=item["t"], lambda_minus=item["lambda_minus"],
                lambda_plus=item["lambda_plus"], mass=item.get("mass", 0.0),
                pre_jump_boundary_value=(item.get("pre_jump_boundary_value")
                                         if item.get("pre_jump_boundary_value") is not None
                                         else float("nan"))))
        except KeyError as exc:
            raise ConfigError(f"{path}: jump record is missing {exc}") from None
    return out


def write_field_artifacts(outdir, frontier: FrontierPath, field: Field,
                          nu: WeightField | None = None,
                          w=None, profile=None) -> list[str]:
    """Write the per-run artifact set into outdir (created if needed).

    w, when given, is the potential's values on field's lattice, as
    write_matrix_csv takes them: the matrix or its row blocks.  Returns the
    names of the files written.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_frontier_csv(out / "frontier.csv", frontier)
    write_matrix_csv(out / "field.npy", field.x, field.t, field.values)
    write_jumps_json(out / "jumps.json", frontier.jumps)
    names = ["frontier.csv", "field.npy", "jumps.json"]
    if nu is not None:
        write_nu_csv(out / "nu.npy", nu)
        names.append("nu.npy")
    if w is not None:
        write_matrix_csv(out / "w.npy", field.x, field.t, w)
        names.append("w.npy")
    if profile is not None:
        write_profile_csv(out / "profile.csv", profile)
        names.append("profile.csv")
    return names

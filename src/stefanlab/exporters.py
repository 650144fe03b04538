"""Artifact readers and writers: plain CSV and JSON, byte-deterministic.

Numbers are written with repr, the shortest digit string that round-trips
the exact float, so rereading an artifact reproduces the run bit for bit.
All files use '.' decimals, '\\n' newlines, UTF-8.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from stefanlab.errors import ConfigError
from stefanlab.fields import Field, FrontierPath, JumpRecord, WeightField


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


def _first_line(fh, path) -> str:
    try:
        return fh.readline().rstrip("\n")
    except ValueError as exc:  # undecodable bytes
        raise ConfigError(f"{path}: {exc}") from None


def _expect_header(fh, path, expected: str) -> None:
    if _first_line(fh, path) != expected:
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


def write_matrix_csv(path, x: np.ndarray, t: np.ndarray, values: np.ndarray) -> None:
    """Matrix layout: first row holds x, first column holds t, corner is nan."""
    if values.shape != (len(t), len(x)):
        raise ConfigError("matrix shape does not match axes")
    # one row formatted at a time: the whole matrix as text would be several
    # times its float size
    with _open_w(path) as fh:
        fh.write("nan," + _row(x) + "\n")
        for tv, row in zip(t, values):
            fh.write(repr(float(tv)) + "," + _row(row) + "\n")


def read_matrix_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with _open_r(path) as fh:
        head = _first_line(fh, path).split(",")
        if head[0] != "nan":
            raise ConfigError(f"{path}: corner cell must be nan")
        try:
            x = np.array(head[1:], dtype=float)
        except ValueError as exc:
            raise ConfigError(f"{path}: header: {exc}") from None
        data = _read_table(fh, path, len(x) + 1)
    return x, data[:, 0].copy(), data[:, 1:].copy()


def write_nu_csv(path, nu: WeightField) -> None:
    with _open_w(path) as fh:
        fh.write("x,nu,recorded\n")
        for row, rv in zip(np.column_stack((nu.x, nu.nu)), nu.recorded):
            fh.write(f"{_row(row)},{int(rv)}\n")


def read_nu_csv(path, alpha: float) -> WeightField:
    with _open_r(path) as fh:
        _expect_header(fh, path, "x,nu,recorded")
        data = _read_table(fh, path, 3)
    return WeightField(x=data[:, 0], nu=data[:, 1], alpha=alpha,
                       recorded=data[:, 2].astype(bool))


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

    Returns the names of the files written.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_frontier_csv(out / "frontier.csv", frontier)
    write_matrix_csv(out / "field.csv", field.x, field.t, field.values)
    write_jumps_json(out / "jumps.json", frontier.jumps)
    names = ["frontier.csv", "field.csv", "jumps.json"]
    if nu is not None:
        write_nu_csv(out / "nu.csv", nu)
        names.append("nu.csv")
    if w is not None:
        write_matrix_csv(out / "w.csv", w.x, w.t, w.w)
        names.append("w.csv")
    if profile is not None:
        write_profile_csv(out / "profile.csv", profile)
        names.append("profile.csv")
    return names

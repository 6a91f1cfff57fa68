"""Binary persistence of trajectories: the package's one file format.

Layout of format version 2, all little-endian:

    bytes 0..3   magic "AFLW"
    u32          format version (2)
    u32          dim
    u32          n (points per axis)
    f64 x 5      alpha, eta, lambda, epsilon, delta
    u32 + bytes  length, then the JSON config echo
    u64          snapshot count
    per snapshot f64 t, then ``u.hat`` and ``sigma.hat`` as complex128
                 (``<c16``) in ``Grid.spectral_shape`` order: the
                 velocity components (dim blocks of the 2/3-rule band),
                 then the stress upper triangle (dim*(dim+1)/2 blocks)
    u64          diagnostic count, then one f64 array per diagnostic key

A snapshot stores exactly the band every field holds in memory, so
writing and reading run no transform, and a read-back trajectory has
the integrated coefficients bit for bit: write, read and write again
reproduce the file.  Version 1 files, whose snapshots hold the
real-space samples (``<f8``, row-major, same component order), are
still read; their samples are transformed onto the band.  Only version
2 is written.

Reading rejects a file without snapshots, whose header and embedded
config disagree on dim, n or a physical parameter, whose snapshot times
do not strictly increase, or whose snapshot holds a non-finite number.
A file's final snapshot is also a restart state (``initial_condition``).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .config import PHYSICS_KEYS, config_from_dict, config_to_dict, physics
from .errors import (
    CheckpointFormatError,
    CheckpointTruncated,
    CheckpointVersionError,
)
from .fields import StressField, VelocityField, upper_indices
from .solver import DIAG_KEYS, SolverState, Trajectory
from .spectral import Grid

MAGIC = b"AFLW"
VERSION = 2
#: the retired layout with real-space samples per snapshot, still read
SAMPLES_VERSION = 1


def _read_exact(stream, count: int, what: str) -> bytes:
    data = stream.read(count)
    if len(data) != count:
        raise CheckpointTruncated(
            f"file ended while reading {what} ({len(data)} of {count} bytes)"
        )
    return data


def _write_array(stream, values: np.ndarray, dtype: str = "<f8") -> None:
    stream.write(np.ascontiguousarray(values, dtype=dtype).data)


def _read_array(stream, shape, what: str, dtype: str = "<f8") -> np.ndarray:
    count = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = _read_exact(stream, count, what)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _write_header(stream, dim: int, n: int) -> None:
    stream.write(MAGIC)
    stream.write(struct.pack("<III", VERSION, dim, n))


def _read_header(stream) -> tuple[int, int, int]:
    magic = _read_exact(stream, 4, "magic bytes")
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, dim, n = struct.unpack("<III", _read_exact(stream, 12, "header"))
    if version not in (VERSION, SAMPLES_VERSION):
        raise CheckpointVersionError(
            f"unsupported format version {version}, expected {VERSION} "
            f"(or {SAMPLES_VERSION}, which is still read)"
        )
    return version, dim, n


def _write_fields(stream, u: VelocityField, sigma: StressField) -> None:
    _write_array(stream, u.hat, "<c16")
    _write_array(stream, sigma.hat, "<c16")


def _read_fields(stream, grid: Grid, version: int, where: str):
    """One snapshot's fields: the stored band, or a version 1 file's samples."""
    if version == SAMPLES_VERSION:
        shape, dtype = grid.shape, "<f8"
    else:
        shape, dtype = grid.spectral_shape, "<c16"
    n_upper = len(upper_indices(grid.dim))
    u_data = _read_array(stream, (grid.dim,) + shape,
                         f"velocity components of {where}", dtype)
    s_data = _read_array(stream, (n_upper,) + shape, f"stress entries of {where}", dtype)
    if not (np.all(np.isfinite(u_data)) and np.all(np.isfinite(s_data))):
        raise CheckpointFormatError(f"{where} holds a non-finite number")
    if version == SAMPLES_VERSION:
        return (VelocityField.from_values(grid, u_data, check=False),
                StressField.from_entry_values(grid, s_data))
    return VelocityField(grid, u_data, check=False), StressField(grid, s_data)


def write_trajectory(trajectory: Trajectory, path) -> None:
    cfg = trajectory.config
    grid = trajectory.grid
    with open(path, "wb") as stream:
        _write_header(stream, grid.dim, grid.n)
        stream.write(struct.pack("<5d", cfg.alpha, cfg.eta, cfg.lam,
                                 cfg.epsilon, cfg.delta))
        blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode("utf-8")
        stream.write(struct.pack("<I", len(blob)))
        stream.write(blob)
        stream.write(struct.pack("<Q", len(trajectory.snapshots)))
        for snap in trajectory.snapshots:
            stream.write(struct.pack("<d", snap.t))
            _write_fields(stream, snap.u, snap.sigma)
        n_diag = len(trajectory.diag.get("t", ()))
        stream.write(struct.pack("<Q", n_diag))
        for key in DIAG_KEYS:
            _write_array(stream, trajectory.diag.get(key, np.zeros(n_diag)))


def read_trajectory(path) -> Trajectory:
    with open(path, "rb") as stream:
        version, dim, n = _read_header(stream)
        grid = Grid(dim, n)
        alpha, eta, lam, epsilon, delta = struct.unpack(
            "<5d", _read_exact(stream, 40, "parameter block"))
        (blob_len,) = struct.unpack("<I", _read_exact(stream, 4, "config length"))
        blob = _read_exact(stream, blob_len, "config echo")
        try:
            doc = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # also covers UnicodeDecodeError
            raise CheckpointFormatError(f"config echo is not valid JSON: {exc}") from None
        cfg = config_from_dict(doc)
        header = dict(zip(PHYSICS_KEYS, (dim, n, alpha, eta, lam, epsilon, delta)))
        stated = physics(cfg)
        diffs = [f"{key} {value} vs {stated[key]}"
                 for key, value in header.items() if value != stated[key]]
        if diffs:
            raise CheckpointFormatError(
                "header disagrees with the embedded config on " + ", ".join(diffs))
        (n_snaps,) = struct.unpack("<Q", _read_exact(stream, 8, "snapshot count"))
        if n_snaps == 0:
            raise CheckpointFormatError("a trajectory file holds at least one snapshot")
        snapshots = []
        last_t = -np.inf
        for index in range(n_snaps):
            (t,) = struct.unpack("<d", _read_exact(stream, 8, "snapshot time"))
            if not t > last_t:
                raise CheckpointFormatError(
                    f"snapshot times must strictly increase, got {t} after {last_t}")
            last_t = t
            u, sigma = _read_fields(stream, grid, version, f"snapshot {index} (t={t})")
            snapshots.append(SolverState(t=t, u=u, sigma=sigma))
        (n_diag,) = struct.unpack("<Q", _read_exact(stream, 8, "diagnostic count"))
        diag = {key: _read_array(stream, (n_diag,), f"diagnostic {key}")
                for key in DIAG_KEYS}
    return Trajectory(config=cfg, snapshots=snapshots, diag=diag)

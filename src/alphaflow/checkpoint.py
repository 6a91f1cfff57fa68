"""Binary persistence of trajectories: the package's one file format.

Layout, all little-endian:

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
reproduce the file.  A file of any other format version is rejected.

Reading rejects a file without snapshots or shorter than the snapshots
it declares (before reading any), whose header holds no valid grid,
whose config echo is no valid config, whose header and config echo
disagree on dim, n or a physical parameter, whose snapshot times do not
strictly increase, or whose snapshot holds a non-finite number,
a velocity that fails its own divergence check, or a band whose
``k_last = 0`` plane is not Hermitian to ``HERMITIAN_TOL`` times its
largest coefficient.
A file's final snapshot is also a restart state (``initial_condition``).
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .config import PHYSICS_KEYS, config_from_dict, config_to_dict, physics, physics_mismatch
from . import spectral as sp
from .errors import (
    CheckpointFormatError,
    CheckpointTruncated,
    CheckpointVersionError,
    ConfigurationError,
    ContractViolation,
)
from .fields import StressField, VelocityField
from .solver import DIAG_KEYS, SolverState, Trajectory
from .spectral import Grid

MAGIC = b"AFLW"
VERSION = 2
#: largest Hermitian defect of a stored band, relative to its largest coefficient
HERMITIAN_TOL = 1e-12


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


def _read_header(stream) -> tuple[int, int]:
    magic = _read_exact(stream, 4, "magic bytes")
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, dim, n = struct.unpack("<III", _read_exact(stream, 12, "header"))
    if version != VERSION:
        raise CheckpointVersionError(
            f"unsupported format version {version}, expected {VERSION}")
    try:
        Grid.validate(dim, n)
    except ConfigurationError as exc:
        raise CheckpointFormatError(f"header holds no valid grid: {exc}") from None
    return dim, n


def _read_fields(stream, grid: Grid, where: str):
    """One snapshot's fields, read from their stored bands."""
    band = grid.spectral_shape
    u_data = _read_array(stream, (grid.dim,) + band,
                         f"velocity components of {where}", "<c16")
    s_data = _read_array(stream, (StressField.components(grid.dim),) + band,
                         f"stress entries of {where}", "<c16")
    if not (np.all(np.isfinite(u_data)) and np.all(np.isfinite(s_data))):
        raise CheckpointFormatError(f"{where} holds a non-finite number")
    for name, data in (("velocity", u_data), ("stress", s_data)):
        defect = sp.hermitian_defect(grid, data)
        if defect > HERMITIAN_TOL * np.max(np.abs(data)):
            raise CheckpointFormatError(
                f"{where}: the {name} coefficients on the k_last = 0 plane are not "
                f"Hermitian (defect {defect:.3e})")
    try:
        u = VelocityField(grid, u_data)
    except ContractViolation as exc:
        raise CheckpointFormatError(f"{where}: {exc}") from None
    return u, StressField(grid, s_data)


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
            _write_array(stream, snap.u.hat, "<c16")
            _write_array(stream, snap.sigma.hat, "<c16")
        n_diag = len(trajectory.diag.get("t", ()))
        stream.write(struct.pack("<Q", n_diag))
        for key in DIAG_KEYS:
            _write_array(stream, trajectory.diag.get(key, np.zeros(n_diag)))


def read_trajectory(path) -> Trajectory:
    with open(path, "rb") as stream:
        dim, n = _read_header(stream)
        alpha, eta, lam, epsilon, delta = struct.unpack(
            "<5d", _read_exact(stream, 40, "parameter block"))
        (blob_len,) = struct.unpack("<I", _read_exact(stream, 4, "config length"))
        blob = _read_exact(stream, blob_len, "config echo")
        try:
            doc = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # also covers UnicodeDecodeError
            raise CheckpointFormatError(f"config echo is not valid JSON: {exc}") from None
        try:
            cfg = config_from_dict(doc)
        except ConfigurationError as exc:
            raise CheckpointFormatError(f"config echo is no valid config: {exc}") from None
        header = dict(zip(PHYSICS_KEYS, (dim, n, alpha, eta, lam, epsilon, delta)))
        diffs = physics_mismatch(header, physics(cfg))
        if diffs:
            raise CheckpointFormatError(
                "header disagrees with the embedded config on " + diffs)
        (n_snaps,) = struct.unpack("<Q", _read_exact(stream, 8, "snapshot count"))
        if n_snaps == 0:
            raise CheckpointFormatError("a trajectory file holds at least one snapshot")
        # refuse a short file before sizing any work from its header
        entries = VelocityField.components(dim) + StressField.components(dim)
        payload = n_snaps * (8 + 16 * entries * int(np.prod(sp.band_shape(dim, n))))
        left = os.fstat(stream.fileno()).st_size - stream.tell()
        if payload > left:
            raise CheckpointTruncated(f"{n_snaps} snapshots need {payload} bytes, "
                                      f"the file holds {left} more")
        grid = Grid(dim, n)
        snapshots = []
        last_t = -np.inf
        for index in range(n_snaps):
            (t,) = struct.unpack("<d", _read_exact(stream, 8, "snapshot time"))
            if not t > last_t:
                raise CheckpointFormatError(
                    f"snapshot times must strictly increase, got {t} after {last_t}")
            last_t = t
            u, sigma = _read_fields(stream, grid, f"snapshot {index} (t={t})")
            snapshots.append(SolverState(t=t, u=u, sigma=sigma))
        (n_diag,) = struct.unpack("<Q", _read_exact(stream, 8, "diagnostic count"))
        diag = {key: _read_array(stream, (n_diag,), f"diagnostic {key}")
                for key in DIAG_KEYS}
    return Trajectory(config=cfg, snapshots=snapshots, diag=diag)

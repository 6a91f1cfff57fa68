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
largest coefficient.  Snapshots are read and checked one checker chunk
(``dissipative.chunk_length``) at a time, each check once per chunk, and
an error names the first snapshot that fails.
A file's final snapshot is also a restart state (``initial_condition``).
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .config import PHYSICS_KEYS, config_from_dict, config_to_dict, physics, physics_mismatch
from . import spectral as sp
from .dissipative import chunk_length
from .errors import (
    CheckpointFormatError,
    CheckpointTruncated,
    CheckpointVersionError,
    ConfigurationError,
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


def _read_snapshots(stream, grid: Grid, count: int, what: str) -> np.ndarray:
    """``count`` stored snapshots as records of fields ``t``, ``u`` and ``sigma``."""
    band = grid.spectral_shape
    record = np.dtype([("t", "<f8"), ("u", "<c16", (grid.dim,) + band),
                       ("sigma", "<c16", (StressField.components(grid.dim),) + band)])
    records = np.empty(count, dtype=record)
    got = stream.readinto(records)
    if got != records.nbytes:
        raise CheckpointTruncated(
            f"file ended while reading {what} ({got} of {records.nbytes} bytes)")
    return records


def _first_failure(grid: Grid, times: list[float], last_t: float, wheres: list[str],
                   u: np.ndarray, s: np.ndarray) -> str | None:
    """The error of the first of a run of snapshots to fail its checks, or None.

    ``u`` and ``s`` hold the run's bands with a time axis, ``(C, T, *band)``.
    A snapshot's checks, in order: its time against the one before, its
    numbers for finiteness, each stored ``k_last = 0`` plane for Hermitian
    symmetry, and its velocity's divergence.  Each check runs once over
    the run (the checks after finiteness only over the snapshots before
    the first non-finite one), and the first snapshot that fails one gets
    the error its first failing check would raise alone.
    """
    firsts = []  # (snapshot, message) of each check's first failure, in check order
    previous = [last_t] + times[:-1]
    late = [i for i, (t, before) in enumerate(zip(times, previous)) if not t > before]
    if late:
        firsts.append((late[0], f"snapshot times must strictly increase, got "
                                f"{times[late[0]]} after {previous[late[0]]}"))
    axes = (0,) + tuple(range(2, u.ndim))
    finite = np.isfinite(u).all(axis=axes) & np.isfinite(s).all(axis=axes)
    stop = len(times) if finite.all() else int(np.argmin(finite))
    if stop < len(times):
        firsts.append((stop, f"{wheres[stop]} holds a non-finite number"))
    if stop:
        u, s = u[:, :stop], s[:, :stop]
        for name, data in (("velocity", u), ("stress", s)):
            defect = sp.hermitian_defect(grid, data)
            bad = np.flatnonzero(defect > HERMITIAN_TOL * np.max(np.abs(data), axis=axes))
            if bad.size:
                firsts.append((bad[0], f"{wheres[bad[0]]}: the {name} coefficients on the "
                                       f"k_last = 0 plane are not Hermitian "
                                       f"(defect {defect[bad[0]]:.3e})"))
        failure = VelocityField.wrap(grid, u).divergence_failure()
        if failure is not None:
            firsts.append((failure[0], f"{wheres[failure[0]]}: {failure[1]}"))
    return min(firsts, key=lambda first: first[0])[1] if firsts else None


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
        # snapshots are read, then checked, one checker chunk at a time
        step = chunk_length(grid)
        for start in range(0, n_snaps, step):
            chunk = _read_snapshots(stream, grid, min(step, n_snaps - start),
                                    f"snapshots from {start}")
            times = chunk["t"].tolist()
            wheres = [f"snapshot {start + i} (t={t})" for i, t in enumerate(times)]
            failure = _first_failure(grid, times, last_t, wheres,
                                     np.moveaxis(chunk["u"], 0, 1),
                                     np.moveaxis(chunk["sigma"], 0, 1))
            if failure is not None:
                raise CheckpointFormatError(failure)
            last_t = times[-1]
            snapshots += [SolverState(t=t, u=VelocityField.wrap(grid, u_hat),
                                      sigma=StressField(grid, s_hat))
                          for t, u_hat, s_hat in zip(times, chunk["u"], chunk["sigma"])]
        (n_diag,) = struct.unpack("<Q", _read_exact(stream, 8, "diagnostic count"))
        diag = {key: _read_array(stream, (n_diag,), f"diagnostic {key}")
                for key in DIAG_KEYS}
    return Trajectory(config=cfg, snapshots=snapshots, diag=diag)

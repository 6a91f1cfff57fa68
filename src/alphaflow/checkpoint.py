"""Binary persistence of solver states and trajectories.

Checkpoint layout (one state), all little-endian:

    bytes 0..3   magic "AFLW"
    u32          format version (currently 1)
    u32          dim
    u32          n (points per axis)
    f64 x 6      t, alpha, eta, lambda, epsilon, delta
    f64 arrays   velocity components (dim blocks of n^dim, row-major,
                 real space), then stress upper triangle (dim*(dim+1)/2
                 blocks)

A trajectory file shares the header (with t omitted), then embeds the
JSON config echo, the snapshot count, one t + field block per snapshot,
and the per-step diagnostic arrays.  Reading rejects a file whose
header and embedded config disagree on dim, n or a physical parameter,
or whose snapshot times do not strictly increase.
Round-trips are bit-exact: fields cache their real-space samples, so
read-then-write reproduces the file.
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
from .fields import StressField, VelocityField, energy, upper_indices
from .solver import DIAG_KEYS, Snapshot, SolverState, Trajectory
from .spectral import Grid

MAGIC = b"AFLW"
VERSION = 1


def _read_exact(stream, count: int, what: str) -> bytes:
    data = stream.read(count)
    if len(data) != count:
        raise CheckpointTruncated(
            f"file ended while reading {what} ({len(data)} of {count} bytes)"
        )
    return data


def _write_array(stream, values: np.ndarray) -> None:
    stream.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _read_array(stream, shape, what: str) -> np.ndarray:
    count = int(np.prod(shape))
    raw = _read_exact(stream, 8 * count, what)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


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
            f"unsupported format version {version}, expected {VERSION}"
        )
    return dim, n


def _write_fields(stream, u: VelocityField, sigma: StressField) -> None:
    _write_array(stream, u.values)
    _write_array(stream, sigma.values)


def _read_fields(stream, grid: Grid):
    u_vals = _read_array(stream, (grid.dim,) + grid.shape, "velocity components")
    n_upper = len(upper_indices(grid.dim))
    s_vals = _read_array(stream, (n_upper,) + grid.shape, "stress entries")
    u = VelocityField.from_values(grid, u_vals, check=False)
    sigma = StressField.from_entry_values(grid, s_vals)
    return u, sigma


def write_state(path, state: SolverState, params_tuple) -> None:
    """Write a single-state checkpoint.

    ``params_tuple`` is (alpha, eta, lambda, epsilon, delta) echoed into
    the header.
    """
    grid = state.u.grid
    with open(path, "wb") as stream:
        _write_header(stream, grid.dim, grid.n)
        stream.write(struct.pack("<6d", state.t, *params_tuple))
        _write_fields(stream, state.u, state.sigma)


def read_state(path) -> tuple[SolverState, tuple]:
    with open(path, "rb") as stream:
        dim, n = _read_header(stream)
        grid = Grid(dim, n)
        t, alpha, eta, lam, epsilon, delta = struct.unpack(
            "<6d", _read_exact(stream, 48, "parameter block"))
        u, sigma = _read_fields(stream, grid)
    state = SolverState(t=t, u=u, sigma=sigma)
    return state, (alpha, eta, lam, epsilon, delta)


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
        dim, n = _read_header(stream)
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
        params = cfg.params
        snapshots = []
        last_t = -np.inf
        for _ in range(n_snaps):
            (t,) = struct.unpack("<d", _read_exact(stream, 8, "snapshot time"))
            if not t > last_t:
                raise CheckpointFormatError(
                    f"snapshot times must strictly increase, got {t} after {last_t}")
            last_t = t
            u, sigma = _read_fields(stream, grid)
            snapshots.append(Snapshot(t=t, u=u, sigma=sigma,
                                      energy=energy(u, sigma, params)))
        (n_diag,) = struct.unpack("<Q", _read_exact(stream, 8, "diagnostic count"))
        diag = {key: _read_array(stream, (n_diag,), f"diagnostic {key}")
                for key in DIAG_KEYS}
    return Trajectory(config=cfg, snapshots=snapshots, diag=diag)

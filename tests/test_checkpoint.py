"""Binary checkpoint / trajectory files: layout, round-trips, errors."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaflow.checkpoint import (
    MAGIC,
    read_state,
    read_trajectory,
    write_state,
    write_trajectory,
)
from alphaflow.errors import (
    CheckpointFormatError,
    CheckpointTruncated,
    CheckpointVersionError,
)
from alphaflow.fields import random_divfree, random_stress
from alphaflow.solver import SimConfig, SolverState, run
from alphaflow.spectral import Grid, to_spectral


@pytest.fixture(scope="module")
def trajectory():
    cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.02,
                    epsilon=1e-3, delta=1.0, initial_condition="random-spectrum",
                    snapshot_stride=5, seed=5)
    return run(cfg)


class TestStateCheckpoint:
    def test_header_layout(self, tmp_path):
        grid = Grid(2, 16)
        state = SolverState(t=0.25, u=random_divfree(grid, seed=1),
                            sigma=random_stress(grid, seed=2))
        path = tmp_path / "state.chk"
        write_state(path, state, (1.0, 2.0, 3.0, 0.5, 0.75))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, dim, n = struct.unpack("<III", raw[4:16])
        assert (version, dim, n) == (1, 2, 16)
        floats = struct.unpack("<6d", raw[16:64])
        assert floats == (0.25, 1.0, 2.0, 3.0, 0.5, 0.75)
        # header + velocity (2 * 16^2) + stress upper triangle (3 * 16^2)
        assert len(raw) == 64 + 8 * (2 + 3) * 16**2

    def test_round_trip(self, tmp_path):
        grid = Grid(2, 16)
        state = SolverState(t=0.125, u=random_divfree(grid, seed=3),
                            sigma=random_stress(grid, seed=4))
        path = tmp_path / "state.chk"
        write_state(path, state, (1.0, 1.0, 1.0, 0.0, 1.0))
        loaded, params = read_state(path)
        assert params == (1.0, 1.0, 1.0, 0.0, 1.0)
        assert loaded.t == 0.125
        assert np.array_equal(loaded.u.values, state.u.values)
        assert np.array_equal(loaded.sigma.values, state.sigma.values)


class TestRoundTripProperties:
    @settings(derandomize=True, deadline=None, database=None, max_examples=16)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16]),
           seed=st.integers(0, 2**16))
    def test_state_values_bit_identical(self, tmp_path_factory, dim, n, seed):
        grid = Grid(dim, n)
        state = SolverState(t=0.5, u=random_divfree(grid, seed=seed, spectrum_decay=2.5),
                            sigma=random_stress(grid, seed=seed + 1, spectrum_decay=2.5))
        path = tmp_path_factory.mktemp("state") / "state.chk"
        write_state(path, state, (1.0, 1.0, 1.0, 0.0, 1.0))
        loaded, _ = read_state(path)
        for old, new in ((state.u, loaded.u), (state.sigma, loaded.sigma)):
            assert new.values.tobytes() == old.values.tobytes()
            expected = to_spectral(grid, new.values)
            if new is loaded.u:  # velocity fields pin their mean to zero
                expected[(slice(None),) + (0,) * dim] = 0.0
            assert np.array_equal(new.hat, expected)

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 16), (3, 8), (3, 16)])
    def test_run_trajectory_rewrite_byte_identical(self, tmp_path, dim, n):
        cfg = SimConfig(n=n, dim=dim, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3,
                        t_end=0.004, epsilon=1e-3, stress_init="random",
                        snapshot_stride=2, seed=dim * n)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        write_trajectory(run(cfg), first)
        write_trajectory(read_trajectory(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestTrajectoryFile:
    def test_write_read_equals_original_bitwise(self, tmp_path, trajectory):
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        loaded = read_trajectory(path)
        assert loaded.config == trajectory.config
        assert len(loaded.snapshots) == len(trajectory.snapshots)
        for a, b in zip(trajectory.snapshots, loaded.snapshots):
            assert a.t == b.t
            assert np.array_equal(a.u.values, b.u.values)
            assert np.array_equal(a.sigma.values, b.sigma.values)
        for key, series in trajectory.diag.items():
            assert np.array_equal(series, loaded.diag[key])

    def test_file_level_round_trip_bitwise(self, tmp_path, trajectory):
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        write_trajectory(trajectory, first)
        write_trajectory(read_trajectory(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path, trajectory):
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            read_trajectory(bad)

    def test_version_mismatch(self, tmp_path, trajectory):
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "vbad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            read_trajectory(bad)

    def test_truncated_file(self, tmp_path, trajectory):
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = path.read_bytes()
        for cut in (2, 10, 60, len(raw) // 2, len(raw) - 3):
            clipped = tmp_path / f"cut{cut}.bin"
            clipped.write_bytes(raw[:cut])
            with pytest.raises((CheckpointTruncated, CheckpointFormatError)):
                read_trajectory(clipped)

    @pytest.mark.parametrize("offset, fmt, value", [
        (8, "<I", 3),       # dim
        (12, "<I", 32),     # n
        (16, "<d", 0.2),    # alpha
        (24, "<d", 2.0),    # eta
        (32, "<d", 0.5),    # lambda
        (40, "<d", 0.0),    # epsilon
        (48, "<d", 0.5),    # delta
    ])
    def test_header_must_match_embedded_config(self, tmp_path, trajectory,
                                                offset, fmt, value):
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        size = struct.calcsize(fmt)
        assert struct.unpack(fmt, raw[offset:offset + size])[0] != value
        raw[offset:offset + size] = struct.pack(fmt, value)
        bad = tmp_path / "patched.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="disagrees"):
            read_trajectory(bad)

    def test_snapshot_times_must_strictly_increase(self, tmp_path, trajectory):
        # swapping two snapshot times used to read back silently
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        grid = trajectory.grid
        (blob_len,) = struct.unpack("<I", raw[56:60])
        first = 60 + blob_len + 8  # the first snapshot's time
        block = 8 + 8 * (grid.dim + 3) * grid.size  # time, velocity, stress entries
        assert grid.dim == 2 and len(trajectory.snapshots) >= 2
        times = [struct.unpack("<d", raw[first + i * block:first + i * block + 8])[0]
                 for i in (0, 1)]
        assert times == [s.t for s in trajectory.snapshots[:2]]
        for i, t in ((0, times[1]), (1, times[0])):
            raw[first + i * block:first + i * block + 8] = struct.pack("<d", t)
        bad = tmp_path / "swapped.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="strictly increase"):
            read_trajectory(bad)

    def test_corrupt_config_echo(self, tmp_path, trajectory):
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        raw[60] = 0xFF  # inside the JSON config echo, which starts at byte 60
        bad = tmp_path / "echo.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            read_trajectory(bad)

    def test_checkpoint_as_initial_condition(self, tmp_path, trajectory):
        # a state checkpoint can seed a run through the config path
        from alphaflow.cli import main

        final = trajectory.snapshots[-1]
        state = SolverState(t=0.0, u=final.u, sigma=final.sigma)
        chk = tmp_path / "restart.chk"
        write_state(chk, state, (1.0, 1.0, 1.0, 1e-3, 1.0))
        cfg_doc = {
            "n": 16, "alpha": 1.0, "eta": 1.0, "lambda": 1.0, "dt": 1e-3,
            "t_end": 0.002, "epsilon": 1e-3,
            "initial_condition": str(chk),
        }
        import json

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        resumed = read_trajectory(out / "trajectory.bin")
        # the run loop re-projects and re-filters ingested states, so the
        # match is to roundoff rather than bitwise
        scale = np.max(np.abs(final.u.values))
        assert np.max(np.abs(resumed.snapshots[0].u.values - final.u.values)) \
            <= 1e-13 * scale

"""Binary checkpoint / trajectory files: layout, round-trips, errors."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaflow.checkpoint import MAGIC, read_trajectory, write_trajectory
from alphaflow.config import config_to_dict
from alphaflow.dissipative import inequality_margin
from alphaflow.errors import (
    CheckpointFormatError,
    CheckpointTruncated,
    CheckpointVersionError,
)
from alphaflow.fields import StressField, VelocityField, random_divfree, random_stress
from alphaflow.operators import TestPair
from alphaflow.solver import DIAG_KEYS, SimConfig, SolverState, Trajectory, run
from alphaflow.spectral import Grid, hermitian_defect


@pytest.fixture(scope="module")
def trajectory():
    cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.02,
                    epsilon=1e-3, delta=1.0, initial_condition="random-spectrum",
                    snapshot_stride=5, seed=5)
    return run(cfg)


def _snapshot_offsets(raw: bytes, grid: Grid, count: int) -> list[int]:
    """Byte offsets of the first ``count`` snapshot times of a version 2 file."""
    (blob_len,) = struct.unpack("<I", raw[56:60])
    first = 60 + blob_len + 8
    block = 8 + 16 * (grid.dim + 3) * int(np.prod(grid.spectral_shape))
    return [first + i * block for i in range(count)]


def _with_snapshot(trajectory, index, u_hat=None, sigma_hat=None):
    """The trajectory with snapshot ``index``'s coefficients replaced, unchecked."""
    snaps = list(trajectory.snapshots)
    old = snaps[index]
    u = old.u if u_hat is None else VelocityField(old.u.grid, u_hat, check=False)
    sigma = old.sigma if sigma_hat is None else StressField(old.u.grid, sigma_hat)
    snaps[index] = SolverState(t=old.t, u=u, sigma=sigma)
    return Trajectory(config=trajectory.config, snapshots=snaps, diag=trajectory.diag)


class TestRoundTripProperties:
    @settings(derandomize=True, deadline=None, database=None, max_examples=16)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16]),
           seed=st.integers(0, 2**16))
    def test_state_values_bit_identical(self, tmp_path_factory, dim, n, seed):
        grid = Grid(dim, n)
        state = SolverState(t=0.5, u=random_divfree(grid, seed=seed, spectrum_decay=2.5),
                            sigma=random_stress(grid, seed=seed + 1, spectrum_decay=2.5))
        cfg = SimConfig(n=n, dim=dim, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.0)
        path = tmp_path_factory.mktemp("state") / "state.bin"
        write_trajectory(Trajectory(config=cfg, snapshots=[state]), path)
        (loaded,) = read_trajectory(path).snapshots
        assert loaded.t == 0.5
        for old, new in ((state.u, loaded.u), (state.sigma, loaded.sigma)):
            assert new.hat.tobytes() == old.hat.tobytes()
            assert new.values.tobytes() == old.values.tobytes()

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
            assert a.u.hat.tobytes() == b.u.hat.tobytes()
            assert a.sigma.hat.tobytes() == b.sigma.hat.tobytes()
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

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch(self, tmp_path, trajectory, version):
        # version 1, the retired real-space layout, is no longer read
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", version)
        bad = tmp_path / "vbad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError,
                           match=f"unsupported format version {version}, expected 2"):
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

    def test_disagreeing_header_builds_no_grid(self, tmp_path, trajectory):
        # n = 4096 in the header alone: its Grid took 30 MB before the check
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        raw[12:16] = struct.pack("<I", 4096)
        bad = tmp_path / "big.bin"
        bad.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointFormatError, match="disagrees"):
                read_trajectory(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_short_file_is_refused_before_sizing_work(self, tmp_path, trajectory):
        # a header and echo agreeing on n = 4096 with one snapshot declared,
        # in a few hundred bytes: the Grid and one snapshot's read took 149 MB
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[56:60])
        doc = dict(json.loads(raw[60:60 + blob_len]), n=4096)
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        short = (raw[:12] + struct.pack("<I", 4096) + raw[16:56]
                 + struct.pack("<I", len(blob)) + blob + struct.pack("<Qd", 1, 0.0))
        bad = tmp_path / "short.bin"
        bad.write_bytes(short)
        assert len(short) < 400
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointTruncated, match="1 snapshots need"):
                read_trajectory(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @staticmethod
    def _damaged_header(tmp_path, trajectory, damage):
        """The trajectory's file with dim 7, n 12 or an unknown config echo key."""
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = path.read_bytes()
        if damage == "dim":
            raw = raw[:8] + struct.pack("<I", 7) + raw[12:]
        elif damage == "n":
            raw = raw[:12] + struct.pack("<I", 12) + raw[16:]
        else:
            (blob_len,) = struct.unpack("<I", raw[56:60])
            doc = dict(json.loads(raw[60:60 + blob_len]), bogus=1)
            blob = json.dumps(doc, sort_keys=True).encode("utf-8")
            raw = raw[:56] + struct.pack("<I", len(blob)) + blob + raw[60 + blob_len:]
        bad = tmp_path / f"{damage}.bin"
        bad.write_bytes(raw)
        return bad

    @pytest.mark.parametrize("damage, message", [
        ("dim", "header holds no valid grid: dim must be 2 or 3, got 7"),
        ("n", "header holds no valid grid: points per axis must be a power of two, got 12"),
        ("echo", "config echo is no valid config: unknown config keys: bogus"),
    ])
    def test_invalid_header_or_echo_is_a_format_error(self, tmp_path, trajectory,
                                                       damage, message):
        # raised ConfigurationError before, which does not say the file is at fault
        bad = self._damaged_header(tmp_path, trajectory, damage)
        with pytest.raises(CheckpointFormatError, match=message):
            read_trajectory(bad)

    @pytest.mark.parametrize("damage", ["dim", "n", "echo"])
    def test_run_from_invalid_header_or_echo_exit_2(self, tmp_path, trajectory, capsys,
                                                     damage):
        bad = self._damaged_header(tmp_path, trajectory, damage)
        assert self._run_from(tmp_path, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not a trajectory file" in err

    def test_snapshot_times_must_strictly_increase(self, tmp_path, trajectory):
        # swapping two snapshot times used to read back silently
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        grid = trajectory.grid
        assert grid.dim == 2 and len(trajectory.snapshots) >= 2
        # a block is the time, then the velocity and stress bands as complex128
        offsets = _snapshot_offsets(raw, grid, 2)
        times = [struct.unpack("<d", raw[at:at + 8])[0] for at in offsets]
        assert times == [s.t for s in trajectory.snapshots[:2]]
        for at, t in zip(offsets, reversed(times)):
            raw[at:at + 8] = struct.pack("<d", t)
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

    def test_file_without_snapshots_rejected(self, tmp_path, trajectory):
        # it has no final state to check or to restart from
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[56:60])
        bad = tmp_path / "empty.bin"
        bad.write_bytes(raw[:60 + blob_len] + struct.pack("<QQ", 0, 0))
        with pytest.raises(CheckpointFormatError, match="at least one snapshot"):
            read_trajectory(bad)

    def test_checkpoint_as_initial_condition(self, tmp_path):
        # a run restarts from the final snapshot of a previous run's file
        from alphaflow.cli import main

        first, second = tmp_path / "first", tmp_path / "second"
        doc = {"n": 16, "alpha": 1.0, "eta": 1.0, "lambda": 1.0, "dt": 1e-3,
               "t_end": 0.02, "epsilon": 1e-3, "delta": 0.5,
               "initial_condition": "random-spectrum", "snapshot_stride": 5,
               "seed": 5}
        (tmp_path / "a.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(tmp_path / "a.json"), "--out", str(first)]) == 0
        final = read_trajectory(first / "trajectory.bin").final
        doc.update(t_end=0.002, initial_condition=str(first / "trajectory.bin"))
        (tmp_path / "b.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(tmp_path / "b.json"), "--out", str(second)]) == 0
        resumed = read_trajectory(second / "trajectory.bin")
        # taken verbatim (no delta scaling); the run loop re-projects and
        # re-filters ingested states, so the match is to roundoff
        for old, new in ((final.u, resumed.snapshots[0].u),
                         (final.sigma, resumed.snapshots[0].sigma)):
            scale = np.max(np.abs(old.values))
            assert np.max(np.abs(new.values - old.values)) <= 1e-13 * scale

    @staticmethod
    def _run_from(tmp_path, initial) -> int:
        """``alphaflow run`` at 2D n=16 from the file ``initial``."""
        from alphaflow.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 16, "alpha": 1.0, "eta": 1.0, "lambda": 1.0,
                                   "dt": 1e-3, "t_end": 0.002,
                                   "initial_condition": str(initial)}))
        return main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("dim, n", [(3, 16), (2, 32)])
    def test_initial_condition_on_another_grid_exit_2(self, tmp_path, capsys, dim, n):
        grid = Grid(dim, n)
        other = SimConfig(n=n, dim=dim, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.0)
        state = SolverState(t=0.0, u=random_divfree(grid, seed=1),
                            sigma=random_stress(grid, seed=2))
        path = tmp_path / "other.bin"
        write_trajectory(Trajectory(config=other, snapshots=[state]), path)
        assert self._run_from(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"({dim}, {n}), not (2, 16)" in err

    def test_single_state_file_as_initial_condition_exit_2(self, tmp_path, capsys):
        # the retired single-state layout: header, 6 doubles (t and the
        # physics), then the fields; it is not a trajectory file
        grid = Grid(2, 16)
        raw = MAGIC + struct.pack("<III", 1, 2, 16)
        raw += struct.pack("<6d", 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        raw += np.zeros((2 + 3,) + grid.shape).tobytes()
        path = tmp_path / "state.chk"
        path.write_bytes(raw)
        assert self._run_from(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not a trajectory file" in err
        assert "unsupported format version 1" in err


class TestBandPayload:
    """Each snapshot stores its band, so the file holds the integrated coefficients."""

    def test_file_size_is_pinned(self, tmp_path, trajectory):
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = path.read_bytes()
        grid = trajectory.grid
        assert raw[4:8] == struct.pack("<I", 2)
        (blob_len,) = struct.unpack("<I", raw[56:60])
        n_snaps, n_diag = len(trajectory.snapshots), len(trajectory.diag["t"])
        assert grid.spectral_shape == (11, 6) and (n_snaps, n_diag) == (5, 21)
        payload = 8 + 16 * (grid.dim + 3) * 66  # time, then 5 bands of 66 modes
        assert len(raw) == 60 + blob_len + 8 + n_snaps * payload + 8 \
            + 8 * len(DIAG_KEYS) * n_diag

    @pytest.mark.parametrize("pair_kind", ["self", "zero", "random"])
    def test_margin_from_the_file_equals_in_memory(self, tmp_path, trajectory, pair_kind):
        # the self-fit rhs once differed: 0 at t=0 in memory only
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        loaded = read_trajectory(path)
        reports = []
        for traj in (trajectory, loaded):
            pair = {"self": lambda: TestPair.from_trajectory(traj, degree=2),
                    "zero": lambda: TestPair.zero(traj.grid),
                    "random": lambda: TestPair.random(traj.grid, seed=3)}[pair_kind]()
            reports.append(inequality_margin(traj, pair, traj.config.params,
                                             gamma_const=1.0))
        memory, from_file = reports
        assert from_file.lhs.tobytes() == memory.lhs.tobytes()
        assert from_file.rhs.tobytes() == memory.rhs.tobytes()

    def test_written_and_read_fields_hold_no_samples(self, tmp_path):
        cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.004,
                        epsilon=1e-3, stress_init="random", snapshot_stride=2, seed=2)
        trajectory = run(cfg)
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        for traj in (trajectory, read_trajectory(path)):
            assert all(fld._values is None
                       for snap in traj.snapshots for fld in (snap.u, snap.sigma))

    def test_reading_peaks_near_the_band_bytes(self, tmp_path):
        grid = Grid(2, 64)
        u, sigma = random_divfree(grid, seed=1), random_stress(grid, seed=2)
        cfg = SimConfig(n=64, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.1)
        snapshots = [SolverState(t=i * 1e-3, u=u, sigma=sigma) for i in range(101)]
        path = tmp_path / "traj.bin"
        write_trajectory(Trajectory(config=cfg, snapshots=snapshots), path)
        band_bytes = 101 * (u.hat.nbytes + sigma.hat.nbytes)
        tracemalloc.start()
        try:
            loaded = read_trajectory(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.snapshots) == 101
        assert peak < 1.2 * band_bytes


class TestNonFinitePayload:
    """A NaN or inf in a snapshot is a format error that names the snapshot."""

    @staticmethod
    def _damaged_v2(tmp_path, trajectory, value, component):
        path = tmp_path / "traj.bin"
        write_trajectory(trajectory, path)
        raw = bytearray(path.read_bytes())
        grid = trajectory.grid
        at = _snapshot_offsets(raw, grid, 2)[1] + 8  # the second snapshot's payload
        if component == "stress":
            at += 16 * grid.dim * int(np.prod(grid.spectral_shape))
        raw[at + 16 * 7:at + 16 * 7 + 8] = struct.pack("<d", value)  # a real part
        bad = tmp_path / "damaged.bin"
        bad.write_bytes(bytes(raw))
        return bad

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("component", ["velocity", "stress"])
    def test_version_2(self, tmp_path, trajectory, value, component):
        bad = self._damaged_v2(tmp_path, trajectory, value, component)
        with pytest.raises(CheckpointFormatError, match=r"snapshot 1 \(t=0.005\)"):
            read_trajectory(bad)

    def test_check_trajectory_exit_2(self, tmp_path, trajectory, capsys):
        from alphaflow.cli import main

        bad = self._damaged_v2(tmp_path, trajectory, np.nan, "velocity")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_to_dict(trajectory.config)))
        code = main(["check", "--config", str(cfg), "--mode", "zero-test",
                     "--out", str(tmp_path / "check"), "--trajectory", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snapshot 1" in err

    def test_run_from_damaged_file_exit_2(self, tmp_path, trajectory, capsys):
        bad = self._damaged_v2(tmp_path, trajectory, np.inf, "stress")
        assert TestTrajectoryFile._run_from(tmp_path, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snapshot 1" in err


class TestFieldContracts:
    """Reading checks each snapshot's fields: a velocity off the solution space or a
    stored plane that no real field has is a format error naming the snapshot."""

    @staticmethod
    def _divergent(tmp_path, trajectory):
        u_hat = trajectory.snapshots[1].u.hat.copy()
        u_hat[0, 1, 1] += 5.0  # a mode of u_0 with k_1 != 0: div u != 0
        path = tmp_path / "divergent.bin"
        write_trajectory(_with_snapshot(trajectory, 1, u_hat=u_hat), path)
        return path

    def test_divergent_velocity_version_2(self, tmp_path, trajectory):
        # read silently before, with divergence defect 1.95e-2 against 7.7e-10
        path = self._divergent(tmp_path, trajectory)
        with pytest.raises(CheckpointFormatError,
                           match=r"snapshot 1 \(t=0.005\): velocity field is not "
                                 r"divergence-free"):
            read_trajectory(path)

    def test_check_trajectory_exit_2(self, tmp_path, trajectory, capsys):
        from alphaflow.cli import main

        path = self._divergent(tmp_path, trajectory)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_to_dict(trajectory.config)))
        code = main(["check", "--config", str(cfg), "--mode", "zero-test",
                     "--out", str(tmp_path / "check"), "--trajectory", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snapshot 1" in err and "divergence" in err
        assert not (tmp_path / "check").exists()

    @pytest.mark.parametrize("name", ["velocity", "stress"])
    def test_non_hermitian_plane_rejected(self, tmp_path, trajectory, name):
        # sigma.hat[0, 2, 0] shifted by 1: the band norms and to_real disagreed
        snap = trajectory.snapshots[1]
        hat = (snap.u.hat if name == "velocity" else snap.sigma.hat).copy()
        hat[0, 2, 0] += 1.0
        path = tmp_path / "plane.bin"
        write_trajectory(_with_snapshot(trajectory, 1, **{
            "u_hat" if name == "velocity" else "sigma_hat": hat}), path)
        with pytest.raises(CheckpointFormatError,
                           match=rf"snapshot 1 \(t=0.005\): the {name} coefficients on "
                                 r"the k_last = 0 plane are not Hermitian"):
            read_trajectory(path)

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    def test_written_planes_are_hermitian(self, dim, n):
        cfg = SimConfig(dim=dim, n=n, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.01,
                        epsilon=1e-3, stress_init="random", snapshot_stride=5, seed=3)
        for snap in run(cfg).snapshots:
            for hat in (snap.u.hat, snap.sigma.hat):
                assert hermitian_defect(Grid(dim, n), hat) <= 1e-15 * np.max(np.abs(hat))

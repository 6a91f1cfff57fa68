"""Report writers: formatting, determinism, degenerate inputs."""

import numpy as np
import pytest

from alphaflow.reporting import fmt, write_csv, write_json, write_run_report
from alphaflow.solver import SimConfig, Trajectory


def test_empty_trajectory_header_only(tmp_path):
    cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.0)
    empty = Trajectory(config=cfg, snapshots=[], diag={})
    write_run_report(tmp_path, empty)
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines == ["t,energy"]


def test_float_format_round_trips():
    for value in (0.1 + 0.2, 1e-300, 123456.789, np.pi):
        assert float(fmt(value)) == value


def test_csv_is_deterministic(tmp_path):
    cols = [np.array([0.0, 0.1]), np.array([1.0, 2.0])]
    write_csv(tmp_path / "a.csv", ["t", "v"], cols)
    write_csv(tmp_path / "b.csv", ["t", "v"], cols)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_refuses_non_finite_numbers(tmp_path, value):
    # json.dump wrote NaN and Infinity, which standard JSON parsers reject
    with pytest.raises(ValueError):
        write_json(tmp_path / "doc.json", {"x": [1.0, value]})

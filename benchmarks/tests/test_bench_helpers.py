"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m pytest benchmarks/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import alphaflow.operators as operators  # noqa: E402
import alphaflow.solver as solver  # noqa: E402
import alphaflow.spectral as sp  # noqa: E402
import layers  # noqa: E402
from tracing import (  # noqa: E402
    Tracer,
    covered_length,
    instrument,
    scalar_transforms,
    self_times,
    tail_percentile,
)


@pytest.mark.parametrize("shape, dim, expected", [
    ((16, 16), 2, 1),
    ((3, 16, 16), 2, 3),
    ((2, 2, 16, 16), 2, 4),
    ((8, 8, 8), 3, 1),
    ((6, 8, 8, 8), 3, 6),
    ((2, 3, 8, 8, 8), 3, 6),
])
def test_stack_counts_leading_axes(shape, dim, expected):
    assert scalar_transforms(shape, dim) == expected


def test_stack_count_rejects_missing_grid_axes():
    with pytest.raises(ValueError):
        scalar_transforms((16,), 2)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] with children [1, 3] and [5, 6]; the first child has a
    # grandchild [1.5, 2.5] that must not be subtracted from the root again
    starts = [0.0, 1.0, 1.5, 5.0]
    ends = [10.0, 3.0, 2.5, 6.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    starts = [0.0, 1.0, 3.0]
    ends = [10.0, 4.0, 6.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(5.0)


def test_covered_length_clips_to_parent():
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered_length([], 0.0, 10.0) == 0.0


@pytest.mark.parametrize("n, level", [
    (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, level):
    samples = list(range(1, n + 1))
    got_level, value = tail_percentile(samples)
    assert got_level == level
    assert n - value >= 10  # samples 1..n: exactly n - value lie beyond
    higher = [lv for lv in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9) if lv > level]
    for lv in higher:  # every higher level leaves fewer than ten beyond
        rank = int(np.ceil(lv * n / 100.0 - 1e-9))
        assert n - rank < 10


def test_tail_percentile_none_below_twenty_samples():
    assert tail_percentile(list(range(19))) is None


def test_tail_percentile_is_nearest_rank_of_sorted_samples():
    samples = [float(x) for x in np.random.default_rng(0).permutation(100)]
    assert tail_percentile(samples) == (90.0, 89.0)


def test_instrument_patches_every_binding_site_and_restores():
    original = operators.commutator_hat
    tracer = Tracer()
    with instrument(tracer, [(original, "operators.commutator", "call")]):
        assert operators.commutator_hat is not original
        assert solver.commutator_hat is operators.commutator_hat
    assert operators.commutator_hat is original
    assert solver.commutator_hat is original


@pytest.mark.parametrize("dim, n, fwd, inv", [(2, 16, 9, 22), (3, 8, 18, 51)])
def test_transform_counts_per_rhs_stage(dim, n, fwd, inv):
    cfg = solver.SimConfig(n=n, dim=dim, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3,
                           t_end=1e-3, epsilon=1e-3, stress_init="random")
    grid = cfg.grid()
    u0, s0 = solver.initial_condition("taylor-green", grid, stress_init="random")
    stepper = solver.Stepper(grid, cfg)
    v_hat = sp.helmholtz_apply(grid, u0.hat, cfg.alpha)
    tracer = Tracer()
    tracer.run_id = 0
    with instrument(tracer, layers.FUNCTIONS, layers.METHODS):
        stepper.explicit_rhs(v_hat, s0.hat)
    m = layers.unit_metrics(tracer, self_times(tracer.starts, tracer.ends, tracer.parents),
                            0, {})
    assert m["solver.rhs_calls"] == 1
    assert m["spectral.fft_fwd_per_rhs"] == fwd
    assert m["spectral.fft_inv_per_rhs"] == inv
    assert m["solver.rhs_self_s"] < m["solver.rhs_busy_s"]


def test_quantile_interpolates_between_order_statistics():
    from tracing import median, quantile

    assert quantile([4.0, 1.0, 3.0, 2.0, 5.0], 0.25) == 2.0
    assert quantile([1.0, 2.0], 0.25) == pytest.approx(1.25)
    assert quantile([7.0], 0.75) == 7.0
    assert median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_fast_quartile_time_sums_piece_quartiles():
    from run import fast_quartile_time

    # piece k lines up across units; the remainder outside pieces is 0.1 s
    units = [{"wall_s": a + b + 0.1, "pieces": [("run", a), ("check", b)]}
             for a, b in [(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (4.0, 2.0), (5.0, 1.0)]]
    assert fast_quartile_time(units, "run") == pytest.approx(2.0)
    assert fast_quartile_time(units) == pytest.approx(2.0 + 2.0 + 0.1)

"""Exact symmetries of the integrated system: axis permutations and 2D inside 3D.

The energy law, the linear oracle and the identities are isotropic or
per mode, so none of them sees an axis mix-up in the spectral layout.
These oracles do: a run on permuted (or embedded) data must reproduce
the permuted (or embedded) run to roundoff, and so must the checks made
along it.

Axis permutation ``perm`` maps a field f to f'(x') = f(x) with x'_a =
x_{perm[a]}: arrays are transposed by ``perm``, vector components u'_a
= u_{perm[a]} and tensor entries s'_ab = s_{perm[a] perm[b]}.  The
swap (1, 0) is the 2D diagonal reflection u -> (u_y, u_x), s_xx <->
s_yy; an improper map, and still a symmetry of the corotational system.

A 3D field that does not depend on ``axis``, with that axis's velocity
component and stress entries zero, evolves as the 2D field in the other
two axes.  Its integrals are 2 pi times the 2D ones; its norms are
sqrt(2 pi) times, so a check on it at gamma / sqrt(2 pi) has the 2D
weight and 2 pi times the 2D lhs and rhs.
"""

import numpy as np
import pytest

from alphaflow.dissipative import inequality_margin
from alphaflow.fields import StressField, VelocityField, upper_indices
from alphaflow.operators import TestPair
from alphaflow.solver import SimConfig, SolverState, initial_condition, run
from alphaflow.spectral import Grid, to_spectral

TWO_PI = 2.0 * np.pi
GAMMA = 0.5


def config(dim, n, epsilon, dt=1e-2, t_end=0.1):
    return SimConfig(n=n, dim=dim, alpha=0.7, eta=0.5, lam=1.0, dt=dt, t_end=t_end,
                     epsilon=epsilon, delta=1.0, snapshot_stride=1,
                     initial_condition="zero")


def random_state(dim, n, seed=3):
    """Random-spectrum velocity and stress samples, (u values, stress entry values)."""
    u, sigma = initial_condition("random-spectrum", Grid(dim, n), seed=seed)
    return u.values, sigma.values


def state(grid, u_vals, s_vals):
    return SolverState(t=0.0, u=VelocityField.from_values(grid, u_vals),
                       sigma=StressField(grid, to_spectral(grid, s_vals)))


def entry_map(dim, to, target_dim=None):
    """For each stored entry (i, j) in ``dim``, the position of (to[i], to[j]) in ``target_dim``."""
    target = upper_indices(target_dim or dim)
    return [target.index(tuple(sorted((to[i], to[j])))) for i, j in upper_indices(dim)]


def permute(u_vals, s_vals, perm):
    """The axis permutation ``perm`` (module docstring) of velocity and stress samples."""
    u_new = np.stack([np.transpose(u_vals[a], perm) for a in perm])
    # stored entry (i, j) of the new field reads entry (perm[i], perm[j])
    s_new = np.stack([np.transpose(s_vals[p], perm) for p in entry_map(len(perm), perm)])
    return u_new, s_new


def embed(u_vals, s_vals, axis):
    """3D samples constant along ``axis`` whose other two axes carry the 2D field."""
    n = u_vals.shape[-1]
    plane = [a for a in range(3) if a != axis]
    u3 = np.zeros((3, n, n, n))
    s3 = np.zeros((6, n, n, n))
    for c in range(2):
        u3[plane[c]] = np.expand_dims(u_vals[c], axis)
    for p, q in enumerate(entry_map(2, plane, 3)):
        s3[q] = np.expand_dims(s_vals[p], axis)
    return u3, s3


def slice_plane(values, axis):
    """The axis-0 slice of 3D samples, as 2D samples in the other two axes."""
    return np.take(values, 0, axis=values.ndim - 3 + axis)


def pair_doc(dim, modes):
    """A test pair listing: velocity (component, k, cos, sin) and stress (entry, k, cos)."""
    velocity, stress = modes
    return {"dim": dim,
            "velocity_modes": [{"component": c, "k": list(k), "cos": cos, "sin": sin}
                               for c, k, cos, sin in velocity],
            "stress_modes": [{"entry": list(e), "k": list(k), "cos": cos}
                             for e, k, cos in stress]}


#: a 2D pair with a velocity part in both components and every stress entry
PAIR_2D = ([(0, (1, 2), [0.3, -0.2], [0.1]), (1, (-2, 1), [0.2], [0.0, 0.25]),
            (0, (0, 1), [0.15, 0.1], [])],
           [((0, 0), (1, 1), [0.2, 0.1]), ((0, 1), (2, -1), [0.1]),
            ((1, 1), (0, 2), [-0.15, 0.05])])


def map_pair(modes, to, dim):
    """PAIR_2D with components, entries and wavevector axes sent through ``to``."""
    velocity, stress = modes

    def wave(k):
        out = [0] * dim
        for a, c in enumerate(k):
            out[to[a]] = c
        return out

    return ([(to[c], wave(k), cos, sin) for c, k, cos, sin in velocity],
            [((to[e[0]], to[e[1]]), wave(k), cos) for e, k, cos in stress])


def check_series(traj, pair, gamma):
    report = inequality_margin(traj, pair, traj.config.params, gamma_const=gamma)
    return report.lhs, report.rhs


def assert_close(actual, expected, tol):
    scale = np.max(np.abs(expected))
    assert scale > 0
    assert np.max(np.abs(actual - expected)) <= tol * scale


@pytest.mark.parametrize("epsilon", [0.0, 1e-3])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_2d_inside_3d_reproduces_the_2d_run(axis, epsilon):
    n = 16
    u2, s2 = random_state(2, n)
    cfg2, cfg3 = config(2, n, epsilon), config(3, n, epsilon)
    flat = run(cfg2, initial_state=state(Grid(2, n), u2, s2))
    deep = run(cfg3, initial_state=state(Grid(3, n), *embed(u2, s2, axis)))

    plane = [a for a in range(3) if a != axis]
    for a, b in zip(flat.snapshots, deep.snapshots):
        assert a.t == b.t
        u_plane = slice_plane(b.u.values, axis)
        s_plane = slice_plane(b.sigma.values, axis)
        assert_close(u_plane[plane], a.u.values, 1e-14)
        assert np.max(np.abs(u_plane[axis])) <= 1e-14 * np.max(np.abs(a.u.values))
        stored = entry_map(2, plane, 3)
        assert_close(s_plane[stored], a.sigma.values, 1e-14)
        off_plane = [q for q in range(6) if q not in stored]
        assert np.max(np.abs(s_plane[off_plane])) <= 1e-14 * np.max(np.abs(a.sigma.values))
    for key in ("energy", "u_alpha_sq", "u_h3_sq", "s_l2_sq", "s_h2_sq"):
        assert_close(deep.diag[key], TWO_PI * flat.diag[key], 1e-14)

    pair2 = TestPair.from_json(Grid(2, n), pair_doc(2, PAIR_2D))
    pair3 = TestPair.from_json(Grid(3, n), pair_doc(3, map_pair(PAIR_2D, plane, 3)))
    for flat_series, deep_series in zip(check_series(flat, pair2, GAMMA),
                                        check_series(deep, pair3, GAMMA / np.sqrt(TWO_PI))):
        assert_close(deep_series, TWO_PI * flat_series, 1e-9)


@pytest.mark.parametrize("dim, n, perm", [
    pytest.param(2, 32, (1, 0), id="2d-diagonal-reflection"),
    pytest.param(3, 16, (1, 2, 0), id="3d-cyclic"),
    pytest.param(3, 16, (2, 1, 0), id="3d-swap-x-z"),
])
def test_axis_permutation_commutes_with_the_run(dim, n, perm):
    grid = Grid(dim, n)
    u, s = random_state(dim, n)
    cfg = config(dim, n, 1e-3)
    direct = run(cfg, initial_state=state(grid, u, s))
    permuted = run(cfg, initial_state=state(grid, *permute(u, s, perm)))
    inverse = tuple(int(a) for a in np.argsort(perm))
    for a, b in zip(direct.snapshots, permuted.snapshots):
        u_back, s_back = permute(b.u.values, b.sigma.values, inverse)
        assert_close(u_back, a.u.values, 1e-14)
        assert_close(s_back, a.sigma.values, 1e-14)
    for key, series in direct.diag.items():
        assert_close(permuted.diag[key], series, 1e-14)

    # PAIR_2D on axes (0, 1), and its image: old axis c is new axis inverse[c]
    pair, pair_permuted = (TestPair.from_json(grid, pair_doc(dim, map_pair(PAIR_2D, to, dim)))
                           for to in ((0, 1), inverse[:2]))
    for a, b in zip(check_series(direct, pair, GAMMA),
                    check_series(permuted, pair_permuted, GAMMA)):
        assert_close(b, a, 1e-9)
    # the self-fit pair: its fit is the one step that is not exact per
    # mode, and its rhs can be roundoff, so it is held to the energy scale
    fits = [TestPair.from_trajectory(t, degree=6) for t in (direct, permuted)]
    gap = check_series(permuted, fits[1], GAMMA)[1] - check_series(direct, fits[0], GAMMA)[1]
    assert np.max(np.abs(gap)) <= 1e-9 * direct.diag["energy"][0]

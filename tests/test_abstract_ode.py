"""Abstract dissipative-ODE framework: paths, margins, bounds, demos."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaflow.abstract_ode import (
    OdePath,
    OdeProblem,
    affine_forced_problem,
    apriori_bound,
    apriori_bound_holds,
    dissipative_margin,
    dry_friction_problem,
    integrate,
    linear_decay_problem,
    mollified_friction_exact,
    one_sided_bound_from_decomposition,
    rotation_problem,
)
from alphaflow.errors import ContractViolation, IntegrationBlowup
from alphaflow.gronwall import exponential_bound


def polynomial_curve(rng, dimension, horizon, degree=3):
    """Random polynomial test curve; broadcasts over time arrays."""
    coeffs = rng.uniform(-1.0, 1.0, (degree + 1, dimension))
    coeffs *= np.array([horizon**-p for p in range(degree + 1)])[:, None]

    def curve(t, c=coeffs):
        t = np.asarray(t, float)
        return sum(c[p] * t[..., None] ** p for p in range(c.shape[0]))

    def rate(t, c=coeffs):
        t = np.asarray(t, float)
        return sum(p * c[p] * t[..., None] ** (p - 1)
                   for p in range(1, c.shape[0]))

    return curve, rate


def quadratic_problem():
    """Rotation plus a norm-neutral quadratic term with c(t) = 1.

    f(x, y) = (x2 y2, -x1 y2) has (f(x,x), x) = 0 and |f| <= |x||y|.
    """
    spin_t = np.array([[0.0, 1.0], [-1.0, 0.0]])  # x @ spin_t = spin x per point

    def quad(t, x, y):
        return np.stack([x[..., 1] * y[..., 1], -x[..., 0] * y[..., 1]], axis=-1)

    return OdeProblem(
        dimension=2, rhs=lambda t, x: x @ spin_t + quad(t, x, x),
        one_sided_bound=lambda t, y: 2.0 * np.linalg.norm(y, axis=-1),
        initial=np.array([0.5, 0.0]), horizon=1.0, bilinear_bound=lambda t: 1.0)


def forced_problem(dimension):
    """Time-dependent right-hand side and bound, both batched per time."""

    def rhs(t, x):
        t = np.asarray(t, float)[..., None]
        return -x + np.sin(3.0 * t) * x**2 / (1.0 + x**2) + np.cos(t)

    def bound(t, y):
        return (1.0 + np.asarray(t, float)) * np.linalg.norm(y, axis=-1) + 0.5

    return OdeProblem(dimension=dimension, rhs=rhs, one_sided_bound=bound,
                      initial=np.linspace(0.5, 1.0, dimension), horizon=1.0)


def rk4_reference(problem, rhs, dt):
    """Fixed-step RK4 in its textbook loop form, one state at a time."""
    n_steps = int(round(problem.horizon / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.empty((n_steps + 1, problem.dimension))
    states[0] = problem.initial
    x = problem.initial.astype(float)
    for i in range(n_steps):
        t = times[i]
        k1 = np.asarray(rhs(t, x))
        k2 = np.asarray(rhs(t + 0.5 * dt, x + 0.5 * dt * k1))
        k3 = np.asarray(rhs(t + 0.5 * dt, x + 0.5 * dt * k2))
        k4 = np.asarray(rhs(t + dt, x + dt * k3))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = x
    return times, states


def margin_reference(path, curve, rate, problem):
    """(lhs, rhs) of the abstract inequality from one call per time."""
    lhs, weights, source = [], [], []
    for t, u in zip(path.times.tolist(), path.states):
        diff = u - curve(t)
        residual = -rate(t) + problem.rhs(t, curve(t))
        lhs.append(np.sum(diff * diff))
        weights.append(2.0 * problem.one_sided_bound(t, curve(t)))
        source.append(2.0 * np.sum(residual * diff))
    start = problem.initial - curve(0.0)
    return np.array(lhs), exponential_bound(path.times, float(np.dot(start, start)),
                                            np.array(weights), np.array(source))


def apriori_reference(problem, path, rtol=1e-9):
    """The a-priori bound check with one call per callable and time."""
    origin = np.zeros(problem.dimension)
    weights = [2.0 * (problem.one_sided_bound(t, origin) + 0.25)
               for t in path.times.tolist()]
    source = [2.0 * np.sum(np.asarray(problem.rhs(t, origin)) ** 2)
              for t in path.times.tolist()]
    bound = exponential_bound(path.times, float(np.dot(problem.initial, problem.initial)),
                              np.array(weights), np.array(source))
    return bool(np.all(path.norm_sq() <= bound + rtol * np.max(bound)))


def assert_close_relative(actual, expected, rtol=1e-12):
    """Equal to ``rtol`` relative to the largest magnitude of ``expected``."""
    scale = float(np.max(np.abs(expected)))
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


class TestIntegrate:
    def test_linear_matches_exponential(self):
        problem = linear_decay_problem()
        path = integrate(problem, dt=1e-3)
        exact = np.exp(-path.times)
        assert np.max(np.abs(path.states[:, 0] - exact)) <= 1e-8

    def test_rotation_preserves_norm(self):
        problem = rotation_problem(horizon=10.0)
        path = integrate(problem, dt=1e-3)
        drift = np.max(np.abs(np.sqrt(path.norm_sq()) - 1.0))
        assert drift <= 1e-9

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_blowup_detected(self):
        problem = OdeProblem(dimension=1, rhs=lambda t, x: x**3,
                             one_sided_bound=lambda t, y: 10.0,
                             initial=np.array([5.0]), horizon=10.0)
        with np.errstate(all="ignore"):
            times, states = rk4_reference(problem, problem.rhs, 0.5)
        first_bad = int(np.flatnonzero(~np.isfinite(states).all(axis=1))[0])
        with pytest.raises(IntegrationBlowup) as info:
            integrate(problem, dt=0.5)
        assert info.value.step == first_bad
        assert info.value.t == times[first_bad]
        # the rows before the blowup are the reference's
        before = integrate(replace(problem, horizon=times[first_bad - 1]), dt=0.5)
        assert np.array_equal(before.states, states[:first_bad])

    @pytest.mark.parametrize("case", ["linear", "linear3", "rotation", "affine",
                                      "relay", "quadratic", "forced2"])
    def test_bitwise_equal_to_reference_loop(self, case):
        relay, family = dry_friction_problem(horizon=0.5)
        problem, rhs = {
            "linear": (linear_decay_problem(dimension=2, horizon=0.5), None),
            "linear3": (linear_decay_problem(dimension=3, horizon=0.5), None),
            "rotation": (rotation_problem(horizon=0.5), None),
            "affine": (affine_forced_problem(horizon=0.5), None),
            "relay": (relay, family.member(1e-2)),
            "quadratic": (quadratic_problem(), None),
            "forced2": (forced_problem(2), None),
        }[case]
        path = integrate(problem, rhs=rhs, dt=1e-3)
        times, states = rk4_reference(problem, rhs or problem.rhs, 1e-3)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.states, states)

    def test_column_shaped_rhs_rejected(self):
        # a (dim, 1) result would broadcast the state to (dim, dim)
        problem = OdeProblem(dimension=2, rhs=lambda t, x: -x[:, None],
                             one_sided_bound=lambda t, y: 0.0,
                             initial=np.ones(2), horizon=1.0)
        with pytest.raises(ContractViolation, match=r"\(2, 1\)"):
            integrate(problem, dt=0.1)

    def test_scalar_rhs_rejected(self):
        # a scalar would be added to every component without complaint
        problem = OdeProblem(dimension=2, rhs=lambda t, x: -float(x[0]),
                             one_sided_bound=lambda t, y: 0.0,
                             initial=np.ones(2), horizon=1.0)
        with pytest.raises(ContractViolation, match=r"shape \(\)"):
            integrate(problem, dt=0.1)

    @pytest.mark.parametrize("bad", [np.ones(1), -np.ones((2, 1)), [0.0, 0.0]],
                             ids=["short", "column", "list"])
    def test_later_stage_shape_rejected(self, bad):
        # only the second stage of step 3 misbehaves; a (1,) slope would
        # broadcast and a list would cut the state short without a check
        calls = []

        def rhs(t, x):
            calls.append(t)
            return bad if len(calls) == 4 * 3 + 2 else -x

        problem = OdeProblem(dimension=2, rhs=rhs, one_sided_bound=lambda t, y: 0.0,
                             initial=np.ones(2), horizon=1.0)
        shape = re.escape(str(np.shape(bad)))
        with pytest.raises(ContractViolation, match=rf"{shape}.* step 3, stage 2"):
            integrate(problem, dt=0.1)

    def test_four_rhs_calls_per_step(self):
        problem = rotation_problem(horizon=0.5)
        calls = []

        def rhs(t, x):
            calls.append(t)
            return problem.rhs(t, x)

        path = integrate(problem, rhs=rhs, dt=1e-2)
        assert len(calls) == 4 * (path.times.size - 1)

    def test_mollified_member_used(self):
        problem, family = dry_friction_problem()
        path = integrate(problem, rhs=family.member(1e-2), dt=1e-3)
        closed = mollified_friction_exact(path.times, 1e-2)
        assert np.max(np.abs(path.states[:, 0] - closed)) <= 1e-8


class TestDissipativeMargin:
    def test_solution_itself_gives_zero_residual(self):
        # v = the closed-form solution: E = 0, same data, margin stays ~0
        problem = linear_decay_problem()
        path = integrate(problem, dt=1e-3)
        curve = lambda t: np.exp(-np.asarray(t, float))[..., None]
        rate = lambda t: -np.exp(-np.asarray(t, float))[..., None]
        report = dissipative_margin(path, curve, rate, problem)
        assert np.max(np.abs(report.margin)) <= 1e-8

    def test_zero_curve_reduces_to_decay_estimate(self):
        # v = 0 for u' = -u: |u(t)| <= |a|, margin = a^2 (1 - e^(-2t))
        problem = linear_decay_problem()
        path = integrate(problem, dt=1e-3)
        curve = lambda t: np.array([0.0])
        rate = lambda t: np.array([0.0])
        report = dissipative_margin(path, curve, rate, problem)
        expected = 1.0 - np.exp(-2.0 * path.times)
        assert np.max(np.abs(report.margin - expected)) <= 1e-6

    def test_t_zero_forces_initial_distance(self):
        problem = linear_decay_problem()
        path = integrate(problem, dt=1e-3)
        curve = lambda t: (0.25 + 0.1 * np.asarray(t, float))[..., None]
        rate = lambda t: np.array([0.1])
        report = dissipative_margin(path, curve, rate, problem)
        assert report.margin[0] == 0.0
        assert report.lhs[0] == pytest.approx((1.0 - 0.25) ** 2)

    @pytest.mark.parametrize("factory", [linear_decay_problem, rotation_problem])
    def test_random_polynomial_curves_nonnegative(self, factory):
        # the margin quadrature needs dt = 1e-4 to sit under 1e-8 absolute
        problem = factory()
        path = integrate(problem, dt=1e-4)
        rng = np.random.default_rng(11)
        for _ in range(15):
            curve, rate = polynomial_curve(rng, problem.dimension, problem.horizon)
            report = dissipative_margin(path, curve, rate, problem)
            assert report.min_margin >= -1e-8

    def test_each_callable_called_three_times(self):
        # one call over the time grid and two single-time probes each
        counts = {}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args)
            return wrapper

        problem = forced_problem(2)
        path = integrate(problem, dt=1e-2)
        curve, rate = polynomial_curve(np.random.default_rng(5), 2, problem.horizon)
        problem = replace(problem, rhs=counted("rhs", problem.rhs),
                          one_sided_bound=counted("bound", problem.one_sided_bound))
        dissipative_margin(path, counted("curve", curve), counted("rate", rate),
                           problem)
        assert counts == {"curve": 3, "rate": 3, "rhs": 3, "bound": 3}

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_row_sums_bitwise_equal_to_np_sum(self, dimension):
        # the per-time sums over the state axis, against np.sum(..., axis=1)
        problem = forced_problem(dimension)
        path = integrate(problem, dt=1e-2)
        times, states = path.times, path.states
        assert np.array_equal(path.norm_sq(), np.sum(states**2, axis=1))

        origin = np.zeros_like(states)
        expected = exponential_bound(
            times, float(np.dot(problem.initial, problem.initial)),
            2.0 * (problem.one_sided_bound(times, origin) + 0.25),
            2.0 * np.sum(problem.rhs(times, origin) ** 2, axis=1))
        assert np.array_equal(apriori_bound(problem, path), expected)

        curve, rate = polynomial_curve(np.random.default_rng(dimension), dimension,
                                       problem.horizon)
        v = curve(times)
        diff = states - v
        residual = -rate(times) + problem.rhs(times, v)
        weights = 2.0 * problem.one_sided_bound(times, v)
        assert np.count_nonzero(weights) == times.size
        start = problem.initial - v[0]
        expected = exponential_bound(times, float(np.dot(start, start)), weights,
                                     2.0 * np.sum(residual * diff, axis=1))
        report = dissipative_margin(path, curve, rate, problem)
        assert np.array_equal(report.lhs, np.sum(diff * diff, axis=1))
        assert np.array_equal(report.rhs, expected)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(dimension=st.sampled_from([1, 2]), degree=st.integers(0, 4),
           seed=st.integers(0, 2**16))
    def test_batched_equals_per_time_loop(self, dimension, degree, seed):
        problem = forced_problem(dimension)
        path = integrate(problem, dt=1e-2)
        curve, rate = polynomial_curve(np.random.default_rng(seed), dimension,
                                       problem.horizon, degree=degree)
        report = dissipative_margin(path, curve, rate, problem)
        lhs, rhs = margin_reference(path, curve, rate, problem)
        assert_close_relative(report.lhs, lhs)
        assert_close_relative(report.rhs, rhs)
        for scale in (1.0, 3.0):  # the integrated path and one that breaks the bound
            scaled = OdePath(times=path.times, states=scale * path.states)
            assert apriori_bound_holds(problem, scaled) == apriori_reference(problem, scaled)


class TestContract:
    def test_whole_batch_norm_bound_rejected(self):
        # one norm over all times would weight every time by the same number
        problem = replace(rotation_problem(horizon=1.0),
                          one_sided_bound=lambda t, y: 2.0 * np.linalg.norm(y))
        path = integrate(problem, dt=1e-2)
        curve, rate = polynomial_curve(np.random.default_rng(0), 2, problem.horizon)
        with pytest.raises(ContractViolation, match="one_sided_bound"):
            dissipative_margin(path, curve, rate, problem)

    def test_row_shaped_curve_rejected(self):
        problem = linear_decay_problem(horizon=1.0)
        path = integrate(problem, dt=1e-2)
        curve = lambda t: np.atleast_2d(np.asarray(t, float))  # (1, n_times)
        rate = lambda t: np.ones((1, np.size(t)))
        with pytest.raises(ContractViolation, match=r"curve returned shape \(1, 101\)"):
            dissipative_margin(path, curve, rate, problem)

    def test_negative_one_sided_bound_rejected(self):
        # the bound's weight 2 d must be nonnegative along the curve
        problem = replace(linear_decay_problem(horizon=1.0),
                          one_sided_bound=lambda t, y: -0.5)
        path = integrate(problem, dt=1e-2)
        curve, rate = polynomial_curve(np.random.default_rng(0), 1, problem.horizon)
        with pytest.raises(ContractViolation, match="nonnegative"):
            dissipative_margin(path, curve, rate, problem)

    def test_pointwise_rhs_rejected_by_apriori(self):
        # a forcing taken from the whole time batch disagrees with a single-time call
        problem = replace(affine_forced_problem(horizon=1.0),
                          rhs=lambda t, x: -x + np.sin(np.max(t)))
        path = integrate(problem, dt=1e-2)
        with pytest.raises(ContractViolation, match="rhs"):
            apriori_bound_holds(problem, path)


class TestDecomposition:
    def test_linear_dissipative_gives_zero_bound(self):
        problem = OdeProblem(
            dimension=2, rhs=lambda t, x: -np.asarray(x, float),
            one_sided_bound=lambda t, y: 0.0,
            initial=np.ones(2), horizon=2.0, bilinear_bound=lambda t: 0.0)
        d = one_sided_bound_from_decomposition(problem)
        assert d(0.7, np.array([3.0, 4.0])) == 0.0

    def test_quadratic_bound_formula(self):
        problem = quadratic_problem()
        d = one_sided_bound_from_decomposition(problem, n_samples=200)
        y = np.array([3.0, 4.0])
        assert d(0.0, y) == pytest.approx(2.0 * 5.0)
        # the derived bound satisfies the one-sided condition on samples
        problem.one_sided_bound = d
        problem.check_one_sided(n_triples=1000, seed=5)

    def test_derived_bound_is_per_time_when_batched(self):
        # dissipative_margin hands the bound the whole (n_times, dim) curve
        # at once; every time must still get its own 2 c(t) |v(t)|
        problem = quadratic_problem()
        d = one_sided_bound_from_decomposition(problem)
        path = integrate(problem, dt=1e-2)
        curve, rate = polynomial_curve(np.random.default_rng(3), 2, problem.horizon)
        batched = dissipative_margin(
            path, curve, rate, replace(problem, one_sided_bound=d))
        _, pointwise = margin_reference(
            path, curve, rate, replace(problem, one_sided_bound=d))
        np.testing.assert_allclose(batched.rhs, pointwise, rtol=1e-12)

    def test_one_sided_spot_check(self):
        problem = linear_decay_problem(dimension=2)
        problem.check_one_sided(n_triples=300, seed=1)
        bad = OdeProblem(dimension=1, rhs=lambda t, x: 5.0 * np.asarray(x),
                         one_sided_bound=lambda t, y: 0.0,
                         initial=np.array([1.0]), horizon=1.0)
        with pytest.raises(ContractViolation):
            bad.check_one_sided(n_triples=300, seed=1)

    def test_missing_decomposition(self):
        with pytest.raises(ContractViolation):
            one_sided_bound_from_decomposition(linear_decay_problem())


class TestAprioriBound:
    def test_contraction_demo(self):
        problem = linear_decay_problem()
        path = integrate(problem, dt=1e-3)
        assert apriori_bound_holds(problem, path)

    def test_rotation_demo(self):
        problem = rotation_problem()
        path = integrate(problem, dt=1e-3)
        assert apriori_bound_holds(problem, path)

    def test_affine_forcing(self):
        problem = affine_forced_problem()
        path = integrate(problem, dt=1e-3)
        assert apriori_bound_holds(problem, path)
        # oracle: closed form u = (sin t - cos t)/2 + 3/2 e^(-t)
        exact = 0.5 * (np.sin(path.times) - np.cos(path.times)) \
            + 1.5 * np.exp(-path.times)
        assert np.max(np.abs(path.states[:, 0] - exact)) <= 1e-8

    def test_zero_data_zero_forcing_tight(self):
        problem = OdeProblem(dimension=1, rhs=lambda t, x: -np.asarray(x),
                             one_sided_bound=lambda t, y: 0.0,
                             initial=np.array([0.0]), horizon=1.0)
        path = integrate(problem, dt=1e-3)
        assert np.max(path.norm_sq()) == 0.0
        assert apriori_bound_holds(problem, path)

    def test_violated_bound_flagged(self):
        problem = linear_decay_problem()
        path = integrate(problem, dt=1e-3)
        path.states = path.states + 10.0  # doctored path breaks the bound
        assert not apriori_bound_holds(problem, path)


class TestFrictionDemo:
    def test_paths_approach_ramp(self):
        problem, family = dry_friction_problem()
        for eps in family.epsilons:
            dt = min(1e-3, eps / 10.0)
            path = integrate(problem, rhs=family.member(eps), dt=dt)
            ramp = np.maximum(0.0, 1.0 - path.times)
            sup_error = np.max(np.abs(path.states[:, 0] - ramp))
            assert sup_error <= 5.0 * eps * (1.0 + abs(np.log(eps)))

    def test_epsilon_refinement_contracts(self):
        # sup distance between eps and eps/2 paths shrinks monotonically
        problem, family = dry_friction_problem()
        times = None
        gaps = []
        for eps in family.epsilons:
            dt = min(1e-3, eps / 20.0)
            coarse = integrate(problem, rhs=family.member(eps), dt=dt)
            fine = integrate(problem, rhs=family.member(eps / 2.0), dt=dt)
            gaps.append(np.max(np.abs(coarse.states - fine.states)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_margins_against_closed_form_regular_solution(self):
        # both mollified paths satisfy the inequality against the same
        # smooth reference; margins tighten as eps shrinks
        problem, family = dry_friction_problem()
        reference_eps = 1e-3
        curve = lambda t: mollified_friction_exact(t, reference_eps)[..., None]
        # v solves v' = -tanh(v / eps_ref), so its derivative is exact
        rate = lambda t: -np.tanh(curve(t) / reference_eps)

        worst = []
        for eps in (1e-1, 1e-2):
            path = integrate(problem, rhs=family.member(eps), dt=1e-4)
            report = dissipative_margin(path, curve, rate, problem)
            worst.append(abs(report.min_margin))
        assert worst[1] <= worst[0]


class TestClosedFormStability:
    def test_friction_closed_form_no_overflow(self):
        t = np.linspace(0.0, 2.0, 100)
        for eps in (1e-1, 1e-3, 1e-6):
            values = mollified_friction_exact(t, eps)
            assert np.all(np.isfinite(values))
            assert np.all(values >= 0.0)
            # ramp within the analytic envelope
            ramp = np.maximum(0.0, 1.0 - t)
            assert np.max(np.abs(values - ramp)) <= 5.0 * eps * (1 + abs(np.log(eps)))

"""The benchmark's call sites into alphaflow must keep working.

``benchmarks/layers.py`` lists the functions and methods a traced run
wraps, and ``benchmarks/workloads.py`` calls alphaflow directly.  A
refactor that renames a wrapped function or changes a signature the
workloads use breaks the benchmark, so both are held here in tier-1 as
well: the bindings by name, and the workloads by running them once at
their benchmark sizes.
"""

import contextlib
import importlib
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks")


def _bench_module(name):
    sys.path.insert(0, BENCH_DIR)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH_DIR)


@pytest.fixture(scope="module")
def layers():
    return _bench_module("layers")


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


def test_every_traced_function_is_still_bound_under_its_name(layers):
    assert len(layers.FUNCTIONS) == 25
    for fn, span, _ in layers.FUNCTIONS:
        module = sys.modules[fn.__module__]
        assert getattr(module, fn.__name__, None) is fn, (span, fn.__qualname__)


def test_every_traced_method_exists(layers):
    assert len(layers.METHODS) == 3
    for owner, name, span in layers.METHODS:
        assert callable(getattr(owner, name, None)), (span, owner.__name__, name)


def test_solver_keeps_the_commutator_binding_the_tracing_test_patches():
    # benchmarks/tests checks that instrumenting operators.commutator_hat
    # also patches the binding in alphaflow.solver
    import alphaflow.operators as operators
    import alphaflow.solver as solver

    assert solver.commutator_hat is operators.commutator_hat


@pytest.mark.parametrize("name", ["solve-2d", "solve-3d", "verify-2d"])
def test_workload_unit_passes_its_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    ctx = workload.build(1)
    workload.warm(ctx)
    ctx.workdir = str(tmp_path)
    out, facts = workload.unit(ctx, lambda phase: contextlib.nullcontext())
    checks, _ = workload.check(ctx, out)
    assert checks and all(checks.values()), {k: v for k, v in checks.items() if not v}
    assert facts["steps"] > 0


def test_ode_suite_builds_and_warms(workloads):
    # its unit takes about 6 s; build and warm cover the problem
    # constructors and integrate
    workload = workloads.WORKLOADS["ode-suite"]
    workload.warm(workload.build(1))

"""The benchmark wraps alphaflow functions by name: those names must stay bound.

``benchmarks/layers.py`` lists the functions and methods a traced run
wraps.  A refactor that deletes or renames one breaks the benchmark, so
the binding is held here in tier-1 as well.
"""

import importlib
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, BENCH_DIR)
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(BENCH_DIR)


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

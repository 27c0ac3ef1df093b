"""Process-pool hygiene.

A callable sent to a process pool (``solve_qpp(parallel="process")``)
or looked up in the error contract (:mod:`repro.resilience`) needs an
importable module-level name: qualified-name resolution unwraps
``functools.partial`` chains and rejects lambdas and local functions.
Forked pool children must also start from clean metric counters
instead of inheriting the parent's.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from repro.obs.metrics import counter, default_registry
from repro.resilience import resolve_qualified_name

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def double(x):
    """Module-level, hence picklable and nameable."""
    return 2 * x


def scaled(x, scale):
    return x * scale


def read_fork_counter(_):
    """Pool probe: the child's view of the parent's counter."""
    return counter("parallel.fork_probe").value


# -- name resolution -----------------------------------------------------------------


def test_resolve_qualified_name_module_level_and_partial_chain():
    expected = f"{__name__}.double"
    assert resolve_qualified_name(double) == (expected, "")
    bound = partial(partial(scaled, scale=3))
    assert resolve_qualified_name(bound) == (f"{__name__}.scaled", "")


def test_resolve_qualified_name_rejects_anonymous_callables():
    qualified, reason = resolve_qualified_name(lambda x: x)
    assert qualified is None and "lambda" in reason

    def local(x):
        return x

    qualified, reason = resolve_qualified_name(local)
    assert qualified is None and "module-level" in reason


# -- fork-aware default metrics registry (satellite: registry hygiene) ---------------


@pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork start method")
def test_forked_children_start_with_a_reset_default_registry():
    parent = counter("parallel.fork_probe")
    parent.inc(5.0)
    assert parent.value == 5.0
    with ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        child_views = list(pool.map(read_fork_counter, [0, 1]))
    # os.register_at_fork zeroes the default registry in each child, so
    # the children must not observe the parent's accumulated count...
    assert child_views == [0.0, 0.0]
    # ...and the parent's registry is untouched by the fan-out.
    assert parent.value == 5.0
    assert default_registry().counter_values()["parallel.fork_probe"] == 5.0

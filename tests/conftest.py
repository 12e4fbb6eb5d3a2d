"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.network.topology import Network, single_cell_network
from repro.core.problem import JointProblem
from repro.scenario import Scenario
from repro.workload.demand import DemandMatrix, paper_demand

# Tier-1 is deterministic: every property test draws the same examples on
# every run, and no local example database (a stale ``.hypothesis/``
# directory) can replay a case the suite would not otherwise draw.
# Counterexamples worth keeping are pinned with ``@example``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

# ``pytest --hypothesis-profile=explore`` is the scheduled random search:
# fresh examples every run, and each property test draws
# ``EXPLORE_FACTOR`` times its own ``max_examples`` (a test's explicit
# ``@settings(max_examples=...)`` would otherwise override any profile).
# Falsifying cases it finds are pinned with ``@example``.
settings.register_profile("explore", derandomize=False, database=None, print_blob=True)
EXPLORE_FACTOR = 10


def pytest_collection_modifyitems(config, items):
    if config.getoption("hypothesis_profile", None) != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(getattr(item, "function", None), "__func__", None) or getattr(
            item, "function", None
        )
        if not getattr(test, "is_hypothesis_test", False) or id(test) in scaled:
            continue
        scaled.add(id(test))
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=own.max_examples * EXPLORE_FACTOR
        )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_network(rng: np.random.Generator) -> Network:
    """A 1-SBS network small enough for exhaustive search: K=4, C=1."""
    return single_cell_network(
        num_items=4,
        cache_size=1,
        bandwidth=3.0,
        replacement_cost=2.0,
        omega_bs=rng.uniform(0.1, 1.0, 3),
    )


@pytest.fixture
def tiny_problem(tiny_network: Network, rng: np.random.Generator) -> JointProblem:
    demand = paper_demand(3, 3, 4, rng=rng, density_range=(0.0, 5.0))
    return JointProblem(tiny_network, demand.rates)


@pytest.fixture
def small_network(rng: np.random.Generator) -> Network:
    """A richer 1-SBS network: K=8, C=3."""
    return single_cell_network(
        num_items=8,
        cache_size=3,
        bandwidth=6.0,
        replacement_cost=5.0,
        omega_bs=rng.uniform(0.0, 1.0, 6),
    )


@pytest.fixture
def small_demand(rng: np.random.Generator) -> DemandMatrix:
    return paper_demand(12, 6, 8, rng=rng, density_range=(0.0, 4.0))


@pytest.fixture
def small_scenario(small_network: Network, small_demand: DemandMatrix) -> Scenario:
    return Scenario(network=small_network, demand=small_demand)

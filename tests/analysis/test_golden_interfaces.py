"""Golden-value regression: selected interfaces for canonical systems.

Pins the exact ``(Π, Θ)`` chosen at every quadtree port for three
canonical topologies (16/32/64 clients), as JSON under
``tests/fixtures/``.  Any change to selection semantics — Theorem-2
bounds, tie-breaking, candidate sampling, the engine or the test
oracle — shows up here as a concrete interface diff rather than a
downstream experiment drift.  Regenerate intentionally with
``scripts/regen_golden.py interfaces``.
"""

import json

import pytest

from repro.analysis import AnalysisCache, AnalysisContext, compose
from repro.analysis.cache import DISABLED

from . import oracle
from .golden_utils import (
    FIXTURE_PATH,
    GOLDEN_SIZES,
    composition_snapshot,
    golden_system,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("n_clients", GOLDEN_SIZES)
class TestGoldenInterfaces:
    def test_scalar_backend_matches_fixture(self, golden, n_clients):
        """The test oracle's selections are the fixture."""
        topology, tasksets = golden_system(n_clients)
        with oracle.installed() as calls:
            result = compose(
                topology, tasksets, ctx=AnalysisContext(cache=DISABLED)
            )
        assert calls["select_interface"] > 0
        assert composition_snapshot(result) == golden[str(n_clients)]

    def test_vectorized_backend_matches_fixture(self, golden, n_clients):
        topology, tasksets = golden_system(n_clients)
        cache = AnalysisCache()
        for _ in ("cold", "cache-warm"):
            result = compose(
                topology, tasksets, ctx=AnalysisContext(cache=cache)
            )
            assert composition_snapshot(result) == golden[str(n_clients)]
        assert cache.stats.selection_hits > 0

    def test_fixture_systems_are_schedulable(self, golden, n_clients):
        """The canonical draws compose — so the fixture pins real
        selections at every level, not an early-out failure record."""
        assert golden[str(n_clients)]["schedulable"] is True

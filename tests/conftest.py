"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import random

import pytest

from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests must not depend on global random state."""
    return random.Random(0xB1DE5CA1)


@pytest.fixture
def small_taskset() -> TaskSet:
    """A comfortable task set (U = 0.2) used across analysis tests."""
    return TaskSet(
        [
            PeriodicTask(period=40, wcet=4, name="a"),
            PeriodicTask(period=100, wcet=10, name="b"),
        ]
    )


@pytest.fixture
def tight_taskset() -> TaskSet:
    """A heavily loaded task set (U = 0.9)."""
    return TaskSet(
        [
            PeriodicTask(period=10, wcet=5, name="hot"),
            PeriodicTask(period=20, wcet=8, name="warm"),
        ]
    )


def make_request(
    client_id: int = 0,
    release: int = 0,
    deadline: int | None = None,
    address: int = 0,
):
    """Convenience factory for MemoryRequest used across suites."""
    from repro.memory.request import MemoryRequest

    return MemoryRequest(
        client_id=client_id,
        release_cycle=release,
        absolute_deadline=deadline if deadline is not None else release + 100,
        address=address,
    )


def programmed_se(interfaces, node=(0, 0), **kwargs):
    """A Scale Element whose ports carry ``interfaces``, programmed
    through ``program_port`` the way ``apply_composition`` does it."""
    from repro.core.scale_element import ScaleElement

    element = ScaleElement(node, **kwargs)
    for port, interface in enumerate(interfaces):
        element.program_port(port, interface, now=0)
    return element


@pytest.fixture
def analysis_oracle():
    """Run the analysis pipeline on the exact test oracle for one test.

    Every interface selection and every port's response bound goes
    through ``tests/analysis/oracle.py`` instead of the engine (see
    :func:`tests.analysis.oracle.installed`).  Yields the oracle's call
    counter, keyed by seam.
    """
    from tests.analysis import oracle

    with oracle.installed() as calls:
        yield calls


@pytest.fixture
def kernel_groups(monkeypatch) -> list[int]:
    """Spy on the lock-step kernels: one entry (the group size) per
    ``repro.sim.batched.api._run_group`` call made in this process.

    The scalar engine never appends, so a test can tell which engine
    really ran its trials instead of trusting that two runs which are
    bit-identical by design were two *different* runs.
    """
    from repro.sim.batched import api

    sizes: list[int] = []
    run_group = api._run_group

    def spy(sims, plans):
        sizes.append(len(sims))
        return run_group(sims, plans)

    monkeypatch.setattr(api, "_run_group", spy)
    return sizes


@pytest.fixture
def fabric_passes(monkeypatch) -> list[list]:
    """Spy on the tree kernels' fabric passes: one ``[kernel, cycle,
    busy, passes]`` record per ``tick`` of a BlueScale or mux-tree
    kernel, where ``busy`` says its fabric held a request when the tick
    began and ``passes`` counts the ``_pass`` calls that tick made."""
    from repro.sim.batched.bluescale import BlueScaleKernel
    from repro.sim.batched.muxtree import MuxTreeKernel

    records: list[list] = []
    for kernel_type in (BlueScaleKernel, MuxTreeKernel):
        tick = kernel_type.tick
        one_pass = kernel_type._pass

        def spy_tick(self, cycle, active, tick=tick):
            records.append([self, cycle, self.occ > 0, 0])
            return tick(self, cycle, active)

        def spy_pass(self, cycle, active, one_pass=one_pass):
            records[-1][3] += 1
            return one_pass(self, cycle, active)

        monkeypatch.setattr(kernel_type, "tick", spy_tick)
        monkeypatch.setattr(kernel_type, "_pass", spy_pass)
    return records

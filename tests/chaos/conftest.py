"""Fixtures for the deterministic chaos suite.

Every test here follows the same shape: build the system with a dedicated
(disarmed) :class:`~repro.faults.FaultInjector`, arm a seeded
:class:`~repro.faults.FaultPlan` once fixtures are in place, provoke the
fault, then disarm and assert the recovery invariants.  Nothing is
monkeypatched and nothing depends on wall-clock timing, so a failure
reproduces from the plan + seed alone.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core.segments import SegmentRepository


@pytest.fixture()
def injector():
    """A private injector; disarmed on teardown even if the test dies."""
    inj = faults.FaultInjector()
    yield inj
    inj.disarm()


@pytest.fixture()
def repo_factory(tmp_path, injector):
    """(Re)open the same segment store, optionally with faults armed.

    A small ``segment_max_bytes`` makes seals (and hence the roll path)
    reachable from a handful of puts.
    """
    repos = []

    def _open(*, faulty: bool = True, **knobs):
        knobs.setdefault("segment_max_bytes", 8192)
        repo = SegmentRepository(
            tmp_path / "store",
            injector=injector if faulty else faults.NO_FAULTS,
            **knobs,
        )
        repos.append(repo)
        return repo

    yield _open
    for repo in repos:
        repo.close()

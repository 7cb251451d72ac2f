"""The conformance suite: every archetype × every backend × the contract.

Thin pytest parameterization over :mod:`archetype_contract`; the check
bodies live there so they stay importable outside pytest.  It iterates
the app registry, so a new app joins by registering its ``AppSpec`` —
no new test code.
"""

from __future__ import annotations

import pytest

from archetype_contract import (
    BACKENDS,
    CHECKS,
    check_backend_identity,
    digest_of,
    run_program,
)
from repro.apps import registry
from repro.verify.conformance import archetypes

#: every registered app but the throwaway ones (archetype "test") other
#: test modules register at import, whatever order they are collected in
APPS = tuple(spec.name for spec in registry.specs() if spec.archetype != "test")

#: app -> the test id it had before every registered app was a
#: conformance program (pytest ids only; the runs use the app name)
PRE_REGISTRY_IDS = {
    "mergesort": "onedeep",
    "poisson": "meshspectral",
    "smog": "fusedmesh",
    "cfd": "cfdmesh",
    "fdtd": "fdtdmesh",
}


def test_registry_covers_all_archetypes():
    """The registry must keep covering the four archetype families."""
    assert set(archetypes()) >= {"one-deep-dc", "traditional-dc", "mesh-spectral", "pipeline-farm"}


@pytest.mark.parametrize("check", sorted(CHECKS), ids=str)
@pytest.mark.parametrize("name", APPS, ids=PRE_REGISTRY_IDS.get)
def test_contract(name, check):
    CHECKS[check](name)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", APPS, ids=PRE_REGISTRY_IDS.get)
def test_backend_identity(name, backend):
    if backend == "fuzzed":
        pytest.skip("fuzzed identity covered by the 8-seed contract check")
    check_backend_identity(name, backend)


@pytest.mark.parametrize("name", APPS, ids=PRE_REGISTRY_IDS.get)
def test_digest_is_stable_across_processes(name):
    """The digest itself must be canonical: comparing digests across OS
    processes (the parallel backend) only means something if the digest
    of equal values is equal.  Guard against id()/repr()-dependent
    encodings sneaking into value_digest."""
    a = digest_of(run_program(name))
    b = digest_of(run_program(name))
    assert a == b and len(a) == 64

"""The shared app registry: one source of truth for named workloads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import registry
from repro.apps.registry import AppSpec
from repro.errors import ReproError
from repro.verify.digest import value_digest

EXPECTED_APPS = {
    "mergesort",
    "mergesort-tree",
    "quicksort",
    "skyline",
    "poisson",
    "fft2d",
    "imagepipe",
    "knapfarm",
}


def _digest(result):
    return value_digest([result.times, result.values])


class TestRegistryContents:
    def test_standard_apps_registered(self):
        assert EXPECTED_APPS <= set(registry.names())

    def test_specs_cover_names(self):
        assert tuple(s.name for s in registry.specs()) == registry.names()

    def test_unknown_app_raises_with_choices(self):
        with pytest.raises(ReproError, match="unknown app"):
            registry.get("no-such-app")

    def test_defaults_are_jsonable_scalars(self):
        # The serve wire protocol sends params as JSON; every default
        # must round-trip as a plain scalar.
        for spec in registry.specs():
            for key, value in spec.defaults.items():
                assert isinstance(value, (int, float, bool, str)), (
                    spec.name,
                    key,
                )

    def test_verify_overrides_are_known_params(self):
        for spec in registry.specs():
            assert set(spec.verify_overrides) <= set(spec.defaults), spec.name


class TestParams:
    def test_params_with_merges_over_defaults(self):
        spec = registry.get("mergesort")
        params = spec.params_with({"n": 128})
        assert params["n"] == 128
        assert params["nprocs"] == spec.defaults["nprocs"]

    def test_params_with_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="no parameter"):
            registry.get("poisson").params_with({"bogus": 1})

    def test_params_with_none_is_defaults(self):
        spec = registry.get("fft2d")
        assert spec.params_with(None) == dict(spec.defaults)


#: builds every registered app, then prints each module under repro.apps
#: that no build imported
_UNBUILT_MODULES = """
import pkgutil, sys
import repro.apps
from repro.apps import registry

for spec in registry.specs():
    spec.build(spec.params_with(spec.verify_overrides))
built = set(sys.modules)
for module in pkgutil.walk_packages(repro.apps.__path__, "repro.apps."):
    if module.name not in built:
        print(module.name)
"""


class TestEveryAppIsRegistered:
    def test_every_apps_module_is_imported_by_a_build(self):
        """An app module no registered app builds is run by no contract,
        figure or workload: register it or delete it.  A fresh interpreter,
        so modules other tests imported cannot stand in for a build."""
        src = str(Path(repro.__file__).parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", _UNBUILT_MODULES],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout == ""


class TestRuns:
    def test_run_accepts_machine_name(self):
        a = registry.get("mergesort").run({"n": 256}, machine="ibm-sp")
        b = registry.get("mergesort").run({"n": 256}, machine="ibm-sp")
        assert _digest(a) == _digest(b)

    def test_equal_params_equal_digests(self):
        # The determinism contract the serve cache keys on: explicit
        # defaults and omitted defaults are the same run.
        spec = registry.get("knapfarm")
        explicit = spec.run(dict(spec.defaults), machine="ibm-sp")
        implicit = spec.run(machine="ibm-sp")
        assert _digest(explicit) == _digest(implicit)

    def test_seed_changes_data(self):
        spec = registry.get("mergesort")
        a = spec.run({"n": 256, "seed": 0})
        b = spec.run({"n": 256, "seed": 1})
        assert _digest(a) != _digest(b)

    def test_pipeline_apps_derive_nprocs(self):
        run = registry.get("imagepipe").run(machine="ibm-sp")
        assert len(run.times) > 1


class TestRegistration:
    def test_reregister_identical_is_idempotent(self):
        spec = registry.get("mergesort")
        assert registry.register(spec) is spec

    def test_conflicting_register_raises(self):
        spec = registry.get("mergesort")
        clone = AppSpec(
            name=spec.name,
            archetype=spec.archetype,
            description="different",
            build=spec.build,
            defaults=spec.defaults,
        )
        with pytest.raises(ReproError, match="already registered"):
            registry.register(clone)

    def test_register_unregister_roundtrip(self):
        spec = AppSpec(
            name="throwaway-test-app",
            archetype="test",
            description="",
            build=lambda params: None,
            defaults={},
        )
        registry.register(spec)
        try:
            assert registry.get("throwaway-test-app") is spec
        finally:
            registry.unregister("throwaway-test-app")
        with pytest.raises(ReproError):
            registry.get("throwaway-test-app")


class TestSharedConsumers:
    def test_conformance_programs_resolve_registry_apps(self):
        from test_archetype_contract import APPS, PRE_REGISTRY_IDS

        # The conformance programs are the registered apps; only the
        # test ids that predate the registry read another name.
        assert set(PRE_REGISTRY_IDS) < set(APPS)
        assert set(PRE_REGISTRY_IDS.values()).isdisjoint(registry.names())

    def test_every_suite_iterates_the_registry(self):
        from repro.obs.__main__ import _parser
        from repro.verify.__main__ import PROGRAMS as CHAOS
        from test_archetype_contract import APPS as CONFORMANCE
        from repro.verify.crossbackend import cross_backend_matrix

        # Other test modules register throwaway apps (archetype "test")
        # at import time, so a suite built earlier or later may differ
        # from this one by those apps alone.
        scratch = {s.name for s in registry.specs() if s.archetype == "test"}
        controls = {"racy-arrival", "racy-reduction", "race-free-arrival"}

        def apps(names):
            return tuple(n for n in names if n not in scratch | controls)

        names = apps(registry.names())
        assert apps(CONFORMANCE) == names
        matrix = cross_backend_matrix(backends=("deterministic",))
        assert apps(cell.program for cell in matrix.cells) == names
        assert apps(CHAOS) == names and controls < set(CHAOS)
        (app,) = [a for a in _parser()._actions if a.dest == "app"]
        assert apps(app.choices) == names

    def test_wallclock_descriptions_come_from_registry(self):
        from tests.conftest import WORKLOADS

        for name, (_, description) in WORKLOADS.items():
            assert description == registry.get(name).description

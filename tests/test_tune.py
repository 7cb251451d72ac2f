"""The autotuning loop: spaces, pruning, search, catalog, consultation."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.apps import registry
from repro.apps.sorting.mergesort import one_deep_mergesort
from repro.comm.cart import choose_proc_grid
from repro.comm.layout import geometry
from repro.core.meshspectral import MeshProgram
from repro.machines.catalog import get_machine
from repro.obs.metrics import scoped_registry
from repro.serve.executor import execute
from repro.serve.protocol import JobRequest
from repro.tune import catalog
from repro.tune.catalog import TunedConfig, TunedEntry
from repro.tune.search import PRUNE_SLACK, REJECTED, prune, search
from repro.tune.space import build_space, canonical_digest

TINY_POISSON = {"nx": 12, "ny": 12, "max_iters": 2}


def _entry(config: TunedConfig, signature: str = "sig") -> TunedEntry:
    return TunedEntry(
        config=config,
        predicted=1.0,
        measured=1.0,
        default_measured=2.0,
        digest="d",
        space_signature=signature,
    )


def _grid_dims(mesh, *shapes):
    return tuple(mesh.grid(shape).cart.dims for shape in shapes)


class TestProcGridOverride:
    def test_override_applies_only_when_it_matches(self):
        # A pin steps aside for a grid of another dimensionality, and for
        # a run of another rank count.
        program = MeshProgram(lambda mesh: _grid_dims(mesh, (8, 8), (4, 4, 4)))
        assert program.run(4, proc_grid=(4, 1)).values == [((4, 1), (2, 2, 1))] * 4
        assert program.run(8, proc_grid=(4, 1)).values == [((4, 2), (2, 2, 2))] * 8

    def test_choose_proc_grid_cache_not_poisoned(self):
        default = choose_proc_grid(4, 2)
        # The geometry cache resolves "blocks" to the factorisation once;
        # a pin lives upstream of it, as an explicit grid.
        program = MeshProgram(lambda mesh: _grid_dims(mesh, (8, 8)))
        assert program.run(4, proc_grid=(4, 1)).values == [((4, 1),)] * 4
        assert geometry((8, 8), "blocks", 4, 0).proc_grid == default
        assert program.run(4).values == [(default,)] * 4

    def test_archetype_run_explicit_grid_wins(self):
        program = MeshProgram(lambda mesh: mesh.grid((8, 8), ghost=1).cart.dims)
        assert program.run(4).values == [(2, 2)] * 4
        assert program.run(4, proc_grid=(4, 1)).values == [(4, 1)] * 4
        # Scope ends with the run: the next default run is untouched.
        assert program.run(4).values == [(2, 2)] * 4

    def test_rows_cols_distributions_unaffected(self):
        program = MeshProgram(
            lambda mesh: mesh.grid((8, 8), dist="rows", ghost=0).cart.dims
        )
        assert program.run(4, proc_grid=(2, 2)).values == [(4, 1)] * 4

    def test_pin_reaches_process_engine_ranks(self):
        program = MeshProgram(lambda mesh: _grid_dims(mesh, (8, 8)))
        assert program.run(4, proc_grid=(4, 1), mode="parallel").values == [((4, 1),)] * 4

    def test_archetypes_without_grids_ignore_the_pin(self):
        data = np.arange(64)[::-1].copy()
        pinned = one_deep_mergesort().run(4, data, proc_grid=(4, 1))
        assert pinned.times == one_deep_mergesort().run(4, data).times


class TestCatalogStore:
    def test_roundtrip(self):
        cfg = TunedConfig(proc_grid=(4, 1), params={"overlap": False})
        catalog.store("poisson", "ibm-sp", 4, _entry(cfg))
        loaded = catalog.lookup("poisson", "ibm-sp", 4)
        assert loaded is not None
        assert loaded.config == cfg
        assert catalog.lookup("poisson", "ibm-sp", 8) is None

    def test_corrupt_file_reads_empty(self):
        path = catalog.entry_path("poisson", "ibm-sp")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert catalog.load("poisson", "ibm-sp") == {}

    def test_schema_mismatch_reads_empty(self):
        catalog.store("poisson", "ibm-sp", 4, _entry(TunedConfig()))
        path = catalog.entry_path("poisson", "ibm-sp")
        doc = json.loads(path.read_text())
        doc["schema"] = catalog.SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        assert catalog.load("poisson", "ibm-sp") == {}

    def test_rooted_scopes_the_catalog_directory(self, tmp_path):
        outer = catalog.root()
        with catalog.rooted(tmp_path / "scratch") as scratch:
            assert catalog.root() == scratch
            catalog.store("poisson", "ibm-sp", 4, _entry(TunedConfig()))
        assert catalog.root() == outer
        assert catalog.lookup("poisson", "ibm-sp", 4) is None
        assert (scratch / "poisson--ibm-sp.json").is_file()

    def test_tuned_grid_is_an_argument_not_the_environment(self):
        """A config passed as ``tuned=`` reaches the ranks as an argument
        of the run; the environment they see is the caller's, unchanged."""
        before = dict(os.environ)
        probe = registry.register(
            registry.AppSpec(
                name="tune-test-env-probe",
                archetype="test",
                description="returns its pin and the environment its ranks see",
                build=lambda p: (
                    MeshProgram(lambda mesh: (mesh.proc_grid, dict(os.environ))), 4, (), {}
                ),
                defaults={},
            )
        )
        try:
            seen = probe.run(tuned=TunedConfig(proc_grid=(4, 1))).values
        finally:
            registry.unregister(probe.name)
        assert seen == [((4, 1), before)] * 4
        assert dict(os.environ) == before

    def test_retired_and_unknown_keys_still_load(self):
        """Files written when the config had tile/shm fields load as the
        grid + params they also carry; a malformed grid is an error the
        catalog loader turns into "no entry"."""
        old = {"proc_grid": [4, 1], "tile_bytes": 5, "shm_threshold": 9, "params": {}}
        assert TunedConfig.from_dict(old) == TunedConfig(proc_grid=(4, 1))
        assert TunedConfig.from_dict({"tile_bytes": 5, "bogus": 1}).is_default()
        with pytest.raises(ValueError):
            TunedConfig.from_dict({"proc_grid": [0, 4]})

    def test_consult_suppressed_while_active(self):
        """An explicit config, the empty one included, is never consulted
        for one: the stored winner applies only to ``tuned=None``."""
        spec = registry.get("poisson")
        machine = get_machine("ibm-sp")
        stored = TunedConfig(proc_grid=(4, 1))
        untuned = spec.run(TINY_POISSON, machine=machine, tuned=TunedConfig())
        gridded = spec.run(TINY_POISSON, machine=machine, tuned=stored)
        catalog.store("poisson", "ibm-sp", 4, _entry(stored))
        assert catalog.consult("poisson", "ibm-sp", 4) is not None
        with scoped_registry() as reg:
            again = spec.run(TINY_POISSON, machine=machine, tuned=TunedConfig())
            assert "core.tune.catalog_hits" not in reg.snapshot()
        assert again.times == untuned.times != gridded.times
        assert spec.run(TINY_POISSON, machine=machine).times == gridded.times


class TestSpace:
    def test_default_first_and_unique(self):
        # A loop, not a parametrisation: the test id is on the floor.
        for spec in registry.specs():
            space = build_space(spec, spec.params_with(None))
            assert space[0].is_default(), spec.name
            # Every other candidate moves something virtual time can see.
            assert all(c.proc_grid or c.params for c in space[1:]), spec.name
            dicts = [json.dumps(c.to_dict(), sort_keys=True) for c in space]
            assert len(dicts) == len(set(dicts)), spec.name

    def test_exhaustive_search_measures_the_whole_space(self):
        spec = registry.get("poisson")
        space = build_space(spec, spec.params_with(TINY_POISSON))
        with scoped_registry() as reg:
            search("poisson", "cloud-25gbe", overrides=TINY_POISSON, exhaustive=True)
            snap = reg.snapshot()
        # P=4: three grids x overlap on/off, one of them the default.
        assert snap["core.tune.candidates_generated"]["value"] == 6 == len(space)
        assert snap["core.tune.candidates_measured"]["value"] == len(space)

    def test_mesh_space_matches_grid_ndim(self):
        spec = registry.get("fdtd")
        space = build_space(spec, spec.params_with(None))
        grids = {c.proc_grid for c in space if c.proc_grid}
        assert grids and all(len(g) == 3 for g in grids)

    def test_farm_space_varies_width_and_window(self):
        spec = registry.get("knapfarm")
        space = build_space(spec, spec.params_with(None))
        assert space[0].is_default()
        widths = {c.params.get("workers") for c in space[1:]}
        windows = {c.params.get("window") for c in space[1:]}
        assert len(widths) > 1 and len(windows) > 1

    def test_prune_keeps_default_and_unpredicted(self):
        keep = prune([10.0, None, 10.0 * PRUNE_SLACK * 1.01, 10.0])
        assert keep == [True, True, False, True]

    def test_prediction_tracks_measurement(self):
        spec = registry.get("poisson")
        params = spec.params_with(TINY_POISSON)
        machine = get_machine("cloud-25gbe")
        predicted = spec.predict(params, machine)
        measured = spec.run(params, machine=machine, tuned=TunedConfig()).elapsed
        assert predicted == pytest.approx(measured, rel=0.25)


class TestSearch:
    def test_winner_never_worse_than_default(self):
        outcome = search("poisson", "cloud-25gbe", overrides=TINY_POISSON)
        assert outcome.entry.measured <= outcome.entry.default_measured
        assert not outcome.cache_hit
        assert catalog.entry_path("poisson", "cloud-25gbe").is_file()

    def test_second_search_hits_catalog(self):
        search("poisson", "cloud-25gbe", overrides=TINY_POISSON)
        again = search("poisson", "cloud-25gbe", overrides=TINY_POISSON)
        assert again.cache_hit and again.reports == ()
        forced = search(
            "poisson", "cloud-25gbe", overrides=TINY_POISSON, force=True
        )
        assert not forced.cache_hit

    def test_changed_space_invalidates_hit(self):
        search("poisson", "cloud-25gbe", overrides=TINY_POISSON)
        different = search(
            "poisson", "cloud-25gbe", overrides={"nx": 16, "ny": 8, "max_iters": 2}
        )
        assert not different.cache_hit

    def test_anisotropic_domain_finds_real_win(self):
        # A 4x-wider-than-tall domain wants a 4x1 grid: less traffic and
        # fewer per-axis overheads than the square default factorisation.
        outcome = search(
            "poisson",
            "cloud-25gbe",
            overrides={"nx": 64, "ny": 16, "max_iters": 2},
        )
        assert outcome.entry.config.proc_grid == (4, 1)
        assert outcome.entry.measured < outcome.entry.default_measured

    def test_exhaustive_scores_pruner(self):
        outcome = search(
            "poisson",
            "cloud-25gbe",
            nprocs=8,
            overrides={"nx": 64, "ny": 16, "max_iters": 2},
            exhaustive=True,
        )
        counts = outcome.counts()
        assert counts["pruned"] > 0
        assert outcome.prune_accuracy == 1.0

    def test_fdtd_digest_contract_rejects_partition_sensitive_grids(self):
        # FDTD's energy is a SUM reduction whose partial sums depend on
        # the partition, so proc-grid candidates that change the local
        # summation order are measured, caught, and rejected.
        outcome = search(
            "fdtd", "numa-epyc", overrides={"nx": 8, "ny": 8, "nz": 8, "steps": 2}
        )
        rejected = [r for r in outcome.reports if r.status == REJECTED]
        assert rejected
        assert all(r.config.proc_grid is not None for r in rejected)
        # ... and the winner still reproduces the default digest.
        spec = registry.get("fdtd")
        base = spec.run(
            {"nx": 8, "ny": 8, "nz": 8, "steps": 2},
            machine="numa-epyc",
            tuned=TunedConfig(),
        )
        assert outcome.entry.digest == canonical_digest(spec, base)

    def test_parallel_measurement_ranks_identically(self):
        seq = search("poisson", "numa-epyc", overrides=TINY_POISSON)
        with catalog.rooted(f"{catalog.root()}-par"):
            par = search(
                "poisson", "numa-epyc", overrides=TINY_POISSON, mode="threads"
            )
        assert par.entry == seq.entry  # same winner, makespans, digest


class TestCLI:
    def test_search_then_show(self, capsys):
        from repro.tune.__main__ import main

        params = ["--param=nx=64", "--param=ny=16", "--param=max_iters=2"]
        assert main(["search", "--app=poisson", "--machine=cloud-25gbe", *params]) == 0
        assert "grid=4x1" in capsys.readouterr().out
        assert main(["show", "--app=poisson"]) == 0
        assert capsys.readouterr().out.startswith("poisson @ cloud-25gbe (P=4): grid=4x1")


class TestConsultation:
    def _store_grid_entry(self, app="poisson", machine="ibm-sp", grid=(4, 1)):
        spec = registry.get(app)
        params = spec.params_with(TINY_POISSON)
        machine_model = get_machine(machine)
        tuned = spec.run(params, machine=machine_model, tuned=TunedConfig(proc_grid=grid))
        default = spec.run(params, machine=machine_model, tuned=TunedConfig())
        entry = TunedEntry(
            config=TunedConfig(proc_grid=grid),
            predicted=None,
            measured=tuned.elapsed,
            default_measured=default.elapsed,
            digest=canonical_digest(spec, tuned),
            space_signature="sig",
        )
        catalog.store(app, machine, params["nprocs"], entry)
        return params, tuned, default

    def test_registry_run_applies_tuned_grid(self):
        params, tuned, default = self._store_grid_entry()
        assert tuned.times != default.times  # the knob is observable
        consulted = registry.get("poisson").run(params, machine="ibm-sp")
        assert consulted.times == tuned.times

    @staticmethod
    def _run_archetype(params, **kwargs):
        """The poisson program run directly, not through the registry."""
        from repro.apps.poisson import poisson_archetype

        return poisson_archetype().run(
            params["nprocs"],
            params["nx"],
            params["ny"],
            tolerance=params["tolerance"],
            max_iters=params["max_iters"],
            gather_solution=params["gather_solution"],
            machine=get_machine("ibm-sp"),
            **kwargs,
        )

    def test_archetype_run_ignores_catalog(self):
        params, tuned, default = self._store_grid_entry()
        assert self._run_archetype(params).times == default.times
        # The explicit argument is how a direct caller gets the tuned grid.
        assert self._run_archetype(params, proc_grid=(4, 1)).times == tuned.times

    def test_figures_do_not_read_the_catalog(self):
        """The paper's curves depend on machine model and problem size
        alone: a stored winner for the very key a figure runs at must
        not move a point."""
        from repro.bench.figures import figure15_poisson

        clean = figure15_poisson(procs=(1, 4, 8))
        catalog.store("poisson", "ibm-sp", 8, _entry(TunedConfig(proc_grid=(8, 1))))
        assert catalog.consult("poisson", "ibm-sp", 8) is not None
        assert figure15_poisson(procs=(1, 4, 8)) == clean

    def test_explicit_proc_grid_beats_catalog(self):
        params, tuned, default = self._store_grid_entry(grid=(4, 1))
        result = self._run_archetype(params, proc_grid=(2, 2))
        assert result.times == default.times

    def test_explicit_params_beat_tuned_params(self):
        spec = registry.get("poisson")
        params = spec.params_with(TINY_POISSON)
        machine = get_machine("ibm-sp")
        entry = TunedEntry(
            config=TunedConfig(params={"overlap": False}),
            predicted=None,
            measured=1.0,
            default_measured=1.0,
            digest="d",
            space_signature="sig",
        )
        catalog.store("poisson", "ibm-sp", params["nprocs"], entry)
        blocking = spec.run(dict(params, overlap=False), machine=machine, tuned=TunedConfig())
        overlapped = spec.run(dict(params, overlap=True), machine=machine, tuned=TunedConfig())
        assert blocking.times != overlapped.times
        # Caller silent on overlap: the tuned value (False) applies.
        implicit = spec.run(TINY_POISSON, machine=machine)
        assert implicit.times == blocking.times
        # Caller explicit: the tuned value must not override it.
        explicit = spec.run(dict(TINY_POISSON, overlap=True), machine=machine)
        assert explicit.times == overlapped.times


class TestServeIntegration:
    def test_validated_pins_empty_without_catalog(self):
        req = JobRequest(app="poisson", params=TINY_POISSON).validated()
        assert req.tuned == {}

    def test_validated_pins_catalog_entry_and_cache_key_changes(self):
        base = JobRequest(app="poisson", params=TINY_POISSON, machine="ibm-sp")
        untuned_key = base.validated().cache_key()
        spec = registry.get("poisson")
        nprocs = spec.params_with(TINY_POISSON)["nprocs"]
        catalog.store(
            "poisson", "ibm-sp", nprocs, _entry(TunedConfig(proc_grid=(4, 1)))
        )
        pinned = base.validated()
        assert pinned.tuned["proc_grid"] == [4, 1]
        assert pinned.cache_key() != untuned_key
        # Re-validating an already-pinned request is a no-op.
        assert pinned.validated() == pinned

    def test_client_tuned_is_canonicalised(self):
        def pin(tuned):
            return JobRequest(
                app="poisson", params=TINY_POISSON, machine="ibm-sp", tuned=tuned
            ).validated()

        untuned = pin({})
        # Unknown and retired keys run to the untuned digest, so they
        # must share its cache key.
        for tuned in ({"bogus": 1}, {"tile_bytes": 5}, {"proc_grid": None, "params": {}}):
            assert pin(tuned) == untuned, tuned
            assert pin(tuned).cache_key() == untuned.cache_key(), tuned
        gridded = pin({"proc_grid": [4, 1]})
        assert gridded.tuned == TunedConfig(proc_grid=(4, 1)).to_dict()
        assert pin({"proc_grid": [4, 1], "tile_bytes": 5}) == gridded
        assert gridded.validated() == gridded
        assert gridded.cache_key() != untuned.cache_key()

    def test_explicitly_untuned_request_ignores_catalog(self):
        spec = registry.get("poisson")
        nprocs = spec.params_with(TINY_POISSON)["nprocs"]
        catalog.store(
            "poisson", "ibm-sp", nprocs, _entry(TunedConfig(proc_grid=(4, 1)))
        )
        req = JobRequest(
            app="poisson", params=TINY_POISSON, machine="ibm-sp", tuned={}
        ).validated()
        assert req.tuned == {}

    def test_executor_applies_exactly_the_pinned_config(self):
        base = JobRequest(app="poisson", params=TINY_POISSON, machine="ibm-sp")
        untuned = execute(base.validated(), trace=False)
        spec = registry.get("poisson")
        nprocs = spec.params_with(TINY_POISSON)["nprocs"]
        catalog.store(
            "poisson", "ibm-sp", nprocs, _entry(TunedConfig(proc_grid=(4, 1)))
        )
        pinned = base.validated()
        tuned = execute(pinned, trace=False)
        assert tuned.times != untuned.times
        # The worker's local catalog must not leak into an untuned-pinned
        # request even when an entry exists.
        repinned = execute(
            JobRequest(
                app="poisson", params=TINY_POISSON, machine="ibm-sp", tuned={}
            ).validated(),
            trace=False,
        )
        assert repinned.times == untuned.times
        assert repinned.digest == untuned.digest

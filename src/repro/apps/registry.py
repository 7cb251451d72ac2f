"""Named applications: the one table from app names to programs and models.

An :class:`AppSpec` per application, resolvable by string, with JSON-able
parameters (every knob is a scalar with a default) so a request like
``{"app": "poisson", "params": {"nx": 64}}`` fully determines a run.
Each spec is a declaration, not a runner: :attr:`AppSpec.build` maps the
parameters to the archetype program and its inputs, and
:meth:`AppSpec.run` is the one place a run is configured (engine,
machine, tracing, tuned configuration).  Beside it sit the reduced
``verify_overrides`` sizes and, where :mod:`repro.bench.predict` has a
closed form, the app's performance model (:meth:`AppSpec.predict`).

No suite keeps its own list of apps.  The conformance suite, the
cross-backend matrix and the chaos sweep (:mod:`repro.verify`), the
version-1 chain (``tests/test_version1.py``), the obs CLI, the tuner and
the job server all iterate :func:`names`, so adding an app is adding one
:class:`AppSpec` here.  The paper's figures (:mod:`repro.bench.figures`)
run registered apps too, so every curve is a run of a program those
suites verify.

Determinism contract: an app's ``build`` derives *all* of its input from
the parameter dict (data seeds included), so two runs with equal
``(app, params, machine, backend, seed)`` produce bitwise-identical
digests — the property the serve result cache keys on.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ReproError
from repro.machines.catalog import IDEAL, get_machine
from repro.machines.model import MachineModel
from repro.runtime.spmd import RunResult

if TYPE_CHECKING:
    from repro.core.archetype import Archetype
    from repro.tune.catalog import TunedConfig

#: what ``build`` returns: the program, its rank count, and the positional
#: and keyword arguments of ``archetype.run(nprocs, *args, **kwargs)``
Build = tuple["Archetype", int, tuple, dict]


@dataclass(frozen=True)
class AppSpec:
    """One named workload: an archetype program declared from plain parameters."""

    #: registry key (the name requests and CLIs resolve)
    name: str
    #: archetype family the app exercises (diagnostics / grouping)
    archetype: str
    description: str
    #: ``build(params) -> (archetype, nprocs, args, kwargs)``; *params*
    #: is :attr:`defaults` overlaid with the caller's overrides
    build: Callable[[dict], Build]
    #: every knob the app accepts, with its default value (JSON-able
    #: scalars only, so specs serialise over the serve wire protocol)
    defaults: Mapping[str, Any]
    #: reduced sizes for verification runs (conformance programs and the
    #: cross-backend digest matrix) — overrides applied onto defaults
    verify_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: ``model(params, machine, proc_grid) -> seconds``: the closed-form
    #: virtual makespan, or ``None`` when the app has no model
    model: Callable[..., float] | None = None

    def params_with(self, overrides: Mapping[str, Any] | None = None) -> dict:
        """Defaults overlaid with *overrides*; unknown keys are an error."""
        merged = dict(self.defaults)
        if overrides:
            unknown = sorted(set(overrides) - set(self.defaults))
            if unknown:
                raise ReproError(
                    f"app {self.name!r} has no parameter(s) {unknown}; "
                    f"knows {sorted(self.defaults)}"
                )
            merged.update(overrides)
        return merged

    def configure(
        self,
        params: Mapping[str, Any] | None,
        machine: str,
        tuned: TunedConfig | None = None,
    ) -> tuple[dict, TunedConfig]:
        """The parameters a run of *params* on *machine* uses, and the
        tuned configuration it applies.

        *tuned* ``None`` consults the tuned-config catalog for (app,
        machine, nprocs); an explicit config, the empty one included, is
        taken as given and the catalog is not read.  Tuned parameter
        knobs fill only the keys the caller left at their defaults:
        explicit *params* always win.  :meth:`run` and the job server's
        admission (:meth:`repro.serve.protocol.JobRequest.validated`)
        both configure through here.
        """
        from repro.tune import catalog

        merged = self.params_with(params)
        if tuned is None:
            entry = catalog.consult(self.name, machine, int(merged.get("nprocs", 0)))
            tuned = catalog.TunedConfig() if entry is None else entry.config
        for key, value in tuned.params.items():
            if key in merged and (params is None or key not in params):
                merged[key] = value
        return merged, tuned

    def run(
        self,
        params: Mapping[str, Any] | None = None,
        *,
        machine: MachineModel | str = IDEAL,
        mode: str | None = None,
        trace: bool = False,
        tuned: TunedConfig | None = None,
    ) -> RunResult:
        """Run the app with *params* overriding the registered defaults.

        This is where a named app meets the tuned-config catalog (the
        archetype underneath never does): see :meth:`configure` for what
        *tuned* selects.  ``None`` applies the catalog's winner for (app,
        machine, nprocs) when there is one; the searcher passes each
        candidate and the serve executor the config pinned at admission.
        The tuned process grid reaches the program as
        ``Archetype.run(proc_grid=)``.
        """
        if isinstance(machine, str):
            machine = get_machine(machine)
        merged, tuned = self.configure(params, machine.name, tuned)
        archetype, nprocs, args, kwargs = self.build(merged)
        return archetype.run(
            nprocs,
            *args,
            mode=mode,
            machine=machine,
            trace=trace,
            proc_grid=tuned.proc_grid,
            **kwargs,
        )

    def predict(
        self,
        params: Mapping[str, Any] | None,
        machine: MachineModel | str,
        proc_grid: tuple[int, ...] | None = None,
    ) -> float | None:
        """The model's virtual makespan for *params* (overriding the
        defaults) on *proc_grid*, or ``None`` when the app has no model."""
        if self.model is None:
            return None
        if isinstance(machine, str):
            machine = get_machine(machine)
        return self.model(self.params_with(params), machine, proc_grid)


_REGISTRY: dict[str, AppSpec] = {}


def register(spec: AppSpec) -> AppSpec:
    """Add *spec* to the registry (idempotent for an identical re-register)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ReproError(f"app {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a registration (tests use this to retract throwaway apps)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> AppSpec:
    """The :class:`AppSpec` registered under *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown app {name!r}; choose from {names()}"
        ) from None


def names() -> tuple[str, ...]:
    """Registered app names, registration order."""
    return tuple(_REGISTRY)


def specs() -> tuple[AppSpec, ...]:
    return tuple(_REGISTRY.values())


# ---------------------------------------------------------------------------
# Registered workloads.  Builds derive every input from the params dict
# (reproducible data seeds), so equal params mean equal digests.  A model
# adapter maps the full params dict onto its bench/predict.py closed form.


def _keys(params: dict) -> np.ndarray:
    rng = np.random.default_rng(params["seed"])
    return rng.integers(0, np.iinfo(np.int64).max, size=params["n"])


def _program_kwargs(p: dict) -> dict:
    """A mesh program's keyword arguments: every parameter but ``nprocs``
    (the mesh apps' parameters are named after their program's)."""
    return {k: v for k, v in p.items() if k != "nprocs"}


def _build_mergesort(p: dict) -> Build:
    from repro.apps.sorting.mergesort import one_deep_mergesort

    return one_deep_mergesort(), p["nprocs"], (_keys(p),), {}


def _build_mergesort_tree(p: dict) -> Build:
    from repro.apps.sorting.mergesort import traditional_mergesort

    return traditional_mergesort(), p["nprocs"], (_keys(p),), {}


def _model_mergesort(p: dict, machine, proc_grid) -> float:
    from repro.bench.predict import predict_onedeep_sort

    return predict_onedeep_sort(p["n"], p["nprocs"], machine)


def _build_quicksort(p: dict) -> Build:
    from repro.apps.sorting.quicksort import one_deep_quicksort

    return one_deep_quicksort(), p["nprocs"], (_keys(p),), {}


def _build_skyline(p: dict) -> Build:
    from repro.apps.skyline import one_deep_skyline

    rng = np.random.default_rng(p["seed"])
    n = p["n"]
    left = rng.uniform(0.0, 1000.0, n)
    buildings = np.column_stack(
        [left, rng.uniform(1.0, 50.0, n), left + rng.uniform(0.5, 20.0, n)]
    )
    return one_deep_skyline(), p["nprocs"], (buildings,), {}


def _build_poisson(p: dict) -> Build:
    from repro.apps.poisson import poisson_archetype

    return poisson_archetype(), p["nprocs"], (), _program_kwargs(p)


def _model_poisson(p: dict, machine, proc_grid) -> float:
    from repro.bench.predict import predict_poisson

    return predict_poisson(
        p["nx"],
        p["ny"],
        p["max_iters"],
        p["nprocs"],
        machine,
        proc_grid=proc_grid,
        overlap=p["overlap"],
    )


def _build_cfd(p: dict) -> Build:
    from repro.apps.cfd import cfd_archetype

    return cfd_archetype(), p["nprocs"], (), _program_kwargs(p)


def _model_cfd(p: dict, machine, proc_grid) -> float:
    from repro.bench.predict import predict_cfd

    return predict_cfd(
        p["nx"],
        p["ny"],
        p["steps"],
        p["nprocs"],
        machine,
        proc_grid=proc_grid,
        cfl_interval=p["cfl_interval"],
        overlap=p["overlap"],
    )


def _build_fdtd(p: dict) -> Build:
    from repro.apps.fdtd import fdtd_archetype

    return fdtd_archetype(), p["nprocs"], (), _program_kwargs(p)


def _build_smog(p: dict) -> Build:
    from repro.apps.smog import smog_archetype

    return smog_archetype(), p["nprocs"], (), _program_kwargs(p)


def _model_smog(p: dict, machine, proc_grid) -> float:
    from repro.bench.predict import predict_smog

    return predict_smog(
        p["nx"],
        p["ny"],
        p["steps"],
        p["nprocs"],
        machine,
        chem_substeps=p["chem_substeps"],
        proc_grid=proc_grid,
        overlap=True,
    )


def _build_spectralflow(p: dict) -> Build:
    from repro.apps.spectralflow import spectralflow_archetype

    return spectralflow_archetype(), p["nprocs"], (), _program_kwargs(p)


def _build_fft2d(p: dict) -> Build:
    from repro.apps.fft2d import fft2d_archetype

    rng = np.random.default_rng(p["seed"])
    array = rng.standard_normal((p["rows"], p["cols"]))
    return fft2d_archetype(), p["nprocs"], (array, p["repeats"]), {}


def _model_fft2d(p: dict, machine, proc_grid) -> float:
    from repro.bench.predict import predict_fft2d

    return predict_fft2d(
        p["rows"], p["cols"], p["repeats"], p["nprocs"], machine, gather=True
    )


def _build_imagepipe(p: dict) -> Build:
    from repro.apps.imagepipe import imagepipe_archetype, make_images

    pipeline = imagepipe_archetype(blur_workers=p["width"], window=p["window"])
    images = make_images(p["items"], (p["rows"], p["cols"]), seed=p["seed"])
    return pipeline, pipeline.nprocs, (images,), {}


def _build_knapfarm(p: dict) -> Build:
    from repro.apps.knapfarm import knapsack_farm, random_instances

    pipeline = knapsack_farm(workers=p["workers"], window=p["window"])
    instances = random_instances(p["instances"], nitems=p["nitems"], seed=p["seed"])
    return pipeline, pipeline.nprocs, (instances,), {}


register(
    AppSpec(
        name="mergesort",
        archetype="one-deep-dc",
        description="one-deep mergesort (divide and conquer)",
        build=_build_mergesort,
        defaults={"nprocs": 4, "n": 4096, "seed": 0},
        verify_overrides={"n": 512},
        model=_model_mergesort,
    )
)
register(
    AppSpec(
        name="mergesort-tree",
        archetype="traditional-dc",
        description="traditional mergesort (Figure 1 baseline: recursive halving from rank 0)",
        build=_build_mergesort_tree,
        defaults={"nprocs": 4, "n": 4096, "seed": 0},
        verify_overrides={"n": 512},
    )
)
register(
    AppSpec(
        name="quicksort",
        archetype="one-deep-dc",
        description="one-deep quicksort (sample sort: pivots split, local sorts)",
        build=_build_quicksort,
        defaults={"nprocs": 4, "n": 4096, "seed": 0},
        verify_overrides={"n": 512},
    )
)
register(
    AppSpec(
        name="skyline",
        archetype="one-deep-dc",
        description="one-deep skyline (local sweeps, cut-line merge)",
        build=_build_skyline,
        defaults={"nprocs": 4, "n": 1024, "seed": 0},
        verify_overrides={"n": 128},
    )
)
register(
    AppSpec(
        name="poisson",
        archetype="mesh-spectral",
        description="Jacobi Poisson solver (mesh; ghost exchanges per sweep)",
        build=_build_poisson,
        defaults={
            "nprocs": 4,
            "nx": 48,
            "ny": 48,
            "tolerance": 0.0,
            "max_iters": 8,
            "gather_solution": False,
            "overlap": True,
        },
        verify_overrides={"nx": 12, "ny": 12, "tolerance": 1e-3, "max_iters": 10_000},
        model=_model_poisson,
    )
)
register(
    AppSpec(
        name="cfd",
        archetype="mesh-spectral",
        description="compressible-flow step loop (packed exchanges, CFL reductions)",
        build=_build_cfd,
        defaults={
            "nprocs": 4,
            "nx": 32,
            "ny": 32,
            "steps": 3,
            "ic": "shock",
            "cfl": 0.4,
            "periodic": False,
            "gather": False,
            "packed_exchange": True,
            "cfl_interval": 1,
            "reactive": False,
            "overlap": True,
        },
        verify_overrides={"nx": 12, "ny": 12, "steps": 2},
        model=_model_cfd,
    )
)
register(
    AppSpec(
        name="fdtd",
        archetype="mesh-spectral",
        description="3-D FDTD electromagnetics (leapfrog E/H updates)",
        build=_build_fdtd,
        defaults={
            "nprocs": 4,
            "nx": 12,
            "ny": 12,
            "nz": 12,
            "steps": 2,
            "source_freq": 0.05,
            "courant": 0.5,
            "gather": False,
            "overlap": True,
        },
        verify_overrides={"nx": 8, "ny": 8, "nz": 8, "steps": 2},
    )
)
register(
    AppSpec(
        name="smog",
        archetype="mesh-spectral",
        description="airshed photochemical smog model (fused transport/chemistry)",
        build=_build_smog,
        defaults={
            "nprocs": 4,
            "nx": 24,
            "ny": 24,
            "steps": 6,
            "dt": 2e-3,
            "diffusion": 5e-3,
            "chem_substeps": 4,
            "gather": False,
        },
        verify_overrides={"nx": 12, "ny": 12, "steps": 3},
        model=_model_smog,
    )
)
register(
    AppSpec(
        name="spectralflow",
        archetype="mesh-spectral",
        description="axisymmetric spectral flow (FFT + tridiagonal solves + hoisted stencils)",
        build=_build_spectralflow,
        defaults={
            "nprocs": 4,
            "nr": 32,
            "nz": 32,
            "steps": 4,
            "dt": 1e-3,
            "nu": 1e-3,
            "gather": False,
        },
        verify_overrides={"nr": 16, "nz": 16, "steps": 2},
    )
)
register(
    AppSpec(
        name="fft2d",
        archetype="mesh-spectral",
        description="distributed 2-D FFT (spectral; all-to-all transposes)",
        build=_build_fft2d,
        defaults={"nprocs": 4, "rows": 64, "cols": 64, "repeats": 2, "seed": 0},
        verify_overrides={"rows": 16, "cols": 16, "repeats": 1},
        model=_model_fft2d,
    )
)
register(
    AppSpec(
        name="imagepipe",
        archetype="pipeline-farm",
        description="image pipeline with a farmed blur stage",
        build=_build_imagepipe,
        defaults={
            "width": 2,
            "window": 2,
            "items": 6,
            "rows": 8,
            "cols": 8,
            "seed": 3,
        },
    )
)
register(
    AppSpec(
        name="knapfarm",
        archetype="pipeline-farm",
        description="knapsack-instance stream through a branch-and-bound farm",
        build=_build_knapfarm,
        defaults={
            "workers": 2,
            "window": 2,
            "instances": 4,
            "nitems": 10,
            "seed": 7,
        },
    )
)

"""Each app carries its own performance model, and the models did not move.

``AppSpec.predict`` is the one place an app's closed form is applied.
``tests/data/model_pins.json`` holds, as ``float.hex``, what the tuner's
per-app ``if`` chain predicted before the models moved onto the specs:
every candidate of ``build_space`` for poisson, cfd, smog, fft2d and
mergesort, at registered defaults and at ``verify_overrides``, on three
machines.  ``spec.predict`` must reproduce every value bit for bit.

The second test holds every modelled app to the simulator at its
registered defaults, at the whole-program tolerance of
``tests/test_predict.py``.
"""

import json
from pathlib import Path

import pytest

from repro.apps import registry
from repro.tune.catalog import TunedConfig
from repro.tune.space import build_space
from tests.test_predict import TOLERANCE, _agree

_PINS = json.loads((Path(__file__).parent / "data" / "model_pins.json").read_text())
_MODELLED = [spec.name for spec in registry.specs() if spec.model is not None]


def _predict(spec, params, machine, config: TunedConfig) -> float | None:
    return spec.predict({**params, **config.params}, machine, config.proc_grid)


def test_models_reproduce_the_pins():
    seen = set()
    for row in _PINS["rows"]:
        spec = registry.get(row["app"])
        overrides = spec.verify_overrides if row["sizes"] == "verify" else None
        params = spec.params_with(overrides)
        config = TunedConfig.from_dict(row["config"])
        assert config in build_space(spec, params), row
        got = _predict(spec, params, row["machine"], config)
        assert got.hex() == row["predicted"], row
        seen.add(row["app"])
    assert seen == {"poisson", "cfd", "smog", "fft2d", "mergesort"} == set(_MODELLED)


@pytest.mark.parametrize("nprocs", [2, 4, 8])
@pytest.mark.parametrize("machine", ["ibm-sp", "intel-delta"])
@pytest.mark.parametrize("app", _MODELLED)
def test_model_agrees_with_the_simulator(app, machine, nprocs):
    # When the models moved onto the specs, predicted / simulated read
    # 0.97-1.00 for cfd, smog and mergesort and 1.02-1.08 for poisson.
    # fft2d reads 0.61-0.92, falling with P: at 64x64 its transposes move
    # small messages, in a regime the closed form does not model (the
    # small-message gap).  The bound is not loosened for it.
    spec = registry.get(app)
    params = {"nprocs": nprocs}
    simulated = spec.run(params, machine=machine, tuned=TunedConfig()).elapsed
    predicted = spec.predict(params, machine)
    assert _agree(predicted, simulated, TOLERANCE), (predicted / simulated)

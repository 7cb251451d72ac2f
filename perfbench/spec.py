"""``BENCHMARK.json``: the one place workloads, metrics and bounds are named."""

from __future__ import annotations

import functools
import json
from typing import Any

from perfbench.hermetic import ROOT

PATH = ROOT / "BENCHMARK.json"


@functools.cache
def load() -> dict[str, Any]:
    return json.loads(PATH.read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in load()["workloads"]]


def end_to_end() -> dict[str, dict[str, Any]]:
    return {m["name"]: m for m in load()["end_to_end"]}


def per_layer() -> dict[str, dict[str, Any]]:
    return {m["name"]: m for m in load()["per_layer"]}

"""``BENCHMARK.json`` and the code agree, and the file meets the contract's limits."""

import inspect
import json
import re

import pytest

from perfbench import cases, run, spec, traced

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_keys_and_limits():
    declared = spec.load()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["perfbench"]
    assert declared["command"] == ["python3", "-m", "perfbench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert len(spec.PATH.read_bytes()) <= 64 * 1024
    runs = 4 + 22 * len(declared["workloads"])
    # every run with its set-up has to fit the driver's cap with room to spare
    assert runs * (declared["run_seconds"] + 12) <= 3420


def test_names_units_and_whys_are_well_formed_and_unique():
    declared = spec.load()
    names = [w["name"] for w in declared["workloads"]]
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_setup_metric_is_declared_with_the_largest_bound():
    metrics = spec.end_to_end()
    assert metrics["setup_s"]["unit"] == "s" and metrics["setup_s"]["better"] == "lower"
    assert metrics["setup_s"]["bound"] == max(m["bound"] for m in metrics.values())


def test_workloads_match_the_code():
    assert spec.workload_names() == [*cases.SERVE_WORKLOADS, *cases.SIM_CASES]


def test_end_to_end_names_are_exactly_what_a_run_builds():
    built = list(inspect.signature(run.end_to_end).parameters)
    assert built == list(spec.end_to_end())


def test_per_layer_names_are_exactly_what_the_traced_pass_assigns():
    assert traced.emitted_names() == set(spec.per_layer())


def test_result_line_refuses_undeclared_or_missing_metrics():
    metrics = dict.fromkeys(spec.end_to_end(), 1.5)
    line = run.Result(False, 10, [], metrics).line()
    assert json.loads(json.dumps(line)) == line
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(RuntimeError):
        run.Result(False, 10, [], dict(metrics, extra=1.0)).line()
    metrics.pop("run_s")
    with pytest.raises(RuntimeError):
        run.Result(False, 10, [], metrics).line()


def test_failures_make_the_line_incorrect():
    metrics = dict.fromkeys(spec.end_to_end(), 1.5)
    line = run.Result(False, 10, ["digest differs"], metrics).line()
    assert line["correct"] is False and line["failed"] == 1

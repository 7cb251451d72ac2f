"""Compare verdicts: better / same / worse / unresolved by the metric's bound."""

from perfbench import compare, spec


def test_verdicts_for_a_lower_is_better_metric():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [v * 1.04 for v in steady], "lower", 0.1)[0] == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1)[0] == "better"


def test_direction_flips_for_higher_is_better():
    steady = [40.0, 40.2, 39.9, 40.1]
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)[0] == "better"


def test_wide_spread_is_unresolved_unless_every_run_is_on_one_side():
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(noisy, [90.0, 100.0, 130.0, 150.0], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [50.0, 60.0, 70.0, 79.0], "lower", 0.1)[0] == "better"
    assert compare.verdict(noisy, [141.0, 160.0, 190.0, 230.0], "lower", 0.1)[0] == "worse"
    assert compare.verdict(noisy, [50.0, 60.0, 70.0, 79.0], "higher", 0.1)[0] == "worse"


def test_a_zero_median_has_no_share_to_take():
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.1) == ("same", 0.0)
    assert compare.verdict([0.0, 0.0], [1.0, 1.0], "lower", 0.1)[0] == "worse"
    assert compare.verdict([0.0, 0.0], [1.0, 1.0], "higher", 0.1)[0] == "better"


def test_single_runs_compare_by_their_values():
    assert compare.verdict([100.0], [105.0], "lower", 0.1) == ("same", 0.05)


def _result(
    scale: float, failed: int = 0, msgs: float = 10.0, calibration: float = 20.0, valid: bool = True
) -> dict:
    metrics = {name: 10.0 * scale for name in spec.end_to_end()}
    run = {
        "metrics": metrics, "attempted": 100, "failed": failed,
        "detail": {"provenance": {"calibration_ms": calibration}},
    }
    return {
        "valid": valid,
        "invalid_because": [] if valid else ["serve_hit: generator lagged"],
        "workloads": {
            w: {"runs": [run, run, run], "per_layer": {"runtime.msgs": msgs}}
            for w in spec.workload_names()
        },
    }


def test_failures_and_count_differences_are_worse():
    rows, notes = compare.compare(_result(1.0), _result(1.0, failed=1, msgs=11.0))
    flagged = ("failed/attempted", "runtime.msgs")
    for metric in flagged:
        verdicts = [r["verdict"] for r in rows if r["metric"] == metric]
        assert verdicts == ["worse"] * len(spec.workload_names())
    assert all(r["verdict"] == "same" for r in rows if r["metric"] not in flagged)
    assert notes == []


def test_rows_that_restate_another_are_marked():
    rows, _ = compare.compare(_result(1.0), _result(1.0))
    restating = {(r["workload"], r["metric"]): r["derived_from"] for r in rows if r["derived_from"]}
    assert restating == {
        ("serve_miss", "run_s"): "throughput_rps", ("serve_hit", "run_s"): "throughput_rps",
        **{
            (w, m): "run_s" for w in ("sim_comm", "sim_kernel")
            for m in ("lat_p50_ms", "lat_p90_ms", "throughput_rps")
        },
    }


def test_compare_notes_a_host_that_changed_speed():
    _, notes = compare.compare(_result(1.0), _result(1.2, calibration=25.0))
    assert len(notes) == len(spec.workload_names())
    assert all("25% slower for B" in note for note in notes)
    assert compare.compare(_result(1.0), _result(1.0, calibration=21.0))[1] == []


def test_compare_main_exit_status(tmp_path, capsys):
    import json

    files = {
        "a": _result(1.0), "same": _result(1.02), "slow": _result(2.0),
        "counts": _result(1.0, msgs=11.0), "invalid": _result(1.0, valid=False),
    }
    for name, result in files.items():
        (tmp_path / name).write_text(json.dumps(result))
    status = {name: compare.main(str(tmp_path / "a"), str(tmp_path / name)) for name in files}
    assert status == {"a": 0, "same": 0, "slow": 1, "counts": 1, "invalid": 1}
    out = capsys.readouterr().out
    assert "worse" in out and "INVALID: B is marked invalid" in out
    # a row that restates another is not counted twice: 4 workloads x
    # (6 metrics + the failed share) rows, 8 of them marked
    assert "better=0 same=20 worse=0 unresolved=0" in out

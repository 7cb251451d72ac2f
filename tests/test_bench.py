"""Benchmark harness, reporting, and small-scale figure experiments."""

import numpy as np
import pytest

from repro.bench.harness import SpeedupCurve, SpeedupPoint, measure_speedups, perfect_curve
from repro.bench.report import format_curves, render_ascii_plot
from repro.errors import ReproError


def _curve(label, pairs):
    return SpeedupCurve(
        label=label,
        points=[SpeedupPoint(procs=p, t_seq=s, t_par=1.0) for p, s in pairs],
    )


class TestSpeedupPoint:
    def test_speedup_and_efficiency(self):
        pt = SpeedupPoint(procs=4, t_seq=8.0, t_par=2.0)
        assert pt.speedup == 4.0
        assert pt.efficiency == 1.0

    def test_zero_parallel_time(self):
        with pytest.raises(ReproError):
            SpeedupPoint(procs=1, t_seq=1.0, t_par=0.0).speedup


class TestSpeedupCurve:
    def test_accessors(self):
        c = _curve("x", [(1, 1.0), (2, 1.9), (4, 3.5)])
        assert c.procs == [1, 2, 4]
        assert c.speedups == [1.0, 1.9, 3.5]
        assert c.at(2).speedup == 1.9
        assert c.peak().procs == 4

    def test_missing_point(self):
        with pytest.raises(ReproError):
            _curve("x", [(1, 1.0)]).at(8)

    def test_monotonic(self):
        assert _curve("up", [(1, 1.0), (2, 2.0)]).is_monotonic()
        assert not _curve("dip", [(1, 1.0), (2, 2.0), (4, 1.5)]).is_monotonic()

    def test_perfect_curve(self):
        c = perfect_curve([1, 2, 4])
        assert c.speedups == [1.0, 2.0, 4.0]


class TestMeasureSpeedups:
    def test_measures_archetype(self):
        from repro.apps.sorting import one_deep_mergesort, sequential_sort_time
        from repro.machines.catalog import INTEL_DELTA

        rng = np.random.default_rng(0)
        data = rng.integers(0, 10**6, size=4000)
        arch = one_deep_mergesort()
        curve = measure_speedups(
            "test",
            lambda p: arch.run(p, data, machine=INTEL_DELTA),
            [1, 2, 4],
            sequential_sort_time(data.size, INTEL_DELTA),
        )
        assert len(curve.points) == 3
        assert curve.at(4).speedup > curve.at(1).speedup

    def test_callable_baseline(self):
        calls = []

        def run(p):
            from repro import spmd_run

            return spmd_run(p, lambda comm: comm.charge(1e6))

        curve = measure_speedups("x", run, [1], lambda: calls.append(1) or 2e6)
        assert calls == [1]
        assert curve.at(1).t_seq == 2e6

    def test_rejects_bad_baseline(self):
        with pytest.raises(ReproError):
            measure_speedups("x", lambda p: None, [1], 0.0)


class TestReporting:
    def test_format_curves_table(self):
        a = _curve("alpha", [(1, 1.0), (2, 1.8)])
        b = _curve("beta", [(1, 0.9), (4, 2.0)])
        out = format_curves("My Figure", [a, b])
        assert "My Figure" in out
        assert "alpha" in out and "beta" in out
        assert "1.80" in out
        assert out.count("\n") >= 5
        # P=4 missing from curve alpha -> dash
        assert "-" in out.splitlines()[-1]

    def test_format_curves_dash_only_for_absent_points(self):
        """A curve with no point at P prints a dash; a point that is
        there but broken (zero parallel time) is an error, not a gap."""
        a = _curve("alpha", [(1, 1.0)])
        b = _curve("beta", [(1, 0.9), (4, 2.0)])
        assert format_curves("t", [a, b]).splitlines()[-1].split() == ["4", "-", "2.00"]
        broken = SpeedupCurve("gamma", [SpeedupPoint(procs=4, t_seq=1.0, t_par=0.0)])
        with pytest.raises(ReproError):
            format_curves("t", [b, broken])

    def test_ascii_plot(self):
        c = _curve("line", [(1, 1.0), (8, 6.0)])
        art = render_ascii_plot([c, perfect_curve([1, 8])])
        assert "processors" in art
        assert "line" in art and "perfect" in art


class TestFigureExperimentsSmall:
    """Tiny-size versions of the paper's figures: shape claims only."""

    def test_fig06_one_deep_beats_traditional(self):
        from repro.bench.figures import figure06_mergesort

        onedeep, trad = figure06_mergesort(n=1 << 14, procs=(1, 4, 16))
        assert onedeep.at(16).speedup > 2 * trad.at(16).speedup
        assert onedeep.at(16).speedup > onedeep.at(4).speedup
        assert trad.at(16).speedup < 5

    def test_fig12_fft_comm_bound(self):
        from repro.bench.figures import figure12_fft2d

        (curve,) = figure12_fft2d(shape=(64, 64), repeats=2, procs=(1, 4, 16))
        # "disappointing" speedup: far from perfect at 16 ranks
        assert curve.at(16).speedup < 8
        assert curve.at(16).efficiency < 0.5

    def test_fig15_poisson_scales(self):
        from repro.bench.figures import figure15_poisson

        (curve,) = figure15_poisson(nx=128, ny=128, iters=5, procs=(1, 4, 16))
        assert curve.at(4).speedup > 2.5
        assert curve.at(16).speedup > curve.at(4).speedup

    def test_fig16_cfd_efficient(self):
        from repro.bench.figures import figure16_cfd

        (curve,) = figure16_cfd(nx=128, ny=128, steps=2, procs=(1, 4, 16))
        assert curve.at(16).efficiency > 0.7

    def test_fig17_fdtd_peaks(self):
        from repro.bench.figures import figure17_fdtd

        (curve,) = figure17_fdtd(n=16, steps=2, procs=(1, 8, 16, 18))
        # Beyond the peak, adding processors hurts (the paper's claim).
        assert curve.at(18).speedup < curve.peak().speedup

    def test_fig18_superlinear_base(self):
        from repro.bench.figures import figure18_spectral

        (curve,) = figure18_spectral(
            nr=128, nz=256, steps=1, procs=(5, 10, 20), base_procs=5
        )
        # Better than ideal at small P (paging at the base count)...
        assert curve.at(10).speedup > 10 / 5
        # ...but no longer at the largest configuration.
        assert curve.at(20).speedup < 20 / 5


    def test_points_are_registered_app_runs(self):
        """A figure point is the untuned run of a registered app: the
        Figure 1 baseline's curve is app ``mergesort-tree``."""
        from repro.apps import registry
        from repro.bench.figures import figure06_mergesort
        from repro.machines.catalog import INTEL_DELTA
        from repro.tune.catalog import TunedConfig

        _, trad = figure06_mergesort(n=1 << 10, procs=(4,), seed=3)
        run = registry.get("mergesort-tree").run(
            {"n": 1 << 10, "seed": 3, "nprocs": 4}, machine=INTEL_DELTA, tuned=TunedConfig()
        )
        assert trad.at(4).t_par == run.elapsed


class TestBenchArtifact:
    """Machine-readable results from `python -m repro.bench all`."""

    def test_all_writes_schema_complete_artifact(self, tmp_path, capsys):
        import json
        from pathlib import Path

        from repro.bench.__main__ import ARTIFACT, COMMANDS, main

        out = tmp_path / ARTIFACT
        assert main(["all", "--json", str(out)]) == 0
        # Virtual time only, so the sweep is byte-reproducible: a changed
        # figure must show up as a deliberate diff of the committed file
        # (`make bench` rewrites it).
        committed = Path(__file__).parent.parent / ARTIFACT
        assert out.read_bytes() == committed.read_bytes(), (
            f"`python -m repro.bench all` no longer regenerates {ARTIFACT}"
        )
        data = json.loads(out.read_text())
        assert data["artifact"] == "BENCH_FIGURES"
        assert set(data) == {"artifact", "figures", "tune"}
        figures = {name for name, c in COMMANDS.items() if c.is_figure}
        assert set(data["figures"]) == figures | {"fig_overlap", "fig_pipeline"}
        for name, entry in data["figures"].items():
            if name in ("fig_overlap", "fig_pipeline"):
                continue
            assert entry["machine"] == ", ".join(COMMANDS[name].machines)
            assert entry["description"]
            assert entry["curves"], name
            for curve in entry["curves"]:
                assert curve["label"]
                for point in curve["points"]:
                    assert point["procs"] >= 1
                    assert point["t_par"] > 0.0
                    assert point["speedup"] == pytest.approx(
                        point["t_seq"] / point["t_par"]
                    )
        # The overlap ablation must show a measurable win on at least two
        # machine models for every mesh app (the PR's acceptance gate).
        rows = data["figures"]["fig_overlap"]["rows"]
        machines = {r["machine"] for r in rows}
        assert len(machines) >= 2
        for machine in machines:
            for row in (r for r in rows if r["machine"] == machine):
                assert row["overlapped"] < row["blocking"], row
        # The pipeline farm-width sweep: both machines, a throughput win
        # from widening the farm past one worker, flat-ish latency.
        prows = data["figures"]["fig_pipeline"]["rows"]
        pmachines = {r["machine"] for r in prows}
        assert len(pmachines) >= 2
        for machine in pmachines:
            series = [r for r in prows if r["machine"] == machine]
            widths = [r["width"] for r in series]
            assert widths == sorted(widths) and widths[0] == 1
            best = max(r["throughput"] for r in series)
            assert best > series[0]["throughput"], series
            for row in series:
                assert row["latency"] > 0.0 and row["makespan"] > 0.0
        # The autotuning ablation: tuned never worse than default, every
        # second search a catalog hit, and a genuine strict win somewhere.
        trows = data["tune"]["rows"]
        assert len({r["machine"] for r in trows}) >= 2
        for row in trows:
            assert row["tuned_measured_seconds"] <= row["default_measured_seconds"]
            assert row["cache_hit"] is True, row
        assert any(
            r["tuned_measured_seconds"] < r["default_measured_seconds"] for r in trows
        )

    def test_default_artifact_name(self):
        from repro.bench.__main__ import ARTIFACT

        assert ARTIFACT == "BENCH_FIGURES.json"

    def test_failed_check_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """`all` and the single commands share one exit: any problem a
        check reports is printed as FAIL, nothing is written, exit 1."""
        import repro.bench.__main__ as cli

        failing = cli.Command(
            lambda: [], "d", (), {}, lambda rows: "table", lambda rows: ["tuned is worse"]
        )
        monkeypatch.setattr(cli, "COMMANDS", {"tune": failing})
        out = tmp_path / "out.json"
        for run in (lambda: cli.run_all(str(out)), lambda: cli.main(["tune", "--json", str(out)])):
            assert run() == 1
            assert "FAIL: tuned is worse" in capsys.readouterr().out
            assert not out.exists()

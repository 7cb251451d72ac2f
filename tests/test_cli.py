"""The `python -m repro.bench` command-line interface."""

import json

import pytest

from repro.bench.__main__ import COMMANDS, curves_to_json, main
from repro.bench.harness import SpeedupCurve, SpeedupPoint


class TestCurvesToJson:
    def test_round_trippable(self):
        curve = SpeedupCurve(
            "x", [SpeedupPoint(procs=2, t_seq=4.0, t_par=1.0)]
        )
        out = curves_to_json([curve])
        assert out[0]["label"] == "x"
        assert out[0]["points"][0] == {
            "procs": 2,
            "t_seq": 4.0,
            "t_par": 1.0,
            "speedup": 4.0,
        }
        json.dumps(out)  # serialisable


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_runs_small_figure(self, capsys, tmp_path, monkeypatch):
        # Shrink fig17 so the CLI test is quick.
        import repro.bench.__main__ as cli
        from repro.bench.figures import figure17_fdtd

        monkeypatch.setitem(
            cli.COMMANDS,
            "fig17",
            cli.COMMANDS["fig17"]._replace(
                run=lambda: figure17_fdtd(n=12, steps=2, procs=(1, 4, 8)),
                description="tiny fdtd",
            ),
        )
        out_json = tmp_path / "series.json"
        assert main(["fig17", "--json", str(out_json), "--no-plot"]) == 0
        printed = capsys.readouterr().out
        assert "fig17" in printed and "3-D FDTD" in printed
        data = json.loads(out_json.read_text())
        assert data[0]["points"][0]["procs"] == 1

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

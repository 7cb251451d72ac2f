"""``tools/bench_pairs.py`` survives a benchmark process that dies.

One crashed run used to raise out of ``main`` (``check=True``) and take
every finished run with it.  Now it is a row: its pair leaves both sides'
statistics, the table says so, and the command still exits 1.  The fake
trees below stand in for a checkout — ``run_one`` only ever runs
``python3 -m perfbench`` inside one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_LINE = {
    "correct": True, "attempted": 5, "failed": 0,
    "metrics": {"run_s": {"value": 1.25, "unit": "s"}},
}  # fmt: skip


def _tree(tmp_path: Path, main_source: str) -> Path:
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "__main__.py").write_text(main_source)
    return tmp_path


class TestRunOne:
    def test_result_line_becomes_the_row_fields(self, tmp_path):
        tree = _tree(tmp_path, f"print('progress')\nprint({json.dumps(json.dumps(_LINE))})\n")
        assert bench_pairs.run_one(tree, "sim_kernel", 7, 1.0) == {
            "correct": True, "attempted": 5, "failed": 0, "metrics": {"run_s": 1.25},
            "calibration_ms": None,
        }  # fmt: skip

    def test_row_keeps_the_host_speed_of_its_detail_report(self, tmp_path):
        detail = {"detail": {"provenance": {"calibration_ms": 41.5, "host_cpus": 2}}}
        tree = _tree(
            tmp_path,
            "import json, sys\n"
            "path = sys.argv[sys.argv.index('--detail') + 1]\n"
            f"open(path, 'w').write({json.dumps(json.dumps(detail))})\n"
            f"print({json.dumps(json.dumps(_LINE))})\n",
        )
        row = bench_pairs.run_one(tree, "sim_kernel", 7, 1.0)
        assert row["calibration_ms"] == 41.5 and row["metrics"] == {"run_s": 1.25}

    def test_crash_is_a_row_with_status_and_stderr_tail(self, tmp_path):
        tree = _tree(
            tmp_path,
            "import sys\nfor i in range(30): print('line', i, file=sys.stderr)\nsys.exit(3)\n",
        )
        row = bench_pairs.run_one(tree, "sim_kernel", 7, 1.0)
        assert row["crashed"] is True and row["returncode"] == 3
        assert row["stderr"] == [f"line {i}" for i in range(10, 30)]

    @pytest.mark.parametrize("printed", ["", "not json", '{"metrics": 1}'])
    def test_unparseable_output_is_a_crash_row(self, tmp_path, printed):
        tree = _tree(tmp_path, f"print({printed!r})\n")
        row = bench_pairs.run_one(tree, "sim_kernel", 7, 1.0)
        assert row["crashed"] is True and row["returncode"] == 0


def _rows(
    values: dict[str, list[float | None]], speeds: dict[str, list[float]] | None = None
) -> list[dict]:
    rows = []
    for side, series in values.items():
        for pair, value in enumerate(series):
            row = {"workload": "w", "pair": pair, "seed": pair, "side": side, "first": "base"}
            if value is None:
                row.update(crashed=True, returncode=1, stderr=["boom"])
            else:
                row.update(correct=True, attempted=1, failed=0, metrics={"run_s": value})
                row["calibration_ms"] = speeds[side][pair] if speeds else None
            rows.append(row)
    return rows


_DECLARED = {"run_s": {"name": "run_s", "better": "lower", "bound": 0.25}}


class TestSummarise:
    def test_crashed_pair_leaves_both_sides(self, capsys):
        rows = _rows({"base": [1.0, None, 1.2, 1.1], "change": [0.5, 0.4, 0.6, 0.55]})
        summary, broken = bench_pairs.summarise(rows, ["w"], _DECLARED)
        assert broken
        assert summary["w"]["crashed_pairs"] == [1]
        result = summary["w"]["metrics"]["run_s"]
        assert result["pairs"] == 3 and result["wins"] == 3
        # the change's 0.4 ran beside the crash: it is in no statistic
        assert result["change"]["q1"] >= 0.5
        assert "CRASHED IN PAIR(S) [1]" in capsys.readouterr().out

    def test_every_pair_crashed_still_summarises(self):
        summary, broken = bench_pairs.summarise(
            _rows({"base": [None], "change": [0.5]}), ["w"], _DECLARED
        )
        assert broken and summary["w"] == {"crashed_pairs": [0], "metrics": {}}

    def test_clean_rows_are_not_broken(self):
        rows = _rows({"base": [1.0, 1.1, 1.2], "change": [1.0, 1.1, 1.2]})
        summary, broken = bench_pairs.summarise(rows, ["w"], _DECLARED)
        assert not broken and summary["w"]["crashed_pairs"] == []
        assert summary["w"]["metrics"]["run_s"]["verdict"] == "same"


class TestHostSpeed:
    """Each side's median host speed and the within-pair ratios stand
    beside the quartiles, so a verdict that went with the host shows."""

    def test_median_calibration_per_side_and_ratio_span(self, capsys):
        rows = _rows(
            {"base": [1.0, 2.0, 4.0], "change": [1.1, 1.8, 4.4]},
            {"base": [40.0, 50.0, 45.0], "change": [60.0, 41.0, 42.0]},
        )
        summary, _ = bench_pairs.summarise(rows, ["w"], _DECLARED)
        assert summary["w"]["calibration_ms"] == {"base": 45.0, "change": 42.0}
        ratio = summary["w"]["metrics"]["run_s"]["ratio"]
        assert ratio == pytest.approx({"min": 0.9, "max": 1.1})
        out = capsys.readouterr().out
        assert "calibration_ms" in out and "45" in out and "42" in out
        assert "0.900-1.100" in out

    def test_rows_without_a_calibration_read_none(self, capsys):
        summary, _ = bench_pairs.summarise(
            _rows({"base": [1.0, 1.1], "change": [1.0, 1.1]}), ["w"], _DECLARED
        )
        assert summary["w"]["calibration_ms"] == {"base": None, "change": None}
        assert summary["w"]["metrics"]["run_s"]["ratio"] == {"min": 1.0, "max": 1.0}


def _artifact(values: dict[str, list[float | None]], workload: str = "sim_comm") -> dict:
    rows = [{**row, "workload": workload} for row in _rows(values)]
    summary, _ = bench_pairs.summarise(rows, [workload], _DECLARED)
    return {"base": "0123456789abcdef", "summary": summary, "rows": rows}


class TestTrajectory:
    """One row per artifact, appended below whatever the file holds."""

    def test_row_holds_commits_date_and_the_headline_medians(self):
        better = _artifact({"base": [1.0, 1.1, 1.2, 1.1], "change": [0.5, 0.4, 0.6, 0.55]})
        row = bench_pairs.trajectory_row("BENCH_PRn_pairs", better, "fedcba9+", "2026-10-03")
        assert row.endswith("|\n") and row.count("\n") == 1
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        # sim_comm run_s is the first headline column; the others were not run
        assert cells == [
            "`BENCH_PRn_pairs`", "2026-10-03", "0123456 → fedcba9+", "**1.1 → 0.525**", "—", "—", "—",
        ]  # fmt: skip
        same = _artifact({"base": [1.0, 1.1, 1.2], "change": [1.0, 1.1, 1.2]})
        assert "| 1.1 → 1.1 |" in bench_pairs.trajectory_row("x", same, "c", "d")

    def test_crashed_pairs_are_told_in_the_cell(self, capsys):
        partly = _artifact({"base": [1.0, None, 1.2, 1.1], "change": [0.5, 0.4, 0.6, 0.55]})
        assert "→ 0.55** (1 pair(s) crashed) |" in bench_pairs.trajectory_row("x", partly, "c", "d")
        wholly = _artifact({"base": [None], "change": [0.5]})
        assert "| — (1 pair(s) crashed) |" in bench_pairs.trajectory_row("x", wholly, "c", "d")

    def test_append_never_rewrites(self, tmp_path):
        path = tmp_path / "BENCH_TRAJECTORY.md"
        bench_pairs.append_trajectory(path, "| first |\n")
        head = path.read_text()
        assert head.startswith("# Perf trajectory") and head.endswith("|---|\n| first |\n")
        path.write_text(head + "a line someone added by hand\n")
        bench_pairs.append_trajectory(path, "| second |\n")
        assert path.read_text() == head + "a line someone added by hand\n| second |\n"

    def test_from_artifact_runs_nothing_and_appends(self, tmp_path):
        artifact = _artifact({"base": [1.0, 1.1, 1.2], "change": [1.0, 1.1, 1.2]})
        artifact.update(change="abc1234", date="2026-01-02")
        (tmp_path / "BENCH_PRn_pairs.json").write_text(json.dumps(artifact))
        out = tmp_path / "T.md"
        argv = ["--from-artifact", str(tmp_path / "BENCH_PRn_pairs.json"), "--trajectory", str(out)]
        assert bench_pairs.main(argv) == 0 and bench_pairs.main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == lines[-2] and lines[-1].startswith(
            "| `BENCH_PRn_pairs` | 2026-01-02 | 0123456 → abc1234 | 1.1 → 1.1 |"
        )

    def test_the_committed_file_is_what_the_artifacts_say(self):
        """BENCH_TRAJECTORY.md holds, in order, the row of every committed
        ``BENCH_PR*_pairs.json`` (cells only: provenance comes from git)."""
        root = Path(bench_pairs.ROOT)
        table = (root / "BENCH_TRAJECTORY.md").read_text()
        assert table.startswith(bench_pairs._TRAJECTORY_HEAD)
        rows = table[len(bench_pairs._TRAJECTORY_HEAD) :].splitlines()
        for path in sorted(root.glob("BENCH_PR*_pairs.json"), key=lambda p: int(p.stem[8:-6])):
            expected = bench_pairs.trajectory_row(path.stem, json.loads(path.read_text()), "c", "d")
            mine = [r for r in rows if r.startswith(f"| `{path.stem}` |")]
            assert len(mine) == 1 and mine[0].split(" | ")[3:] == expected.rstrip("\n").split(" | ")[3:]

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
        }  # fmt: skip

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


def _rows(values: dict[str, list[float | None]]) -> list[dict]:
    rows = []
    for side, series in values.items():
        for pair, value in enumerate(series):
            row = {"workload": "w", "pair": pair, "seed": pair, "side": side, "first": "base"}
            if value is None:
                row.update(crashed=True, returncode=1, stderr=["boom"])
            else:
                row.update(correct=True, attempted=1, failed=0, metrics={"run_s": value})
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

"""Tests for the benchmark harness (runner, tables, experiment registry)."""

from __future__ import annotations

import pytest

from repro.bench import (
    available_experiments,
    format_table,
    markdown_table,
    measure_peak_memory,
    run_experiment,
    run_timed,
)
from repro.bench.experiments import EXPERIMENTS
from tests.conftest import make_g0


class TestRunTimed:
    def test_basic_run(self):
        rec = run_timed(make_g0(), "mbet", dataset="g0")
        assert rec.count == 6
        assert rec.complete
        assert rec.status == "ok"
        assert rec.elapsed >= 0
        assert rec.stats["maximal"] == 6

    def test_repeats_keep_best(self):
        rec = run_timed(make_g0(), "mbea", repeats=3)
        assert rec.count == 6

    def test_repeat_validation(self):
        with pytest.raises(ValueError):
            run_timed(make_g0(), "mbet", repeats=0)

    def test_timeout_flagged(self):
        from repro import planted_bicliques

        g = planted_bicliques(300, 200, 150, (2, 6), (2, 6), 500, seed=3)
        rec = run_timed(g, "naive", time_limit=0.02)
        assert not rec.complete
        assert rec.status == "timeout"

    def test_options_forwarded(self):
        rec = run_timed(make_g0(), "mbet", use_trie=False)
        assert rec.count == 6


class TestMeasureMemory:
    def test_returns_peak_and_result(self):
        peak, result = measure_peak_memory(make_g0(), "mbet")
        assert peak > 0
        assert result.count == 6

    def test_budgeted_variant_bounds_trie(self):
        from repro import planted_bicliques

        g = planted_bicliques(200, 120, 60, (2, 5), (2, 5), 200, seed=1)
        _, result = measure_peak_memory(g, "mbetm", max_nodes=64, use_trie=True)
        assert 0 < result.stats.trie_peak_nodes <= 64


class TestTables:
    def test_format_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        # numeric column right-aligned
        assert lines[2].endswith("1")
        assert lines[3].endswith("22")

    def test_format_floats(self):
        out = format_table(["x"], [[0.12345], [123456.0], [5.5]])
        assert "0.1235" in out or "0.1234" in out
        assert "123,456" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_markdown_table(self):
        out = markdown_table(["a", "b"], [["x", 1]])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| x | 1 |"


class TestExperimentRegistry:
    def test_all_documented_experiments_registered(self):
        expected = (
            {"R-T1", "R-T2", "R-E1", "R-E2", "R-E3", "R-E4"}
            | {f"R-F{i}" for i in range(1, 11)}
        )
        assert set(EXPERIMENTS) == expected
        assert available_experiments() == list(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("R-F99")

    @pytest.mark.parametrize(
        "exp_id", ["R-T1", "R-F6", "R-F7", "R-F10", "R-E1", "R-E2", "R-E3"]
    )
    def test_quick_experiments_produce_tables(self, exp_id):
        result = run_experiment(exp_id, quick=True)
        assert result.exp_id == exp_id
        assert result.tables
        for _caption, headers, rows in result.tables:
            assert rows, exp_id
            assert all(len(r) == len(headers) for r in rows)

    def test_quick_progressive_reaches_all_milestones(self):
        result = run_experiment("R-F5", quick=True)
        _caption, _headers, rows = result.tables[0]
        assert rows[-1][0] == "100%"

    def test_quick_parallel_rows(self):
        result = run_experiment("R-F9", quick=True)
        _caption, _headers, rows = result.tables[0]
        assert [r[0] for r in rows] == [1, 2]
        assert rows[0][3] == rows[1][3]  # same biclique count

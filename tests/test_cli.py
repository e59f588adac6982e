"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.bigraph.io import write_edge_list
from tests.conftest import make_g0


@pytest.fixture
def g0_file(tmp_path):
    path = tmp_path / "g0.txt"
    write_edge_list(make_g0(), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_dataset_and_input_exclusive(self, g0_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "mti", "--input", g0_file]
            )

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "mti", "-a", "x"])

    def test_serve_requires_state_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--state-dir", "/tmp/x"])
        assert args.port == 0
        assert args.workers == 2
        assert args.queue_depth == 16
        assert args.allow_faults is False


class TestRunCommand:
    def test_run_on_file(self, g0_file, capsys):
        assert main(["run", "--input", g0_file, "-a", "mbet"]) == 0
        out = capsys.readouterr().out
        assert "6 maximal bicliques" in out
        assert "complete" in out

    def test_run_with_output(self, g0_file, tmp_path, capsys):
        out_path = tmp_path / "bicliques.tsv"
        assert main(
            ["run", "--input", g0_file, "-o", str(out_path)]
        ) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 6
        left, right = lines[0].split("\t")
        assert left and right

    def test_run_with_limit(self, g0_file, capsys):
        main(["run", "--input", g0_file, "--max-bicliques", "2"])
        assert "partial: max_bicliques" in capsys.readouterr().out

    def test_run_with_node_limit(self, g0_file, capsys):
        main(["run", "--input", g0_file, "--max-nodes", "1"])
        out = capsys.readouterr().out
        assert "partial: max_nodes" in out or "complete" in out

    def test_checkpoint_requires_parallel(self, g0_file, capsys):
        code = main(["run", "--input", g0_file, "--checkpoint", "x.ckpt"])
        assert code == 2
        assert "requires --algorithm parallel" in capsys.readouterr().err

    def test_checkpoint_resume_roundtrip(self, g0_file, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        args = ["run", "--input", g0_file, "-a", "parallel",
                "--checkpoint", str(ckpt)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed" in out

    def test_run_dataset(self, capsys):
        assert main(["run", "--dataset", "mti", "-a", "mbet"]) == 0
        assert "mti" in capsys.readouterr().out


class TestRunSignals:
    """``repro run`` turns SIGINT/SIGTERM into a graceful partial stop."""

    def _spawn_run(self, tmp_path, *extra):
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        # a dense random graph whose enumeration runs well past 20 s —
        # the signal must cut it short within a couple of budget checks
        graph = tmp_path / "dense.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(repo, "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        subprocess.run(
            [sys.executable, "-m", "repro", "generate", "--kind", "random",
             "--n-u", "70", "--n-v", "70", "--p", "0.6", "--seed", "7",
             "-o", str(graph)],
            cwd=repo, env=env, check=True, capture_output=True,
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--input", str(graph),
             "-a", "mbet", *extra],
            cwd=repo, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_yields_partial_results_and_exit_130(
        self, tmp_path, signame
    ):
        import signal as signal_mod
        import time

        proc = self._spawn_run(tmp_path, "-o", str(tmp_path / "out.tsv"))
        time.sleep(1.0)  # let enumeration get going
        proc.send_signal(getattr(signal_mod, signame))
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 130, out
        assert "interrupted" in out
        assert "partial" in out
        # partial results were still written
        assert (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("signals", [1, 2])
    def test_signal_during_output_write(
        self, g0_file, tmp_path, monkeypatch, capsys, signals
    ):
        """A signal sent from inside the output write: one lets the file
        complete and exits 130; a second raises KeyboardInterrupt."""
        import os
        import signal as signal_mod

        from repro.core import io_results

        real_write = io_results.write_bicliques

        def write_under_signal(bicliques, path):
            for _ in range(signals):
                os.kill(os.getpid(), signal_mod.SIGTERM)
            return real_write(bicliques, path)

        # stands in for the default handler, which would kill the runner
        outer = []

        def guard(signum, _frame):
            outer.append(signum)

        previous = signal_mod.signal(signal_mod.SIGTERM, guard)
        try:
            monkeypatch.setattr(
                io_results, "write_bicliques", write_under_signal
            )
            out = tmp_path / "out.tsv"
            argv = ["run", "--input", g0_file, "-a", "mbet", "-o", str(out)]
            if signals == 1:
                assert main(argv) == 130
                assert len(out.read_text().splitlines()) == 6
                assert "interrupted" in capsys.readouterr().err
            else:
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
            assert outer == []
            assert signal_mod.getsignal(signal_mod.SIGTERM) is guard
        finally:
            signal_mod.signal(signal_mod.SIGTERM, previous)


class TestRunObservability:
    def test_run_stderr_summary_without_output(self, g0_file, capsys):
        assert main(["run", "--input", g0_file, "-a", "mbet"]) == 0
        err = capsys.readouterr().err
        assert "6 bicliques" in err
        assert "nodes" in err

    def test_metrics_out_parses_back(self, g0_file, tmp_path, capsys):
        from repro.obs import parse_prometheus_text

        prom = tmp_path / "metrics.prom"
        assert main(
            ["run", "--input", g0_file, "--metrics-out", str(prom)]
        ) == 0
        samples = parse_prometheus_text(prom.read_text())
        assert samples["mbe_maximal_total"] == 6
        assert samples["mbe_runs_total"] == 1
        assert "wrote metrics" in capsys.readouterr().err

    def test_trace_out_is_valid_jsonl(self, g0_file, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(
            ["run", "--input", g0_file, "--trace-out", str(trace)]
        ) == 0
        records = [json.loads(x) for x in trace.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert "span" in kinds and "event" in kinds
        assert records[-1]["kind"] == "trace_meta"
        span_names = {r["name"] for r in records if r["kind"] == "span"}
        assert "enumerate" in span_names

    def test_progress_jsonl_heartbeat(self, g0_file, capsys):
        import json

        assert main(
            ["run", "--input", g0_file, "--progress", "jsonl"]
        ) == 0
        err_lines = capsys.readouterr().err.splitlines()
        heartbeats = [
            json.loads(x) for x in err_lines if x.startswith("{")
        ]
        assert heartbeats
        assert heartbeats[-1]["kind"] == "progress"
        assert heartbeats[-1]["final"] is True
        assert heartbeats[-1]["bicliques"] == 6


class TestProfileCommand:
    def test_profile_prints_breakdowns(self, capsys):
        assert main(
            ["profile", "--dataset", "mti", "--algorithm", "mbet"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase breakdown:" in out
        assert "prune breakdown:" in out
        assert "load" in out
        assert "enumerate" in out
        assert "trie_pruned" in out
        assert "subtrees" in out

    def test_profile_verify_adds_phase(self, g0_file, capsys):
        assert main(
            ["profile", "--input", g0_file, "-a", "mbet", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "verify" in out

    def test_profile_with_metrics_out(self, g0_file, tmp_path):
        from repro.obs import parse_prometheus_text

        prom = tmp_path / "m.prom"
        assert main(
            ["profile", "--input", g0_file, "--metrics-out", str(prom)]
        ) == 0
        samples = parse_prometheus_text(prom.read_text())
        assert samples["mbe_maximal_total"] == 6


class TestOtherCommands:
    def test_stats(self, g0_file, capsys):
        assert main(["stats", "--input", g0_file]) == 0
        out = capsys.readouterr().out
        assert "n_edges" in out and "12" in out
        # the enriched rows: component structure and degeneracy
        assert "components" in out
        assert "degeneracy" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in ("mti", "dbt"):
            assert key in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "mbet" in out and "bruteforce" in out

    def test_experiments_chart(self, capsys):
        assert main(
            ["experiments", "--run", "R-F7", "--quick", "--chart"]
        ) == 0
        out = capsys.readouterr().out
        assert "[log y]" in out  # the ASCII chart rendered

    def test_experiments_single_quick(self, capsys):
        assert main(["experiments", "--run", "R-F10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "R-F10" in out
        assert "merge-path" in out

    def test_analyze(self, g0_file, capsys):
        assert main(["analyze", "--input", g0_file, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "6 maximal bicliques" in out
        assert "most common shapes" in out
        assert "busiest vertices" in out

    def test_analyze_constrained(self, g0_file, capsys):
        assert main(
            ["analyze", "--input", g0_file, "--min-left", "2",
             "--min-right", "2"]
        ) == 0
        # G0 has exactly three bicliques with both sides >= 2
        assert "3 maximal bicliques" in capsys.readouterr().out

    def test_max(self, g0_file, capsys):
        assert main(["max", "--input", g0_file, "--objective", "edges"]) == 0
        out = capsys.readouterr().out
        assert "value 6" in out

    def test_max_infeasible_exit_code(self, g0_file, capsys):
        assert main(
            ["max", "--input", g0_file, "--min-left", "99"]
        ) == 1
        assert "no biclique" in capsys.readouterr().out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "gen.txt"
        assert main(
            ["generate", "--kind", "random", "--n-u", "20", "--n-v", "10",
             "--p", "0.3", "--seed", "5", "-o", str(out_path)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["stats", "--input", str(out_path)]) == 0

    def test_experiments_markdown_output(self, tmp_path, capsys):
        md = tmp_path / "out.md"
        assert main(
            ["experiments", "--run", "R-T1", "--quick", "--markdown", str(md)]
        ) == 0
        text = md.read_text()
        assert text.startswith("### R-T1")
        assert "| key |" in text


class TestFuzzCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(
            ["fuzz", "--cases", "4", "--seed", "1", "--max-side", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 cases" in out
        assert "0 counterexamples" in out

    def test_unknown_engine_exits_two(self, capsys):
        assert main(["fuzz", "--cases", "1", "--engines", "nope"]) == 2
        assert "unknown engines" in capsys.readouterr().err

    def test_report_is_jsonl(self, tmp_path, capsys):
        import json

        report = tmp_path / "fuzz.jsonl"
        assert main(
            ["fuzz", "--cases", "3", "--seed", "2", "--max-side", "5",
             "--report", str(report)]
        ) == 0
        lines = report.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 4  # 3 cases + summary
        assert [r["type"] for r in records] == ["case"] * 3 + ["summary"]
        assert records[-1]["ok"] is True

    def test_self_test_catches_broken_engine(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        assert main(
            ["fuzz", "--cases", "40", "--seed", "2", "--max-side", "6",
             "--self-test", "--max-failures", "1",
             "--artifacts", str(artifacts)]
        ) == 0
        out = capsys.readouterr().out
        assert "self-test OK" in out
        assert "FAIL agreement" in out
        written = sorted(p.name for p in artifacts.iterdir())
        assert any(n.endswith(".json") for n in written)
        assert any(n.endswith("_test.py") for n in written)

    def test_dataset_run(self, capsys):
        assert main(
            ["fuzz", "--cases", "0", "--datasets", "mti",
             "--engines", "mbet,mbea", "--seed", "0"]
        ) == 0
        assert "1 cases" in capsys.readouterr().out

"""Tests of the benchmark itself (not part of the program's test suite).

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root;
about three minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

WORKLOADS = ("batch_zoo", "large_d2", "serve_mix", "federated")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, json.loads(last) if last else {}, proc.stderr


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_declared_metric(workload, trace):
    code, result, err = bench("--workload", workload, "--seed", "5",
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "tiny")
    assert code == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # set-up is sampled before the measured phase and after each chunk
    record = json.loads((BENCH / "results" / f"{workload}-s5-t{trace}.json")
                        .read_text())
    assert len(record["setups"]) == 3


def test_reference_cache_is_keyed_by_the_file_written(tmp_path, monkeypatch):
    import common
    import graphs
    import reference
    import run

    common.ensure_program()
    seen = []
    real = reference.ensure

    def spy(jobs):
        seen.extend(jobs)
        return real(jobs)

    monkeypatch.setattr(reference, "ensure", spy)
    bench_run = run.Run(run.argparse.Namespace(
        workload="batch_zoo", seed=5, seconds=1, trace=0, size="tiny",
        repeat_share=run.SERVE_REPEAT_SHARE))
    bench_run.dir = tmp_path
    inputs = graphs.zoo_inputs(5, True)
    _built, paths, refs = bench_run.references(inputs)
    for inp, path, (key, _path, _engine) in zip(inputs, paths, seen):
        assert key == f"{inp.key}:{run.file_digest(path)[:16]}"
    assert [reference.lookup(key)["count"] for key, _p, _e in seen] == [
        r["count"] for r in refs]


def test_wrong_count_trips_the_correctness_gate(monkeypatch, capsys):
    import reference
    import run

    real = reference.ensure

    def off_by_one(jobs):
        return {k: dict(v, count=v["count"] + 1)
                for k, v in real(jobs).items()}

    monkeypatch.setattr(reference, "ensure", off_by_one)
    code = run.main(["--workload", "batch_zoo", "--seed", "5",
                     "--seconds", "1", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_benchmark_json_records_the_serve_rate_and_poll_interval():
    import run

    why = {w["name"]: w["why"] for w in spec()["workloads"]}["serve_mix"]
    assert f"{run.SERVE_RATE:g} req/s" in why
    assert f"{run.SERVE_POLL_S * 1000:g} ms status poll" in why
    assert f"{round(run.SERVE_REPEAT_SHARE * 100)}% cache-hit" in why


@pytest.mark.parametrize("workload", ("batch_zoo", "large_d2"))
def test_layer_self_times_account_for_the_untraced_p50(workload):
    # enough passes that every graph has several traced and untraced ops
    code, result, err = bench("--workload", workload, "--seed", "5",
                              "--seconds", "16", "--trace", "1")
    assert code == 0, err
    metrics = result["metrics"]
    assert 0.9 <= metrics["bench.layer_sum_over_p50"]["value"] <= 1.1
    qmax = metrics["bench.qmax"]["value"]
    assert (qmax >= 2000) if workload == "large_d2" else (qmax < 2000)


def test_without_the_program_the_command_fails_fast(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".*", "results",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_zoo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_flags_only_changes_outside_the_spread():
    from compare import verdict

    base = [1.0, 1.02, 0.98, 1.01, 0.99]
    assert verdict(base, [1.005, 1.0, 0.995, 1.01, 0.99], "lower",
                   0.1)[0] == "within noise"
    assert verdict(base, [1.3, 1.31, 1.29, 1.3, 1.32], "lower",
                   0.1)[0] == "REGRESSION"
    assert verdict(base, [0.8, 0.81, 0.79, 0.8, 0.82], "lower",
                   0.1)[0] == "better"
    noisy = [0.5, 1.5, 1.0, 0.7, 1.3]
    assert verdict(noisy, base, "lower", 0.1)[0] == "unresolved"

"""Shared helpers of the benchmark: locations, statistics, processes.

The benchmark lives beside the program it measures: ``src/`` of the same
checkout holds the ``repro`` package, and every process the benchmark
starts imports it from there.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space of one checkout (graphs, state dirs, traces); ignored by git
WORK_DIR = BENCH_DIR / ".work"
#: per-run result records read by ``compare.py``; ignored by git
RESULTS_DIR = BENCH_DIR / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: readiness and acknowledgement polls run at this interval (seconds)
READY_POLL_S = 0.002


def ensure_program() -> None:
    """Put ``src/`` on ``sys.path``, or exit non-zero when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: program sources not found under {SRC}; run from "
            f"a checkout that holds src/repro"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for subprocesses: ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 31-bit seed for one named input of one workload seed."""
    blob = ":".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=4).digest(),
                          "big") & 0x7FFFFFFF


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    """90th percentile (inclusive method; the maximum below 2 samples)."""
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return vm_hwm_mb(os.getpid())


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (VmHWM) from its current RSS.

    Freed objects are collected first, so memory the process no longer
    holds does not carry over.
    """
    import gc

    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def environment() -> dict:
    """What a shift between two results may need explaining by."""
    import numpy

    from repro.setops import kernel_meta

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "kernels": kernel_meta(),
    }


def http_json(url: str, body: dict | None = None,
              timeout: float = 30.0) -> tuple[int, dict]:
    """One HTTP request with a JSON body/response; returns (status, body)."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET",
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class Server:
    """One ``repro serve`` subprocess, optionally under the trace launcher."""

    def __init__(self, state_dir: pathlib.Path, workers: int | None,
                 trace_out: pathlib.Path | None):
        self.state_dir = state_dir
        self.trace_out = trace_out
        state_dir.mkdir(parents=True, exist_ok=True)
        serve_args = ["serve", "--state-dir", str(state_dir), "--port", "0"]
        if workers is not None:
            serve_args += ["--workers", str(workers)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "launcher.py"),
                   "--trace-out", str(trace_out), *serve_args]
        self.log = open(state_dir.parent / f"{state_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.url = ""

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until ``/healthz`` answers, polling every 2 ms."""
        port_file = self.state_dir / "serve.port"
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} on boot "
                    f"(log: {self.log.name})"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server not ready in time")
            if not self.url:
                try:
                    text = port_file.read_text().strip()
                except FileNotFoundError:
                    text = ""
                if text:
                    self.url = f"http://127.0.0.1:{int(text)}"
            if self.url:
                try:
                    status, _ = http_json(self.url + "/healthz", timeout=1.0)
                    if status == 200:
                        return
                except OSError:
                    pass
            time.sleep(READY_POLL_S)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def set_tracing(self, on: bool) -> None:
        """Switch the launcher's span recording on or off, acknowledged."""
        import signal

        ack = self.trace_out.with_suffix(".ack")
        ack.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        deadline = time.monotonic() + 10.0
        while not ack.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("trace launcher did not acknowledge")
            time.sleep(READY_POLL_S)

    def stop(self) -> None:
        """SIGTERM (drain), then wait; SIGKILL if it will not exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.log.close()

"""Tests for the embedded enumeration service (repro.serve).

Unit-tests the breaker and watchdog state machines, admission control,
and the job journal; service-level tests run jobs in-process; the
integration tests at the bottom boot the real server in a subprocess and
exercise SIGTERM drain and the kill -9 → restart → journal-resume path
the whole subsystem exists for.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import BipartiteGraph, run_mbe
from repro.chaos import FaultRule, FaultSchedule
from repro.chaos import fs as chaos_fs
from repro.bigraph.generators import planted_bicliques
from repro.core.base import ALGORITHMS, MBEAlgorithm, register
from repro.cluster.client import WorkerClient
from repro.core.io_results import parse_bicliques, read_bicliques
from repro.obs.sinks import parse_prometheus_text
from repro.serve import (
    AdmissionError,
    BoundedJobQueue,
    BreakerOpen,
    CircuitBreaker,
    DegradableCollector,
    EnumerationService,
    JobJournal,
    JobSpec,
    JobValidationError,
    JournalError,
    MemoryWatchdog,
    ServiceConfig,
    estimate_cost,
    load_journal,
    make_http_server,
)
from repro.serve.jobs import RETIRED_ENGINES, Job

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EDGES = [[0, 0], [0, 1], [1, 0], [1, 1], [2, 1]]


def _expected_set(edges=EDGES, **kw):
    result = run_mbe(BipartiteGraph([tuple(e) for e in edges]), "mbet", **kw)
    return {(b.left, b.right) for b in result.bicliques}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# --------------------------------------------------------------------------
# circuit breaker state machine


class TestCircuitBreaker:
    def _breaker(self, **kw):
        clock = FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown", 10.0)
        return CircuitBreaker("eng", clock=clock, **kw), clock

    def test_starts_closed_and_admits(self):
        b, _ = self._breaker()
        assert b.state == "closed"
        b.acquire()  # no raise

    def test_failures_below_threshold_stay_closed(self):
        b, _ = self._breaker()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"

    def test_threshold_failures_trip_open(self):
        b, _ = self._breaker()
        for _ in range(3):
            b.record_failure()
        assert b.state == "open"
        with pytest.raises(BreakerOpen, match="eng"):
            b.acquire()

    def test_success_resets_failure_count(self):
        b, _ = self._breaker()
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"

    def test_cooldown_promotes_to_half_open_single_probe(self):
        b, clock = self._breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(10.0)
        assert b.state == "half_open"
        b.acquire()  # the probe gets through
        with pytest.raises(BreakerOpen, match="probe"):
            b.acquire()  # a concurrent caller does not

    def test_probe_success_closes(self):
        b, clock = self._breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(10.0)
        b.acquire()
        b.record_success()
        assert b.state == "closed"
        b.acquire()

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        b, clock = self._breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(10.0)
        b.acquire()
        b.record_failure()
        assert b.state == "open"
        clock.advance(9.9)
        assert b.state == "open"
        clock.advance(0.1)
        assert b.state == "half_open"

    def test_transition_callback_fires(self):
        seen = []
        clock = FakeClock()
        b = CircuitBreaker(
            "eng", failure_threshold=1, cooldown=5.0, clock=clock,
            on_transition=lambda name, frm, to: seen.append((frm, to)),
        )
        b.record_failure()
        clock.advance(5.0)
        _ = b.state
        b.record_success()
        assert seen == [("closed", "open"), ("open", "half_open"),
                        ("half_open", "closed")]

    def test_half_open_concurrent_probes_admit_exactly_one(self):
        """The half-open window under a thundering herd: one probe wins,
        every concurrent loser is rejected fast (no blocking)."""
        b, clock = self._breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(10.0)
        assert b.state == "half_open"

        n = 8
        barrier = threading.Barrier(n)
        admitted, rejected, elapsed = [], [], []

        def _probe():
            barrier.wait()
            t0 = time.monotonic()
            try:
                b.acquire()
            except BreakerOpen:
                rejected.append(1)
            else:
                admitted.append(1)
            elapsed.append(time.monotonic() - t0)

        threads = [threading.Thread(target=_probe) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(admitted) == 1
        assert len(rejected) == n - 1
        assert max(elapsed) < 1.0  # losers failed fast, none blocked
        # the winning probe's success closes the breaker for everyone
        b.record_success()
        assert b.state == "closed"


# --------------------------------------------------------------------------
# memory watchdog degradation ladder


def _bicliques(n):
    g = BipartiteGraph([(i, 0) for i in range(max(2, n))])
    result = run_mbe(g, "mbet")
    from repro.core.base import Biclique

    return [Biclique.make([i], [0]) for i in range(n)] or result.bicliques


class TestWatchdogLadder:
    def test_collect_stays_collect_under_caps(self, tmp_path):
        wd = MemoryWatchdog(max_in_ram=100)
        col = DegradableCollector(tmp_path / "spool.jsonl", wd)
        for b in _bicliques(5):
            col(b)
        out = col.finish()
        assert out == {"mode": "collect", "count": 5, "stored": 5}
        assert not (tmp_path / "spool.jsonl").exists()

    def test_collect_degrades_to_spool_keeping_every_result(self, tmp_path):
        wd = MemoryWatchdog(max_in_ram=3)
        trips = []
        col = DegradableCollector(
            tmp_path / "spool.jsonl", wd, on_degrade=trips.append
        )
        items = _bicliques(7)
        for b in items:
            col(b)
        out = col.finish()
        assert col.mode == "spool" and trips == ["spool"]
        assert out["count"] == 7 and out["stored"] == 7
        stored = read_bicliques(tmp_path / "spool.jsonl")
        assert {(b.left, b.right) for b in stored} == {
            (b.left, b.right) for b in items
        }
        assert col.results == []  # RAM actually freed

    def test_spool_degrades_to_count_only(self, tmp_path):
        wd = MemoryWatchdog(max_in_ram=2, max_spool_bytes=30)
        trips = []
        col = DegradableCollector(
            tmp_path / "spool.jsonl", wd, on_degrade=trips.append
        )
        for b in _bicliques(50):
            col(b)
        out = col.finish()
        assert col.mode == "count" and trips == ["spool", "count"]
        assert out["count"] == 50  # counting never stops
        assert out["truncated"] is True
        assert out["stored"] < 50

    def test_rss_probe_trips_soft_limit(self, tmp_path):
        rss = [100]
        wd = MemoryWatchdog(
            soft_limit_bytes=1000, hard_limit_bytes=2000,
            probe=lambda: rss[0], probe_every=1,
        )
        assert not wd.should_spool(in_ram=1)
        rss[0] = 1000
        assert wd.should_spool(in_ram=1)

    def test_collect_false_starts_in_count_mode(self, tmp_path):
        wd = MemoryWatchdog()
        col = DegradableCollector(tmp_path / "s", wd, collect=False)
        for b in _bicliques(4):
            col(b)
        out = col.finish()
        assert out == {"mode": "count", "count": 4}

    def test_ladder_never_climbs_back(self, tmp_path):
        wd = MemoryWatchdog(max_in_ram=2)
        col = DegradableCollector(tmp_path / "s", wd)
        for b in _bicliques(3):
            col(b)
        assert col.mode == "spool"
        wd.max_in_ram = 100  # even if pressure vanishes
        for b in _bicliques(2):
            col(b)
        assert col.mode == "spool"


# --------------------------------------------------------------------------
# admission queue


def _job(i=0):
    return Job(job_id=f"j-{i}", spec=JobSpec(edges=EDGES))


class TestBoundedJobQueue:
    def test_fifo(self):
        q = BoundedJobQueue(max_depth=4)
        q.put(_job(1))
        q.put(_job(2))
        assert q.get(timeout=0.1).job_id == "j-1"
        assert q.get(timeout=0.1).job_id == "j-2"

    def test_depth_limit_rejects_with_retry_after(self):
        q = BoundedJobQueue(max_depth=1)
        q.put(_job(1))
        with pytest.raises(AdmissionError) as exc:
            q.put(_job(2))
        assert exc.value.status == 429
        assert exc.value.retry_after >= 1.0

    def test_closed_queue_rejects_as_draining(self):
        q = BoundedJobQueue()
        q.close()
        with pytest.raises(AdmissionError) as exc:
            q.put(_job())
        assert exc.value.status == 503

    def test_recovered_jobs_bypass_the_depth_gate(self):
        q = BoundedJobQueue(max_depth=1)
        q.put(_job(1))
        q.put_recovered(_job(2))
        assert q.depth == 2

    def test_remove_cancels_a_queued_job(self):
        q = BoundedJobQueue()
        q.put(_job(1))
        assert q.remove("j-1").job_id == "j-1"
        assert q.remove("j-1") is None
        assert q.get(timeout=0.05) is None

    def test_estimate_cost_grows_with_the_graph(self):
        small = BipartiteGraph([(0, 0), (1, 1)])
        dense = BipartiteGraph([(u, v) for u in range(6) for v in range(6)])
        assert 0 < estimate_cost(small) < estimate_cost(dense)

    def test_empty_duration_history_uses_configured_default(self):
        # before any job has finished there is no duration signal — the
        # queue must not fabricate one from a made-up mean
        q = BoundedJobQueue(max_depth=1, default_retry_after=7.5)
        q.put(_job(1))
        with pytest.raises(AdmissionError) as exc:
            q.put(_job(2))
        assert exc.value.retry_after == 7.5

    def test_observed_durations_replace_the_default(self):
        q = BoundedJobQueue(max_depth=1, default_retry_after=99.0)
        q.observe_duration(2.0)
        q.put(_job(1))
        with pytest.raises(AdmissionError) as exc:
            q.put(_job(2))
        assert exc.value.retry_after < 99.0
        assert exc.value.retry_after >= 1.0

    def test_default_retry_after_must_be_positive(self):
        with pytest.raises(ValueError, match="default_retry_after"):
            BoundedJobQueue(default_retry_after=0)


# --------------------------------------------------------------------------
# job spec validation


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec(engine="mbet", edges=EDGES, min_left=2,
                       idempotency_key="k1")
        assert JobSpec.from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize("payload,match", [
        ({}, "exactly one of"),
        ({"dataset": "mti", "edges": EDGES}, "exactly one of"),
        ({"edges": []}, "non-empty"),
        ({"edges": [[0]]}, "pairs"),
        ({"edges": [[0, -1]]}, "pairs"),
        ({"edges": EDGES, "min_left": 0}, "thresholds"),
        ({"edges": EDGES, "time_limit": -1}, "time_limit"),
        ({"edges": EDGES, "bogus_field": 1}, "unknown job spec"),
        ("not a dict", "JSON object"),
    ])
    def test_invalid_specs_rejected(self, payload, match):
        with pytest.raises(JobValidationError, match=match):
            JobSpec.from_dict(payload)


# --------------------------------------------------------------------------
# job journal


class TestJobJournal:
    def test_replay_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        job = Job(job_id="j-1", spec=JobSpec(edges=EDGES,
                                             idempotency_key="key-1"))
        journal.record_event(job, "submitted")
        journal.record_event(job, "started")
        journal.record_event(job, "done", summary={"count": 2})
        journal.close()
        state = load_journal(path)
        assert state["j-1"]["event"] == "done"
        assert state["j-1"]["summary"] == {"count": 2}
        assert state["j-1"]["spec"]["edges"] == EDGES

    def test_inflight_jobs_are_resumable_terminal_are_not(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        running = Job(job_id="j-run", spec=JobSpec(edges=EDGES))
        finished = Job(job_id="j-done", spec=JobSpec(edges=EDGES))
        journal.record_event(running, "submitted")
        journal.record_event(running, "started")
        journal.record_event(finished, "submitted")
        journal.record_event(finished, "done")
        journal.close()
        reopened = JobJournal(path)
        resumable = reopened.resumable_jobs()
        assert [j.job_id for j in resumable] == ["j-run"]
        assert resumable[0].recovered
        reopened.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        job = Job(job_id="j-1", spec=JobSpec(edges=EDGES))
        journal.record_event(job, "submitted")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"job","event":"done","jo')  # torn write
        state = load_journal(path)
        assert state["j-1"]["event"] == "submitted"

    def test_reopen_after_torn_tail_keeps_appending_safely(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        job = Job(job_id="j-1", spec=JobSpec(edges=EDGES))
        journal.record_event(job, "submitted")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        reopened = JobJournal(path)  # must newline-terminate the tear
        reopened.record_event(job, "started")
        reopened.close()
        state = load_journal(path)
        assert state["j-1"]["event"] == "started"

    def test_midfile_corruption_raises_with_location(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        job = Job(job_id="j-1", spec=JobSpec(edges=EDGES))
        journal.record_event(job, "submitted")
        journal.close()
        lines = path.read_text().splitlines()
        path.write_text("garbage\n" + "\n".join(lines) + "\n")
        with pytest.raises(JournalError, match=r":1:"):
            load_journal(path)

    def test_idempotency_index(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        job = Job(job_id="j-1",
                  spec=JobSpec(edges=EDGES, idempotency_key="alpha"))
        journal.record_event(job, "submitted")
        journal.record_event(job, "done")
        journal.close()
        assert JobJournal(path).idempotency_index() == {"alpha": "j-1"}


# --------------------------------------------------------------------------
# journal compaction


class TestJournalCompaction:
    def _fill(self, journal, n_terminal=5, keyed=(), inflight=()):
        for i in range(n_terminal):
            job = Job(job_id=f"t-{i}", spec=JobSpec(edges=EDGES))
            journal.record_event(job, "submitted")
            journal.record_event(job, "started")
            journal.record_event(job, "done", summary={"count": i})
        for key in keyed:
            job = Job(job_id=f"k-{key}",
                      spec=JobSpec(edges=EDGES, idempotency_key=key))
            journal.record_event(job, "submitted")
            journal.record_event(job, "done", summary={"count": 1})
        for job_id in inflight:
            job = Job(job_id=job_id, spec=JobSpec(edges=EDGES))
            journal.record_event(job, "submitted")
            journal.record_event(job, "started")

    def test_compaction_collapses_but_preserves_every_contract(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        self._fill(journal, n_terminal=4, keyed=["alpha"],
                   inflight=["j-run"])
        before_state = load_journal(path)
        before_size = os.path.getsize(path)
        kept = journal.compact()
        journal.close()
        assert kept == 6
        assert os.path.getsize(path) < before_size
        # the replayed state is identical where it matters
        after = JobJournal(path)
        after_state = load_journal(path)
        for job_id, entry in before_state.items():
            assert after_state[job_id]["event"] == entry["event"]
            assert after_state[job_id]["spec"] == entry["spec"]
            if "summary" in entry:
                assert after_state[job_id]["summary"] == entry["summary"]
        assert [j.job_id for j in after.resumable_jobs()] == ["j-run"]
        assert after.idempotency_index() == {"alpha": "k-alpha"}
        after.close()

    def test_size_trigger_compacts_automatically(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path, compact_max_bytes=2000, max_terminal=3)
        self._fill(journal, n_terminal=40)
        assert journal.compactions >= 1
        assert os.path.getsize(path) < 4000
        journal.compact()  # settle jobs finished since the last auto pass
        journal.close()
        state = load_journal(path)
        assert len(state) <= 3  # keyless terminal jobs expired, newest kept

    def test_max_terminal_expires_keyless_only_oldest_first(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path, max_terminal=2)
        self._fill(journal, n_terminal=5, keyed=["a", "b"])
        journal.compact()
        journal.close()
        state = load_journal(path)
        # both keyed jobs survive; only the 2 newest keyless remain
        assert set(state) == {"t-3", "t-4", "k-a", "k-b"}

    def test_age_trigger_expires_old_terminal_jobs_at_open(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        self._fill(journal, n_terminal=2, keyed=["keep"])
        journal.close()
        # age the records: shift every timestamp far into the past
        aged = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec["t"] = rec["t"] - 10_000
            aged.append(json.dumps(rec))
        path.write_text("\n".join(aged) + "\n")
        reopened = JobJournal(path, compact_max_age=100.0)
        assert reopened.compactions == 1
        reopened.close()
        state = load_journal(path)
        assert set(state) == {"k-keep"}  # keyed jobs never age out

    def test_crash_during_compaction_leaves_the_journal_intact(
        self, tmp_path
    ):
        """A kill mid-compaction must lose nothing: the half-written
        rewrite is a sibling tmp file, the real journal is untouched,
        and the next open discards the garbage without reading it."""
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        self._fill(journal, n_terminal=2, keyed=["alpha"],
                   inflight=["j-run"])
        journal.close()
        before = load_journal(path)
        # simulate the torn mid-compaction state a SIGKILL leaves behind
        tmp = str(path) + ".compact.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write('{"type":"job","event":"submitted","jo')
        reopened = JobJournal(path)
        assert not os.path.exists(tmp)  # garbage removed, never read
        assert load_journal(path) == before
        assert [j.job_id for j in reopened.resumable_jobs()] == ["j-run"]
        assert reopened.idempotency_index() == {"alpha": "k-alpha"}
        reopened.close()

    def test_restart_resume_survives_a_compaction_cycle(self, tmp_path):
        """End-to-end: submit → crash → compact on reopen → the job
        still resumes and reports exact results."""
        first = _make_service(tmp_path, start=False)
        job, _ = first.submit({"engine": "mbet", "edges": EDGES,
                               "idempotency_key": "re-compact"})
        first.journal.close()  # crash: no drain

        second = _make_service(tmp_path, journal_max_bytes=1)
        try:
            assert second.journal.compactions >= 1
            assert _wait_terminal(second, job.job_id) == "done"
            got = {
                (tuple(left), tuple(right))
                for left, right in second.result(job.job_id)["bicliques"]
            }
            assert got == _expected_set()
            again, dedup = second.submit({
                "engine": "mbet", "edges": EDGES,
                "idempotency_key": "re-compact",
            })
            assert dedup and again.job_id == job.job_id
        finally:
            second.drain(timeout=2)

    def test_compaction_racing_a_concurrent_writer_loses_nothing(
        self, tmp_path
    ):
        """Appends and compaction passes interleave under real threads;
        the journal must stay parseable end to end and every job written
        before the final compact must survive with its last event."""
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        stop = threading.Event()
        written: list[str] = []

        def writer():
            i = 0
            while not stop.is_set():
                job = Job(
                    job_id=f"w-{i}",
                    spec=JobSpec(edges=EDGES, idempotency_key=f"w{i}"),
                )
                journal.record_event(job, "submitted")
                journal.record_event(job, "done", summary={"count": i})
                written.append(job.job_id)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            passes = 0
            while passes < 25:
                assert journal.compact() >= 0
                passes += 1
        finally:
            stop.set()
            thread.join()
        journal.compact()
        journal.close()
        state = load_journal(path)  # raises on any torn mid-file record
        assert set(written) <= set(state)
        assert all(state[j]["event"] == "done" for j in written)
        assert journal.write_errors == 0

    def test_chaos_torn_tmp_write_abandons_the_pass(self, tmp_path):
        """A mid-compaction I/O death (the shim tears every write to the
        ``.compact.tmp`` sibling) must leave the original journal
        byte-authoritative and still appendable."""
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        self._fill(journal, n_terminal=3, keyed=["alpha"],
                   inflight=["j-run"])
        before = load_journal(path)

        torn = FaultSchedule(seed=1, rules=(
            FaultRule("disk", "torn_write", match="compact.tmp",
                      op="write"),
        ))
        with chaos_fs.active(torn):
            assert journal.compact() == -1
        assert journal.compact_failures == 1
        assert not os.path.exists(str(path) + ".compact.tmp")
        assert load_journal(path) == before
        # still appendable, and a clean pass then succeeds
        job = Job(job_id="after", spec=JobSpec(edges=EDGES))
        journal.record_event(job, "submitted")
        assert journal.compact() >= 1
        journal.close()
        state = load_journal(path)
        assert state["after"]["event"] == "submitted"
        assert state["k-alpha"]["event"] == "done"

    def test_chaos_failed_swap_keeps_the_old_file(self, tmp_path):
        """The atomic-rename step itself failing (EIO on ``os.replace``)
        must be abandoned the same way: old file intact, handle reopened,
        later appends land."""
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        self._fill(journal, n_terminal=2, keyed=["beta"])
        before = load_journal(path)

        swap = FaultSchedule(seed=2, rules=(
            FaultRule("disk", "replace_error", match="journal.jsonl",
                      op="replace"),
        ))
        with chaos_fs.active(swap):
            assert journal.compact() == -1
        assert journal.compact_failures == 1
        assert load_journal(path) == before
        job = Job(job_id="post-swap", spec=JobSpec(edges=EDGES))
        journal.record_event(job, "submitted")
        journal.close()
        assert load_journal(path)["post-swap"]["event"] == "submitted"


# --------------------------------------------------------------------------
# journal failure degradation (chaos-driven)


class TestJournalFailureDegradation:
    def test_submit_under_journal_enospc_returns_503_with_retry_after(
        self, tmp_path
    ):
        service = _make_service(tmp_path)
        try:
            enospc = FaultSchedule(seed=0, rules=(
                FaultRule("disk", "enospc", match="journal.jsonl",
                          op="write"),
            ))
            with chaos_fs.active(enospc):
                with pytest.raises(AdmissionError) as excinfo:
                    service.submit({"engine": "mbet", "edges": EDGES,
                                    "idempotency_key": "gone"})
            assert excinfo.value.status == 503
            assert excinfo.value.reason == "journal_unavailable"
            assert excinfo.value.retry_after is not None
            # the admission was rolled back completely
            assert service.list_jobs() == []
            assert "gone" not in service._idempotency
            # disk healed: the identical submit is admitted and finishes
            job, dedup = service.submit({
                "engine": "mbet", "edges": EDGES,
                "idempotency_key": "gone",
            })
            assert not dedup
            assert _wait_terminal(service, job.job_id) == "done"
        finally:
            service.drain(timeout=2)

    def test_worker_pool_keeps_draining_when_the_journal_dies(
        self, tmp_path
    ):
        """Post-admission journal failures must not take down workers:
        an already-admitted job still runs to an exact answer, the lost
        append is only a durability gap."""
        service = _make_service(tmp_path, start=False)
        job, _ = service.submit({"engine": "mbet", "edges": EDGES})
        enospc = FaultSchedule(seed=0, rules=(
            FaultRule("disk", "enospc", match="journal.jsonl",
                      op="write"),
        ))
        try:
            with chaos_fs.active(enospc):
                service.start()
                assert _wait_terminal(service, job.job_id) == "done"
            assert service.journal.write_errors >= 1
            got = {
                (tuple(left), tuple(right))
                for left, right in service.result(job.job_id)["bicliques"]
            }
            assert got == _expected_set()
        finally:
            service.drain(timeout=2)


# --------------------------------------------------------------------------
# service core (in-process)


class _CrashyMBE(MBEAlgorithm):
    """Synthetic always-crashing engine for breaker/fallback tests."""

    name = "crashy_test_engine"

    def _enumerate(self, graph, report, stats):
        raise RuntimeError("synthetic engine crash")


@pytest.fixture(autouse=True)
def crashy_engine():
    """Register the synthetic engine for this module only.

    A module-level ``register`` would leak it into
    ``available_algorithms()`` and trip the README doc-drift guard.
    """
    fresh = _CrashyMBE.name not in ALGORITHMS
    if fresh:
        register(_CrashyMBE)
    yield
    if fresh:
        ALGORITHMS.pop(_CrashyMBE.name, None)


def _make_service(tmp_path, start=True, **cfg):
    cfg.setdefault("workers", 1)
    service = EnumerationService(
        ServiceConfig(state_dir=str(tmp_path / "state"), **cfg)
    )
    if start:
        service.start()
    return service


def _wait_terminal(service, job_id, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = service.status(job_id)["state"]
        if state in ("done", "failed", "cancelled"):
            return state
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish: {state}")


class TestEnumerationService:
    def test_job_runs_to_done_with_exact_results(self, tmp_path):
        service = _make_service(tmp_path)
        try:
            job, dedup = service.submit({"engine": "mbet", "edges": EDGES})
            assert not dedup
            assert _wait_terminal(service, job.job_id) == "done"
            payload = service.result(job.job_id)
            got = {
                (tuple(left), tuple(right))
                for left, right in payload["bicliques"]
            }
            assert got == _expected_set()
            assert payload["summary"]["engine"] == "mbet"
            assert payload["summary"]["complete"] is True
        finally:
            service.drain(timeout=2)

    def test_idempotency_key_deduplicates(self, tmp_path):
        service = _make_service(tmp_path)
        try:
            spec = {"engine": "mbet", "edges": EDGES,
                    "idempotency_key": "same"}
            first, dedup1 = service.submit(spec)
            _wait_terminal(service, first.job_id)
            second, dedup2 = service.submit(spec)
            assert (dedup1, dedup2) == (False, True)
            assert second.job_id == first.job_id
        finally:
            service.drain(timeout=2)

    def test_cost_gate_rejects_permanently(self, tmp_path):
        service = _make_service(tmp_path, start=False, max_cost=1)
        try:
            with pytest.raises(AdmissionError) as exc:
                service.submit({"engine": "mbet", "edges": EDGES})
            assert exc.value.status == 413
            assert exc.value.retry_after is None  # retrying will not help
        finally:
            service.drain(timeout=1)

    def test_queue_full_rejects_transiently(self, tmp_path):
        service = _make_service(tmp_path, start=False, max_queue_depth=1)
        try:
            service.submit({"engine": "mbet", "edges": EDGES})
            with pytest.raises(AdmissionError) as exc:
                service.submit({"engine": "mbet", "edges": EDGES})
            assert exc.value.status == 429
            assert exc.value.retry_after is not None
        finally:
            service.drain(timeout=1)

    def test_cancel_queued_job(self, tmp_path):
        service = _make_service(tmp_path, start=False)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            payload = service.cancel(job.job_id)
            assert payload["state"] == "cancelled"
        finally:
            service.drain(timeout=1)

    def test_unknown_engine_rejected_up_front(self, tmp_path):
        service = _make_service(tmp_path, start=False)
        try:
            with pytest.raises(JobValidationError, match="unknown engine"):
                service.submit({"engine": "no_such", "edges": EDGES})
        finally:
            service.drain(timeout=1)

    @pytest.mark.parametrize("engine", sorted(RETIRED_ENGINES))
    def test_retired_engine_name_runs_the_planned_chain(
        self, tmp_path, engine
    ):
        # an older client may still name an engine that left the registry
        service = _make_service(tmp_path)
        try:
            job, _ = service.submit({"engine": engine, "edges": EDGES})
            assert _wait_terminal(service, job.job_id) == "done"
            payload = service.result(job.job_id)
            assert payload["engine_requested"] == engine
            assert payload["summary"]["engine"] == "mbet"
            got = {
                (tuple(left), tuple(right))
                for left, right in payload["bicliques"]
            }
            assert got == _expected_set()
        finally:
            service.drain(timeout=2)

    @pytest.mark.parametrize("engine", sorted(RETIRED_ENGINES))
    def test_journaled_job_naming_a_retired_engine_resumes(
        self, tmp_path, engine
    ):
        # a journal written while the engine existed: its in-flight job
        # is re-enqueued on restart and completes on the planned chain
        state = tmp_path / "state"
        state.mkdir()
        journal = JobJournal(state / "journal.jsonl")
        job = Job(job_id="j-old", spec=JobSpec(engine=engine, edges=EDGES),
                  submitted_at=time.time())
        journal.record_event(job, "submitted")
        journal.record_event(job, "started")
        journal.close()
        service = _make_service(tmp_path)
        try:
            assert _wait_terminal(service, "j-old") == "done"
            summary = service.result("j-old")["summary"]
            assert summary["engine"] == "mbet"
            assert summary["count"] == len(_expected_set())
        finally:
            service.drain(timeout=2)

    def test_crash_looping_engine_trips_breaker_and_falls_back(
        self, tmp_path
    ):
        service = _make_service(
            tmp_path, breaker_threshold=2, breaker_cooldown=60.0
        )
        try:
            spec = {"engine": _CrashyMBE.name, "edges": EDGES}
            jobs = []
            for _ in range(3):
                job, _ = service.submit(spec)
                assert _wait_terminal(service, job.job_id) == "done"
                jobs.append(service.result(job.job_id))
            for payload in jobs:
                # every job succeeded via the fallback chain, exactly
                assert payload["summary"]["engine"] == "mbet"
                got = {
                    (tuple(left), tuple(right))
                    for left, right in payload["bicliques"]
                }
                assert got == _expected_set()
            # first two jobs burned real attempts, tripping the breaker
            assert service.breakers.breaker(_CrashyMBE.name).state == "open"
            # the third never attempted the poisoned engine
            why = jobs[2]["summary"]["fallbacks"][0]["why"]
            assert "breaker open" in why
        finally:
            service.drain(timeout=2)

    def test_fallback_chain_exhaustion_reports_structured_error(
        self, tmp_path
    ):
        """When every engine in the chain fails, the job fails with a
        machine-readable exhaustion report — engines tried and per-engine
        causes — not just a flattened message."""
        service = _make_service(tmp_path, fallback=())  # chain: just crashy
        try:
            job, _ = service.submit({"engine": _CrashyMBE.name,
                                     "edges": EDGES})
            assert _wait_terminal(service, job.job_id) == "failed"
            payload = service.result(job.job_id)
            summary = payload["summary"]
            assert summary["error_kind"] == "fallback_exhausted"
            assert summary["engines_tried"] == [_CrashyMBE.name]
            assert "synthetic engine crash" in summary["fallbacks"][0]["why"]
            assert "synthetic engine crash" in payload["error"]
            # the structured report survives a restart via the journal
            service.drain(timeout=2)
            second = _make_service(tmp_path, start=False, fallback=())
            try:
                replayed = second.result(job.job_id)
                assert replayed["summary"]["error_kind"] == \
                    "fallback_exhausted"
            finally:
                second.drain(timeout=1)
        finally:
            service.drain(timeout=2)

    def test_exhaustion_over_http_is_a_clean_failed_job_not_a_500(
        self, tmp_path
    ):
        service = _make_service(tmp_path, fallback=())
        httpd = make_http_server(service)
        threading.Thread(target=httpd.serve_forever,
                         kwargs={"poll_interval": 0.05}, daemon=True).start()
        client = _Client(httpd.server_address[1])
        try:
            status, payload = client.request(
                "POST", "/jobs", {"engine": _CrashyMBE.name, "edges": EDGES}
            )
            assert status == 202
            _wait_terminal(service, payload["job_id"])
            status, result = client.request(
                "GET", f"/jobs/{payload['job_id']}/result"
            )
            assert status == 200  # a failed job is an answer, not a 500
            assert result["state"] == "failed"
            assert result["summary"]["error_kind"] == "fallback_exhausted"
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    def test_watchdog_degrades_but_results_stay_exact(self, tmp_path):
        service = _make_service(tmp_path, max_in_ram=2)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            assert _wait_terminal(service, job.job_id) == "done"
            payload = service.result(job.job_id)
            assert payload["summary"]["results"]["mode"] == "spool"
            got = {
                (tuple(left), tuple(right))
                for left, right in payload["bicliques"]
            }
            assert got == _expected_set()
        finally:
            service.drain(timeout=2)

    def test_journal_resume_recovers_an_unstarted_job(self, tmp_path):
        first = _make_service(tmp_path, start=False)
        job, _ = first.submit({"engine": "mbet", "edges": EDGES,
                               "idempotency_key": "re"})
        first.journal.close()  # crash: no drain, no terminal record

        second = _make_service(tmp_path)
        try:
            status = second.status(job.job_id)
            assert status["recovered"] is True
            assert _wait_terminal(second, job.job_id) == "done"
            got = {
                (tuple(left), tuple(right))
                for left, right in second.result(job.job_id)["bicliques"]
            }
            assert got == _expected_set()
            # the idempotency key survived the restart too
            again, dedup = second.submit({"engine": "mbet", "edges": EDGES,
                                          "idempotency_key": "re"})
            assert dedup and again.job_id == job.job_id
        finally:
            second.drain(timeout=2)


# --------------------------------------------------------------------------
# HTTP surface (in-process server)


class _Client:
    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(self.base + path, data=data,
                                     method=method)
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def text(self, path):
        with urllib.request.urlopen(self.base + path, timeout=10) as resp:
            return resp.read().decode()


@pytest.fixture
def http_service(tmp_path):
    service = _make_service(tmp_path)
    httpd = make_http_server(service)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    yield service, _Client(httpd.server_address[1])
    httpd.shutdown()
    service.drain(timeout=2)


class TestHTTPSurface:
    def test_submit_poll_result_metrics(self, http_service):
        service, client = http_service
        assert client.request("GET", "/healthz")[0] == 200
        assert client.request("GET", "/readyz")[0] == 200
        status, payload = client.request(
            "POST", "/jobs", {"engine": "mbet", "edges": EDGES}
        )
        assert status == 202
        job_id = payload["job_id"]
        _wait_terminal(service, job_id)
        status, result = client.request("GET", f"/jobs/{job_id}/result")
        assert status == 200
        got = {(tuple(a), tuple(b)) for a, b in result["bicliques"]}
        assert got == _expected_set()
        samples = parse_prometheus_text(client.text("/metrics"))
        assert samples['serve_jobs_total{event="done"}'] >= 1
        assert samples["serve_queue_depth"] == 0

    def test_error_statuses(self, http_service):
        _service, client = http_service
        assert client.request("POST", "/jobs", {"edges": []})[0] == 400
        assert client.request("GET", "/jobs/j-nope")[0] == 404
        assert client.request("GET", "/nothing")[0] == 404

    def test_result_before_terminal_is_409(self, tmp_path):
        service = _make_service(tmp_path, start=False)  # nothing runs
        httpd = make_http_server(service)
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        client = _Client(httpd.server_address[1])
        try:
            _, payload = client.request(
                "POST", "/jobs", {"engine": "mbet", "edges": EDGES}
            )
            status, _ = client.request(
                "GET", f"/jobs/{payload['job_id']}/result"
            )
            assert status == 409
        finally:
            httpd.shutdown()
            service.drain(timeout=1)


def _serve_http(service):
    httpd = make_http_server(service)
    threading.Thread(target=httpd.serve_forever,
                     kwargs={"poll_interval": 0.05}, daemon=True).start()
    return httpd, WorkerClient(f"http://127.0.0.1:{httpd.server_address[1]}")


def _tsv_set(data):
    return {(b.left, b.right) for b in parse_bicliques(data.decode())}


class TestStatusWait:
    """``GET /jobs/<id>`` with a ``{"wait": s}`` body holds the reply until
    the job ends, bounded by ``s`` and by the server's cap."""

    def test_terminal_job_returns_at_once(self, tmp_path):
        service = _make_service(tmp_path)
        httpd, client = _serve_http(service)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            _wait_terminal(service, job.job_id)
            t0 = time.monotonic()
            status, body = client.job_status(job.job_id, wait=5.0)
            assert status == 200 and body["state"] == "done"
            assert time.monotonic() - t0 < 1.0
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    def test_job_finishing_during_the_wait_returns_well_before_the_bound(
        self, tmp_path
    ):
        service = _make_service(tmp_path, start=False)  # job stays queued
        httpd, client = _serve_http(service)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            starter = threading.Timer(0.2, service.start)
            starter.start()
            t0 = time.monotonic()
            status, body = client.job_status(job.job_id, wait=8.0)
            waited = time.monotonic() - t0
            starter.join()
            assert status == 200 and body["state"] == "done"
            assert 0.15 < waited < 4.0
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    def test_running_job_returns_at_the_bound(self, tmp_path):
        service = _make_service(tmp_path, start=False)  # never finishes
        httpd, client = _serve_http(service)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            t0 = time.monotonic()
            status, body = client.job_status(job.job_id, wait=0.3)
            waited = time.monotonic() - t0
            assert status == 200 and body["state"] == "queued"
            assert 0.3 <= waited < 2.0
            # a plain status request still answers at once
            t0 = time.monotonic()
            assert client.job_status(job.job_id)[1]["state"] == "queued"
            assert time.monotonic() - t0 < 1.0
        finally:
            httpd.shutdown()
            service.drain(timeout=1)

    @pytest.mark.parametrize("body", [
        {"wait": -1}, {"wait": "soon"}, {"wait": True}, {"wait": None},
        {"wait": [1]}, {"wait": 1, "extra": 2}, ["wait"],
        # JSON has no literal for these; Python's encoder writes them
        {"wait": float("nan")}, {"wait": float("inf")},
    ])
    def test_malformed_or_negative_wait_is_400(self, tmp_path, body):
        service = _make_service(tmp_path, start=False)
        httpd, client = _serve_http(service)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            status, payload = client.request(
                "GET", f"/jobs/{job.job_id}", body
            )
            assert status == 400, payload
        finally:
            httpd.shutdown()
            service.drain(timeout=1)

    def test_oversized_wait_is_capped(self, tmp_path, monkeypatch):
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "MAX_STATUS_WAIT_S", 0.2)
        service = _make_service(tmp_path, start=False)
        httpd, client = _serve_http(service)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            t0 = time.monotonic()
            status, body = client.job_status(job.job_id, wait=1e9)
            assert status == 200 and body["state"] == "queued"
            assert time.monotonic() - t0 < 3.0
        finally:
            httpd.shutdown()
            service.drain(timeout=1)

    def test_drain_releases_a_waiting_request(self, tmp_path):
        service = _make_service(tmp_path, start=False)
        job, _ = service.submit({"engine": "mbet", "edges": EDGES})
        threading.Timer(0.2, service.drain, kwargs={"timeout": 1}).start()
        t0 = time.monotonic()
        service.status(job.job_id, wait=8.0)
        assert time.monotonic() - t0 < 4.0


class TestTSVResult:
    """``GET /jobs/<id>/result`` with ``{"format": "tsv"}``: the result as
    result-file bytes, from every place a finished job keeps it."""

    def _json_set(self, client, job_id):
        status, payload = client.request("GET", f"/jobs/{job_id}/result")
        assert status == 200
        return {(tuple(a), tuple(b)) for a, b in payload["bicliques"]}

    def _tsv(self, client, job_id):
        status, data = client.job_result_tsv(job_id)
        assert status == 200 and isinstance(data, bytes)
        return data

    def test_ram_spool_and_cache_modes_match_the_json_route(self, tmp_path):
        from repro.bigraph.io import write_edge_list

        edges = [list(e) for e in planted_bicliques(
            12, 12, 3, noise_edges=20, seed=4).edges()]
        gpath = tmp_path / "g.txt"
        write_edge_list(BipartiteGraph([tuple(e) for e in edges]), gpath)
        expected = _expected_set(edges)
        spec = {"engine": "mbet", "graph_path": str(gpath)}

        ram_svc = _make_service(tmp_path)
        httpd, client = _serve_http(ram_svc)
        try:
            job, _ = ram_svc.submit(spec)
            _wait_terminal(ram_svc, job.job_id)
            assert ram_svc.status(job.job_id)["summary"]["results"][
                "mode"] == "collect"
            cached, _ = ram_svc.submit(spec)  # answered by the cache
            assert cached.summary.get("cache_hit") is True
            for job_id in (job.job_id, cached.job_id):
                data = self._tsv(client, job_id)
                assert data.count(b"\n") == len(expected)
                assert _tsv_set(data) == self._json_set(client, job_id) \
                    == expected
        finally:
            httpd.shutdown()
            ram_svc.drain(timeout=2)

        # a restarted server holds no RAM results: the cache-hit job is
        # rehydrated from the artifact store
        reborn = _make_service(tmp_path, start=False)
        httpd, client = _serve_http(reborn)
        try:
            assert reborn.status(cached.job_id)["summary"]["results"][
                "mode"] == "cache"
            data = self._tsv(client, cached.job_id)
            assert _tsv_set(data) == self._json_set(
                client, cached.job_id) == expected
            # the first job's RAM results did not survive
            status, body = client.job_result_tsv(job.job_id)
            assert status == 410 and body["results_available"] is False
        finally:
            httpd.shutdown()
            reborn.drain(timeout=1)

        spool_svc = _make_service(tmp_path / "spool", max_in_ram=2,
                                  result_cache=False)
        httpd, client = _serve_http(spool_svc)
        try:
            job, _ = spool_svc.submit(spec)
            _wait_terminal(spool_svc, job.job_id)
            results = spool_svc.status(job.job_id)["summary"]["results"]
            assert results["mode"] == "spool"
            data = self._tsv(client, job.job_id)
            with open(results["spool_path"], "rb") as handle:
                assert data == handle.read()  # the bytes the job wrote
            assert _tsv_set(data) == self._json_set(
                client, job.job_id) == expected
        finally:
            httpd.shutdown()
            spool_svc.drain(timeout=2)

    def test_unfinished_job_is_409_and_bad_format_400(self, tmp_path):
        service = _make_service(tmp_path, start=False)
        httpd, client = _serve_http(service)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            assert client.job_result_tsv(job.job_id)[0] == 409
            status, _ = client.request(
                "GET", f"/jobs/{job.job_id}/result", {"format": "xml"}
            )
            assert status == 400
        finally:
            httpd.shutdown()
            service.drain(timeout=1)


# --------------------------------------------------------------------------
# full-process integration: drain and kill -9 resume


def _boot_server(state_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    port_file = os.path.join(str(state_dir), "serve.port")
    if os.path.exists(port_file):  # stale from a kill -9'd previous life
        os.remove(port_file)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), "--port", "0", *extra],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server died on boot: {proc.stdout.read()}"
            )
        if os.path.exists(port_file):
            text = open(port_file).read().strip()
            if text:
                return proc, int(text)
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("server never wrote its port file")


def _poll_until(client, job_id, states, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = client.request("GET", f"/jobs/{job_id}")
        if status == 200 and payload["state"] in states:
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job never reached {states}: {payload}")


class TestServerProcess:
    def test_sigterm_drains_cleanly(self, tmp_path):
        proc, port = _boot_server(tmp_path)
        client = _Client(port)
        status, payload = client.request(
            "POST", "/jobs", {"engine": "mbet", "edges": EDGES}
        )
        assert status == 202
        _poll_until(client, payload["job_id"], {"done"})
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained" in out

    def test_kill9_restart_resumes_to_the_exact_result(self, tmp_path):
        """The acceptance scenario: kill -9 mid-job, restart against the
        same state dir, and the finished job reports the exact maximal
        biclique set of an uninterrupted run — no loss, no duplicates."""
        graph = planted_bicliques(24, 24, 5, noise_edges=40, seed=3)
        graph_path = tmp_path / "graph.txt"
        from repro.bigraph.io import write_edge_list

        write_edge_list(graph, graph_path)
        fresh = run_mbe(graph, "mbet")
        expected = {(b.left, b.right) for b in fresh.bicliques}

        state_dir = tmp_path / "state"
        proc, port = _boot_server(state_dir, "--workers", "1",
                                  "--allow-faults")
        client = _Client(port)
        # the parallel engine checkpoints per task; slow-inject every
        # task so the kill deterministically lands mid-job
        status, payload = client.request("POST", "/jobs", {
            "engine": "parallel",
            "graph_path": str(graph_path),
            "engine_options": {"workers": 1, "seed": 0},
            "faults": {"slow_rate": 1.0, "slow_seconds": 0.06},
        })
        assert status == 202, payload
        job_id = payload["job_id"]

        # wait for the job to be genuinely mid-flight: running, with at
        # least a couple of tasks checkpointed
        ckpt = os.path.join(str(state_dir), "jobs", job_id,
                            "checkpoint.jsonl")
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            mid_flight = (
                os.path.exists(ckpt)
                and sum(1 for _ in open(ckpt)) >= 3
            )
            if mid_flight:
                break
            time.sleep(0.02)
        assert mid_flight, "job never reached mid-flight"
        proc.kill()  # SIGKILL: no drain, no journal goodbye
        proc.wait(timeout=10)

        proc2, port2 = _boot_server(state_dir, "--workers", "1",
                                    "--allow-faults")
        try:
            client2 = _Client(port2)
            payload = _poll_until(client2, job_id, {"done"})
            assert payload["recovered"] is True
            # the ">= 3 checkpoint lines" gate above is header + >= 2
            # task records, so at least those tasks must resume
            assert payload["summary"]["resumed_tasks"] >= 2
            status, result = client2.request(
                "GET", f"/jobs/{job_id}/result"
            )
            assert status == 200
            got = [
                (tuple(left), tuple(right))
                for left, right in result["bicliques"]
            ]
            assert len(got) == len(set(got))  # no double-reporting
            assert set(got) == expected  # the exact biclique set
        finally:
            proc2.send_signal(signal.SIGTERM)
            proc2.communicate(timeout=30)


class TestRunServerSignals:
    def test_signal_inside_the_stop_wait_returns_and_drains(
        self, tmp_path, monkeypatch, capsys
    ):
        """A SIGTERM that lands while the main loop is inside its wait
        runs the installed handler right there, in the main thread.  The
        handler must return (one that takes a lock the waiting thread
        holds, as ``threading.Event.set`` does, never would) and the loop
        must then exit and drain."""
        from repro.serve import server as server_mod

        handlers: dict = {}
        monkeypatch.setattr(
            server_mod.signal, "signal",
            lambda signum, handler: handlers.__setitem__(signum, handler),
        )
        main = threading.current_thread()
        waits: list[float] = []
        returned: list[bool] = []

        class Clock:
            """``time`` for the server module; the main thread's sleep is
            the stop loop's wait, and the signal lands inside it."""

            def __getattr__(self, name):
                return getattr(time, name)

            @staticmethod
            def sleep(seconds):
                if threading.current_thread() is not main:
                    return time.sleep(seconds)
                waits.append(seconds)
                if len(waits) == 1:
                    handlers[signal.SIGTERM](signal.SIGTERM, None)
                    returned.append(True)
                else:
                    raise AssertionError("the stop loop missed the signal")

        monkeypatch.setattr(server_mod, "time", Clock())
        # backstop: a loop that never enters the patched wait is stopped
        # from another thread after 30 s, and the asserts below fail
        backstop = threading.Timer(
            30, lambda: handlers[signal.SIGTERM](signal.SIGTERM, None)
        )
        backstop.daemon = True
        backstop.start()
        try:
            code = server_mod.run_server(
                ServiceConfig(state_dir=str(tmp_path / "svc"))
            )
        finally:
            backstop.cancel()
        assert code == 0
        assert returned == [True] and len(waits) == 1
        assert {signal.SIGTERM, signal.SIGINT} <= set(handlers)
        out = capsys.readouterr().out
        assert f"received signal {int(signal.SIGTERM)}, draining" in out
        assert "drained, exiting" in out
        assert not (tmp_path / "svc" / "serve.port").exists()


# --------------------------------------------------------------------------
# graph resolution caching (admission must not re-parse per request)


class TestGraphCache:
    def _service(self, tmp_path):
        return EnumerationService(
            ServiceConfig(state_dir=str(tmp_path / "svc"))
        )

    def test_graph_path_resolution_cached_until_file_changes(
        self, tmp_path
    ):
        from repro.bigraph.io import write_edge_list

        service = self._service(tmp_path)
        try:
            gpath = tmp_path / "g.txt"
            write_edge_list(
                BipartiteGraph([tuple(e) for e in EDGES]), gpath
            )
            spec = JobSpec(graph_path=str(gpath))
            first, first_key = service._resolve_graph(spec)
            again, again_key = service._resolve_graph(spec)
            assert again is first and again_key == first_key  # cache hit
            # rewriting the file must invalidate (mtime/size keyed)
            bigger = planted_bicliques(8, 8, 2, noise_edges=5, seed=1)
            write_edge_list(bigger, gpath)
            fresh, fresh_key = service._resolve_graph(spec)
            assert fresh is not first and fresh_key != first_key
            assert fresh.n_edges == bigger.n_edges
            # the stale RAM entry for the old file state is purged
            assert len(service._graph_cache) == 1
        finally:
            service.journal.close()

    def test_dataset_resolution_cached(self, tmp_path):
        from repro import datasets

        service = self._service(tmp_path)
        try:
            name = sorted(datasets.names())[0]
            spec = JobSpec(dataset=name)
            assert service._resolve_graph(spec)[0] is \
                service._resolve_graph(spec)[0]
        finally:
            service.journal.close()

    def test_inline_edges_not_cached(self, tmp_path):
        service = self._service(tmp_path)
        try:
            spec = JobSpec(edges=EDGES)
            assert service._graph_cache_key(spec) is None
            a, a_key = service._resolve_graph(spec)
            b, b_key = service._resolve_graph(spec)
            assert a is not b and a.n_edges == b.n_edges
            assert a_key == b_key  # same content, same identity
            assert not service._graph_cache
        finally:
            service.journal.close()


# --------------------------------------------------------------------------
# result cache (repeat jobs answered from the artifact store)


class TestServeResultCache:
    def _graph_file(self, tmp_path):
        from repro.bigraph.io import write_edge_list

        gpath = tmp_path / "g.txt"
        write_edge_list(BipartiteGraph([tuple(e) for e in EDGES]), gpath)
        return str(gpath)

    def test_repeat_job_is_a_journaled_cache_hit(
        self, tmp_path, monkeypatch
    ):
        gpath = self._graph_file(tmp_path)
        service = _make_service(tmp_path)
        try:
            spec = {"engine": "mbet", "graph_path": gpath}
            first, _ = service.submit(spec)
            assert _wait_terminal(service, first.job_id) == "done"
            expected = _expected_set()
            # the repeat must be answered without parsing, ordering, or
            # enumerating anything
            import repro.bigraph.io as io_mod
            import repro.bigraph.ordering as ordering_mod

            def no_parse(*a, **k):  # pragma: no cover - guard
                raise AssertionError("cache hit re-parsed the graph")

            def no_order(*a, **k):  # pragma: no cover - guard
                raise AssertionError("cache hit recomputed an ordering")

            monkeypatch.setattr(io_mod, "read_edge_list", no_parse)
            monkeypatch.setattr(ordering_mod, "_compute_order", no_order)
            second, dedup = service.submit(spec)
            assert not dedup and second.job_id != first.job_id
            assert second.state == "done"  # born terminal
            assert second.summary["cache_hit"] is True
            assert second.summary["count"] == \
                service.result(first.job_id)["summary"]["count"]
            payload = service.result(second.job_id)
            got = {
                (tuple(left), tuple(right))
                for left, right in payload["bicliques"]
            }
            assert got == expected
            state = load_journal(service.journal.path)
            assert state[second.job_id]["event"] == "cache_hit"
            assert state[first.job_id]["event"] == "done"
        finally:
            service.drain(timeout=2)

    def test_cache_hit_job_survives_restart(self, tmp_path):
        gpath = self._graph_file(tmp_path)
        service = _make_service(tmp_path)
        try:
            spec = {"engine": "mbet", "graph_path": gpath}
            first, _ = service.submit(spec)
            assert _wait_terminal(service, first.job_id) == "done"
            second, _ = service.submit(spec)
            assert second.summary.get("cache_hit") is True
        finally:
            service.drain(timeout=2)
        # a restarted server still answers for the cache-hit job — state
        # from the journal, bicliques rehydrated from the artifact store
        reborn = _make_service(tmp_path, start=False)
        try:
            assert reborn.status(second.job_id)["state"] == "done"
            payload = reborn.result(second.job_id)
            assert payload["summary"]["cache_hit"] is True
            got = {
                (tuple(left), tuple(right))
                for left, right in payload["bicliques"]
            }
            assert got == _expected_set()
        finally:
            reborn.drain(timeout=1)

    def test_result_cache_shared_across_server_lives(self, tmp_path):
        gpath = self._graph_file(tmp_path)
        spec = {"engine": "mbet", "graph_path": gpath}
        service = _make_service(tmp_path)
        try:
            job, _ = service.submit(spec)
            assert _wait_terminal(service, job.job_id) == "done"
        finally:
            service.drain(timeout=2)
        second_life = _make_service(tmp_path)
        try:
            job2, _ = second_life.submit(spec)
            assert job2.summary.get("cache_hit") is True
        finally:
            second_life.drain(timeout=2)

    def test_budget_capped_jobs_bypass_the_cache(self, tmp_path):
        gpath = self._graph_file(tmp_path)
        service = _make_service(tmp_path)
        try:
            spec = {"engine": "mbet", "graph_path": gpath}
            first, _ = service.submit(spec)
            assert _wait_terminal(service, first.job_id) == "done"
            capped, _ = service.submit({**spec, "max_bicliques": 2})
            # a capped job may legitimately truncate; it must run, not
            # be answered with the full cached result
            assert capped.summary.get("cache_hit") is None
            assert _wait_terminal(service, capped.job_id) == "done"
        finally:
            service.drain(timeout=2)

    def test_result_cache_disabled_by_config(self, tmp_path):
        gpath = self._graph_file(tmp_path)
        service = _make_service(tmp_path, result_cache=False)
        try:
            spec = {"engine": "mbet", "graph_path": gpath}
            first, _ = service.submit(spec)
            assert _wait_terminal(service, first.job_id) == "done"
            second, _ = service.submit(spec)
            assert second.summary.get("cache_hit") is None
            assert _wait_terminal(service, second.job_id) == "done"
        finally:
            service.drain(timeout=2)

    def test_corrupt_result_entry_reruns_with_correct_answer(
        self, tmp_path
    ):
        from repro.artifacts import ArtifactStore

        gpath = self._graph_file(tmp_path)
        spec = {"engine": "mbet", "graph_path": gpath}
        service = _make_service(tmp_path)
        try:
            job, _ = service.submit(spec)
            assert _wait_terminal(service, job.job_id) == "done"
        finally:
            service.drain(timeout=2)
        # corrupt the stored result on disk between server lives
        probe = ArtifactStore(os.path.join(tmp_path, "state", "artifacts"))
        results = [e for e in probe.entries() if e.kind == "result"]
        assert len(results) == 1
        with open(results[0].path, "w") as handle:
            handle.write("corrupt")
        second_life = _make_service(tmp_path)
        try:
            job2, _ = second_life.submit(spec)
            # not served from cache — quarantined, recomputed, re-stored
            assert job2.summary.get("cache_hit") is None
            assert _wait_terminal(second_life, job2.job_id) == "done"
            got = {
                (tuple(left), tuple(right))
                for left, right in second_life.result(job2.job_id)["bicliques"]
            }
            assert got == _expected_set()
            assert os.listdir(second_life.store.quarantine_dir)
            job3, _ = second_life.submit(spec)
            assert job3.summary.get("cache_hit") is True
        finally:
            second_life.drain(timeout=2)

    def test_cache_hit_metric_exported(self, tmp_path):
        gpath = self._graph_file(tmp_path)
        service = _make_service(tmp_path)
        try:
            spec = {"engine": "mbet", "graph_path": gpath}
            job, _ = service.submit(spec)
            assert _wait_terminal(service, job.job_id) == "done"
            service.submit(spec)
            from repro.obs.sinks import prometheus_text

            text = prometheus_text(service.registry)
            samples = parse_prometheus_text(text)
            assert samples['serve_jobs_total{event="cache_hit"}'] == 1.0
            # the store exports its own counters on the same registry
            assert any(
                key.startswith("artifacts_hits_total") for key in samples
            )
        finally:
            service.drain(timeout=2)


# --------------------------------------------------------------------------
# planner integration


class TestServePlanner:
    """serve's execution chain is the planner's ranked output."""

    def test_requested_engine_heads_the_chain(self, tmp_path):
        service = _make_service(tmp_path)
        try:
            job, _ = service.submit({"engine": "mbea", "edges": EDGES})
            assert _wait_terminal(service, job.job_id) == "done"
            payload = service.result(job.job_id)
            assert payload["summary"]["engine"] == "mbea"
            # the planner scored the job: the prediction rides the summary
            assert "predicted_seconds" in payload["summary"]
        finally:
            service.drain(timeout=2)

    def test_failed_engine_falls_back_to_planner_ranking(self, tmp_path):
        from repro.plan import build_plan

        service = _make_service(tmp_path)
        try:
            job, _ = service.submit(
                {"engine": _CrashyMBE.name, "edges": EDGES}
            )
            assert _wait_terminal(service, job.job_id) == "done"
            payload = service.result(job.job_id)
            graph = BipartiteGraph([tuple(e) for e in EDGES])
            expected = build_plan(graph).chosen.engine
            assert payload["summary"]["engine"] == expected
        finally:
            service.drain(timeout=2)

    def test_open_breaker_demotes_engine_in_chain(self, tmp_path):
        from repro.plan import build_plan

        service = _make_service(tmp_path, breaker_threshold=1)
        try:
            graph = BipartiteGraph([tuple(e) for e in EDGES])
            top = build_plan(graph).chosen.engine
            service.breakers.breaker(top).record_failure()
            assert service.breakers.breaker(top).state == "open"
            job, _ = service.submit(
                {"engine": _CrashyMBE.name, "edges": EDGES}
            )
            assert _wait_terminal(service, job.job_id) == "done"
            payload = service.result(job.job_id)
            # the demoted engine is skipped in favour of the next healthy
            # candidate, but stays at the tail of the chain (not banned)
            assert payload["summary"]["engine"] != top
            demoted_plan = build_plan(graph, breaker_states={top: "open"})
            chain = demoted_plan.engine_chain()
            assert top == chain[-1]
        finally:
            service.drain(timeout=2)

    def test_explicit_fallback_config_overrides_planner(self, tmp_path):
        service = _make_service(tmp_path, fallback=("mbea",))
        try:
            job, _ = service.submit(
                {"engine": _CrashyMBE.name, "edges": EDGES}
            )
            assert _wait_terminal(service, job.job_id) == "done"
            payload = service.result(job.job_id)
            assert payload["summary"]["engine"] == "mbea"
        finally:
            service.drain(timeout=2)

    def test_plan_metrics_exported_and_counted(self, tmp_path):
        from repro.obs.sinks import prometheus_text
        from repro.plan import PLANNER_ENGINES

        service = _make_service(tmp_path)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            assert _wait_terminal(service, job.job_id) == "done"
            samples = parse_prometheus_text(
                prometheus_text(service.registry)
            )
            assert samples['plan_decisions_total{engine="mbet"}'] == 1.0
            # both families expose a sample for every planner engine,
            # even before any job exercised it (CI parse-back contract)
            for engine in PLANNER_ENGINES:
                assert f'plan_decisions_total{{engine="{engine}"}}' \
                    in samples
                assert f'plan_mispredictions_total{{engine="{engine}"}}' \
                    in samples
        finally:
            service.drain(timeout=2)

    def test_planner_budget_bounds_unbudgeted_jobs(self, tmp_path):
        """A job with no explicit time limit inherits the plan budget."""
        service = _make_service(tmp_path)
        try:
            job, _ = service.submit({"engine": "mbet", "edges": EDGES})
            assert _wait_terminal(service, job.job_id) == "done"
            payload = service.result(job.job_id)
            # budgeted yet complete: the budget is headroom, not a cap
            assert payload["summary"]["complete"] is True
        finally:
            service.drain(timeout=2)

"""Tests for federated enumeration (repro.cluster).

Unit-tests the slice planner, the exactly-once range arbiter, and the
coordinator journal; service-level tests exercise the worker's ``/slices``
surface in-process; the chaos tests at the bottom boot real worker
processes and verify the two headline guarantees: a SIGKILL'd worker's
slices are reassigned and the merged result is exact, and a SIGKILL'd
coordinator restarts from completed-slice state without re-running
finished shards.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BipartiteGraph, run_mbe
from repro.bigraph.generators import planted_bicliques
from repro.bigraph.io import write_edge_list
from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    RangeCoverage,
    SliceSpec,
    load_cluster_journal,
    plan_slices,
)
from repro.cluster.journal import ClusterJournal, ClusterJournalError
from repro.core.io_results import parse_bicliques
from repro.core.parallel import addressable_roots, plan_root_ranges
from repro.obs.sinks import parse_prometheus_text
from repro.plan import recommend_slices, root_cost_estimates
from repro.serve import (
    EnumerationService,
    JobSpec,
    JobValidationError,
    ServiceConfig,
    make_http_server,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EDGES = [[0, 0], [0, 1], [1, 0], [1, 1], [2, 1]]


def _graph(seed=3, noise=60):
    return planted_bicliques(30, 30, 5, noise_edges=noise, seed=seed)


def _truth(graph):
    return run_mbe(graph, "mbet", collect=True).biclique_set()


# --------------------------------------------------------------------------
# root-range slicing (the addressable work units)


class TestRootRanges:
    @pytest.mark.parametrize("n_slices", [1, 2, 3, 7, 100])
    def test_plan_covers_contiguously(self, n_slices):
        g = _graph()
        roots = addressable_roots(g)
        ranges = plan_root_ranges(root_cost_estimates(g), n_slices)
        assert 1 <= len(ranges) <= n_slices
        assert ranges[0][0] == 0 and ranges[-1][1] == len(roots)
        for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
            assert a_hi == b_lo  # contiguous, no gap, no overlap
        assert all(lo < hi for lo, hi in ranges)

    @settings(max_examples=60, deadline=None)
    @given(
        costs=st.lists(st.integers(0, 1000), min_size=1, max_size=60),
        n_slices=st.integers(1, 12),
    )
    def test_root_ranges_cover_and_bound_the_worst_slice(
        self, costs, n_slices
    ):
        ranges = plan_root_ranges(costs, n_slices)
        k = min(n_slices, len(costs))
        assert len(ranges) == k
        assert ranges[0][0] == 0 and ranges[-1][1] == len(costs)
        assert all(lo < hi for lo, hi in ranges)
        for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
            assert a_hi == b_lo
        worst = max(sum(costs[lo:hi]) for lo, hi in ranges)
        # worst <= total / k + max root cost, in exact integers
        assert worst * k <= sum(costs) + k * max(costs)

    def test_root_range_union_equals_full_enumeration(self):
        g = _graph()
        truth = _truth(g)
        merged = []
        for lo, hi in plan_root_ranges(root_cost_estimates(g), 4):
            part = run_mbe(g, "parallel", collect=True, workers=1,
                           root_range=(lo, hi))
            merged.extend(part.bicliques)
        assert len(merged) == len(set(merged))  # disjoint shards
        assert set(merged) == truth

    def test_out_of_space_root_range_is_empty(self):
        g = _graph()
        n = len(addressable_roots(g))
        result = run_mbe(g, "parallel", collect=True, workers=1,
                         root_range=(n + 5, n + 9))
        assert result.count == 0 and result.complete

    def test_invalid_root_range_rejected(self):
        with pytest.raises(ValueError, match="root_range"):
            run_mbe(_graph(), "parallel", workers=1, root_range=(3, 3))


# --------------------------------------------------------------------------
# slice specs


class TestSliceSpec:
    def _spec(self, **kw):
        kw.setdefault("slice_id", "s0")
        kw.setdefault("lo", 0)
        kw.setdefault("hi", 5)
        kw.setdefault("n_roots", 10)
        kw.setdefault("edges", EDGES)
        return SliceSpec(**kw)

    def test_roundtrip(self):
        spec = self._spec()
        assert SliceSpec.from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize("bad,match", [
        ({"lo": 5, "hi": 5}, "slice range"),
        ({"lo": -1}, "slice range"),
        ({"hi": 11}, "slice range"),
        ({"edges": None}, "exactly one"),
        ({"edges": EDGES, "dataset": "mti"}, "exactly one"),
    ])
    def test_validation(self, bad, match):
        with pytest.raises(JobValidationError, match=match):
            SliceSpec.from_dict({**self._spec().as_dict(), **bad})

    def test_unknown_fields_rejected(self):
        with pytest.raises(JobValidationError, match="unknown slice"):
            SliceSpec.from_dict({**self._spec().as_dict(), "bogus": 1})

    def test_fingerprint_binds_identity_not_packaging(self):
        a, b = self._spec(), self._spec()
        assert a.fingerprint() == b.fingerprint()
        assert self._spec(hi=6).fingerprint() != a.fingerprint()
        assert self._spec(seed=1).fingerprint() != a.fingerprint()
        # a time limit changes execution, not identity
        assert self._spec(time_limit=9.0).fingerprint() == a.fingerprint()
        # the graph's content hash is identity
        assert self._spec(graph_key="a" * 64).fingerprint() != \
            a.fingerprint()

    def test_graph_key_round_trips_and_old_journals_load(self):
        spec = self._spec(graph_key="a" * 64)
        assert SliceSpec.from_dict(spec.as_dict()) == spec
        # a journal written before the field existed still loads
        legacy = {
            k: v for k, v in self._spec().as_dict().items()
            if k != "graph_key"
        }
        assert SliceSpec.from_dict(legacy).graph_key is None

    def test_job_payload_pins_engine_and_forbids_fallback(self):
        payload = self._spec().to_job_payload()
        assert payload["engine"] == "parallel"
        assert payload["no_fallback"] is True
        assert payload["engine_options"]["root_range"] == [0, 5]
        assert payload["idempotency_key"].startswith("slice:")

    def test_split_halves_and_atomic_slices_refuse(self):
        children = self._spec(lo=2, hi=7).split()
        assert [(c.lo, c.hi) for c in children] == [(2, 4), (4, 7)]
        assert [c.slice_id for c in children] == ["s0.0", "s0.1"]
        assert self._spec(lo=2, hi=3).split() == []

    def test_plan_slices_ids_and_coverage(self):
        g = _graph()
        slices = plan_slices(g, 4, {"edges": EDGES})
        n = len(addressable_roots(g))
        assert slices[0].slice_id == "s0000"
        assert slices[0].lo == 0 and slices[-1].hi == n
        assert all(s.n_roots == n for s in slices)


# --------------------------------------------------------------------------
# the exactly-once arbiter


class TestRangeCoverage:
    def test_accepts_disjoint_rejects_overlap(self):
        cov = RangeCoverage(10)
        assert cov.add(0, 4)
        assert cov.add(6, 10)
        assert not cov.add(3, 7)  # straddles an accepted range
        assert not cov.add(0, 4)  # exact duplicate
        assert cov.add(4, 6)
        assert cov.complete

    def test_missing_reports_gaps_in_order(self):
        cov = RangeCoverage(10)
        cov.add(2, 4)
        cov.add(7, 9)
        assert cov.missing() == [(0, 2), (4, 7), (9, 10)]
        assert not cov.complete and cov.covered == 4

    def test_rejection_leaves_state_untouched(self):
        cov = RangeCoverage(10)
        cov.add(0, 5)
        assert not cov.add(4, 10)
        assert cov.missing() == [(5, 10)]

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            RangeCoverage(5).add(0, 6)


# --------------------------------------------------------------------------
# coordinator journal


class TestClusterJournal:
    def test_plan_and_event_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = ClusterJournal(path)
        j.record_plan("fp", 10, [{"slice_id": "s0"}])
        j.record_slice("dispatched", "s0", worker="w", job_id="j1")
        j.record_slice("completed", "s0", count=3)
        j.record_terminal("done", count=3)
        j.close()
        plan, events = load_cluster_journal(path)
        assert plan["fingerprint"] == "fp" and plan["n_roots"] == 10
        assert [e["event"] for e in events] == [
            "dispatched", "completed", "done",
        ]

    def test_torn_tail_dropped_and_appends_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = ClusterJournal(path)
        j.record_plan("fp", 10, [])
        j.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"slice","event":"comp')  # torn write
        j2 = ClusterJournal(path)
        assert j2.recovered_plan["fingerprint"] == "fp"
        assert j2.recovered_events == []
        j2.record_slice("dispatched", "s0")
        j2.close()
        _, events = load_cluster_journal(path)
        assert [e["event"] for e in events] == ["dispatched"]

    def test_midfile_corruption_raises_with_location(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('not json\n{"type":"cluster","event":"done"}\n')
        with pytest.raises(ClusterJournalError, match=r":1:"):
            load_cluster_journal(path)

    def test_duplicate_plan_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = ClusterJournal(path)
        j.record_plan("fp", 1, [])
        j.record_plan("fp", 1, [])
        j.close()
        with pytest.raises(ClusterJournalError, match="second 'planned'"):
            load_cluster_journal(path)


# --------------------------------------------------------------------------
# worker-side federation surface (in-process HTTP)


def _start_http_service(tmp_path, name, **cfg):
    cfg.setdefault("workers", 1)
    service = EnumerationService(
        ServiceConfig(state_dir=str(tmp_path / name), **cfg)
    )
    service.start()
    httpd = make_http_server(service)
    threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    ).start()
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    return service, httpd, url


class TestWorkerSliceSurface:
    def test_slice_submission_runs_and_registers(self, tmp_path):
        service, httpd, _url = _start_http_service(tmp_path, "w")
        try:
            g = BipartiteGraph([tuple(e) for e in EDGES])
            spec = plan_slices(g, 1, {"edges": EDGES})[0]
            job, dedup = service.submit_slice({
                "slice": spec.as_dict(), "coordinator": "c-test",
            })
            assert not dedup
            deadline = time.monotonic() + 20
            while service.status(job.job_id)["state"] not in (
                "done", "failed",
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            payload = service.result(job.job_id)
            assert payload["state"] == "done"
            assert payload["summary"]["engine"] == "parallel"
            info = service.cluster_info()
            assert "c-test" in info["coordinators"]
            assert info["slices"][0]["job_id"] == job.job_id
            # redelivery (same fingerprint, same attempt) deduplicates
            again, dedup2 = service.submit_slice({
                "slice": spec.as_dict(), "coordinator": "c-test",
            })
            assert dedup2 and again.job_id == job.job_id
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    @staticmethod
    def _run_to_done(service, job):
        deadline = time.monotonic() + 20
        while service.status(job.job_id)["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        payload = service.result(job.job_id)
        assert payload["state"] == "done"
        return payload, os.path.join(
            service.jobs_dir, job.job_id, "checkpoint.jsonl"
        )

    def test_short_slice_writes_no_checkpoint_and_no_result(self, tmp_path):
        service, httpd, _url = _start_http_service(tmp_path, "w")
        try:
            g = _graph()
            edges = [list(e) for e in g.edges()]
            got = set()
            for spec in plan_slices(g, 2, {"edges": edges}):
                job, _dedup = service.submit_slice({"slice": spec.as_dict()})
                payload, ckpt = self._run_to_done(service, job)
                assert not os.path.exists(ckpt)
                got.update(
                    (tuple(ls), tuple(rs)) for ls, rs in payload["bicliques"]
                )
            assert got == {(b.left, b.right) for b in _truth(g)}
            assert not [
                e for e in service.store.entries() if e.kind == "result"
            ]
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    def test_slice_over_the_gate_checkpoints_per_root(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "SLICE_CHECKPOINT_SECONDS", 0.0)
        service, httpd, _url = _start_http_service(tmp_path, "w")
        try:
            g = _graph()
            edges = [list(e) for e in g.edges()]
            spec = plan_slices(g, 2, {"edges": edges})[1]
            job, _dedup = service.submit_slice({"slice": spec.as_dict()})
            _payload, ckpt = self._run_to_done(service, job)
            with open(ckpt, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle]
            assert records[0]["type"] == "header"
            tasks = [r["task"] for r in records[1:]]
            assert all(r["type"] == "task" for r in records[1:])
            # one whole-root task per root of the slice's range
            assert len(tasks) == spec.hi - spec.lo
            assert all(t[1:] == [0, 1] for t in tasks)
            # still no result-cache entry: slices are never cached
            assert not [
                e for e in service.store.entries() if e.kind == "result"
            ]
            # a whole-graph job keeps its checkpoint and is cached
            whole, _dedup = service.submit({
                "engine": "parallel", "edges": edges,
                "engine_options": {"workers": 1},
            })
            _payload, ckpt = self._run_to_done(service, whole)
            assert os.path.exists(ckpt)
            assert [
                e for e in service.store.entries() if e.kind == "result"
            ]
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    @pytest.mark.parametrize("no_fallback", [{"no_fallback": True}, {}],
                             ids=["no_fallback", "root_range_alone"])
    def test_malformed_root_range_fails_in_the_engine(
        self, tmp_path, no_fallback
    ):
        # a root range implies no fallback: a substitute engine would
        # drop it and answer the whole graph
        service, httpd, _url = _start_http_service(tmp_path, "w")
        try:
            job, _dedup = service.submit({
                "engine": "parallel", "edges": EDGES, **no_fallback,
                "engine_options": {"workers": 1, "root_range": [1]},
            })
            deadline = time.monotonic() + 20
            while service.status(job.job_id)["state"] != "failed":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # the engine's own rejection, not a crash in the gate
            error = service.status(job.job_id)["error"]
            assert error.startswith("no engine could run the job: parallel:")
            assert "ValueError" in error
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    def test_slice_root_count_cached_across_submissions(self, tmp_path):
        """Redelivered slices must not re-read and re-order the graph
        inside the handler: the root count is served from cache."""
        service, httpd, _url = _start_http_service(tmp_path, "w")
        try:
            g = _graph()
            gpath = tmp_path / "g.txt"
            write_edge_list(g, gpath)
            spec = plan_slices(g, 1, {"graph_path": str(gpath)})[0]
            job, dedup = service.submit_slice({"slice": spec.as_dict()})
            assert not dedup
            roots_entries = [
                e for e in service.store.entries() if e.kind == "roots"
            ]
            assert len(roots_entries) == 1
            job_spec = JobSpec.from_dict(spec.to_job_payload())
            cached_graph, cached_key = service._resolve_graph(job_spec)
            # redelivery must answer the root count from the artifact
            # store, never by re-ordering the graph
            import repro.core.parallel as parallel_mod

            def boom(*args, **kwargs):  # pragma: no cover - guard
                raise AssertionError("roots recomputed on redelivery")

            real = parallel_mod.addressable_roots
            parallel_mod.addressable_roots = boom
            try:
                again, dedup2 = service.submit_slice({"slice": spec.as_dict()})
            finally:
                parallel_mod.addressable_roots = real
            assert dedup2 and again.job_id == job.job_id
            assert len([
                e for e in service.store.entries() if e.kind == "roots"
            ]) == 1
            # the resolved graph itself is shared, not re-parsed
            assert service._resolve_graph(job_spec)[0] is cached_graph
            assert service._resolve_graph(job_spec)[1] == cached_key
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    def test_root_space_mismatch_is_permanent_400(self, tmp_path):
        service, httpd, _url = _start_http_service(tmp_path, "w")
        try:
            g = BipartiteGraph([tuple(e) for e in EDGES])
            spec = plan_slices(g, 1, {"edges": EDGES})[0]
            bad = SliceSpec.from_dict(
                {**spec.as_dict(), "n_roots": spec.n_roots + 1,
                 "hi": spec.n_roots + 1}
            )
            with pytest.raises(JobValidationError, match="root space"):
                service.submit_slice({"slice": bad.as_dict()})
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    def test_graph_content_mismatch_is_permanent_400(self, tmp_path):
        """A slice planned against different graph *content* is refused
        even when the root-space count happens to collide."""
        from repro.artifacts import graph_key
        from repro.obs.sinks import prometheus_text

        service, httpd, _url = _start_http_service(tmp_path, "w")
        try:
            g = BipartiteGraph([tuple(e) for e in EDGES])
            spec = plan_slices(
                g, 1, {"edges": EDGES}, graph_key=graph_key(g)
            )[0]
            # the honest key is accepted
            job, dedup = service.submit_slice({"slice": spec.as_dict()})
            assert not dedup and job.job_id
            bad = SliceSpec.from_dict(
                {**spec.as_dict(), "graph_key": "0" * 64}
            )
            with pytest.raises(
                JobValidationError, match="graph content mismatch"
            ):
                service.submit_slice({"slice": bad.as_dict()})
            samples = parse_prometheus_text(
                prometheus_text(service.registry)
            )
            assert samples[
                'serve_slices_total{event="graph_mismatch"}'
            ] == 1.0
            # a legacy slice with no key is accepted (old journals)
            legacy = SliceSpec.from_dict(
                {**spec.as_dict(), "graph_key": None, "lo": 0}
            )
            job2, dedup2 = service.submit_slice({"slice": legacy.as_dict()})
            assert job2.job_id
        finally:
            httpd.shutdown()
            service.drain(timeout=2)

    def test_no_fallback_failure_is_structured_not_masked(self, tmp_path):
        # a no_fallback job whose engine fails must fail with the
        # structured exhaustion report — never fall back to an engine
        # that would enumerate the whole graph into a slice result
        service, httpd, _url = _start_http_service(tmp_path, "w")
        try:
            job, _ = service.submit({
                "engine": "parallel", "edges": EDGES, "no_fallback": True,
                "engine_options": {"workers": 1, "root_range": [0, 2],
                                   "bound_size": "garbage"},
            })
            deadline = time.monotonic() + 20
            while service.status(job.job_id)["state"] not in (
                "done", "failed",
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            payload = service.result(job.job_id)
            assert payload["state"] == "failed"
            assert payload["summary"]["error_kind"] == "fallback_exhausted"
            assert payload["summary"]["engines_tried"] == ["parallel"]
            assert payload["summary"]["no_fallback"] is True
        finally:
            httpd.shutdown()
            service.drain(timeout=2)


# --------------------------------------------------------------------------
# coordinator against in-process workers (no subprocesses: fast paths)


class TestCoordinatorInProcess:
    def _run(self, tmp_path, graph, n_workers=2, source=None, **cfg):
        services = []
        try:
            for i in range(n_workers):
                services.append(_start_http_service(tmp_path, f"w{i}"))
            gpath = tmp_path / "g.txt"
            write_edge_list(graph, gpath)
            config = ClusterConfig(
                state_dir=str(tmp_path / "coord"),
                workers=[s[2] for s in services],
                **cfg,
            )
            coord = ClusterCoordinator(config)
            result = coord.run(source or {"graph_path": str(gpath)})
            coord.close()
            return coord, result
        finally:
            for service, httpd, _url in services:
                httpd.shutdown()
                service.drain(timeout=2)

    def test_two_workers_merge_exactly(self, tmp_path):
        g = _graph()
        coord, result = self._run(tmp_path, g, n_slices=4)
        assert result.complete
        assert result.biclique_set() == _truth(g)
        samples = parse_prometheus_text(coord.metrics_text())
        assert samples['cluster_slices_total{event="completed"}'] == 4
        assert samples["cluster_workers_alive"] == 2

    def test_planner_gives_a_small_job_one_slice_per_worker(self, tmp_path):
        g = _graph()
        coord, result = self._run(tmp_path, g)  # no n_slices: planner's
        assert recommend_slices(2, root_cost_estimates(g)) == 2
        assert result.meta["slices"] == 2
        assert result.complete
        assert len(result.bicliques) == len(result.biclique_set())
        assert result.biclique_set() == _truth(g)
        samples = parse_prometheus_text(coord.metrics_text())
        assert samples['cluster_slices_total{event="completed"}'] == 2

    def test_single_worker_single_slice(self, tmp_path):
        g = _graph(seed=5, noise=20)
        _, result = self._run(tmp_path, g, n_workers=1, n_slices=1)
        assert result.complete and result.biclique_set() == _truth(g)

    def test_unreachable_worker_from_the_start_fails_cleanly(self, tmp_path):
        g = _graph()
        gpath = tmp_path / "g.txt"
        write_edge_list(g, gpath)
        config = ClusterConfig(
            state_dir=str(tmp_path / "coord"),
            workers=["http://127.0.0.1:9"],  # discard port: refused
            all_dead_timeout=1.0,
            heartbeat_interval=0.1,
        )
        coord = ClusterCoordinator(config)
        result = coord.run({"graph_path": str(gpath)})
        coord.close()
        assert not result.complete
        assert result.meta["stopped"] == "workers_lost"
        assert result.meta["missing_ranges"]

    def test_journal_fingerprint_mismatch_refuses_state_dir(self, tmp_path):
        from repro.cluster.coordinator import ClusterError

        g = _graph()
        coord, result = self._run(tmp_path, g, n_workers=1, n_slices=2)
        assert result.complete
        other = _graph(seed=9)
        gpath = tmp_path / "other.txt"
        write_edge_list(other, gpath)
        config = ClusterConfig(
            state_dir=str(tmp_path / "coord"),  # reused state dir
            workers=["http://127.0.0.1:9"],
        )
        coord2 = ClusterCoordinator(config)
        with pytest.raises(ClusterError, match="different job"):
            coord2.run({"graph_path": str(gpath)})
        coord2.close()


# --------------------------------------------------------------------------
# restart replay bookkeeping (unit-level: no live run needed)


class TestReplayBookkeeping:
    URL = "http://127.0.0.1:9"

    def _plan_only(self, tmp_path, source, workers, **cfg):
        """A coordinator with its plan loaded but `run` never entered."""
        cfg.setdefault("n_slices", 2)
        coord = ClusterCoordinator(ClusterConfig(
            state_dir=str(tmp_path / "coord"), workers=workers, **cfg,
        ))
        coord._plan(coord._load_graph(source), source)
        return coord

    def test_planned_slices_carry_the_graph_content_hash(self, tmp_path):
        from repro.artifacts import graph_key

        source = self._source(tmp_path)
        coord = self._plan_only(tmp_path, source, [self.URL])
        try:
            g = coord._load_graph(source)
            expected = graph_key(g)
            assert coord._slices
            for state in coord._slices.values():
                assert state.spec.graph_key == expected
        finally:
            coord.close()

    def _source(self, tmp_path):
        gpath = tmp_path / "g.txt"
        write_edge_list(_graph(), gpath)
        return {"graph_path": str(gpath)}

    def test_replayed_inflight_slice_joins_worker_inflight_set(
        self, tmp_path
    ):
        """An inflight slice must re-attach into its worker's inflight
        set on restart, so `_mark_dead` can reclaim it if that worker
        never comes back (the fix for the stuck-forever resume)."""
        source = self._source(tmp_path)
        coord = self._plan_only(tmp_path, source, [self.URL])
        sid = sorted(coord._slices)[0]
        coord.journal.record_slice(
            "dispatched", sid, worker=self.URL, job_id="j-zombie", attempt=1
        )
        coord.close()

        coord2 = self._plan_only(tmp_path, source, [self.URL])
        state = coord2._slices[sid]
        assert state.status == "inflight"
        assert sid in coord2._workers[self.URL].inflight
        # declaring the old owner dead now demotes the slice for
        # reassignment instead of leaving it inflight forever
        coord2._mark_dead(coord2._workers[self.URL], "never came back")
        assert state.status == "pending"
        assert not coord2._workers[self.URL].inflight
        coord2.close()

    def test_replayed_inflight_slice_of_unconfigured_worker_goes_pending(
        self, tmp_path
    ):
        source = self._source(tmp_path)
        coord = self._plan_only(tmp_path, source, [self.URL])
        sid = sorted(coord._slices)[0]
        coord.journal.record_slice(
            "dispatched", sid, worker=self.URL, job_id="j-old", attempt=1
        )
        coord.close()

        other = "http://127.0.0.1:10"
        coord2 = self._plan_only(tmp_path, source, [other])
        state = coord2._slices[sid]
        assert state.status == "pending"
        assert state.worker is None and state.job_id is None
        assert not coord2._workers[other].inflight
        coord2.close()

    def test_replayed_resplit_pins_inflight_parent(self, tmp_path):
        """A parent that was in-flight at crash time resumes with
        resplit=True so it is never split a second time, and a repeat
        `_resplit` call never clobbers existing child progress."""
        source = self._source(tmp_path)
        coord = self._plan_only(tmp_path, source, [self.URL])
        sid = sorted(coord._slices)[0]
        children = coord._slices[sid].spec.split()
        assert children
        coord.journal.record_slice(
            "dispatched", sid, worker=self.URL, job_id="j-1", attempt=1
        )
        coord.journal.record_slice(
            "resplit", sid, children=[c.as_dict() for c in children]
        )
        coord.close()

        coord2 = self._plan_only(tmp_path, source, [self.URL])
        parent = coord2._slices[sid]
        assert parent.status == "inflight" and parent.resplit is True
        for child in children:
            assert coord2._slices[child.slice_id].status == "pending"
        # even a forced re-split leaves existing child states alone
        coord2._slices[children[0].slice_id].status = "completed"
        coord2._resplit(parent, reason="forced again")
        assert coord2._slices[children[0].slice_id].status == "completed"
        coord2.close()

    def test_failed_resplit_retires_parent(self, tmp_path):
        """After a terminal worker-job failure triggers a re-split, the
        parent must not stay inflight: its job is dead, so only the
        children should run the range."""
        from repro.cluster.coordinator import _SliceState

        source = self._source(tmp_path)
        coord = self._plan_only(tmp_path, source, [self.URL])
        spec = SliceSpec(slice_id="sX", lo=0, hi=4, n_roots=8, edges=EDGES)
        state = _SliceState(spec=spec, status="inflight", attempts=2)
        coord._slices[spec.slice_id] = state
        coord._slice_failed(state, "worker job failed: boom")
        assert state.status == "superseded"
        child_states = [
            coord._slices[c.slice_id] for c in spec.split()
        ]
        assert child_states
        assert all(c.status == "pending" for c in child_states)
        coord.close()

    def test_restart_reassigns_slice_of_permanently_dead_worker(
        self, tmp_path
    ):
        """End-to-end regression: the journal says a slice is inflight
        on a worker that never comes back after the coordinator
        restarts; the run must still complete via the healthy peer."""
        g = _graph(seed=5, noise=20)
        gpath = tmp_path / "g.txt"
        write_edge_list(g, gpath)
        source = {"graph_path": str(gpath)}
        coord = self._plan_only(tmp_path, source, [self.URL])
        sid = sorted(coord._slices)[0]
        coord.journal.record_slice(
            "dispatched", sid, worker=self.URL, job_id="j-zombie", attempt=1
        )
        coord.close()

        service, httpd, live_url = _start_http_service(tmp_path, "w-live")
        try:
            coord2 = ClusterCoordinator(ClusterConfig(
                state_dir=str(tmp_path / "coord"),
                workers=[live_url, self.URL],
                n_slices=2,
                heartbeat_interval=0.1,
                heartbeat_timeout=0.5,
                poll_interval=0.02,
                time_limit=60.0,
            ))
            result = coord2.run(source)
            coord2.close()
        finally:
            httpd.shutdown()
            service.drain(timeout=2)
        assert result.complete, result.meta
        assert result.biclique_set() == _truth(g)
        assert result.meta["workers"][self.URL] == "dead"
        samples = parse_prometheus_text(coord2.metrics_text())
        assert samples["cluster_reassignments_total"] >= 1


# --------------------------------------------------------------------------
# per-slice retry budget


class TestSliceRetryBudget:
    URL = "http://127.0.0.1:9"

    def _plan_only(self, tmp_path, source, workers, **cfg):
        cfg.setdefault("n_slices", 2)
        coord = ClusterCoordinator(ClusterConfig(
            state_dir=str(tmp_path / "coord"), workers=workers, **cfg,
        ))
        coord._plan(coord._load_graph(source), source)
        return coord

    def _source(self, tmp_path):
        gpath = tmp_path / "g.txt"
        write_edge_list(_graph(), gpath)
        return {"graph_path": str(gpath)}

    def test_worker_loss_spends_the_budget_instead_of_retrying_forever(
        self, tmp_path
    ):
        """A flapping worker used to grant its slices infinite lives:
        `_mark_dead` reset them to pending with no attempt cap.  Now a
        slice over budget is retired with a structured journal record."""
        from repro.cluster.coordinator import _SliceState

        source = self._source(tmp_path)
        coord = self._plan_only(
            tmp_path, source, [self.URL], max_slice_retries=2
        )
        fresh = SliceSpec(slice_id="s-fresh", lo=0, hi=2, n_roots=8,
                          edges=EDGES)
        spent = SliceSpec(slice_id="s-spent", lo=2, hi=4, n_roots=8,
                          edges=EDGES)
        coord._slices["s-fresh"] = _SliceState(
            spec=fresh, status="inflight", attempts=1, worker=self.URL
        )
        coord._slices["s-spent"] = _SliceState(
            spec=spent, status="inflight", attempts=3, worker=self.URL
        )
        worker = coord._workers[self.URL]
        worker.inflight.update({"s-fresh", "s-spent"})

        coord._mark_dead(worker, "flapping")
        assert coord._slices["s-fresh"].status == "pending"
        assert coord._slices["s-spent"].status == "failed"
        assert "retry budget exhausted" in coord._slices["s-spent"].why
        samples = parse_prometheus_text(coord.metrics_text())
        assert samples["cluster_slices_exhausted_total"] == 1
        coord.close()

        _plan, events = load_cluster_journal(
            os.path.join(str(tmp_path / "coord"), "journal.jsonl")
        )
        exhausted = [
            e for e in events if e.get("event") == "slice_exhausted"
        ]
        assert [e["slice_id"] for e in exhausted] == ["s-spent"]
        assert exhausted[0]["attempts"] == 3
        assert "flapping" in exhausted[0]["why"]
        assert [
            e["slice_id"] for e in events if e.get("event") == "lost"
        ] == ["s-fresh"]

    def test_exhausted_verdict_survives_a_coordinator_restart(
        self, tmp_path
    ):
        """Replay must not hand a retired slice a fresh set of lives."""
        source = self._source(tmp_path)
        coord = self._plan_only(tmp_path, source, [self.URL])
        sid = sorted(coord._slices)[0]
        coord.journal.record_slice(
            "dispatched", sid, worker=self.URL, job_id="j-1", attempt=1
        )
        coord.journal.record_slice(
            "slice_exhausted", sid, attempts=5,
            why="worker lost: flapping",
        )
        coord.close()

        coord2 = self._plan_only(tmp_path, source, [self.URL])
        state = coord2._slices[sid]
        assert state.status == "failed"
        assert "retry budget exhausted" in (state.why or "")
        assert sid not in coord2._workers[self.URL].inflight
        coord2.close()


# --------------------------------------------------------------------------
# the byte merge: slice results travel, spool and replay as result lines


def _journal_records(state_dir, event):
    _plan, events = load_cluster_journal(
        os.path.join(str(state_dir), "journal.jsonl")
    )
    return [e for e in events if e.get("event") == event]


class TestByteMerge:
    def _run(self, tmp_path, source, n_workers=1, **cfg):
        services = [
            _start_http_service(tmp_path, f"w{i}") for i in range(n_workers)
        ]
        try:
            cfg.setdefault("n_slices", 2)
            cfg.setdefault("poll_interval", 0.02)
            cfg.setdefault("retry_backoff", 0.05)
            coord = ClusterCoordinator(ClusterConfig(
                state_dir=str(tmp_path / "coord"),
                workers=[s[2] for s in services], **cfg,
            ))
            result = coord.run(source)
            coord.close()
            return coord, result
        finally:
            for service, httpd, _url in services:
                httpd.shutdown()
                service.drain(timeout=2)

    def _source(self, tmp_path, graph):
        gpath = tmp_path / "g.txt"
        write_edge_list(graph, gpath)
        return {"graph_path": str(gpath)}

    @pytest.mark.parametrize("collect", [True, False])
    def test_merge_is_exact_with_and_without_collect(self, tmp_path,
                                                     collect):
        g = _graph()
        truth = _truth(g)
        coord, result = self._run(
            tmp_path, self._source(tmp_path, g), n_workers=2, n_slices=3,
            collect=collect,
        )
        assert result.complete and result.count == len(truth)
        if collect:
            assert result.bicliques == sorted(truth)  # sorted, no dupes
        else:
            assert result.bicliques is None
        # each completed record names a spool of exactly its bytes and
        # lines: the worker's result lines, unchanged
        spooled = set()
        for rec in _journal_records(tmp_path / "coord", "completed"):
            with open(rec["spool"], "rb") as handle:
                data = handle.read()
            assert len(data) == rec["bytes"]
            assert data.count(b"\n") == rec["count"]
            spooled |= {
                b for b in parse_bicliques(data.decode())
            }
        assert spooled == truth

    def test_short_tsv_reply_fails_the_slice_and_it_is_retried(
        self, tmp_path, monkeypatch
    ):
        real = EnumerationService.result_tsv
        cut = []

        def short_once(service, job_id):
            data = real(service, job_id)
            if not cut and data.count(b"\n") > 1:
                cut.append(job_id)
                return data[: data.rstrip(b"\n").rfind(b"\n") + 1]
            return data

        monkeypatch.setattr(EnumerationService, "result_tsv", short_once)
        g = _graph()
        coord, result = self._run(tmp_path, self._source(tmp_path, g))
        assert cut, "no reply was shortened"
        assert result.complete, result.meta
        assert result.biclique_set() == _truth(g)
        assert len(result.bicliques) == len(result.biclique_set())
        failed = _journal_records(tmp_path / "coord", "failed")
        assert any("lines" in (f.get("why") or "") for f in failed)
        samples = parse_prometheus_text(coord.metrics_text())
        assert samples['cluster_slices_total{event="failed"}'] >= 1
        assert samples["cluster_reassignments_total"] >= 1

    @staticmethod
    def _drop_a_line_keep_size(data):
        # join the first two lines: same byte length, one line fewer
        return data.replace(b"\n", b",", 1)

    @pytest.mark.parametrize("damage", ["missing", "short", "lines"])
    def test_replay_with_a_damaged_spool_reruns_the_slice(
        self, tmp_path, damage
    ):
        g = _graph()
        source = self._source(tmp_path, g)
        _coord, first = self._run(tmp_path, source)
        assert first.complete
        victim = _journal_records(tmp_path / "coord", "completed")[0]
        spool = victim["spool"]
        with open(spool, "rb") as handle:
            data = handle.read()
        assert data.count(b"\n") >= 2
        if damage == "missing":
            os.remove(spool)
        elif damage == "short":
            with open(spool, "wb") as handle:
                handle.write(data[:-3])
        else:
            with open(spool, "wb") as handle:
                handle.write(self._drop_a_line_keep_size(data))
            assert os.path.getsize(spool) == victim["bytes"]

        # replay alone puts exactly the damaged slice back to pending
        replay = ClusterCoordinator(ClusterConfig(
            state_dir=str(tmp_path / "coord"),
            workers=["http://127.0.0.1:9"], n_slices=2,
        ))
        replay._plan(replay._load_graph(source), source)
        statuses = {sid: st.status for sid, st in replay._slices.items()}
        replay.close()
        assert statuses[victim["slice_id"]] == "pending"
        assert sum(1 for v in statuses.values() if v == "completed") == \
            len(statuses) - 1

        n_dispatched = len(_journal_records(tmp_path / "coord",
                                            "dispatched"))
        _coord, second = self._run(tmp_path, source)
        assert second.complete, second.meta
        assert second.bicliques == sorted(_truth(g))
        redispatched = _journal_records(
            tmp_path / "coord", "dispatched")[n_dispatched:]
        assert {r["slice_id"] for r in redispatched} == \
            {victim["slice_id"]}

    def test_torn_spool_write_keeps_the_run_exact_and_reruns_on_restart(
        self, tmp_path
    ):
        from repro.chaos import FaultRule, FaultSchedule
        from repro.chaos import fs as chaos_fs

        g = _graph()
        source = self._source(tmp_path, g)
        torn = FaultSchedule(seed=0, rules=(
            FaultRule("disk", "torn_write", op="write", max_fires=1,
                      match=os.path.join("coord", "slices", "")),
        ))
        with chaos_fs.active(torn):
            coord, first = self._run(tmp_path, source)
        assert torn.fired_by_seam().get("disk") == 1
        # the run keeps the torn slice in RAM, but journals no
        # `completed` for it and leaves no spool behind
        assert first.complete and first.bicliques == sorted(_truth(g))
        samples = parse_prometheus_text(coord.metrics_text())
        assert samples["cluster_spool_write_errors_total"] == 1
        completed = _journal_records(tmp_path / "coord", "completed")
        assert len(completed) == first.meta["slices"] - 1
        spools = os.listdir(tmp_path / "coord" / "slices")
        assert len(spools) == len(completed)

        n_dispatched = len(_journal_records(tmp_path / "coord",
                                            "dispatched"))
        _coord, second = self._run(tmp_path, source)
        assert second.complete and second.bicliques == sorted(_truth(g))
        redispatched = _journal_records(
            tmp_path / "coord", "dispatched")[n_dispatched:]
        assert len(redispatched) == 1
        assert redispatched[0]["slice_id"] not in {
            r["slice_id"] for r in completed
        }

    def test_restart_closes_the_coordinator_id_file(self, tmp_path):
        import gc
        import warnings

        state_dir = str(tmp_path / "coord")
        first = ClusterCoordinator(ClusterConfig(
            state_dir=state_dir, workers=["http://127.0.0.1:9"],
        ))
        first.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            second = ClusterCoordinator(ClusterConfig(
                state_dir=state_dir, workers=["http://127.0.0.1:9"],
            ))
            second.close()
            gc.collect()
        assert second.coordinator_id == first.coordinator_id
        unclosed = [
            w for w in caught
            if issubclass(w.category, ResourceWarning)
            and "unclosed file" in str(w.message)
        ]
        assert not unclosed, [str(w.message) for w in unclosed]


# --------------------------------------------------------------------------
# chaos: real worker processes, real kills


def _boot_worker(state_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    port_file = os.path.join(str(state_dir), "serve.port")
    if os.path.exists(port_file):
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
            raise AssertionError(f"worker died on boot: {proc.stdout.read()}")
        if os.path.exists(port_file):
            text = open(port_file).read().strip()
            if text:
                return proc, f"http://127.0.0.1:{int(text)}"
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("worker never wrote its port file")


class TestClusterChaos:
    def test_sigkill_worker_mid_job_reassigns_and_merges_exactly(
        self, tmp_path
    ):
        """Acceptance scenario 1: SIGKILL one of two workers while it
        holds a slice; the coordinator declares it dead, reassigns, and
        the merged result equals the single-node reference exactly."""
        graph = planted_bicliques(24, 24, 5, noise_edges=40, seed=3)
        gpath = tmp_path / "graph.txt"
        write_edge_list(graph, gpath)
        truth = _truth(graph)

        procs, urls = [], []
        for i in range(2):
            proc, url = _boot_worker(tmp_path / f"w{i}", "--workers", "1",
                                     "--allow-faults")
            procs.append(proc)
            urls.append(url)
        config = ClusterConfig(
            state_dir=str(tmp_path / "coord"),
            workers=urls,
            n_slices=6,
            heartbeat_interval=0.15,
            heartbeat_timeout=1.0,
            poll_interval=0.02,
            time_limit=120.0,
            # every root's task sleeps, so the victim is reliably
            # mid-slice when the kill lands
            faults={"slow_rate": 1.0, "slow_seconds": 0.25},
        )
        coord = ClusterCoordinator(config)
        victim = procs[0]
        journal_path = coord.journal.path

        def _assassin():
            # wait until the victim worker owns a dispatched slice
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    text = open(journal_path, encoding="utf-8").read()
                except FileNotFoundError:
                    text = ""
                if f'"worker":"{urls[0]}"' in text and \
                        '"event":"dispatched"' in text:
                    break
                time.sleep(0.02)
            time.sleep(0.4)  # let the slice get genuinely mid-flight
            victim.kill()  # SIGKILL: no drain, no goodbye

        assassin = threading.Thread(target=_assassin, daemon=True)
        assassin.start()
        try:
            result = coord.run({"graph_path": str(gpath)})
        finally:
            coord.close()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10)
        assassin.join(timeout=10)
        assert victim.poll() is not None  # the kill really happened
        assert result.complete, result.meta
        got = result.biclique_set()
        assert len(result.bicliques) == len(got)  # no duplicates
        assert got == truth  # the exact biclique set
        assert result.meta["workers"][urls[0]] == "dead"
        samples = parse_prometheus_text(coord.metrics_text())
        assert samples["cluster_worker_deaths_total"] >= 1
        assert samples["cluster_reassignments_total"] >= 1

    def test_kill9_coordinator_restart_resumes_completed_slices(
        self, tmp_path
    ):
        """Acceptance scenario 2: kill -9 the coordinator once some
        slices finished; a restart against the same state dir replays
        the journal, re-loads their spooled results, and only dispatches
        the unfinished remainder."""
        graph = planted_bicliques(24, 24, 5, noise_edges=40, seed=3)
        gpath = tmp_path / "graph.txt"
        write_edge_list(graph, gpath)
        truth = _truth(graph)

        worker_proc, url = _boot_worker(tmp_path / "w0", "--workers", "1",
                                        "--allow-faults")
        state_dir = tmp_path / "coord"
        script = (
            "import sys\n"
            "from repro.cluster import ClusterConfig, ClusterCoordinator\n"
            "config = ClusterConfig(\n"
            f"    state_dir={str(state_dir)!r},\n"
            f"    workers=[{url!r}],\n"
            "    n_slices=6, poll_interval=0.02,\n"
            "    heartbeat_interval=0.15, heartbeat_timeout=2.0,\n"
            "    faults={'slow_rate': 1.0, 'slow_seconds': 0.2},\n"
            ")\n"
            "coord = ClusterCoordinator(config)\n"
            f"result = coord.run({{'graph_path': {str(gpath)!r}}})\n"
            "sys.exit(0 if result.complete else 1)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(REPO_ROOT, "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        first = subprocess.Popen(
            [sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        journal_path = os.path.join(str(state_dir), "journal.jsonl")
        try:
            # wait until at least one slice completed but the job has not
            deadline = time.monotonic() + 90
            killed = False
            while time.monotonic() < deadline:
                if first.poll() is not None:
                    raise AssertionError(
                        "first coordinator finished before the kill: "
                        + first.stdout.read()
                    )
                try:
                    text = open(journal_path, encoding="utf-8").read()
                except FileNotFoundError:
                    text = ""
                completed = text.count('"event":"completed"')
                if completed >= 1 and '"event":"done"' not in text:
                    first.kill()  # SIGKILL mid-run
                    killed = True
                    break
                time.sleep(0.02)
            assert killed, "never caught the coordinator mid-run"
            first.wait(timeout=10)

            pre = open(journal_path, encoding="utf-8").read()
            completed_before = {
                json.loads(line)["slice_id"]
                for line in pre.splitlines()
                if line.strip() and json.loads(line).get("event")
                == "completed"
            }
            assert completed_before

            # restart in-process against the same state dir
            config = ClusterConfig(
                state_dir=str(state_dir),
                workers=[url],
                n_slices=6,
                poll_interval=0.02,
                heartbeat_interval=0.15,
                heartbeat_timeout=2.0,
                faults={"slow_rate": 1.0, "slow_seconds": 0.2},
            )
            coord = ClusterCoordinator(config)
            assert coord.journal.recovered_plan is not None
            result = coord.run({"graph_path": str(gpath)})
            coord.close()
            assert result.complete, result.meta
            assert result.biclique_set() == truth
            samples = parse_prometheus_text(coord.metrics_text())
            assert samples["cluster_slices_resumed_total"] >= len(
                completed_before
            )
            # nothing finished pre-crash was dispatched again: every
            # post-restart dispatch targets a not-yet-completed slice
            post = open(journal_path, encoding="utf-8").read()
            new_part = post[len(pre):]
            for line in new_part.splitlines():
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec.get("event") == "dispatched":
                    assert rec["slice_id"] not in completed_before
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=10)
            worker_proc.kill()
            worker_proc.wait(timeout=10)

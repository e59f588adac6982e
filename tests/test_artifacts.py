"""Tests for the content-addressed artifact store (src/repro/artifacts).

The failure matrix pinned here mirrors docs/artifacts.md:

* a writer killed mid-write (kill -9) leaves the old entry authoritative;
* a corrupted / truncated entry is quarantined and transparently rebuilt;
* concurrent readers and a writer interleave safely under the file lock;
* eviction never removes a pinned entry;
* a repeat ``repro run`` against an unchanged graph performs zero graph
  parses and zero ordering recomputations.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import artifacts
from repro.artifacts import ArtifactStore, kinds
from repro.artifacts import store as store_module
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.io import write_edge_list
from repro.cli import main
from tests.conftest import make_g0

EDGES = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]


def _graph() -> BipartiteGraph:
    return BipartiteGraph(EDGES)


def _store(tmp_path, **kwargs) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store", **kwargs)


# --------------------------------------------------------------------------
# addressing / identity


class TestGraphKey:
    def test_key_is_format_independent(self, tmp_path):
        g = _graph()
        plain = tmp_path / "plain.txt"
        write_edge_list(g, plain)
        konect = tmp_path / "konect.tsv"
        konect.write_text(
            "% bip unweighted\n"
            + "".join(f"{u + 1} {v + 1}\n" for u, v in EDGES)
        )
        store = _store(tmp_path)
        _, key_plain, _ = kinds.load_graph_cached(plain, store)
        _, key_konect, _ = kinds.load_graph_cached(konect, store)
        assert key_plain == key_konect == kinds.graph_key(g)

    def test_key_distinguishes_different_graphs(self):
        assert kinds.graph_key(_graph()) != kinds.graph_key(
            BipartiteGraph(EDGES + [(2, 0)])
        )

    def test_encode_decode_round_trip(self):
        g = make_g0()
        back = kinds.decode_graph(kinds.encode_graph(g))
        assert back.n_u == g.n_u and back.n_v == g.n_v
        for u in range(g.n_u):
            assert list(back.neighbors_u(u)) == list(g.neighbors_u(u))

    def test_entry_path_sanitises_fingerprint(self, tmp_path):
        store = _store(tmp_path)
        path = store.entry_path("abc", "order", "degree:0")
        assert ":" not in os.path.basename(path)
        store.put("abc", "order", [0, 1], "degree:0")
        assert store.get("abc", "order", "degree:0") == [0, 1]


# --------------------------------------------------------------------------
# crash safety


class TestCrashSafety:
    def test_kill9_mid_write_leaves_old_entry_authoritative(self, tmp_path):
        store = _store(tmp_path)
        gk = kinds.graph_key(_graph())
        store.put(gk, "stats", {"v": "old"})
        # a real writer process, SIGKILLed inside the write (fsync is the
        # last call before os.replace publishes the entry)
        script = (
            "import os, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.artifacts import ArtifactStore\n"
            "os.fsync = lambda fd: os.kill(os.getpid(), 9)\n"
            f"store = ArtifactStore({str(tmp_path / 'store')!r})\n"
            f"store.put({gk!r}, 'stats', {{'v': 'new'}})\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script,
             os.path.join(os.path.dirname(__file__), "..", "src")],
            capture_output=True,
        )
        assert proc.returncode == -signal.SIGKILL
        # the old entry is intact and served; the torn temp file is inert
        fresh = _store(tmp_path)
        assert fresh.get(gk, "stats") == {"v": "old"}
        leftovers = [
            name
            for _d, _s, files in os.walk(fresh.objects_dir)
            for name in files if ".tmp." in name
        ]
        assert leftovers  # the kill really interrupted a write
        report = fresh.verify()
        assert report["tmp_removed"] == len(leftovers)
        assert report["quarantined"] == []
        assert fresh.get(gk, "stats") == {"v": "old"}

    def test_interrupted_put_never_tears_the_entry(self, tmp_path):
        """Simulated torn write: a stale temp sibling with partial JSON
        must never shadow or corrupt the committed entry."""
        store = _store(tmp_path)
        store.put("g" * 64, "stats", {"v": 1})
        path = store.entry_path("g" * 64, "stats")
        with open(path + ".tmp.9999.1", "w") as handle:
            handle.write('{"format": 1, "payl')  # torn mid-write
        fresh = _store(tmp_path)
        assert fresh.get("g" * 64, "stats") == {"v": 1}
        assert fresh.gc()["tmp_removed"] == 1


# --------------------------------------------------------------------------
# corruption → quarantine → rebuild


class TestCorruption:
    def _poison(self, store, gk, kind, fingerprint="-", blob=b"garbage{"):
        path = store.entry_path(gk, kind, fingerprint)
        with open(path, "wb") as handle:
            handle.write(blob)

    def test_corrupt_entry_quarantined_and_rebuilt(self, tmp_path):
        g = _graph()
        gk = kinds.graph_key(g)
        writer = _store(tmp_path)
        first = kinds.cached_vertex_order(writer, gk, g)
        self._poison(writer, gk, "order", "degree:0")
        # corruption is a cross-process concern: a *fresh* store (no RAM
        # memo of the healthy payload) must detect, quarantine, rebuild
        reader = _store(tmp_path)
        assert reader.get(gk, "order", "degree:0") is None
        assert os.listdir(reader.quarantine_dir)  # moved aside, not lost
        rebuilt = kinds.cached_vertex_order(reader, gk, g)
        assert rebuilt == first
        assert reader.get(gk, "order", "degree:0") == first

    def test_truncated_entry_is_a_miss_not_a_crash(self, tmp_path):
        store = _store(tmp_path)
        gk = "a" * 64
        store.put(gk, "stats", {"n_edges": 5})
        path = store.entry_path(gk, "stats")
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        fresh = _store(tmp_path)
        assert fresh.get(gk, "stats") is None
        assert any(
            "unparseable" in name
            for name in os.listdir(fresh.quarantine_dir)
        )

    def test_checksum_mismatch_detected(self, tmp_path):
        store = _store(tmp_path)
        gk = "b" * 64
        store.put(gk, "stats", {"v": 1})
        path = store.entry_path(gk, "stats")
        doc = json.loads(open(path, "rb").read())
        doc["payload"] = {"v": 2}  # payload flipped, checksum stale
        with open(path, "w") as handle:
            json.dump(doc, handle)
        fresh = _store(tmp_path)
        assert fresh.get(gk, "stats") is None
        assert any(
            "checksum_mismatch" in name
            for name in os.listdir(fresh.quarantine_dir)
        )

    def test_entry_at_wrong_address_quarantined_by_verify(self, tmp_path):
        store = _store(tmp_path)
        store.put("c" * 64, "stats", {"v": 1})
        src = store.entry_path("c" * 64, "stats")
        dst = store.entry_path("d" * 64, "stats")
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        os.rename(src, dst)  # entry now lies about its own address
        fresh = _store(tmp_path)
        report = fresh.verify()
        assert report["ok"] == 0 and len(report["quarantined"]) == 1
        assert "address_mismatch" in os.listdir(fresh.quarantine_dir)[0]

    def test_verify_keeps_healthy_colon_fingerprints(self, tmp_path):
        """Sanitised filenames (``degree:0`` → ``degree_0``) must not be
        mistaken for address mismatches by the integrity scan."""
        g = _graph()
        store = _store(tmp_path)
        gk = kinds.graph_key(g)
        kinds.cached_vertex_order(store, gk, g)
        kinds.cached_root_count(store, gk, g)
        report = store.verify()
        assert report["quarantined"] == [] and report["ok"] == 2

    def test_corrupt_counter_exported(self, tmp_path):
        store = _store(tmp_path)
        store.put("e" * 64, "stats", {"v": 1})
        self._poison(store, "e" * 64, "stats")
        fresh = _store(tmp_path)
        fresh.get("e" * 64, "stats")
        counters = fresh.stats_summary()["counters"]
        assert counters.get("artifacts_corrupt_total") == 1


# --------------------------------------------------------------------------
# concurrency


class TestConcurrency:
    def test_concurrent_readers_and_writer(self, tmp_path):
        """One writer rewrites entries while readers hammer them: every
        read is either a miss or a fully-consistent payload."""
        root = tmp_path / "store"
        writer = ArtifactStore(root)
        readers = [ArtifactStore(root, memo_slots=0) for _ in range(3)]
        gk = "f" * 64
        stop = threading.Event()
        errors: list[str] = []

        def write_loop():
            for i in range(50):
                writer.put(gk, "stats", {"i": i, "sq": i * i})
            stop.set()

        def read_loop(store):
            while not stop.is_set():
                got = store.get(gk, "stats")
                if got is None:
                    continue
                if got["sq"] != got["i"] * got["i"]:
                    errors.append(f"torn read: {got}")

        threads = [threading.Thread(target=write_loop)] + [
            threading.Thread(target=read_loop, args=(r,)) for r in readers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert writer.get(gk, "stats") == {"i": 49, "sq": 49 * 49}
        assert writer.verify()["quarantined"] == []

    def test_cross_process_writers_leave_store_consistent(self, tmp_path):
        root = str(tmp_path / "store")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.artifacts import ArtifactStore\n"
            "store = ArtifactStore(sys.argv[2])\n"
            "who = int(sys.argv[3])\n"
            "for i in range(10):\n"
            "    store.put('a' * 64, 'stats', {'who': who, 'i': i},\n"
            "              fingerprint=f'{who}:{i}')\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, src, root, str(who)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            for who in range(3)
        ]
        for p in procs:
            _, err = p.communicate(timeout=120)
            assert p.returncode == 0, err.decode()
        store = ArtifactStore(root)
        report = store.verify()
        assert report["ok"] == 30 and report["quarantined"] == []
        for who in range(3):
            for i in range(10):
                assert store.get("a" * 64, "stats", f"{who}:{i}") == {
                    "who": who, "i": i,
                }

    def test_filelock_is_reentrant_in_process(self, tmp_path):
        store = _store(tmp_path)
        with store.lock:
            with store.lock:  # e.g. put() inside gc()
                store.put("g" * 64, "stats", {"v": 1})
        assert store.get("g" * 64, "stats") == {"v": 1}


# --------------------------------------------------------------------------
# eviction


class TestEviction:
    def test_lru_eviction_respects_budget(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=2_000)
        for i in range(20):
            store.put("h" * 64, "stats", {"pad": "x" * 200}, str(i))
        total = sum(e.size for e in store.entries())
        assert total <= 2_000
        assert len(store.entries()) < 20
        counters = store.stats_summary()["counters"]
        assert counters.get("artifacts_evictions_total", 0) > 0

    def test_eviction_never_removes_pinned_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=1_200)
        gk = "i" * 64
        store.put(gk, "stats", {"pad": "x" * 200}, "pinned")
        with store.pin(gk, "stats", "pinned"):
            for i in range(20):
                store.put(gk, "stats", {"pad": "y" * 200}, f"filler{i}")
            assert store.get(gk, "stats", "pinned") is not None
        # after release the entry is evictable again
        store.put(gk, "stats", {"pad": "z" * 600}, "big")
        assert sum(e.size for e in store.entries()) <= 1_200

    def test_recently_used_entries_survive(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=None)
        gk = "j" * 64
        for i in range(10):
            store.put(gk, "stats", {"pad": "x" * 200}, str(i))
        os.utime(store.entry_path(gk, "stats", "0"), (1, 1))  # make LRU
        store.gc(max_bytes=1_500)
        assert store.get(gk, "stats", "0") is None  # the LRU went first
        assert store.get(gk, "stats", "9") is not None


# --------------------------------------------------------------------------
# byte ledger: budgeted writes cost the same at any store size


def _disk_total(store: ArtifactStore) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirs, files in os.walk(store.objects_dir)
        for name in files
    )


class _CallCounter:
    """Counts calls to ``os.walk`` / ``os.stat`` while patched in."""

    def __init__(self, monkeypatch):
        self.walks = 0
        self.stats = 0
        real_walk, real_stat = os.walk, os.stat

        def walk(*args, **kwargs):
            self.walks += 1
            return real_walk(*args, **kwargs)

        def stat(*args, **kwargs):
            self.stats += 1
            return real_stat(*args, **kwargs)

        monkeypatch.setattr(store_module.os, "walk", walk)
        monkeypatch.setattr(store_module.os, "stat", stat)


class TestByteLedger:
    def test_budgeted_put_cost_is_flat_in_the_entry_count(
        self, tmp_path, monkeypatch
    ):
        payload = {"bicliques": [[[1, 2, 3], [4, 5]]] * 20}
        counts = {}
        for entries in (10, 1_000):
            store = ArtifactStore(tmp_path / f"s{entries}")
            for i in range(entries):
                store.put(f"{i:064x}", "result", payload)
            with monkeypatch.context() as patch:
                calls = _CallCounter(patch)
                store.put("f" * 64, "result", payload)
            counts[entries] = (calls.walks, calls.stats)
        assert counts[10][0] == counts[1_000][0] == 0
        assert counts[10][1] == counts[1_000][1]

    def test_first_budgeted_put_after_open_walks_once(
        self, tmp_path, monkeypatch
    ):
        ArtifactStore(tmp_path / "store").put("a" * 64, "stats", {"v": 1})
        store = ArtifactStore(tmp_path / "store")
        calls = _CallCounter(monkeypatch)
        store.put("b" * 64, "stats", {"v": 2})
        store.put("c" * 64, "stats", {"v": 3})
        assert calls.walks == 1
        assert store._ledger == _disk_total(store)

    def test_unbudgeted_store_never_walks(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store", max_bytes=None)
        calls = _CallCounter(monkeypatch)
        for i in range(5):
            store.put(f"{i:064x}", "stats", {"v": i})
        assert calls.walks == 0

    @pytest.mark.parametrize(
        "content", [b"", b"12", b"garbage\n", b"\x00\xff\n", b"-3\n"],
        ids=["empty", "torn", "text", "binary", "negative"],
    )
    def test_unreadable_generation_means_rewalk(
        self, tmp_path, monkeypatch, content
    ):
        store = _store(tmp_path)
        store.put("a" * 64, "stats", {"v": 1})
        with open(os.path.join(store.root, "generation"), "wb") as handle:
            handle.write(content)
        calls = _CallCounter(monkeypatch)
        store.put("b" * 64, "stats", {"v": 2})
        assert calls.walks == 1
        assert store._ledger == _disk_total(store)

    def test_write_by_another_store_is_seen(self, tmp_path):
        gk = "k" * 64
        a = ArtifactStore(tmp_path / "store", max_bytes=1_500)
        b = ArtifactStore(tmp_path / "store", max_bytes=None)
        a.put(gk, "stats", {"pad": "a" * 200}, "a0")
        for i in range(10):  # unbudgeted, far over a's budget
            b.put(gk, "stats", {"pad": "b" * 200}, f"b{i}")
        a.put(gk, "stats", {"pad": "a" * 200}, "a1")
        assert _disk_total(a) <= 1_500
        assert a._ledger == _disk_total(a)

    def test_old_entry_layout_still_reads_and_new_entries_verify(
        self, tmp_path
    ):
        from repro.artifacts.store import FORMAT, _canonical, _checksum

        store = _store(tmp_path)
        gk = "l" * 64
        payload = {"count": 2, "bicliques": [[[0], [1]], [[1], [0, 2]]]}
        doc = {  # as entries were written before the payload was spliced
            "format": FORMAT, "graph_key": gk, "kind": "result",
            "fingerprint": "old", "created": 1.0,
            "checksum": _checksum(_canonical(payload)), "payload": payload,
        }
        path = store.entry_path(gk, "result", "old")
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            handle.write(json.dumps(doc, sort_keys=True))
        store.put(gk, "result", payload, "new")
        assert store.get(gk, "result", "old") == payload
        assert ArtifactStore(store.root).get(gk, "result", "new") == payload
        with open(store.entry_path(gk, "result", "new"), "rb") as handle:
            assert json.loads(handle.read())["payload"] == payload
        report = store.verify()
        assert report["ok"] == 2 and report["quarantined"] == []


_KEYS = ["0" * 64, "1" * 64, "2" * 64]
_ledger_ops = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 5),
              st.integers(0, 900)),
    st.tuples(st.sampled_from(["get", "delete", "corrupt"]),
              st.integers(0, 1), st.integers(0, 5)),
    st.tuples(st.just("gc"), st.integers(0, 1)),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_ledger_ops, max_size=25))
def test_two_stores_over_one_root_keep_budget_and_ledger(ops):
    """Two stores stand in for two processes sharing one root: every
    budgeted put leaves the disk within budget and the putting store's
    ledger equal to a fresh walk."""
    import tempfile

    budget = 3_000
    with tempfile.TemporaryDirectory() as root:
        stores = [ArtifactStore(root, max_bytes=budget) for _ in range(2)]
        for op in ops:
            store = stores[op[1]]
            if op[0] == "gc":
                store.gc()
                continue
            gk, fp = _KEYS[op[2] % 3], str(op[2])
            if op[0] == "put":
                store.put(gk, "stats", {"pad": "x" * op[3]}, fp)
                assert _disk_total(store) <= budget
                assert store._ledger == _disk_total(store)
            elif op[0] == "get":
                store.get(gk, "stats", fp)
            elif op[0] == "delete":
                store.delete(gk, "stats", fp)
            else:  # same-size garbage, then a read that quarantines it
                path = store.entry_path(gk, "stats", fp)
                if os.path.exists(path):
                    size = os.path.getsize(path)
                    with open(path, "wb") as handle:
                        handle.write(b"#" * size)
                    for s in stores:
                        s._memo_drop(path)
                store.get(gk, "stats", fp)


# --------------------------------------------------------------------------
# source index / cached loading


class TestLoadGraphCached:
    def test_second_load_skips_parsing(self, tmp_path, monkeypatch):
        g = make_g0()
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        store = _store(tmp_path)
        _, gk, cached = kinds.load_graph_cached(path, store)
        assert not cached
        import repro.bigraph.io as io_mod

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("warm load re-parsed the file")

        monkeypatch.setattr(io_mod, "read_edge_list", boom)
        graph, gk2, cached2 = kinds.load_graph_cached(path, store)
        assert cached2 and gk2 == gk
        assert graph.n_edges == g.n_edges

    def test_changed_file_invalidates_source_index(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(_graph(), path)
        store = _store(tmp_path)
        _, gk, _ = kinds.load_graph_cached(path, store)
        write_edge_list(BipartiteGraph(EDGES + [(2, 0)]), path)
        graph, gk2, cached = kinds.load_graph_cached(path, store)
        assert not cached and gk2 != gk
        assert graph.n_edges == len(EDGES) + 1

    def test_peek_graph_key_warm_and_cold(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(_graph(), path)
        store = _store(tmp_path)
        assert kinds.peek_graph_key(path, store) is None  # cold
        _, gk, _ = kinds.load_graph_cached(path, store)
        assert kinds.peek_graph_key(path, store) == gk
        path.write_text("0 0\n")
        assert kinds.peek_graph_key(path, store) is None  # stale

    def test_io_facade_uses_default_store(self, tmp_path, monkeypatch):
        from repro.bigraph.io import load_graph_cached as facade

        monkeypatch.setenv(artifacts.ENV_DIR, str(tmp_path / "env-store"))
        path = tmp_path / "g.txt"
        write_edge_list(_graph(), path)
        graph, gk, cached = facade(path)
        assert not cached and graph.n_edges == len(EDGES)
        _, _, warm = facade(path)
        assert warm
        assert (tmp_path / "env-store" / "objects").is_dir()


# --------------------------------------------------------------------------
# derived artifact producers


class TestProducers:
    def test_cached_order_built_once(self, tmp_path, monkeypatch):
        g = make_g0()
        gk = kinds.graph_key(g)
        store = _store(tmp_path)
        import repro.bigraph.ordering as ordering_mod

        expected = ordering_mod.vertex_order(g)
        calls = []
        real = ordering_mod._compute_order

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ordering_mod, "_compute_order", counting)
        first = kinds.cached_vertex_order(store, gk, g)
        again = kinds.cached_vertex_order(store, gk, g)
        assert first == again == expected
        assert len(calls) == 1

    def test_cost_matches_serve_estimate(self, tmp_path):
        from repro.serve.queue import estimate_cost

        g = make_g0()
        store = _store(tmp_path)
        assert kinds.cached_cost(store, kinds.graph_key(g), g) == \
            estimate_cost(g)

    def test_degeneracy_stats_components_round_trip(self, tmp_path):
        from repro.bigraph.components import connected_components
        from repro.bigraph.ordering import degeneracy_order
        from repro.bigraph.stats import compute_stats

        g = make_g0()
        gk = kinds.graph_key(g)
        store = _store(tmp_path)
        order_v, degen = kinds.cached_degeneracy_order(store, gk, g)
        assert (order_v, degen) == tuple(degeneracy_order(g))
        assert kinds.cached_stats(store, gk, g) == compute_stats(g)
        assert kinds.cached_components(store, gk, g) == [
            (list(us), list(vs)) for us, vs in connected_components(g)
        ]

    def test_precomputed_permutation_accepted_by_vertex_order(self):
        from repro.bigraph.ordering import vertex_order

        g = _graph()
        perm = vertex_order(g, "degree")
        assert vertex_order(g, perm) == perm  # pass-through
        with pytest.raises(ValueError, match="permutation"):
            vertex_order(g, [0, 0])


# --------------------------------------------------------------------------
# result cache


class TestResultCache:
    def test_round_trip_and_need_bicliques(self, tmp_path):
        store = _store(tmp_path)
        gk = "k" * 64
        fp = kinds.result_fingerprint("mbet")
        assert kinds.get_cached_result(store, gk, fp) is None
        kinds.put_cached_result(
            store, gk, fp, engine="mbet", count=2, elapsed=0.5,
            bicliques=[([0, 1], [0, 1]), ([0, 1, 2], [1])],
        )
        hit = kinds.get_cached_result(store, gk, fp, need_bicliques=True)
        assert hit["count"] == 2 and len(hit["bicliques"]) == 2

    def test_count_only_entry_misses_collect_callers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(kinds, "RESULT_BICLIQUE_CAP", 1)
        store = _store(tmp_path)
        gk = "l" * 64
        fp = kinds.result_fingerprint("mbet")
        kinds.put_cached_result(
            store, gk, fp, engine="mbet", count=2, elapsed=0.5,
            bicliques=[([0], [0]), ([1], [1])],  # over the cap
        )
        assert kinds.get_cached_result(store, gk, fp)["bicliques"] is None
        assert kinds.get_cached_result(
            store, gk, fp, need_bicliques=True
        ) is None

    def test_fingerprint_covers_thresholds_and_options(self):
        base = kinds.result_fingerprint("mbet")
        assert kinds.result_fingerprint("mbet") == base
        assert kinds.result_fingerprint("mbea") != base
        assert kinds.result_fingerprint("mbet", min_left=2) != base
        assert kinds.result_fingerprint(
            "mbet", engine_options={"workers": 4}
        ) != base


# --------------------------------------------------------------------------
# CLI integration


class TestCliCache:
    @pytest.fixture
    def g0_file(self, tmp_path):
        path = tmp_path / "g0.txt"
        write_edge_list(make_g0(), path)
        return str(path)

    def _run(self, g0_file, cache_dir, *extra):
        return main([
            "run", "--input", g0_file, "-a", "mbet",
            "--cache-dir", str(cache_dir), *extra,
        ])

    def test_warm_run_zero_parses_zero_orderings(
        self, g0_file, tmp_path, capsys, monkeypatch
    ):
        cache = tmp_path / "cache"
        assert self._run(g0_file, cache) == 0
        cold = capsys.readouterr()
        assert "6 maximal bicliques" in cold.out
        # the warm run must finish without touching the graph: any parse
        # or ordering recomputation is a hard failure
        import repro.bigraph.io as io_mod
        import repro.bigraph.ordering as ordering_mod

        def no_parse(*a, **k):  # pragma: no cover - guard
            raise AssertionError("warm run re-parsed the graph")

        def no_order(*a, **k):  # pragma: no cover - guard
            raise AssertionError("warm run recomputed the ordering")

        monkeypatch.setattr(io_mod, "read_edge_list", no_parse)
        monkeypatch.setattr(ordering_mod, "_compute_order", no_order)
        assert self._run(g0_file, cache) == 0
        warm = capsys.readouterr()
        assert "cached result" in warm.out
        assert "6 maximal bicliques" in warm.out

    def test_cold_run_orders_exactly_once(
        self, g0_file, tmp_path, capsys, monkeypatch
    ):
        """The ordering produced by the cost pre-flight is threaded into
        the engine — the same invocation never computes it twice."""
        import repro.bigraph.ordering as ordering_mod

        calls = []
        real = ordering_mod._compute_order

        def counting(graph, strategy, seed):
            calls.append(strategy)
            return real(graph, strategy, seed)

        monkeypatch.setattr(ordering_mod, "_compute_order", counting)
        assert self._run(g0_file, tmp_path / "cache") == 0
        assert calls.count("degree") == 1

    def test_warm_output_file_identical(self, g0_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert self._run(g0_file, cache, "-o", str(out1)) == 0
        assert self._run(g0_file, cache, "-o", str(out2)) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()

    def test_budgeted_run_bypasses_result_cache(
        self, g0_file, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        assert self._run(g0_file, cache) == 0
        assert self._run(g0_file, cache, "--max-bicliques", "3") == 0
        out = capsys.readouterr().out
        assert "cached result" not in out.splitlines()[-1]

    def test_no_cache_flag_wins(self, g0_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert self._run(g0_file, cache) == 0
        assert self._run(g0_file, cache, "--no-cache") == 0
        assert "cached result" not in capsys.readouterr().out.splitlines()[-1]

    def test_corrupted_result_entry_rebuilt_with_correct_answer(
        self, g0_file, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        assert self._run(g0_file, cache) == 0
        store = artifacts.open_store(cache)
        results = [e for e in store.entries() if e.kind == "result"]
        assert len(results) == 1
        with open(results[0].path, "w") as handle:
            handle.write("NOT JSON")
        capsys.readouterr()
        # the corrupt entry is quarantined, the run recomputes, and the
        # recomputed (correct) answer replaces it
        assert self._run(g0_file, cache) == 0
        out = capsys.readouterr().out
        assert "6 maximal bicliques" in out and "cached result" not in out
        assert os.listdir(store.quarantine_dir)
        assert self._run(g0_file, cache) == 0
        assert "cached result" in capsys.readouterr().out

    def test_cache_subcommands(self, g0_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert self._run(g0_file, cache) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache, "stats"]) == 0
        stats_out = capsys.readouterr().out
        assert "entries" in stats_out and "result" in stats_out
        assert main(["cache", "--cache-dir", cache, "ls"]) == 0
        ls_out = capsys.readouterr().out
        assert "order" in ls_out and "graph" in ls_out
        assert main(["cache", "--cache-dir", cache, "verify"]) == 0
        assert "verified" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache, "gc"]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache, "clear"]) == 0
        capsys.readouterr()
        store = artifacts.open_store(cache)
        assert store.entries() == []

    def test_cache_verify_flags_corruption_with_exit_1(
        self, g0_file, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert self._run(g0_file, cache) == 0
        store = artifacts.open_store(cache)
        entry = store.entries()[0]
        with open(entry.path, "w") as handle:
            handle.write("junk")
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache, "verify"]) == 1
        err = capsys.readouterr().err
        assert "quarantined" in err

"""Property tests for the durable-log module, through each consumer.

:mod:`repro.runtime.durable` holds the append, torn-tail and atomic
rewrite mechanics of the serve journal, the coordinator journal, the
checkpoint and the result spool.  Each property here drives one of
those consumers under one :mod:`repro.chaos.fs` fault on the Nth write,
fsync or replace, then reads the file back through the consumer's own
loader.

``bitflip`` is left out on purpose: JSONL records carry no checksum, so
a flipped digit can still parse as a different, valid record, and no
prefix property can hold for it.  Only artifact entries carry a
checksum (``tests/test_artifacts.py``).
"""

from __future__ import annotations

import os
import re
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import fs as chaos_fs
from repro.chaos.schedule import FaultRule, FaultSchedule
from repro.cluster.journal import ClusterJournal, load_cluster_journal
from repro.core.base import Biclique
from repro.core.io_results import BicliqueWriter, read_bicliques
from repro.runtime import CheckpointWriter, durable, load_checkpoint
from repro.serve import EnumerationService, JobJournal, ServiceConfig
from repro.serve import load_journal
from repro.serve.jobs import Job, JobSpec

#: the chaos.fs operation each fault acts on
FAULT_OPS = {
    "torn_write": "write",
    "enospc": "write",
    "lost_fsync": "fsync",
    "replace_error": "replace",
}
#: faults that make the operation they hit fail with OSError
FAILING = {"torn_write", "enospc", "replace_error"}
FP = {"n_u": 3, "n_v": 2, "seed": 0}
SPEC = JobSpec(edges=[[0, 0]])

PROPERTY = settings(max_examples=40, deadline=None)


def _job(job_id: str) -> Job:
    return Job(job_id=job_id, spec=SPEC)


# -- one adapter per consumer: open, append record i, load, reopen ---------
#
# ``append`` returns whether record i was committed: a raising consumer
# (serve journal, spool) raises on a failed append; a counting one
# (cluster journal, checkpoint) counts it in ``write_errors``.


def _serve_append(writer: JobJournal, i: int) -> bool:
    try:
        writer.record_event(_job(f"j{i}"), "submitted")
    except OSError:
        return False
    return True


def _counted(append):
    def wrapped(writer, i: int) -> bool:
        before = writer.write_errors
        append(writer, i)
        return writer.write_errors == before
    return wrapped


def _spool_append(writer: BicliqueWriter, i: int) -> bool:
    try:
        writer.write(Biclique.make([i], [i + 1]))
    except OSError:
        return False
    return True


def _checkpoint_reopen(path: str) -> CheckpointWriter:
    carried = list(load_checkpoint(path).records.values())
    return CheckpointWriter(path, FP, resume_records=carried)


def _checkpoint_load(path: str) -> list[int]:
    ckpt = load_checkpoint(path)
    return [] if ckpt is None else [r["task"][0] for r in ckpt.records.values()]


CONSUMERS = {
    "serve_journal": dict(
        name="journal.jsonl",
        open=JobJournal,
        append=_serve_append,
        load=lambda p: [int(j[1:]) for j in load_journal(p)],
        reopen=JobJournal,
        line=lambda i: durable.encode(
            {"type": "job", "event": "submitted", "job_id": f"j{i}"}
        ),
    ),
    "cluster_journal": dict(
        name="coordinator.jsonl",
        open=ClusterJournal,
        append=_counted(lambda w, i: w.record_slice("dispatched", f"s{i}")),
        load=lambda p: [
            int(e["slice_id"][1:]) for e in load_cluster_journal(p)[1]
        ],
        reopen=ClusterJournal,
        line=lambda i: durable.encode(
            {"type": "slice", "event": "dispatched", "slice_id": f"s{i}"}
        ),
    ),
    "checkpoint": dict(
        name="run.ckpt",
        open=lambda p: CheckpointWriter(p, FP),
        append=_counted(lambda w, i: w.record((i, 0, 1), 1, {}, None)),
        load=_checkpoint_load,
        reopen=_checkpoint_reopen,
        line=lambda i: durable.encode({"type": "task", "key": f"{i}:0:1"}),
    ),
    # a spool is written once, start to finish: it has no reopen, and a
    # torn tab-separated line can parse (its replay defence is the byte
    # and line count journaled beside it), so no simulated kill either
    "result_spool": dict(
        name="spool.tsv",
        open=BicliqueWriter,
        append=_spool_append,
        load=lambda p: [
            b.left[0] for b in read_bicliques(p, tolerate_torn_tail=True)
        ],
        reopen=None,
        line=None,
    ),
}


@PROPERTY
@given(
    consumer=st.sampled_from(sorted(CONSUMERS)),
    n_records=st.integers(0, 8),
    fault=st.sampled_from(sorted(FAULT_OPS)),
    nth=st.integers(0, 8),
    torn_tail=st.one_of(st.none(), st.floats(0.05, 0.95)),
)
def test_appends_load_the_committed_records(
    consumer, n_records, fault, nth, torn_tail
):
    """A load returns the committed records, and the log stays usable.

    Every committed record comes back, in order, and nothing else: the
    failed append is rolled back, and a simulated kill tears only a
    line that was never committed.  A reopen plus one more append then
    loads as the committed records plus that one.
    """
    c = CONSUMERS[consumer]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, c["name"])
        writer = c["open"](path)
        schedule = FaultSchedule(seed=0, rules=(FaultRule(
            "disk", fault, match=c["name"], op=FAULT_OPS[fault],
            after=nth, max_fires=1,
        ),))
        with chaos_fs.active(schedule):
            committed = [i for i in range(n_records) if c["append"](writer, i)]
        writer.close()
        fired = fault in FAILING and FAULT_OPS[fault] == "write" and (
            nth < n_records
        )
        assert len(committed) == n_records - fired
        if torn_tail is not None and c["line"] is not None:
            line = c["line"](n_records)
            cut = max(1, min(len(line) - 2, int(len(line) * torn_tail)))
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line[:cut])  # a kill mid-append
        assert c["load"](path) == committed
        if c["reopen"] is None:
            return
        writer = c["reopen"](path)
        assert c["append"](writer, 100)
        writer.close()
        assert c["load"](path) == committed + [100]


EVENTS = ["started", "interrupted", "done", "failed", "cancelled"]


@PROPERTY
@given(
    trails=st.lists(
        st.lists(st.sampled_from(EVENTS), max_size=3), min_size=0, max_size=5
    ),
    fault=st.sampled_from(sorted(FAULT_OPS)),
    nth=st.integers(0, 10),
)
def test_compaction_keeps_the_replayed_journal_state(trails, fault, nth):
    """A compaction under any one fault leaves the replayed state as it
    was: a failed pass keeps the old file, a finished one rewrites the
    same state.  The journal then takes and replays a further append."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "journal.jsonl")
        journal = JobJournal(path)
        for n, trail in enumerate(trails):
            job = _job(f"j{n}")
            journal.record_event(job, "submitted")
            for event in trail:
                extra = {"error": "boom"} if event == "failed" else {}
                if event == "done":
                    extra = {"summary": {"count": n}}
                journal.record_event(job, event, **extra)
        before = load_journal(path)
        lines = sum(1 + bool(trail) for trail in trails)
        target = "journal.jsonl" if fault == "replace_error" else "compact.tmp"
        schedule = FaultSchedule(seed=0, rules=(FaultRule(
            "disk", fault, match=target, op=FAULT_OPS[fault],
            after=nth, max_fires=1,
        ),))
        with chaos_fs.active(schedule):
            kept = journal.compact()
        failed = fault == "replace_error" and nth == 0 or (
            fault in ("torn_write", "enospc") and nth < lines
        )
        assert kept == (-1 if failed else len(trails))
        assert journal.compact_failures == int(failed)
        assert not os.path.exists(path + ".compact.tmp")
        assert load_journal(path) == before
        assert list(load_journal(path)) == list(before)
        journal.record_event(_job("late"), "submitted")
        journal.close()
        reopened = JobJournal(path)
        assert list(reopened.recovered) == [*before, "late"]
        reopened.close()


@PROPERTY
@given(
    n_records=st.integers(0, 5),
    fault=st.sampled_from(sorted(FAULT_OPS)),
    nth=st.integers(0, 6),
)
def test_checkpoint_rewrite_lands_whole_or_not_at_all(n_records, fault, nth):
    """Checkpoint creation is an atomic rewrite: under any one fault the
    file loads as the old checkpoint or the new one, never a mix, and
    leaves no temp file behind."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.ckpt")
        writer = CheckpointWriter(path, FP)
        for i in range(n_records):
            writer.record((i, 0, 1), 1, {}, None)
        writer.close()
        carried = list(load_checkpoint(path).records.values())
        new_fp = dict(FP, seed=1)
        target = "run.ckpt" if fault == "replace_error" else "run.ckpt.tmp"
        schedule = FaultSchedule(seed=0, rules=(FaultRule(
            "disk", fault, match=target, op=FAULT_OPS[fault],
            after=nth, max_fires=1,
        ),))
        failed = fault == "replace_error" and nth == 0 or (
            fault in ("torn_write", "enospc") and nth <= n_records
        )
        with chaos_fs.active(schedule):
            try:
                CheckpointWriter(path, new_fp, resume_records=carried).close()
            except OSError:
                assert failed
            else:
                assert not failed
        assert not os.path.exists(path + ".tmp")
        ckpt = load_checkpoint(path)
        assert ckpt.matches(FP if failed else new_fp)
        assert list(ckpt.records.values()) == carried


def test_serve_job_and_compaction_io_shape_is_pinned(tmp_path):
    """Per-file write/fsync/replace counts of one job plus one compaction.

    Chaos rules aim at "the Nth write to a file" (``after=``), so this
    sequence is what the chaos catalogue's scenarios are written
    against: appends are one write and no fsync, rewrites one write per
    record, one fsync and one replace.
    """
    schedule = FaultSchedule(seed=0)
    with chaos_fs.active(schedule):
        service = EnumerationService(
            ServiceConfig(state_dir=str(tmp_path / "state"), workers=1)
        )
        service.start()
        try:
            job, _dedup = service.submit(
                {"engine": "mbet", "edges": [[0, 0], [0, 1], [1, 0],
                                             [1, 1], [2, 1]]}
            )
            deadline = time.monotonic() + 20
            while service.status(job.job_id)["state"] != "done":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert service.journal.compact() == 1
        finally:
            service.drain(timeout=5)
    counts: dict[tuple[str, str], int] = {}
    for (_seam, op, target), n in schedule._occurrences.items():
        # artifact temp names carry the writer's pid and thread id
        target = re.sub(r"\.tmp\.\d+\.\d+$", ".tmp.*", target)
        counts[op, target] = counts.get((op, target), 0) + n
    artifacts = ("components__-", "plan_features__v1", "stats__-",
                 "result__mbet_1_1_44136fa355b3678a")
    expected = {
        ("write", "journal.jsonl"): 3,  # submitted, started, done
        ("write", "journal.jsonl.compact.tmp"): 2,
        ("fsync", "journal.jsonl.compact.tmp"): 1,
        ("replace", "journal.jsonl"): 1,
    }
    for name in artifacts:
        expected["write", f"{name}.json.tmp.*"] = 1
        expected["fsync", f"{name}.json.tmp.*"] = 1
        expected["replace", f"{name}.json"] = 1
    assert counts == expected

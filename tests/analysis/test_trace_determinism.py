"""Byte-level determinism regression: same seed → identical trace dump.

The kernel's contract ("two runs with the same seed produce identical
traces") is asserted elsewhere on derived metrics; this pins it at the
strongest level — the exported JSONL files are byte-identical — using the
Fig. 6 sequential-task experiment as the driver.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

import repro.core.tasklist as tasklist
from repro.experiments import fig06_sequential
from repro.obs import session as obs_session

#: Golden SHA-256 of the record lines (perf trailer excluded) of the
#: seed traces below, captured from the pre-optimization kernel.  The
#: slotted events, relay path, batched pops, and trace index must not
#: move a byte; if one of these digests changes, the kernel's scheduling
#: semantics changed — not just its speed.
_FIG06_SHA = "1cc95a417d87167bdb77c9627d8bcf020db12c0ea5931f0916ba4e7aed5f0374"
_FIG10_SHA = "cf7f3642d25a4839ad956ea9d0116b3de670ad1e231ad3af971c1e4cf2fb7010"

#: Kernel-event budget for the fig06 seed run (484 at capture time).
#: Headroom covers small legitimate changes; a fast path that silently
#: doubles event traffic (e.g. re-introducing per-callback bridge
#: events) blows it.
_FIG06_EVENT_BUDGET = 550


def _record_sha(path) -> str:
    """SHA-256 over the dump's record lines, skipping meta trailers."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if json.loads(line).get("meta"):
                continue
            h.update(line)
    return h.hexdigest()


def _reset_id_counters():
    """Fresh module-global id streams, as in a new interpreter.

    Job ids come from an ``itertools.count()`` module global, so a second
    run in one process would otherwise start numbering where the first
    stopped and trivially differ.  Worker ids restart with every
    platform.
    """
    tasklist._spec_seq = itertools.count()


def _run_once(path):
    _reset_id_counters()
    with obs_session(trace_out=str(path)):
        rows = fig06_sequential.run(node_sizes=(4,), tasks_per_node=2, seed=7)
    assert rows[0]["completed"] == 8
    return path.read_bytes()


def test_fig06_trace_is_byte_identical_across_runs(tmp_path):
    first = _run_once(tmp_path / "a.jsonl")
    second = _run_once(tmp_path / "b.jsonl")
    assert first == second
    assert first  # non-empty: the dump actually captured the run


def test_fig06_trace_matches_golden_sha(tmp_path):
    """The dump matches the pre-fast-path kernel byte-for-byte."""
    _run_once(tmp_path / "a.jsonl")
    assert _record_sha(tmp_path / "a.jsonl") == _FIG06_SHA


def test_fig06_event_count_budget():
    """The optimized kernel does not inflate event traffic."""
    _reset_id_counters()
    with obs_session() as scope:
        fig06_sequential.run(node_sizes=(4,), tasks_per_node=2, seed=7)
    events = sum(t.env.events_processed for _lbl, t, _reg in scope.runs)
    assert 0 < events <= _FIG06_EVENT_BUDGET


def test_different_seeds_differ(tmp_path):
    """Sanity for the test itself: the dump is seed-sensitive."""
    _reset_id_counters()
    with obs_session(trace_out=str(tmp_path / "a.jsonl")):
        fig06_sequential.run(node_sizes=(4,), tasks_per_node=2, seed=7)
    _reset_id_counters()
    with obs_session(trace_out=str(tmp_path / "b.jsonl")):
        fig06_sequential.run(node_sizes=(4,), tasks_per_node=2, seed=8)
    a = (tmp_path / "a.jsonl").read_bytes()
    b = (tmp_path / "b.jsonl").read_bytes()
    assert a != b


def test_fig10_fault_trace_is_byte_identical_across_runs(tmp_path):
    """The recovery knobs default off-or-equivalent: the Fig. 10 fault run
    (fixed fault cadence) must still replay byte-for-byte."""
    from repro.experiments import fig10_faults

    def once(path):
        _reset_id_counters()
        with obs_session(trace_out=str(path)):
            result = fig10_faults.run(
                workers=8, fault_interval=5.0, task_duration=1.0, seed=0
            )
        assert result["faults"] > 0
        return path.read_bytes()

    first = once(tmp_path / "a.jsonl")
    second = once(tmp_path / "b.jsonl")
    assert first == second
    assert first
    assert _record_sha(tmp_path / "a.jsonl") == _FIG10_SHA

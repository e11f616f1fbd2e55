"""In-RAM vs streaming sink equivalence on real experiment runs.

The streaming pipeline's core promise: switching a run to the windowed,
spill-to-disk sink changes its memory profile and nothing else.  Same
seed → the spilled JSONL is byte-identical to the in-RAM dump, the
rendered report is identical (modulo the wall-clock line, which is live
telemetry and never part of the archive), and the chaos validators reach
identical verdicts.
"""

from __future__ import annotations

import io
import itertools
import json

import repro.core.tasklist as tasklist
from repro.core.chaos import ChaosConfig, run_chaos_plan
from repro.experiments import fig06_sequential
from repro.obs import session as obs_session


def _reset_id_counters():
    """Fresh module-global id streams, as in a new interpreter."""
    tasklist._spec_seq = itertools.count()


def _fig06(path=None, **session_kwargs):
    _reset_id_counters()
    if path is not None:
        session_kwargs["trace_out"] = str(path)
    with obs_session(**session_kwargs):
        rows = fig06_sequential.run(node_sizes=(4,), tasks_per_node=2, seed=7)
    assert rows[0]["completed"] == 8


def _strip_wall(report: str) -> str:
    """Drop the wall-clock perf line: live-only, varies run to run."""
    return "\n".join(
        line for line in report.splitlines() if "wall" not in line
    )


class TestDumpEquivalence:
    def test_fig06_spill_is_byte_identical_to_in_ram_dump(self, tmp_path):
        ram = tmp_path / "ram.jsonl"
        stream = tmp_path / "stream.jsonl"
        _fig06(ram)
        # A window far smaller than the record count: nearly every
        # record passes through eviction + spill, not the final drain.
        _fig06(stream, stream=True, window=16)
        assert ram.read_bytes() == stream.read_bytes()
        assert ram.read_bytes()  # the run actually produced records

    def test_fig06_streaming_dump_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _fig06(a, stream=True, window=16)
        _fig06(b, stream=True, window=16)
        assert a.read_bytes() == b.read_bytes()

    def test_heartbeats_are_deterministic_and_tagged(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _fig06(a, stream=True, window=16, progress_every=2.0)
        _fig06(b, stream=True, window=16, progress_every=2.0)
        assert a.read_bytes() == b.read_bytes()
        beats = [
            json.loads(ln)
            for ln in a.read_text().splitlines()
            if json.loads(ln).get("cat") == "obs.progress"
        ]
        assert beats
        for beat in beats:
            assert beat["data"]["events"] > 0
            assert beat["data"]["records"] > 0
            assert set(beat["data"]["jobs"]) == {"done", "failed"}

    def test_trailer_matches_in_ram_perf(self, tmp_path):
        ram = tmp_path / "ram.jsonl"
        stream = tmp_path / "stream.jsonl"
        _fig06(ram)
        _fig06(stream, stream=True, window=16)
        ram_trailer = json.loads(ram.read_text().splitlines()[-1])
        stream_trailer = json.loads(stream.read_text().splitlines()[-1])
        assert ram_trailer == stream_trailer
        assert ram_trailer["meta"] == "perf"


class TestReportEquivalence:
    def test_fig06_report_identical_modulo_wall_line(self, tmp_path):
        ram_out, stream_out = io.StringIO(), io.StringIO()
        _fig06(report=True, report_stream=ram_out)
        _fig06(report=True, report_stream=stream_out, stream=True, window=16)
        ram_report = _strip_wall(ram_out.getvalue())
        stream_report = _strip_wall(stream_out.getvalue())
        assert ram_report == stream_report
        assert "throughput" in ram_report or ram_report  # non-empty

    def test_chrome_trace_identical_under_streaming(self, tmp_path):
        ram = tmp_path / "ram.trace.json"
        stream = tmp_path / "stream.trace.json"
        _fig06(chrome_out=str(ram))
        _fig06(chrome_out=str(stream), stream=True, window=16)
        assert json.loads(ram.read_text()) == json.loads(stream.read_text())


class TestChaosVerdictEquivalence:
    def _plan(self, index, **session_kwargs):
        _reset_id_counters()
        config = ChaosConfig(plans=1, serial_tasks=6, mpi_tasks=1)
        with obs_session(**session_kwargs):
            return run_chaos_plan(config, index)

    def test_chaos_mix_verdicts_identical_under_streaming(self):
        for index in (0, 3):
            ram = self._plan(index)
            stream = self._plan(index, stream=True, window=64)
            assert ram.drained == stream.drained
            assert ram.problems == stream.problems
            assert ram.injected == stream.injected
            assert ram.wire_count == stream.wire_count
            assert (ram.jobs_ok, ram.jobs_failed, ram.jobs_submitted) == (
                stream.jobs_ok,
                stream.jobs_failed,
                stream.jobs_submitted,
            )
            assert ram.ok and stream.ok

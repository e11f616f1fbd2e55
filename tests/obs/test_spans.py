"""Span-reconstruction invariants over real dispatcher runs."""

import pytest

from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
from repro.cluster.machine import generic_cluster
from repro.cluster.platform import Platform
from repro.core.dispatcher import JetsDispatcher, JetsServiceConfig
from repro.core.tasklist import JobSpec
from repro.core.worker import WorkerAgent
from repro.obs.spans import build_spans


def run_batch(jobs, nodes=4, heartbeat=1.0, extra=None):
    """Run a job batch on a small stack; returns (platform, spans)."""
    platform = Platform(generic_cluster(nodes=nodes, cores_per_node=2))
    cfg = JetsServiceConfig(heartbeat_interval=heartbeat)
    dispatcher = JetsDispatcher(platform, cfg, expected_workers=nodes)
    dispatcher.start()
    agents = [
        WorkerAgent(
            platform, node, dispatcher.endpoint, heartbeat_interval=heartbeat
        )
        for node in platform.nodes
    ]
    for a in agents:
        a.start()
    events = [dispatcher.submit(j) for j in jobs]
    if extra is not None:
        platform.env.process(extra(platform, dispatcher, agents))
    platform.env.run(platform.env.all_of(events))
    return platform, build_spans(platform.trace)


class TestJobLifecycleOrdering:
    def test_mpi_job_walks_the_full_state_machine(self):
        _platform, spans = run_batch(
            [JobSpec(program=BarrierSleepBarrier(1.0), nodes=2, mpi=True)]
        )
        (job,) = spans.job_list()
        assert job.ok and len(job.attempts) == 1
        att = job.attempts[0]
        states = [tr.state for tr in att.transitions]
        assert states == [
            "queued",
            "grouped",
            "mpiexec_spawned",
            "pmi_wireup",
            "app_running",
            "done",
        ]

    def test_timestamps_monotonic_within_attempt(self):
        _platform, spans = run_batch(
            [
                JobSpec(program=BarrierSleepBarrier(0.5), nodes=2, mpi=True),
                JobSpec(program=SleepProgram(0.5), nodes=1, mpi=False),
            ]
        )
        for job in spans.job_list():
            for att in job.attempts:
                times = [tr.time for tr in att.transitions]
                assert times == sorted(times)
                # App never runs before the aggregator grouped workers.
                if att.t_app_running is not None:
                    assert att.t_grouped is not None
                    assert att.t_app_running >= att.t_grouped

    def test_serial_job_skips_mpi_states(self):
        _platform, spans = run_batch(
            [JobSpec(program=SleepProgram(0.5), nodes=1, mpi=False)]
        )
        (job,) = spans.job_list()
        att = job.attempts[0]
        states = {tr.state for tr in att.transitions}
        assert "mpiexec_spawned" not in states
        assert "pmi_wireup" not in states
        assert att.t_app_running is not None

    def test_queue_wait_nonnegative(self):
        _platform, spans = run_batch(
            [
                JobSpec(program=BarrierSleepBarrier(0.2), nodes=2, mpi=True)
                for _ in range(4)
            ]
        )
        for job in spans.job_list():
            for att in job.attempts:
                assert att.queue_wait is not None
                assert att.queue_wait >= 0


class TestProxySpans:
    def test_one_proxy_per_rank_group(self):
        _platform, spans = run_batch(
            [JobSpec(program=BarrierSleepBarrier(0.5), nodes=3, mpi=True)],
            nodes=4,
        )
        (job,) = spans.job_list()
        att = job.attempts[0]
        assert len(att.proxies) == 3
        for proxy in att.proxies:
            assert proxy.t_launched is not None
            assert proxy.t_registered is not None
            assert proxy.t_wired is not None
            assert proxy.t_exited is not None
            assert (
                proxy.t_launched
                <= proxy.t_registered
                <= proxy.t_wired
                <= proxy.t_exited
            )
            assert proxy.wireup_time >= 0

    def test_wireup_bracketed_by_pmi_phase(self):
        _platform, spans = run_batch(
            [JobSpec(program=BarrierSleepBarrier(0.5), nodes=2, mpi=True)]
        )
        (job,) = spans.job_list()
        att = job.attempts[0]
        assert att.t_wireup is not None
        for proxy in att.proxies:
            assert proxy.t_registered <= att.t_wireup <= proxy.t_wired


class TestResubmission:
    def _kill_one_busy(self, platform, dispatcher, agents):
        yield platform.env.timeout(2.0)
        busy = {
            v.worker_id
            for v in dispatcher.aggregator.workers()
            if v.running_jobs
        }
        for a in agents:
            if a.alive and a.worker_id in busy:
                a.kill()
                return

    def test_killed_job_gets_fresh_child_attempt(self):
        platform, spans = run_batch(
            [
                JobSpec(
                    program=BarrierSleepBarrier(5.0),
                    nodes=2,
                    mpi=True,
                    max_attempts=5,
                )
            ],
            nodes=3,
            extra=self._kill_one_busy,
        )
        (job,) = spans.job_list()
        assert job.ok
        assert job.resubmissions >= 1
        assert len(job.attempts) == job.resubmissions + 1
        # Every non-final attempt ended in resubmission; the last succeeded.
        for att in job.attempts[:-1]:
            assert att.outcome == "resubmitted"
        assert job.attempts[-1].outcome == "done"
        # Child attempts restart the state machine from "queued".
        for att in job.attempts:
            assert att.transitions[0].state == "queued"

    def test_lost_worker_span_outcome(self):
        platform, spans = run_batch(
            [
                JobSpec(
                    program=BarrierSleepBarrier(5.0),
                    nodes=2,
                    mpi=True,
                    max_attempts=5,
                )
            ],
            nodes=3,
            extra=self._kill_one_busy,
        )
        outcomes = [w.outcome for w in spans.worker_list()]
        assert outcomes.count("lost") == 1
        assert spans.faults == []  # kill came from the test, not a fault plan


class TestWorkerSpans:
    def test_lifecycle_and_busy_segments(self):
        platform, spans = run_batch(
            [JobSpec(program=SleepProgram(1.0), nodes=1, mpi=False)]
        )
        workers = spans.worker_list()
        assert len(workers) == 4
        busy_total = 0.0
        for w in workers:
            assert w.t_start is not None
            assert w.t_registered is not None
            assert w.t_registered >= w.t_start
            segs = w.state_segments(until=spans.t_last)
            for t0, t1, state in segs:
                assert t1 >= t0
                assert state in ("registered", "idle", "busy")
            busy_total += w.busy_time(until=spans.t_last)
        # Exactly one worker ran the 1-second sleep.
        assert busy_total == pytest.approx(1.0, rel=0.2)

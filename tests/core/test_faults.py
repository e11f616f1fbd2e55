"""Tests for fault injection, detection and job recovery.

The paper's fault script (Section 6.1.5) is a one-clause chaos plan,
:func:`~repro.core.chaos.pilot_kill_plan`; its kill times and victims
are read back from the ``fault.kill`` records it traces.
"""

import hashlib
import json

import pytest

from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
from repro.cluster.machine import generic_cluster
from repro.cluster.platform import Platform
from repro.core.chaos import ChaosEngine, pilot_kill_plan
from repro.core.dispatcher import JetsDispatcher, JetsServiceConfig
from repro.core.jets import JetsConfig, Simulation
from repro.core.tasklist import JobSpec, TaskList
from repro.core.worker import WorkerAgent
from repro.obs import session as obs_session


def start_stack(nodes=4, heartbeat=1.0):
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
    return platform, dispatcher, agents


class TestWorkerDeath:
    def test_mpi_job_resubmitted_after_worker_kill(self):
        platform, dispatcher, agents = start_stack(nodes=3)
        done = dispatcher.submit(
            JobSpec(
                program=BarrierSleepBarrier(5.0),
                nodes=2,
                mpi=True,
                max_attempts=5,
            )
        )

        def killer():
            yield platform.env.timeout(2.0)
            # Kill one worker that is running the job.
            busy = [a for a in agents if a.alive and a.tasks_run == 0]
            view_workers = {
                v.worker_id
                for v in dispatcher.aggregator.workers()
                if v.running_jobs
            }
            victims = [a for a in busy if a.worker_id in view_workers]
            victims[0].kill()

        platform.env.process(killer())
        completed = platform.env.run(done)
        assert completed.ok  # recovered on surviving workers
        assert completed.job.attempts >= 1
        retries = platform.trace.select("job.retry")
        assert retries

    def test_serial_job_requeued_after_worker_kill(self):
        platform, dispatcher, agents = start_stack(nodes=2)
        done = dispatcher.submit(
            JobSpec(
                program=SleepProgram(5.0), nodes=1, mpi=False, max_attempts=5
            )
        )

        def killer():
            yield platform.env.timeout(1.0)
            busy = [
                v.worker_id
                for v in dispatcher.aggregator.workers()
                if v.running_jobs
            ]
            for a in agents:
                if a.worker_id in busy:
                    a.kill()
                    break

        platform.env.process(killer())
        completed = platform.env.run(done)
        assert completed.ok
        assert completed.job.attempts >= 1

    def test_job_fails_permanently_after_max_attempts(self):
        platform, dispatcher, agents = start_stack(nodes=6)
        job = JobSpec(
            program=BarrierSleepBarrier(30.0),
            nodes=2,
            mpi=True,
            max_attempts=2,
        )
        done = dispatcher.submit(job)
        by_id = {a.worker_id: a for a in agents}

        def serial_killer():
            # Kill one participant of each dispatch attempt, leaving
            # enough survivors that the job *could* be retried — the
            # failure must come from exhausting max_attempts.
            while not done.triggered:
                yield platform.env.timeout(2.0)
                busy = [
                    v.worker_id
                    for v in dispatcher.aggregator.workers()
                    if v.running_jobs
                ]
                for wid in busy[:1]:
                    agent = by_id[wid]
                    if agent.alive:
                        agent.kill()

        platform.env.process(serial_killer())
        completed = platform.env.run(done)
        assert not completed.ok
        assert completed.job.attempts >= 2

    def test_dead_worker_removed_from_pool(self):
        platform, dispatcher, agents = start_stack(nodes=3, heartbeat=0.5)
        platform.env.run(platform.env.timeout(1.0))
        assert len(dispatcher.aggregator.workers()) == 3
        agents[0].kill()
        platform.env.run(platform.env.timeout(5.0))
        assert len(dispatcher.aggregator.workers()) == 2
        lost = platform.trace.select("worker.lost")
        assert len(lost) == 1


def kills(platform):
    """``(time, worker)`` of every traced pilot kill, in order."""
    return [
        (r.time, r.data["worker"]) for r in platform.trace.select("fault.kill")
    ]


def kill_run(until, seed=None, nodes=4, **plan):
    """Run :func:`pilot_kill_plan` against a bare stack for ``until`` s."""
    platform, dispatcher, agents = start_stack(nodes=nodes)
    if seed is not None:
        platform.rng.seed = seed
        platform.rng.reset()
    engine = ChaosEngine(platform, agents)
    engine.start(pilot_kill_plan(**plan))
    platform.env.run(platform.env.timeout(until))
    return platform, agents, engine


class TestFaultInjector:
    """The paper's fault script, run as a one-clause chaos plan."""

    def test_kills_one_per_interval_until_none_left(self):
        platform, agents, engine = kill_run(10.0, interval=1.0)
        assert all(not a.alive for a in agents)
        assert engine.injected["worker_kill"] == 4
        assert platform.metrics.counter("faults.injected").value == 4
        times = [t for t, _w in kills(platform)]
        assert times == sorted(times)
        assert times[0] >= 1.0
        assert sorted(w for _t, w in kills(platform)) == [0, 1, 2, 3]

    def test_deterministic_given_seed(self):
        def victims(seed):
            platform, _agents, _engine = kill_run(10.0, seed=seed, interval=1.0)
            return kills(platform)

        assert victims(1) == victims(1)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            pilot_kill_plan(interval=0)

    def test_draws_from_the_faults_stream(self):
        (clause,) = pilot_kill_plan().clauses
        assert (clause.kind, clause.mode, clause.interval) == (
            "worker_kill", "fixed", 10.0,
        )
        assert clause.stream == "faults"


class TestEndToEndFaulty:
    def test_standalone_fault_run_maintains_progress(self):
        sim = Simulation(generic_cluster(nodes=4, cores_per_node=1))
        tasks = TaskList.from_lines(["SERIAL: sleep 0.5"] * 400)
        report = sim.run_standalone(
            tasks, faults=pilot_kill_plan(3.0), until=60.0
        )
        assert report.faults_injected >= 4
        assert report.jobs_completed > 10
        # No phantom successes: completed + failed <= submitted.
        assert report.jobs_completed + report.jobs_failed <= report.jobs_total


class TestArrivalModes:
    def test_fixed_gaps_are_exact(self):
        platform, _agents, _engine = kill_run(10.0, interval=1.0, mode="fixed")
        times = [t for t, _w in kills(platform)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) == 3
        assert all(g == pytest.approx(1.0) for g in gaps)

    def test_exponential_gaps_vary(self):
        platform, _agents, _engine = kill_run(
            60.0, interval=1.0, mode="exponential"
        )
        times = [t for t, _w in kills(platform)]
        assert len(times) == 4
        gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert len(gaps) > 1

    def test_jittered_gaps_stay_in_window(self):
        platform, _agents, _engine = kill_run(
            20.0, interval=1.0, mode="jittered", jitter=0.4
        )
        times = [0.0] + [t for t, _w in kills(platform)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) == 4
        assert all(0.6 - 1e-9 <= g <= 1.4 + 1e-9 for g in gaps)

    def test_mode_validation(self):
        # The jitter bound is FaultClause's, covered in test_chaos.
        with pytest.raises(ValueError):
            pilot_kill_plan(interval=1.0, mode="bursty")

    def test_seeded_modes_replay(self):
        def kill_times(mode):
            platform, _agents, _engine = kill_run(
                60.0, seed=11, interval=1.0, mode=mode, jitter=0.3
            )
            return kills(platform)

        for mode in ("exponential", "jittered"):
            assert kill_times(mode) == kill_times(mode)


#: A small stand-alone fault run in each stochastic mode, captured in a
#: fresh process before the fault script ran on the chaos engine: kill
#: times and victims, the report's faults_injected and completed jobs,
#: kernel events, and the SHA-256 of the dumped record lines.
_MODE_PINS = {
    "exponential": (
        [
            (1.448974, 1), (1.917916, 5), (3.833686, 0), (5.900123, 4),
            (10.689893, 3), (12.967894, 2),
        ],
        6, 18, 1557,
        "31da12f9a78f27ed99dbd84c1c1b1e97a429e5b7a91e360a31f667756d49ac7e",
    ),
    "jittered": (
        [(2.668799, 1), (4.423183, 5), (6.348913, 0), (8.366662, 4)],
        4, 20, 1882,
        "3073257755b9eafb2970747a338831a1e5b3768015e86b59558ddec4a43f1cc2",
    ),
}


@pytest.mark.parametrize("mode", sorted(_MODE_PINS))
def test_stochastic_fault_run_pinned(mode, tmp_path):
    # Explicit job ids: the default ids draw from a process-wide counter.
    jobs = [
        JobSpec(
            program=SleepProgram(1.0), nodes=1, mpi=False, job_id=f"job{i}"
        )
        for i in range(16)
    ]
    jobs += [
        JobSpec(
            program=BarrierSleepBarrier(1.5), nodes=2, ppn=1, mpi=True,
            job_id=f"job{16 + i}",
        )
        for i in range(4)
    ]
    path = tmp_path / "run.jsonl"
    with obs_session(trace_out=str(path)):
        report = Simulation(
            generic_cluster(nodes=6, cores_per_node=2),
            JetsConfig(worker_slots=1),
            seed=5,
        ).run_standalone(
            TaskList(jobs),
            faults=pilot_kill_plan(
                2.0, mode, 0.8 if mode == "jittered" else 0.0
            ),
            until=40.0,
        )
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not json.loads(line).get("meta"):
                digest.update(line)
    got = (
        [(round(t, 6), w) for t, w in kills(report.platform)],
        report.faults_injected,
        report.jobs_completed,
        report.platform.env.events_processed,
        digest.hexdigest(),
    )
    assert got == _MODE_PINS[mode]

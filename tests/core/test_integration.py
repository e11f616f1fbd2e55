"""Integration tests: worker ↔ dispatcher ↔ mpiexec, end to end."""

import pytest

from repro.apps.synthetic import BarrierSleepBarrier, NoopProgram, SleepProgram
from repro.cluster.machine import generic_cluster
from repro.cluster.platform import Platform
from repro.core.dispatcher import JetsDispatcher, JetsServiceConfig
from repro.core.tasklist import JobSpec, TaskList
from repro.core.worker import WorkerAgent
from repro.core.jets import JetsConfig, Simulation


def start_stack(nodes=4, cores=4, slots=None, config=None):
    platform = Platform(generic_cluster(nodes=nodes, cores_per_node=cores))
    dispatcher = JetsDispatcher(
        platform, config or JetsServiceConfig(), expected_workers=nodes
    )
    dispatcher.start()
    agents = [
        WorkerAgent(
            platform,
            node,
            dispatcher.endpoint,
            slots=slots,
            heartbeat_interval=dispatcher.config.heartbeat_interval,
        )
        for node in platform.nodes
    ]
    for a in agents:
        a.start()
    return platform, dispatcher, agents


class TestSerialJobs:
    def test_serial_job_completes(self):
        platform, dispatcher, _ = start_stack()
        done = dispatcher.submit(
            JobSpec(program=SleepProgram(0.5), nodes=1, mpi=False)
        )
        completed = platform.env.run(done)
        assert completed.ok
        assert completed.t_done > completed.t_dispatched >= completed.t_submitted

    def test_many_serial_jobs_use_all_slots(self):
        platform, dispatcher, _ = start_stack(nodes=2, cores=2)
        events = [
            dispatcher.submit(
                JobSpec(program=SleepProgram(1.0), nodes=1, mpi=False)
            )
            for _ in range(4)
        ]
        platform.env.run(platform.env.all_of(events))
        # 4 jobs of 1 s on 4 slots should complete nearly concurrently.
        assert platform.env.now < 2.5

    def test_noop_jobs_drain(self):
        platform, dispatcher, _ = start_stack(nodes=2, cores=2)
        dispatcher.submit_many(
            TaskList(
                [JobSpec(program=NoopProgram(), nodes=1, mpi=False) for _ in range(20)]
            )
        )
        platform.env.run(dispatcher.drained)
        assert dispatcher.jobs_finished == 20
        assert all(c.ok for c in dispatcher.completed)


class TestMpiJobs:
    def test_mpi_job_completes(self):
        platform, dispatcher, _ = start_stack()
        done = dispatcher.submit(
            JobSpec(program=BarrierSleepBarrier(1.0), nodes=3, ppn=1, mpi=True)
        )
        completed = platform.env.run(done)
        assert completed.ok
        assert completed.result.world_size == 3
        assert completed.result.app_time >= 1.0

    def test_workers_reusable_across_mpi_jobs(self):
        """ready_all restores full capacity after whole-node MPI jobs."""
        platform, dispatcher, _ = start_stack(nodes=2)
        for _ in range(3):
            done = dispatcher.submit(
                JobSpec(program=BarrierSleepBarrier(0.2), nodes=2, mpi=True)
            )
            completed = platform.env.run(done)
            assert completed.ok
        assert dispatcher.jobs_finished == 3

    def test_concurrent_mpi_jobs_disjoint_workers(self):
        platform, dispatcher, _ = start_stack(nodes=4)
        e1 = dispatcher.submit(
            JobSpec(program=BarrierSleepBarrier(1.0), nodes=2, mpi=True)
        )
        e2 = dispatcher.submit(
            JobSpec(program=BarrierSleepBarrier(1.0), nodes=2, mpi=True)
        )
        platform.env.run(platform.env.all_of([e1, e2]))
        # Two 1-s jobs over 4 workers overlap.
        assert platform.env.now < 2.2

    def test_ppn_multiplies_world_size(self):
        platform, dispatcher, _ = start_stack(nodes=2, cores=4)
        done = dispatcher.submit(
            JobSpec(program=BarrierSleepBarrier(0.3), nodes=2, ppn=3, mpi=True)
        )
        completed = platform.env.run(done)
        assert completed.ok
        assert completed.result.world_size == 6

    def test_oversized_job_fails_immediately(self):
        platform, dispatcher, _ = start_stack(nodes=2)
        done = dispatcher.submit(
            JobSpec(program=BarrierSleepBarrier(1.0), nodes=8, mpi=True)
        )
        completed = platform.env.run(done)
        assert not completed.ok
        assert "allocation" in completed.error

    def test_mixed_serial_and_mpi(self):
        platform, dispatcher, _ = start_stack(nodes=4)
        jobs = [
            JobSpec(program=BarrierSleepBarrier(0.5), nodes=2, mpi=True),
            JobSpec(program=SleepProgram(0.2), nodes=1, mpi=False),
            JobSpec(program=BarrierSleepBarrier(0.5), nodes=2, mpi=True),
            JobSpec(program=SleepProgram(0.2), nodes=1, mpi=False),
        ]
        dispatcher.submit_many(TaskList(jobs))
        platform.env.run(dispatcher.drained)
        assert all(c.ok for c in dispatcher.completed)


class TestShutdown:
    def test_shutdown_stops_workers(self):
        platform, dispatcher, agents = start_stack(nodes=2)
        done = dispatcher.submit(
            JobSpec(program=SleepProgram(0.1), nodes=1, mpi=False)
        )
        platform.env.run(done)

        def closer():
            yield from dispatcher.shutdown_workers()

        platform.env.process(closer())
        platform.env.run(platform.env.timeout(1.0))
        assert all(not a.alive for a in agents)


class TestFacade:
    def test_run_standalone_report_fields(self):
        sim = Simulation(generic_cluster(nodes=4, cores_per_node=2))
        tasks = TaskList.from_lines(
            ["MPI: 2 mpi-bench 1.0"] * 4 + ["SERIAL: sleep 0.5"] * 2
        )
        report = sim.run_standalone(tasks)
        assert report.jobs_total == 6
        assert report.jobs_completed == 6
        assert report.jobs_failed == 0
        assert 0 < report.utilization <= 1.0
        assert report.span > 0
        assert report.task_rate > 0
        assert report.mean_wireup > 0
        assert "generic" in report.summary()

    def test_seed_reproducibility(self):
        def one(seed):
            sim = Simulation(generic_cluster(nodes=2), seed=seed)
            tasks = TaskList.from_lines(["MPI: 2 mpi-bench 0.5"] * 3)
            return sim.run_standalone(tasks).span

        assert one(3) == one(3)
        assert one(3) != one(4)

    def test_staging_disabled_reads_shared_fs_more(self):
        def bytes_read(stage):
            sim = Simulation(
                generic_cluster(nodes=2),
                JetsConfig(stage_binaries=stage),
            )
            tasks = TaskList.from_lines(["MPI: 2 mpi-bench 0.2"] * 4)
            report = sim.run_standalone(tasks)
            return report.platform.shared_fs.bytes_read

        assert bytes_read(False) > bytes_read(True)


class TestDataStaging:
    def test_stage_in_and_out_add_transfer_time(self):
        """Coasters-style data movement over the task connection (§4.1):
        bigger staged payloads mean longer dispatch/report transfers."""

        def span(stage_bytes):
            platform, dispatcher, _ = start_stack(nodes=1)
            done = dispatcher.submit(
                JobSpec(
                    program=SleepProgram(0.5),
                    nodes=1,
                    mpi=False,
                    stage_in_bytes=stage_bytes,
                    stage_out_bytes=stage_bytes,
                )
            )
            c = platform.env.run(done)
            assert c.ok
            return c.t_done - c.t_dispatched

        assert span(64 << 20) > span(0) + 0.5

    def test_mpi_stage_shares_split_across_workers(self):
        platform, dispatcher, _ = start_stack(nodes=2)
        done = dispatcher.submit(
            JobSpec(
                program=BarrierSleepBarrier(0.3),
                nodes=2,
                mpi=True,
                stage_in_bytes=8 << 20,
                stage_out_bytes=8 << 20,
            )
        )
        c = platform.env.run(done)
        assert c.ok

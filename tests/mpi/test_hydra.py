"""Tests for the Hydra mpiexec/proxy bootstrap protocol."""

import pytest

from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
from repro.cluster.machine import generic_cluster
from repro.cluster.platform import Platform
from repro.mpi.hydra import (
    PROXY_IMAGE,
    HydraConfig,
    MpiexecController,
    run_proxy,
)
from repro.simkernel import Resource


def launch_job(platform, hosts, program, config=None, kill_worker_at=None):
    """Drive one full mpiexec+proxies job; returns (result, proxies)."""
    ctl = MpiexecController(
        platform, "job", hosts, program, config or HydraConfig()
    )
    proxies = []

    def main():
        cmds = yield from ctl.launch()
        for (node, _ranks), cmd in zip(hosts, cmds):
            proxies.append(
                platform.env.process(
                    node.exec_process(
                        PROXY_IMAGE,
                        lambda node=node, cmd=cmd: run_proxy(
                            platform, node, cmd, program
                        ),
                        claim_core=False,
                        count_busy=False,
                    )
                )
            )
        result = yield ctl.done
        return result

    proc = platform.env.process(main())
    if kill_worker_at is not None:
        t, idx = kill_worker_at

        def killer():
            yield platform.env.timeout(t)
            if proxies[idx].is_alive:
                proxies[idx].interrupt("fault")

        platform.env.process(killer())
    platform.env.run(proc)
    return proc.value, proxies


def make_platform(nodes=4):
    platform = Platform(generic_cluster(nodes=nodes, cores_per_node=4))
    for node in platform.nodes:
        node.stage(PROXY_IMAGE)
    return platform


class TestHappyPath:
    def test_job_completes_ok(self):
        platform = make_platform()
        hosts = [(platform.node(i), (i,)) for i in range(3)]
        result, _ = launch_job(platform, hosts, BarrierSleepBarrier(1.0))
        assert result.ok
        assert result.world_size == 3
        assert result.app_time >= 1.0
        assert result.wireup_time > 0
        assert result.t_done >= result.t_app_end >= result.t_app_start

    def test_rank0_value_returned(self):
        platform = make_platform()
        hosts = [(platform.node(0), (0,)), (platform.node(1), (1,))]
        result, _ = launch_job(platform, hosts, SleepProgram(0.1))
        assert result.rank0_value == 0  # SleepProgram returns its rank

    def test_multirank_per_node(self):
        platform = make_platform(2)
        hosts = [(platform.node(0), (0, 1)), (platform.node(1), (2, 3))]
        result, _ = launch_job(platform, hosts, BarrierSleepBarrier(0.5))
        assert result.ok
        assert result.world_size == 4

    def test_single_proxy_job(self):
        platform = make_platform(1)
        hosts = [(platform.node(0), (0,))]
        result, _ = launch_job(platform, hosts, SleepProgram(0.2))
        assert result.ok

    def test_msg_cost_slows_wireup(self):
        def wireup(msg_cost):
            platform = make_platform(4)
            hosts = [(platform.node(i), (i,)) for i in range(4)]
            result, _ = launch_job(
                platform,
                hosts,
                SleepProgram(0.1),
                HydraConfig(msg_cost=msg_cost),
            )
            return result.wireup_time

        assert wireup(0.01) > wireup(0.0)

    def test_ranks_must_form_permutation(self):
        platform = make_platform(2)
        ctl = MpiexecController(
            platform,
            "bad",
            [(platform.node(0), (0,)), (platform.node(1), (0,))],
            SleepProgram(0.1),
        )

        def main():
            yield from ctl.launch()

        with pytest.raises(ValueError):
            platform.env.run(platform.env.process(main()))

    def test_submit_cpu_serializes_spawns(self):
        platform = make_platform(2)
        cpu = Resource(platform.env, 1)
        t = {}

        def main():
            ctls = [
                MpiexecController(
                    platform,
                    f"j{i}",
                    [(platform.node(i), (0,))],
                    SleepProgram(0.1),
                    HydraConfig(mpiexec_spawn=0.5),
                    submit_cpu=cpu,
                )
                for i in range(2)
            ]
            for i, ctl in enumerate(ctls):
                yield from ctl.launch()
                t[i] = platform.env.now

        # Launch sequentially in one process; spawns serialize on `cpu`.
        platform.env.run(platform.env.process(main()))
        assert t[1] - t[0] >= 0.5


class TestFailures:
    def test_killed_proxy_fails_job(self):
        platform = make_platform()
        hosts = [(platform.node(i), (i,)) for i in range(3)]
        result, _ = launch_job(
            platform, hosts, BarrierSleepBarrier(30.0), kill_worker_at=(5.0, 1)
        )
        assert not result.ok
        assert "proxy" in result.error or "connection" in result.error

    def test_other_proxies_released_after_failure(self):
        """Ranks blocked in collectives are interrupted, not leaked."""
        platform = make_platform()
        hosts = [(platform.node(i), (i,)) for i in range(3)]
        result, proxies = launch_job(
            platform, hosts, BarrierSleepBarrier(60.0), kill_worker_at=(3.0, 0)
        )
        assert not result.ok
        # Drain any remaining teardown events; no deadlock.
        platform.env.run()
        assert all(not p.is_alive for p in proxies)
        for node in platform.nodes:
            assert node.busy_cores == 0

    def test_watchdog_fails_unstarted_job(self):
        platform = make_platform(2)
        program = SleepProgram(1.0)
        ctl = MpiexecController(
            platform,
            "stuck",
            [(platform.node(0), (0,)), (platform.node(1), (1,))],
            program,
            HydraConfig(launch_timeout=5.0),
        )

        def main():
            cmds = yield from ctl.launch()
            # Launch only ONE of the two proxies; the other never connects.
            node, cmd = platform.node(0), cmds[0]
            platform.env.process(
                node.exec_process(
                    PROXY_IMAGE,
                    lambda: run_proxy(platform, node, cmd, program),
                    claim_core=False,
                )
            )
            result = yield ctl.done
            return result

        proc = platform.env.process(main())
        platform.env.run(proc)
        assert not proc.value.ok
        assert "watchdog" in proc.value.error

    def test_external_abort(self):
        platform = make_platform(2)
        program = BarrierSleepBarrier(60.0)
        ctl = MpiexecController(
            platform,
            "aborted",
            [(platform.node(0), (0,)), (platform.node(1), (1,))],
            program,
        )

        def main():
            cmds = yield from ctl.launch()
            for (node, _r), cmd in zip(
                [(platform.node(0), None), (platform.node(1), None)], cmds
            ):
                platform.env.process(
                    node.exec_process(
                        PROXY_IMAGE,
                        lambda node=node, cmd=cmd: run_proxy(
                            platform, node, cmd, program
                        ),
                        claim_core=False,
                    )
                )
            yield platform.env.timeout(5.0)
            ctl.abort("operator abort")
            result = yield ctl.done
            return result

        proc = platform.env.process(main())
        platform.env.run(proc)
        assert not proc.value.ok
        assert "operator abort" in proc.value.error
        platform.env.run()
        assert all(n.busy_cores == 0 for n in platform.nodes)


class TestPerRunIds:
    def test_same_seed_mpi_runs_repeat_in_one_process(self):
        """mpiexec service ids restart with every platform: two same-seed
        MPI runs in one process, with no counter resets, use the same
        service names and trace the same bytes."""
        from repro.core.chaos import ChaosConfig, FaultPlan, smoke_run
        from repro.simkernel.monitor import record_line

        config = ChaosConfig(serial_tasks=2, mpi_tasks=3)

        def once():
            services, lines = [], []

            def attach(_env, platform):
                platform.network.add_tap(lambda ev: services.append(ev.service))
                platform.trace.subscribe(
                    lambda rec: lines.append(record_line(rec))
                )

            result = smoke_run(config, 0, FaultPlan(()), attach=attach)
            assert result.ok, result.problems
            mpiexec = sorted(
                {s for s in services if s.startswith("mpiexec-")}
            )
            return mpiexec, "".join(lines)

        first = once()
        second = once()
        assert first[0] == [
            "mpiexec-job2-0", "mpiexec-job3-1", "mpiexec-job4-2",
        ]
        assert second == first

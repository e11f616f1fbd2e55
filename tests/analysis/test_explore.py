"""The bounded schedule explorer and the SeededOrder permutation hook."""

from __future__ import annotations

from repro.analysis.explore import (
    ExploreConfig,
    explore,
    explore_main,
    run_schedule,
    wire_messages,
)
from repro.simkernel import Environment, SeededOrder


class TestSeededOrder:
    def test_seed_zero_is_fifo_baseline(self):
        order = SeededOrder(0)
        assert [order.draw() for _ in range(8)] == [0.0] * 8
        assert [order.pick(5) for _ in range(8)] == [0] * 8

    def test_nonzero_seed_permutes_deterministically(self):
        def stream(seed, n=16):
            order = SeededOrder(seed)
            return [order.draw() for _ in range(n)]

        a = stream(7)
        assert a == stream(7)
        assert len(set(a)) == 16  # actually varies
        assert all(0.0 <= x < 1.0 for x in a)
        assert a != stream(8)
        picks = SeededOrder(7)
        assert all(0 <= picks.pick(3) < 3 for _ in range(64))

    def test_default_environment_order_unchanged(self):
        # No order (the production default) must keep the historic FIFO
        # heap behaviour: same-time events run in scheduling order.
        ran: list[int] = []
        env = Environment()

        def proc(i):
            yield env.timeout(1.0)
            ran.append(i)

        for i in range(6):
            env.process(proc(i))
        env.run()
        assert ran == list(range(6))

    def test_seeded_order_permutes_ties(self):
        def run(order):
            ran: list[int] = []
            env = Environment(order=order)

            def proc(i):
                yield env.timeout(1.0)
                ran.append(i)

            for i in range(8):
                env.process(proc(i))
            env.run()
            return ran

        assert run(SeededOrder(3)) != list(range(8))
        assert run(SeededOrder(3)) == run(SeededOrder(3))


class TestRunSchedule:
    def test_fifo_baseline_schedule_passes(self):
        result = run_schedule(ExploreConfig(schedules=1), 0)
        assert result.ok
        assert result.killed_worker is None
        assert result.wire_count > 0

    def test_kill_schedule_passes_and_kills(self):
        result = run_schedule(ExploreConfig(schedules=2), 1)
        assert result.ok
        assert result.killed_worker is not None
        assert 0.0 < result.kill_time < 2.0

    def test_schedules_are_deterministic(self):
        a = run_schedule(ExploreConfig(schedules=4), 3)
        b = run_schedule(ExploreConfig(schedules=4), 3)
        assert (a.seed, a.kill_time, a.wire_count, a.problems) == (
            b.seed,
            b.kill_time,
            b.wire_count,
            b.problems,
        )

    def test_outcome_digests_pinned(self):
        """Schedules 0-7 (odd ones kill a worker) keep the outcomes they
        had before explore became a chaos smoke run with a scheduled
        ``worker_kill`` clause (captured on that code)."""
        pinned = [
            (None, None, 76, "91c65f5ed1006a5bf78768a6e565d6f6877e99ef80e9116db95b66dc91a1d8f6"),
            (3, 0.059135, 91, "cd2855a3f9d3f634703817db3f87593d6e57ae0fdb0c8a7ddf9f7aa562cd52b1"),
            (None, None, 76, "e9f29ed4f15bef05ee08ad28f460cfda31d13831f31c266512ac972af623d541"),
            (3, 0.186795, 91, "16a570628fe8e67adac27d92d30712aa540382b22cc36dd9302767de9d8c6816"),
            (None, None, 76, "43152e5473883ce6b9e24d509985ea1a644bdaaa6a26d01dbb8d1332d4e68710"),
            (0, 0.401091, 73, "dd5801aecb3b81d88213a2e1cdeb09fe810d06d0b685fffb647fbfdc63121efd"),
            (None, None, 76, "6f3d9968b672a5ccc3a7f5f8f505141c252af10acc844a5c4b3269fcde578fbc"),
            (2, 0.135483, 91, "84721d5988f2ef6e370c293e2e2abe9f773b13ac10df4d78a99a61d228824c50"),
        ]
        config = ExploreConfig()
        for index, (victim, kill_time, wire, digest) in enumerate(pinned):
            r = run_schedule(config, index)
            assert r.ok, (index, r.problems)
            assert r.killed_worker == victim
            if kill_time is None:
                assert r.kill_time is None
            else:
                assert round(r.kill_time, 6) == kill_time
            assert (r.wire_count, r.digest) == (wire, digest), index

    def test_campaign_report(self):
        report = explore(ExploreConfig(schedules=4))
        assert len(report.results) == 4
        assert report.ok
        kills = [r for r in report.results if r.killed_worker is not None]
        assert len(kills) == 2


class TestExploreCli:
    def test_small_campaign_exits_zero(self, capsys):
        assert explore_main(["--schedules", "6"]) == 0
        out = capsys.readouterr().out
        assert "6 schedules" in out
        assert "all passed" in out

    def test_oversized_mpi_config_rejected(self, capsys):
        rc = explore_main(["--schedules", "2", "--mpi-nodes", "4"])
        assert rc == 2


class TestWireConversion:
    def test_unknown_services_dropped(self):
        from repro.netsim.sockets import WireEvent

        events = [
            WireEvent(0.0, "jets", 1, "n0", ("ready", 0), 64),
            WireEvent(0.1, "coasters", 2, "n0", ("hello",), 8),
            WireEvent(0.2, "mpiexec-j1", 3, "n1", ("start",), 512),
        ]
        msgs = wire_messages(events)
        assert [(m.channel, m.kind) for m in msgs] == [
            ("jets", "ready"),
            ("hydra", "start"),
        ]
        assert msgs[0].conn == 1 and msgs[0].nbytes == 64

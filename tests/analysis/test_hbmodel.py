"""Dynamic happens-before layer: provenance hook, vector clocks, digest."""

from __future__ import annotations

import pytest

from repro.analysis.explore import ExploreConfig, run_schedule
from repro.analysis.hbmodel import HappensBeforeChecker, seeded_race_demo
from repro.obs.export import CanonicalDigest
from repro.simkernel import Environment, SeededOrder, Trace
from repro.simkernel.monitor import TraceRecord


class TestProvenanceHook:
    def test_hook_sees_cause_event_pairs(self):
        env = Environment()
        edges = []
        env.set_provenance(
            lambda cause, event, when: edges.append((cause, event, when))
        )

        def child(env):
            yield env.timeout(1.0)

        def parent(env):
            yield env.timeout(1.0)
            env.process(child(env))

        env.process(parent(env))
        env.run()
        # Every scheduled event is reported; the child process's initial
        # event must carry a cause from inside parent's delivery chain.
        assert edges and all(len(e) == 3 for e in edges)
        causes = [c for c, _, _ in edges]
        assert any(c is None for c in causes)  # root scheduling
        assert any(c is not None for c in causes)  # chained scheduling

    def test_hook_install_and_clear_restores_fast_path(self):
        env = Environment()
        assert env._fast
        env.set_provenance(lambda *a: None)
        assert not env._fast
        env.set_provenance(None)
        assert env._fast

    def test_fast_path_follows_hook_with_order_installed(self):
        # Only a provenance hook switches the inlined inserts off; an
        # installed order leaves them on.
        env = Environment(order=SeededOrder(3))
        assert env._fast
        env.set_provenance(lambda *a: None)
        assert not env._fast
        env.set_provenance(None)
        assert env._fast

    def test_late_listener_is_its_own_causal_node(self):
        """A late listener's delivery is attributed to its own node.

        The node is reported when the listener is added (with the cause
        being delivered then) and is the cause while it runs, so events
        it schedules inherit the adder's chain, not the origin's.
        """
        env = Environment()
        edges = []
        env.set_provenance(
            lambda cause, event, when: edges.append((cause, event))
        )
        origin = env.event()
        origin.succeed()
        env.run()
        spawned = []

        def listener(ev):
            spawned.append(env.timeout(1.0))

        def adder(env):
            yield env.timeout(1.0)
            origin._add_callback(listener)

        env.process(adder(env))
        env.run()
        (node,) = [e for _c, e in edges if type(e) is tuple]
        assert node == (listener, origin)
        (cause,) = [c for c, e in edges if e is spawned[0]]
        assert cause is node

    def test_cause_cleared_between_runs(self):
        env = Environment()
        env.set_provenance(lambda *a: None)

        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert env._cause is None


class TestHappensBeforeChecker:
    def test_demo_race_detected(self):
        _, _, checker = seeded_race_demo(checker=True)
        candidates = checker.finish()
        assert len(candidates) == 1
        (cand,) = candidates
        assert cand.family == "counter"
        assert cand.entity == "shared"
        assert cand.time == 1.0
        assert "unordered" in cand.render()

    def test_demo_outcome_flips_under_permutation(self):
        finals = set()
        for seed in range(8):
            order = SeededOrder(seed) if seed else None
            _, trace, _ = seeded_race_demo(order=order)
            (final,) = [
                r for r in trace.records if r.category == "counter.final"
            ]
            finals.add(final.data["value"])
        assert finals == {1, 2}

    def test_ordered_chain_not_flagged(self):
        env = Environment()
        trace = Trace(env)
        checker = HappensBeforeChecker(env).attach(trace)

        def first(env):
            yield env.timeout(1.0)
            trace.log("counter.a", {"counter": "c", "value": 1})
            # Scheduling second from inside first's delivery creates a
            # provenance edge, so second's same-entity access is ordered
            # even though it lands at the same timestamp.
            env.process(second(env))

        def second(env):
            trace.log("counter.b", {"counter": "c", "value": 2})
            yield env.timeout(0.1)

        env.process(first(env))
        env.run()
        assert checker.finish() == []

    def test_different_timestamps_not_flagged(self):
        env = Environment()
        trace = Trace(env)
        checker = HappensBeforeChecker(env).attach(trace)

        def writer(env, at, value):
            yield env.timeout(at)
            trace.log("counter.w", {"counter": "c", "value": value})

        env.process(writer(env, 1.0, 1))
        env.process(writer(env, 2.0, 2))
        env.run()
        assert checker.finish() == []

    def test_candidates_deduplicate_and_count(self):
        env = Environment()
        trace = Trace(env)
        checker = HappensBeforeChecker(env).attach(trace)

        def writer(env, value):
            yield env.timeout(1.0)
            trace.log("counter.w", {"counter": "c", "value": value})

        for value in range(3):
            env.process(writer(env, value))
        env.run()
        candidates = checker.finish()
        assert len(candidates) == 1
        assert candidates[0].count == 2  # three unordered writers

    def test_detach_restores_kernel_state(self):
        env = Environment()
        trace = Trace(env)
        checker = HappensBeforeChecker(env).attach(trace)
        assert not env._fast
        checker.detach()
        assert env._fast
        assert not trace._subscribers


class TestCanonicalDigest:
    def _records(self, *specs):
        return [TraceRecord(t, cat, data) for t, cat, data in specs]

    def _digest(self, records):
        d = CanonicalDigest()
        for rec in records:
            d.feed(rec)
        return d.hexdigest()

    def test_same_timestamp_order_insensitive(self):
        a = self._records(
            (1.0, "counter.x", {"counter": "x", "value": 1}),
            (1.0, "counter.y", {"counter": "y", "value": 2}),
            (2.0, "counter.z", {"counter": "z", "value": 3}),
        )
        b = [a[1], a[0], a[2]]
        assert self._digest(a) == self._digest(b)

    def test_cross_timestamp_order_sensitive(self):
        a = self._records(
            (1.0, "counter.x", {"counter": "x", "value": 1}),
            (2.0, "counter.y", {"counter": "y", "value": 2}),
        )
        b = self._records(
            (1.0, "counter.y", {"counter": "y", "value": 2}),
            (2.0, "counter.x", {"counter": "x", "value": 1}),
        )
        assert self._digest(a) != self._digest(b)

    def test_payload_change_changes_digest(self):
        a = self._records((1.0, "counter.x", {"counter": "x", "value": 1}))
        b = self._records((1.0, "counter.x", {"counter": "x", "value": 2}))
        assert self._digest(a) != self._digest(b)


@pytest.mark.slow
class TestExploreIntegration:
    CONFIG = ExploreConfig(
        schedules=2, faults=False, serial_tasks=2, mpi_tasks=1
    )

    def test_checker_rides_schedule_without_perturbing_it(self):
        plain = run_schedule(self.CONFIG, 0)
        checkers = []

        def attach(env, platform):
            checkers.append(
                HappensBeforeChecker(env).attach(
                    platform.trace, platform.network
                )
            )

        observed = run_schedule(self.CONFIG, 0, attach=attach)
        assert plain.ok and observed.ok
        # Observation-only: the digest (and thus the whole trace) is
        # identical with the checker attached.
        assert plain.digest == observed.digest
        assert checkers and checkers[0].records > 0

    def test_control_plane_has_no_race_candidates(self):
        candidates = []

        def attach(env, platform):
            checker = HappensBeforeChecker(env).attach(
                platform.trace, platform.network
            )
            candidates.append(checker)

        for index in range(2):
            result = run_schedule(self.CONFIG, index, attach=attach)
            assert result.ok, result.problems
        assert all(not c.finish() for c in candidates)

    def test_digest_populated_per_schedule(self):
        result = run_schedule(self.CONFIG, 0)
        assert len(result.digest) == 64

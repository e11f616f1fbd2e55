"""The seeded tie pick: one calendar engine under any SchedulingOrder.

An installed order only chooses, at pop time, which of a lane's tied
undelivered handles goes next.  These tests pin what that may and may
not change: permuting ties reorders deliveries inside a timestamp but
never changes what is delivered, never runs the clock backwards, never
lets a normal event overtake a pending urgent one, and never draws when
there is no tie.  Seed 0 is the FIFO schedule itself, and a provenance
hook only observes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import (
    Environment,
    Interrupt,
    SchedulingOrder,
    SeededOrder,
)

#: Few distinct delays, so most deliveries tie with others.
_DELAYS = (0.0, 0.5, 1.0)

_STEP = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("chain"), st.integers(1, 3)),
    st.tuples(st.just("chain_tail"), st.integers(1, 3)),
    st.tuples(st.just("spawn"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("late"), st.none()),
    st.tuples(st.just("interrupt"), st.none()),
)

_WORKLOAD = st.lists(st.lists(_STEP, max_size=6), min_size=1, max_size=5)


def _run(workload, order=None, hook=None, stepwise=False):
    """Run ``workload`` and return ``(log, events_processed)``.

    Each process of the workload first sleeps 0.5 (so interrupts land
    on started sleepers), then runs its steps.  Every delivery the
    workload can see is logged as ``(now, kind, tag)``; ``kind`` "U"
    marks urgent deliveries (process start, late listener, interrupt)
    and "N" normal ones.  Scheduling an urgent event logs a "mark"
    entry first, so the urgent-lane order can be checked from the log.
    The outcome is independent of tie order by construction: each
    interrupt hits its own long sleeper, which is alive at any order.
    """
    env = Environment(order=order)
    if hook is not None:
        env.set_provenance(hook)
    log = []
    done = env.event()
    done.succeed()

    def child(tag, delay):
        log.append((env.now, "U", tag))
        yield env.timeout(delay)
        log.append((env.now, "N", tag + ("woke",)))

    def sleeper(tag):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            log.append((env.now, "U", tag))

    def proc(p, steps):
        yield env.timeout(0.5)
        log.append((env.now, "N", (p, "begin")))
        for s, (kind, arg) in enumerate(steps):
            tag = (p, s)
            if kind == "sleep":
                yield env.timeout(arg)
                log.append((env.now, "N", tag))
            elif kind in ("chain", "chain_tail"):
                for k in range(arg):
                    ev = env.event()
                    ev.succeed(k)
                    if kind == "chain_tail":
                        # A same-time event queued behind the target:
                        # FIFO may still chain inline, an order may not.
                        env.timeout(0.0)
                    got = yield ev
                    log.append((env.now, "N", tag + (got,)))
            elif kind == "spawn":
                log.append((env.now, "mark", tag))
                env.process(child(tag, arg))
            elif kind == "late":
                log.append((env.now, "mark", tag))
                done._add_callback(
                    lambda ev, tag=tag: log.append((env.now, "U", tag))
                )
            else:
                log.append((env.now, "mark", tag))
                sleepers[tag].interrupt(tag)

    sleepers = {
        (p, s): env.process(sleeper((p, s)))
        for p, steps in enumerate(workload)
        for s, (kind, _arg) in enumerate(steps)
        if kind == "interrupt"
    }
    for p, steps in enumerate(workload):
        env.process(proc(p, steps))
    if stepwise:
        while env.peek() != float("inf"):
            env.step()
    else:
        env.run()
    return log, env.events_processed


def _urgent_first(log) -> bool:
    """Between an urgent event's mark and its delivery, only urgent
    deliveries happen (and both lie at the same time)."""
    for i, (when, kind, tag) in enumerate(log):
        if kind != "mark":
            continue
        for when2, kind2, tag2 in log[i + 1:]:
            if tag2 == tag and kind2 == "U":
                if when2 != when:
                    return False
                break
            if kind2 == "N":
                return False
        else:
            return False
    return True


@settings(max_examples=120, deadline=None)
@given(
    workload=_WORKLOAD,
    seed=st.integers(1, 2**63 - 1),
    stepwise=st.booleans(),
)
def test_permuted_schedule_is_a_legal_reordering(workload, seed, stepwise):
    fifo_log, fifo_events = _run(workload, stepwise=stepwise)
    log, events = _run(workload, SeededOrder(seed), stepwise=stepwise)
    assert sorted(log, key=repr) == sorted(fifo_log, key=repr)
    assert events == fifo_events
    times = [when for when, _kind, _tag in log]
    assert times == sorted(times)
    assert _urgent_first(log) and _urgent_first(fifo_log)
    # Seed 0 is the FIFO schedule, delivery for delivery.
    assert _run(workload, SeededOrder(0), stepwise=stepwise) == (
        fifo_log,
        fifo_events,
    )
    # A provenance hook rides the same engine and only observes.
    hooked = _run(
        workload, SeededOrder(seed), hook=lambda *a: None, stepwise=stepwise
    )
    assert hooked == (log, events)


@settings(max_examples=40, deadline=None)
@given(workload=_WORKLOAD, seed=st.integers(1, 2**63 - 1))
def test_run_and_step_agree_under_an_order(workload, seed):
    assert _run(workload, SeededOrder(seed)) == _run(
        workload, SeededOrder(seed), stepwise=True
    )


class _CountingOrder(SchedulingOrder):
    """FIFO order that records every tie it is asked to break."""

    __slots__ = ("ties",)

    def __init__(self):
        self.ties = []

    def pick(self, n: int) -> int:
        self.ties.append(n)
        return n - 1


class TestPickIsConsultedOnlyOnTies:
    def test_no_ties_no_draws(self):
        order = _CountingOrder()
        env = Environment(order=order)

        def proc(env, delay):
            yield env.timeout(delay)
            ev = env.event()
            ev.succeed()
            yield ev

        for delay in (1.0, 2.0, 3.0):
            env.process(proc(env, delay))
        env.process(proc(env, 4.0))
        env.timeout(5.0)
        env.run()
        # Process starts tie at t=0 (urgent lane); nothing else does.
        assert order.ties == [4, 3, 2]

    def test_pick_is_swapped_to_the_cursor(self):
        order = _CountingOrder()
        env = Environment(order=order)
        ran = []
        for i in range(4):
            env.timeout(1.0, i).callbacks.append(
                lambda ev: ran.append(ev.value)
            )
        env.run()
        # Each pop swaps the newest undelivered handle to the cursor:
        # [0 1 2 3] -> 3 | [1 2 0] -> 0 | [2 1] -> 1 | [2] -> 2.
        assert ran == [3, 0, 1, 2]
        assert order.ties == [4, 3, 2]

    def test_late_listener_pair_is_one_unit(self):
        """A late listener is one handle: a pick cannot split it."""
        order = SeededOrder(11)
        env = Environment(order=order)
        origin = env.event()
        origin.succeed("v")
        env.run()
        seen = []
        for i in range(6):
            origin._add_callback(lambda ev, i=i: seen.append((i, ev)))
        env.run()
        assert sorted(i for i, _ev in seen) == list(range(6))
        assert all(ev is origin for _i, ev in seen)
        assert not [s for s in env._table if s is not None]


_SETUPS = [
    pytest.param(None, None, id="fifo"),
    pytest.param(SeededOrder(5), None, id="order"),
    pytest.param(None, lambda *a: None, id="hook"),
    pytest.param(SeededOrder(5), lambda *a: None, id="order+hook"),
]


@pytest.mark.parametrize("order,hook", _SETUPS)
class TestLateListenerOnFailureEverywhere:
    """The late-listener semantics hold under an order and a hook alike:
    the origin is delivered, and its failure is raised iff it is still
    undefused when the listener has run."""

    @staticmethod
    def _failed_origin(order, hook, defused):
        env = Environment(order=order)
        env.set_provenance(hook)
        origin = env.event()
        origin.fail(RuntimeError("boom"))
        if defused:
            origin._defused = True
            env.run()
        else:
            with pytest.raises(RuntimeError):
                env.run()
        return env, origin

    def test_defused_origin_does_not_reraise(self, order, hook):
        env, origin = self._failed_origin(order, hook, defused=True)
        seen = []
        origin._add_callback(seen.append)
        origin._add_callback(seen.append)
        env.run()
        assert seen == [origin, origin]

    def test_listener_that_defuses_settles_the_delivery(self, order, hook):
        env, origin = self._failed_origin(order, hook, defused=False)

        def defuse(ev):
            ev._defused = True

        origin._add_callback(defuse)
        env.run()

    def test_listener_that_ignores_keeps_raising(self, order, hook):
        env, origin = self._failed_origin(order, hook, defused=False)
        origin._add_callback(lambda ev: None)
        with pytest.raises(RuntimeError):
            env.run()

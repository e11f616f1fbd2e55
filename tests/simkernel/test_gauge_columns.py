"""Property test: the columnar Gauge equals the list-of-tuples Gauge.

:class:`Gauge` keeps its breakpoints in two ``array('d')`` columns.  The
reference below is the earlier implementation, which kept a list of
``(t, v)`` tuples; for any step series and any window, ``integral``,
``mean``, ``max`` and ``series`` must agree bit for bit — same
segments, same summation order.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Gauge


class _Clock:
    """Stand-in environment: just the ``now`` both gauges read."""

    def __init__(self):
        self.now = 0.0


class _TupleGauge:
    """The list-of-tuples Gauge, kept verbatim as the reference."""

    def __init__(self, env, initial: float = 0.0):
        self.env = env
        self.value = float(initial)
        self.samples: list[tuple[float, float]] = [(env.now, self.value)]

    def set(self, value: float) -> None:
        self.value = float(value)
        now = self.env.now
        if self.samples and self.samples[-1][0] == now:
            self.samples[-1] = (now, self.value)
        else:
            self.samples.append((now, self.value))

    def series(self) -> list[tuple[float, float]]:
        return list(self.samples)

    def integral(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        samples = self.samples
        if not samples:
            return 0.0
        t0 = samples[0][0] if start is None else start
        t1 = self.env.now if end is None else end
        if t1 <= t0:
            return 0.0
        lo = bisect_right(samples, (t0, float("inf"))) - 1
        if lo < 0:
            lo = 0
        hi = bisect_left(samples, (t1, float("-inf")))
        total = 0.0
        last = len(samples) - 1
        for i in range(lo, min(hi, last)):
            ta, va = samples[i]
            seg_lo = ta if ta > t0 else t0
            tb = samples[i + 1][0]
            seg_hi = tb if tb < t1 else t1
            if seg_hi > seg_lo:
                total += va * (seg_hi - seg_lo)
        ta, va = samples[last]
        seg_lo = ta if ta > t0 else t0
        if t1 > seg_lo:
            total += va * (t1 - seg_lo)
        return total

    def mean(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        t0 = self.samples[0][0] if start is None else start
        t1 = self.env.now if end is None else end
        span = t1 - t0
        return self.integral(start, end) / span if span > 0 else 0.0

    def max(self) -> float:
        return max(v for _t, v in self.samples)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
#: Zero steps exercise same-timestamp coalescing.
_steps = st.lists(
    st.tuples(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-9, max_value=50.0, allow_nan=False),
        ),
        _values,
    ),
    max_size=60,
)
_bound = st.one_of(
    st.none(), st.floats(min_value=-20.0, max_value=3200.0, allow_nan=False)
)


@given(
    start_at=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    initial=_values,
    steps=_steps,
    tail=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    windows=st.lists(st.tuples(_bound, _bound), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_columnar_gauge_matches_tuple_reference(
    start_at, initial, steps, tail, windows
):
    clock = _Clock()
    clock.now = start_at
    gauge = Gauge(clock, initial)
    ref = _TupleGauge(clock, initial)
    for dt, value in steps:
        clock.now += dt
        gauge.set(value)
        ref.set(value)
    clock.now += tail

    assert [(_bits(t), _bits(v)) for t, v in gauge.series()] == [
        (_bits(t), _bits(v)) for t, v in ref.series()
    ]
    assert all(type(p) is tuple for p in gauge.series())
    assert _bits(gauge.max()) == _bits(ref.max())
    for start, end in windows + [(None, None)]:
        assert _bits(gauge.integral(start, end)) == _bits(
            ref.integral(start, end)
        ), (start, end)
        assert _bits(gauge.mean(start, end)) == _bits(
            ref.mean(start, end)
        ), (start, end)


@given(deltas=st.lists(_values, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_add_accumulates_like_set(deltas):
    """``add`` is ``set(value + delta)`` on both layouts."""
    clock = _Clock()
    gauge = Gauge(clock, 0.0)
    ref = _TupleGauge(clock, 0.0)
    for i, delta in enumerate(deltas):
        clock.now = float(i // 2)  # pairs of same-time updates coalesce
        gauge.add(delta)
        ref.set(ref.value + delta)
    assert gauge.series() == ref.series()
    assert _bits(gauge.value) == _bits(ref.value)

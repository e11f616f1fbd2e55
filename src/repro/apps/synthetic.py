"""Synthetic benchmark applications from the paper's evaluation.

* :class:`NoopProgram` — "an external process that did no work; thus, only
  the cost of the process startup itself is considered" (Fig. 6, Fig. 10).
* :class:`BarrierSleepBarrier` — "starts up, performs an MPI barrier on all
  processes, waits for a given time, performs a second MPI barrier, and
  exits" (Figs. 7 and 9).
* :class:`SwiftSyntheticTask` — the Section 6.2.1 task: barrier, 10-s
  sleep, each rank writes its rank to a file on the shared filesystem,
  barrier, exit (Fig. 15).
* :class:`PingPongProgram` — the Fig. 8 two-rank latency/bandwidth probe.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..mpi.app import MpiProgram, RankContext
from ..oslayer.process import ExecutableImage
from .namd import namd_factory

__all__ = [
    "NoopProgram",
    "SleepProgram",
    "BarrierSleepBarrier",
    "SwiftSyntheticTask",
    "PingPongProgram",
    "default_registry",
]


class NoopProgram(MpiProgram):
    """A process that exits immediately; measures pure launch cost."""

    nominal_duration = 0.0

    def __init__(self) -> None:
        super().__init__(ExecutableImage("noop", 64 << 10))

    def run(self, ctx: RankContext) -> Generator:
        return None
        yield  # pragma: no cover


class SleepProgram(MpiProgram):
    """Sleep for a fixed duration (no communication)."""

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError("duration must be non-negative")
        super().__init__(ExecutableImage("sleep", 64 << 10))
        self.duration = duration
        self.nominal_duration = duration

    def run(self, ctx: RankContext) -> Generator:
        yield ctx.compute(self.duration)
        return ctx.rank


class BarrierSleepBarrier(MpiProgram):
    """The paper's MPI benchmark task: barrier / sleep / barrier."""

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError("duration must be non-negative")
        super().__init__(ExecutableImage("mpi-bench", 256 << 10))
        self.duration = duration
        self.nominal_duration = duration

    def run(self, ctx: RankContext) -> Generator:
        yield from ctx.comm.barrier(ctx.rank)
        yield ctx.compute(self.duration)
        yield from ctx.comm.barrier(ctx.rank)
        return ctx.rank


class SwiftSyntheticTask(MpiProgram):
    """Section 6.2.1 synthetic task: barrier, sleep, rank-file write, barrier.

    The file write hits the shared filesystem (GPFS on Eureka), which is
    what makes utilization decrease with PPN in Fig. 15.
    """

    #: Bytes written per rank (its rank number, as text, plus FS overhead).
    WRITE_BYTES = 4096

    def __init__(self, duration: float = 10.0):
        super().__init__(ExecutableImage("swift-synth", 512 << 10))
        self.duration = duration
        self.nominal_duration = duration

    def run(self, ctx: RankContext) -> Generator:
        yield from ctx.comm.barrier(ctx.rank)
        yield ctx.compute(self.duration)
        if ctx.node.shared_fs is not None:
            yield from ctx.node.shared_fs.write(self.WRITE_BYTES)
        yield from ctx.comm.barrier(ctx.rank)
        return ctx.rank


class PingPongProgram(MpiProgram):
    """Two-rank ping-pong over the communicator's fabric (Fig. 8).

    Rank 0 returns a list of ``(nbytes, avg_one_way_seconds)`` pairs.
    """

    nominal_duration = 0.0

    def __init__(self, sizes: Optional[list[int]] = None, reps: int = 10):
        super().__init__(ExecutableImage("pingpong", 128 << 10))
        self.sizes = sizes or [2**k for k in range(0, 23, 2)]
        self.reps = reps

    def run(self, ctx: RankContext) -> Generator:
        if ctx.size < 2:
            raise ValueError("ping-pong needs two ranks")
        if ctx.rank > 1:
            return None
        results: list[tuple[int, float]] = []
        peer = 1 - ctx.rank
        env = ctx.env
        send, recv = ctx.comm.send, ctx.comm.recv
        for nbytes in self.sizes:
            if ctx.size == 2:
                yield from ctx.comm.barrier(ctx.rank)
            t0 = env.now
            for r in range(self.reps):
                tag = ("pp", nbytes, r)
                if ctx.rank == 0:
                    yield from send(0, peer, None, nbytes, tag)
                    yield from recv(0, source=peer, tag=tag)
                else:
                    yield from recv(1, source=peer, tag=tag)
                    yield from send(1, peer, None, nbytes, tag)
            if ctx.rank == 0:
                elapsed = env.now - t0
                results.append((nbytes, elapsed / (2 * self.reps)))
        return results if ctx.rank == 0 else None


def default_registry():
    """Command-word registry for :meth:`repro.core.tasklist.TaskList.from_lines`.

    Registered commands::

        noop
        sleep <seconds>
        mpi-bench <seconds>       # barrier / sleep / barrier
        swift-synth [seconds]
        namd2.sh <input> <output> # NAMD segment (cost-model app)
    """
    return {
        "noop": lambda args: NoopProgram(),
        "sleep": lambda args: SleepProgram(float(args[0])),
        "mpi-bench": lambda args: BarrierSleepBarrier(float(args[0])),
        "swift-synth": lambda args: SwiftSyntheticTask(
            float(args[0]) if args else 10.0
        ),
        "namd2.sh": namd_factory,
    }

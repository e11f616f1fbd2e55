"""Base abstractions for MPI applications running in the simulation.

An :class:`MpiProgram` is what JETS launches: it names an executable image
(for load-cost modelling) and provides a per-rank ``run`` generator that
receives a :class:`RankContext` — the simulated equivalent of a process
finding its communicator via PMI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, TYPE_CHECKING

from ..oslayer.process import ExecutableImage
from ..simkernel import Environment, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from .comm import SimComm

__all__ = ["RankContext", "MpiProgram", "FuncProgram"]


@dataclass(slots=True)
class RankContext:
    """Everything one MPI rank sees at startup.

    ``pmi_rank`` mirrors the PMI_RANK variable the paper exposes to user
    wrapper scripts (Section 5.2); it equals the MPI_COMM_WORLD rank.
    """

    env: Environment
    comm: "SimComm"
    rank: int
    size: int
    node: "Node"
    job_id: str = ""

    @property
    def pmi_rank(self) -> int:
        """PMI_RANK as provided to all levels of user programs."""
        return self.rank

    def compute(self, delay: float) -> Timeout:
        """A compute step of ``delay`` seconds on this rank's node.

        A straggler fault stretches it by the node's ``slowdown``,
        sampled now; communication and I/O are not compute and stay
        unstretched.  At ``slowdown == 1.0`` this is exactly
        ``env.timeout(delay)``.
        """
        slowdown = self.node.slowdown
        return self.env.timeout(
            delay if slowdown == 1.0 else delay * slowdown
        )


class MpiProgram:
    """An MPI application: executable image + per-rank behaviour.

    Subclasses override :meth:`run`; the return value of rank 0 becomes the
    job's result payload.
    """

    def __init__(self, image: Optional[ExecutableImage] = None):
        self.image = image if image is not None else ExecutableImage(
            self.__class__.__name__.lower(), 1 << 20
        )

    def run(self, ctx: RankContext) -> Generator:
        """Per-rank body (sim-process generator)."""
        raise NotImplementedError
        yield  # pragma: no cover


class FuncProgram(MpiProgram):
    """Adapter turning a plain generator function into an MpiProgram.

    Example::

        def body(ctx):
            yield from ctx.comm.barrier(ctx.rank)

        prog = FuncProgram(body, name="barrier-test")
    """

    def __init__(self, func, name: str = "", image: Optional[ExecutableImage] = None):
        super().__init__(image or ExecutableImage(name or func.__name__, 1 << 20))
        self._func = func

    def run(self, ctx: RankContext) -> Generator:
        result = yield from self._func(ctx)
        return result

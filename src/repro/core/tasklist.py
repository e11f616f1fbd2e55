"""Job specifications and the stand-alone JETS input format.

Stand-alone JETS (Section 5.1) consumes a text file of literal command
lines, one job per line::

    MPI: 4 namd2.sh input-1.pdb output-1.log
    MPI: 8 namd2.sh input-2.pdb output-2.log
    SERIAL: noop

Hostnames are *not* specified — JETS assigns nodes dynamically at run time
based on availability.  Command words are resolved to simulated
:class:`~repro.mpi.app.MpiProgram` instances through a program registry
(the simulation-world equivalent of ``$PATH``).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..mpi.app import MpiProgram

__all__ = ["JobSpec", "TaskList", "TaskListError", "ProgramRegistry"]


class TaskListError(ValueError):
    """Malformed task-list input."""


_spec_seq = itertools.count()


@dataclass(slots=True)
class JobSpec:
    """One job to run under JETS.

    Attributes:
        program: the application to execute.
        nodes: number of worker nodes to aggregate for the job.
        ppn: MPI processes per node (total world size = nodes × ppn).
        mpi: False for single-process (Falkon-style) tasks, which occupy
            one core-slot of one worker instead of whole nodes.
        duration_hint: nominal task duration used by the paper's Eq. (1)
            utilization metric; taken from the program when it knows it.
        priority: smaller = more urgent (used by the priority policy).
        command: the original command line, for reports.
        max_attempts: resubmission budget under fault recovery.
        stage_in_bytes: input data shipped to the workers over the task
            connection before execution (the Coasters data-movement path,
            §4.1: "Data transfer operations may also be performed over
            this connection, removing the need for a separate data
            transfer mechanism").
        stage_out_bytes: output data shipped back with the completion.

    **Id-stability contract.** ``job_id`` is the job's *durable* identity:
    the run journal keys every record on it and crash-resume replay
    matches completions, retries and resubmissions by it
    (:mod:`repro.core.resume`).  An id must therefore (a) be unique
    within a run — :class:`TaskList` rejects duplicates — and (b) stay
    fixed for the life of the job: resubmission after a fault bumps
    ``attempts``, never ``job_id``.  The default draws from a
    process-global sequence, so auto-assigned ids never collide
    in-process; callers supplying explicit ids own their uniqueness.
    """

    program: MpiProgram
    nodes: int = 1
    ppn: int = 1
    mpi: bool = True
    duration_hint: float = 0.0
    priority: int = 0
    command: str = ""
    job_id: str = field(default_factory=lambda: f"job{next(_spec_seq)}")
    max_attempts: int = 3
    attempts: int = 0
    stage_in_bytes: int = 0
    stage_out_bytes: int = 0

    def __post_init__(self) -> None:
        # The run journal writes these fields into JSON verbatim, so a
        # bool (``True``), a non-finite float or a non-number would
        # produce a line ``jets resume`` cannot read back.  Plain ints
        # skip the slow ABC checks: JobSpecs are built by the thousand.
        if not (
            type(self.nodes) is type(self.ppn) is type(self.max_attempts)
            is type(self.priority) is type(self.attempts) is int
        ):
            for name in (
                "nodes", "ppn", "max_attempts", "priority", "attempts"
            ):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral
                ):
                    raise TaskListError(
                        f"{self.job_id}: {name} must be an integer, "
                        f"got {value!r}"
                    )
        if self.nodes <= 0:
            raise TaskListError(f"{self.job_id}: nodes must be positive")
        if self.ppn <= 0:
            raise TaskListError(f"{self.job_id}: ppn must be positive")
        if not self.mpi and (self.nodes != 1 or self.ppn != 1):
            raise TaskListError(
                f"{self.job_id}: serial jobs use exactly one process"
            )
        self.duration_hint = _finite(self.job_id, self.duration_hint)
        if self.duration_hint == 0.0:
            self.duration_hint = _finite(
                self.job_id, getattr(self.program, "nominal_duration", 0.0)
            )

    @property
    def world_size(self) -> int:
        """Total MPI process count."""
        return self.nodes * self.ppn


def _finite(job_id: str, hint):
    """``hint`` as a finite int or float duration, else TaskListError."""
    if type(hint) is not float and type(hint) is not int:
        if isinstance(hint, bool) or not isinstance(hint, numbers.Real):
            raise TaskListError(
                f"{job_id}: duration_hint must be a number, got {hint!r}"
            )
        hint = float(hint)  # a numpy scalar's repr is not a JSON number
    if not math.isfinite(hint):
        raise TaskListError(
            f"{job_id}: duration_hint must be finite, got {hint!r}"
        )
    return hint


#: A registry maps a command word to ``factory(args) -> MpiProgram``.
ProgramRegistry = dict[str, Callable[[list[str]], MpiProgram]]


class TaskList:
    """An ordered batch of :class:`JobSpec`, the stand-alone JETS input."""

    def __init__(self, jobs: Iterable[JobSpec]):
        self.jobs: list[JobSpec] = list(jobs)
        if not self.jobs:
            raise TaskListError("task list is empty")
        seen: set[str] = set()
        for job in self.jobs:
            if job.job_id in seen:
                raise TaskListError(
                    f"duplicate job id {job.job_id!r}: job ids are the "
                    "durable replay key (journal/resume accounting) and "
                    "must be unique within a run"
                )
            seen.add(job.job_id)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    @property
    def total_processes(self) -> int:
        """Sum of world sizes over all jobs."""
        return sum(j.world_size for j in self.jobs)

    @classmethod
    def from_lines(
        cls,
        lines: Iterable[str],
        registry: Optional[ProgramRegistry] = None,
        ppn: int = 1,
    ) -> "TaskList":
        """Parse the Section 5.1 input format.

        Lines are ``MPI: <nodes> <command> [args...]`` or
        ``SERIAL: <command> [args...]``; blank lines and ``#`` comments are
        skipped.  ``registry`` resolves command words; when omitted, the
        default registry of synthetic programs
        (:func:`repro.apps.synthetic.default_registry`) is used.
        """
        if registry is None:
            from ..apps.synthetic import default_registry

            registry = default_registry()
        jobs: list[JobSpec] = []
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise TaskListError(f"line {lineno}: missing job-type prefix")
            kind, rest = line.split(":", 1)
            kind = kind.strip().upper()
            words = rest.split()
            if kind == "MPI":
                if len(words) < 2:
                    raise TaskListError(
                        f"line {lineno}: MPI lines need a node count and a "
                        "command"
                    )
                try:
                    nodes = int(words[0])
                except ValueError:
                    raise TaskListError(
                        f"line {lineno}: bad node count {words[0]!r}"
                    ) from None
                cmd, args = words[1], words[2:]
                program = _resolve(registry, cmd, args, lineno)
                jobs.append(
                    JobSpec(
                        program=program,
                        nodes=nodes,
                        ppn=ppn,
                        mpi=True,
                        command=rest.strip(),
                    )
                )
            elif kind == "SERIAL":
                if not words:
                    raise TaskListError(f"line {lineno}: SERIAL needs a command")
                cmd, args = words[0], words[1:]
                program = _resolve(registry, cmd, args, lineno)
                jobs.append(
                    JobSpec(
                        program=program,
                        nodes=1,
                        ppn=1,
                        mpi=False,
                        command=rest.strip(),
                    )
                )
            else:
                raise TaskListError(f"line {lineno}: unknown job type {kind!r}")
        return cls(jobs)

    @classmethod
    def from_text(cls, text: str, registry: Optional[ProgramRegistry] = None, ppn: int = 1) -> "TaskList":
        """Parse a whole input file's contents."""
        return cls.from_lines(text.splitlines(), registry=registry, ppn=ppn)


def _resolve(
    registry: ProgramRegistry, cmd: str, args: list[str], lineno: int
) -> MpiProgram:
    factory = registry.get(cmd)
    if factory is None:
        raise TaskListError(
            f"line {lineno}: unknown command {cmd!r} "
            f"(registered: {sorted(registry)})"
        )
    return factory(args)

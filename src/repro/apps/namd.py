"""NAMD as an MPTC workload: calibrated cost-model application.

The paper's application runs are NAMD molecular-dynamics segments: an NMA
system of 44,992 atoms advanced 10 timesteps per segment, taking ~100 s on
4 BG/P processors (Section 6.1.6), with the wall-time distribution of
Fig. 11 — bulk between 100 and 120 s, tail to 160 s.

We cannot run NAMD itself (closed testbed, hours-long cross compile — the
paper's very motivation for JETS), so :class:`NamdProgram` reproduces the
externally visible behaviour of one segment, which is all that the
scheduling results depend on:

* reads 5 input files totalling 14.8 MB from the shared filesystem,
* computes for a wall time drawn from the calibrated Fig. 11 distribution
  (deterministic per input name, so runs are reproducible),
* synchronizes ranks with barriers at start and end (Charm++ startup and
  shutdown are collective),
* writes 3 output files totalling 2.2 MB plus ~11 KB of standard output.

The *physics* of replica exchange is exercised separately by the real
mini-MD engine in :mod:`repro.apps.md_engine` and the exchange logic in
:mod:`repro.apps.rem`, which this program's synthetic potential-energy
output plugs into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ..mpi.app import MpiProgram, RankContext
from ..oslayer.process import ExecutableImage
from ..simkernel.rng import hash_name

__all__ = ["NamdCostModel", "NamdProgram", "namd_factory", "NAMD_IMAGE"]

#: NAMD binary image: "NAMD contains about 30,000 lines of Charm++ and C++
#: code" (Section 1.3); the BG/P binary with libraries is tens of MB.
NAMD_IMAGE = ExecutableImage(
    "namd2",
    24 << 20,
    libraries=(
        ExecutableImage("libcharm", 6 << 20),
        ExecutableImage("libtcl", 2 << 20),
    ),
)


@dataclass(frozen=True)
class NamdCostModel:
    """Calibrated NAMD segment cost model.

    ``cost_per_atom_step`` is set so that 44,992 atoms × 10 steps on
    4 processors ≈ 100 s before the stochastic factor, matching Section 6.1.6.  The wall-time
    distribution adds a deterministic pseudo-random factor shaped like
    Fig. 11: most runs within ~20 % above base, a tail to ~55 % above.

    Attributes:
        atoms: system size in atoms.
        steps: timesteps per segment.
        cost_per_atom_step: seconds of single-processor work per
            atom-step.
        parallel_efficiency: fraction of ideal speedup retained per
            doubling of processor count (communication overhead).
        cpu_speed: relative single-core speed of the host CPU; 1.0 is the
            calibration reference (an 850 MHz BG/P PowerPC 450).  Use ~8
            for the Eureka Xeon E5405 runs.
        input_bytes / output_bytes / stdout_bytes: per-segment I/O volume.
    """

    atoms: int = 44992
    steps: int = 10
    cost_per_atom_step: float = 8.02e-4
    parallel_efficiency: float = 0.95
    cpu_speed: float = 1.0
    input_bytes: int = int(14.8 * (1 << 20))
    output_bytes: int = int(2.2 * (1 << 20))
    stdout_bytes: int = 11 << 10

    def base_wall_time(self, procs: int) -> float:
        """Deterministic part of a segment's wall time on ``procs``."""
        if procs <= 0:
            raise ValueError("procs must be positive")
        work = self.atoms * self.steps * self.cost_per_atom_step / self.cpu_speed
        # Imperfect scaling: each doubling keeps `parallel_efficiency`.
        doublings = math.log2(procs) if procs > 1 else 0.0
        effective = procs * (self.parallel_efficiency**doublings)
        return work / effective

    def wall_time(self, procs: int, tag: str) -> float:
        """Wall time for a segment identified by ``tag`` (reproducible).

        The multiplicative factor follows a clipped exponential shaped to
        the Fig. 11 histogram: p50 ≈ 1.07×, p95 ≈ 1.3×, max ≈ 1.55×.
        """
        rng = np.random.default_rng(hash_name(f"namd-{tag}"))
        factor = 1.02 + min(float(rng.exponential(0.09)), 0.53)
        return self.base_wall_time(procs) * factor


class NamdProgram(MpiProgram):
    """One NAMD segment as launched by JETS (``namd2.sh input output``)."""

    def __init__(
        self,
        input_name: str = "input.pdb",
        output_name: str = "output.log",
        model: Optional[NamdCostModel] = None,
    ):
        super().__init__(NAMD_IMAGE)
        self.input_name = input_name
        self.output_name = output_name
        self.model = model or NamdCostModel()
        self._wall_cache: dict[int, float] = {}

    def wall_time(self, procs: int) -> float:
        """This segment's wall time on ``procs`` processors."""
        if procs not in self._wall_cache:
            self._wall_cache[procs] = self.model.wall_time(
                procs, f"{self.input_name}|{procs}"
            )
        return self._wall_cache[procs]

    @property
    def nominal_duration(self) -> float:
        """Nominal duration for Eq. (1): the 4-processor segment time."""
        return self.wall_time(4)

    def run(self, ctx: RankContext) -> Generator:
        model = self.model
        # Charm++ startup: collective.
        yield from ctx.comm.barrier(ctx.rank)
        # Rank 0 reads the input set and broadcasts it (NAMD's IO pattern);
        # "the I/O time is contained in the application wall time".
        if ctx.rank == 0 and ctx.node.shared_fs is not None:
            yield from ctx.node.shared_fs.read(model.input_bytes)
        yield from ctx.comm.bcast(ctx.rank, 0, None, model.input_bytes)
        # The simulation itself. The wall time is the *total* segment time;
        # ranks progress in lockstep (Charm++ load balancing).
        compute = self.wall_time(ctx.size)
        yield ctx.compute(compute)
        # Rank 0 writes outputs; stdout streams back through the proxy.
        if ctx.rank == 0 and ctx.node.shared_fs is not None:
            yield from ctx.node.shared_fs.write(model.output_bytes)
        yield from ctx.comm.barrier(ctx.rank)
        if ctx.rank == 0:
            # Synthetic potential energy for the REM exchange step: an
            # LJ-fluid-like value that varies smoothly with the segment tag.
            rng = np.random.default_rng(
                hash_name(f"energy-{self.input_name}")
            )
            energy = float(-5.5 * self.model.atoms / 1000 + rng.normal(0, 3.0))
            return {"energy": energy, "wall": compute}
        return None


def namd_factory(args: list[str]) -> NamdProgram:
    """Task-list factory: ``namd2.sh <input> <output>``."""
    input_name = args[0] if args else "input.pdb"
    output_name = args[1] if len(args) > 1 else "output.log"
    return NamdProgram(input_name, output_name)

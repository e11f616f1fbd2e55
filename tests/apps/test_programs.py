"""Tests for synthetic programs and the NAMD cost model."""

import numpy as np
import pytest

from repro.apps.namd import NamdCostModel, NamdProgram, namd_factory
from repro.apps.synthetic import (
    BarrierSleepBarrier,
    NoopProgram,
    PingPongProgram,
    SleepProgram,
    SwiftSyntheticTask,
    default_registry,
)
from repro.cluster.machine import generic_cluster
from repro.cluster.platform import Platform
from repro.mpi.comm import SimComm
from repro.mpi.app import RankContext


def run_program(program, n_ranks=2, nodes=None, slowdown=1.0):
    """Run a program's ranks directly over a SimComm (no JETS); rank 0's
    node straggles by ``slowdown``."""
    platform = Platform(generic_cluster(nodes=max(2, n_ranks)))
    platform.node(0).slowdown = slowdown
    env = platform.env
    endpoints = list(range(n_ranks))
    comm = SimComm(env, platform.fabric, endpoints)
    results = [None] * n_ranks
    procs = []

    def body(rank):
        ctx = RankContext(
            env=env,
            comm=comm,
            rank=rank,
            size=n_ranks,
            node=platform.node(rank % platform.spec.nodes),
            job_id="t",
        )
        results[rank] = yield from program.run(ctx)

    for r in range(n_ranks):
        procs.append(env.process(body(r)))
    env.run(env.all_of(procs))
    return env, results


class TestSyntheticPrograms:
    def test_noop_returns_immediately(self):
        env, results = run_program(NoopProgram(), n_ranks=1)
        assert env.now == 0.0
        assert results == [None]

    def test_sleep_durations(self):
        env, results = run_program(SleepProgram(2.5), n_ranks=1)
        assert env.now == pytest.approx(2.5)
        assert results == [0]

    def test_straggler_stretches_compute_only(self):
        env, _ = run_program(SleepProgram(2.5), n_ranks=1, slowdown=3.0)
        assert env.now == pytest.approx(7.5)
        # The barriers around the sleep cost what they cost at full
        # speed: only rank 0's 2 s of compute becomes 6 s.
        base, _ = run_program(BarrierSleepBarrier(2.0))
        slow, _ = run_program(BarrierSleepBarrier(2.0), slowdown=3.0)
        assert slow.now - base.now == pytest.approx(4.0)

    def test_sleep_rejects_negative(self):
        with pytest.raises(ValueError):
            SleepProgram(-1)

    def test_barrier_sleep_barrier_synchronizes(self):
        env, results = run_program(BarrierSleepBarrier(1.0), n_ranks=4)
        assert env.now >= 1.0
        assert results == [0, 1, 2, 3]
        assert env.now < 1.5  # overheads are small

    def test_swift_synthetic_writes_to_shared_fs(self):
        prog = SwiftSyntheticTask(0.5)
        platform = Platform(generic_cluster(nodes=2))
        env = platform.env
        comm = SimComm(env, platform.fabric, [0, 1])
        procs = []
        for r in range(2):
            ctx = RankContext(
                env=env, comm=comm, rank=r, size=2,
                node=platform.node(r), job_id="t",
            )
            procs.append(env.process(prog.run(ctx)))
        env.run(env.all_of(procs))
        assert platform.shared_fs.bytes_written == 2 * prog.WRITE_BYTES

    def test_pingpong_returns_series(self):
        prog = PingPongProgram(sizes=[64, 4096], reps=3)
        env, results = run_program(prog, n_ranks=2)
        series = results[0]
        assert len(series) == 2
        assert series[0][0] == 64
        assert series[1][1] > series[0][1] * 0  # times positive
        assert all(t > 0 for _n, t in series)

    def test_pingpong_needs_two_ranks(self):
        with pytest.raises(ValueError):
            run_program(PingPongProgram(sizes=[64]), n_ranks=1)

    def test_default_registry_commands(self):
        reg = default_registry()
        assert set(reg) >= {"noop", "sleep", "mpi-bench", "swift-synth", "namd2.sh"}
        prog = reg["sleep"](["1.5"])
        assert prog.nominal_duration == 1.5


class TestNamdCostModel:
    def test_reference_calibration(self):
        """44,992 atoms × 10 steps ≈ 100 s on 4 BG/P processors."""
        model = NamdCostModel()
        assert model.base_wall_time(4) == pytest.approx(100.0, rel=0.03)

    def test_scaling_with_procs(self):
        model = NamdCostModel()
        assert model.base_wall_time(8) < model.base_wall_time(4)
        # Imperfect: 2x procs gives < 2x speedup.
        assert model.base_wall_time(4) / model.base_wall_time(8) < 2.0

    def test_cpu_speed_scales(self):
        slow = NamdCostModel()
        fast = NamdCostModel(cpu_speed=8.0)
        assert fast.base_wall_time(1) == pytest.approx(
            slow.base_wall_time(1) / 8.0
        )

    def test_wall_time_deterministic_per_tag(self):
        model = NamdCostModel()
        assert model.wall_time(4, "x") == model.wall_time(4, "x")
        assert model.wall_time(4, "x") != model.wall_time(4, "y")

    def test_distribution_matches_fig11(self):
        model = NamdCostModel()
        walls = np.array([model.wall_time(4, f"i{i}") for i in range(800)])
        bulk = np.mean((walls >= 100) & (walls <= 120))
        assert bulk > 0.5
        assert walls.max() < 175
        assert walls.max() > 130
        assert walls.min() > 95

    def test_procs_validation(self):
        with pytest.raises(ValueError):
            NamdCostModel().base_wall_time(0)


class TestNamdProgram:
    def test_factory_parses_args(self):
        prog = namd_factory(["in.pdb", "out.log"])
        assert prog.input_name == "in.pdb"
        assert prog.output_name == "out.log"

    def test_run_returns_energy_and_wall(self):
        prog = NamdProgram("seg.pdb", model=NamdCostModel(cpu_speed=100))
        env, results = run_program(prog, n_ranks=4)
        payload = results[0]
        assert set(payload) == {"energy", "wall"}
        assert payload["wall"] > 0
        assert results[1] is None  # only rank 0 reports

    def test_io_charged_to_shared_fs(self):
        prog = NamdProgram("io.pdb", model=NamdCostModel(cpu_speed=100))
        platform = Platform(generic_cluster(nodes=2))
        env = platform.env
        comm = SimComm(env, platform.fabric, [0, 1])
        procs = []
        for r in range(2):
            ctx = RankContext(
                env=env, comm=comm, rank=r, size=2,
                node=platform.node(r), job_id="t",
            )
            procs.append(env.process(prog.run(ctx)))
        env.run(env.all_of(procs))
        assert platform.shared_fs.bytes_read == prog.model.input_bytes
        assert platform.shared_fs.bytes_written == prog.model.output_bytes

    def test_nominal_duration_is_4proc_wall(self):
        prog = NamdProgram("n.pdb")
        assert prog.nominal_duration == prog.wall_time(4)

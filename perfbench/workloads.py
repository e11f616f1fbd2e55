"""The benchmark's three workloads: seeded inputs, wiring, run, checks.

Each workload is split in two:

* :func:`inputs` — pure Python, no simulator import: the seed's job mix
  as plain data.  The seed changes only this.
* :func:`run` — builds the simulated JETS stack through its public
  constructors, turns the inputs into ``JobSpec`` objects, runs it and
  checks the outputs.  ``phase.setup_done()`` is called right before
  the first ``Environment.run`` and ``phase.run_done()`` when the
  measured work is over; what follows is checking.  Every run checks
  that jobs settle and digests its trace; with ``check`` it also folds
  the trace through ``TraceValidator`` and collects simulated queue
  waits.  Runs with equal digests have equal traces, so the driver
  validates one run per invocation and compares the digests of all.

:data:`SIZES` is the program configuration (machine, node count, job
count, trace window).  It does not depend on the seed.

``run`` returns the number of jobs settled (the base of every per-job
ratio), the operations attempted and failed, the problems found, and
``counts``: values that must repeat exactly for one seed in any process
under any hash seed (the queue-wait ones only when checked).
"""

from __future__ import annotations

import hashlib
import os
import random
import time

from stats import median, tail

__all__ = ["SIZES", "WORKLOADS", "inputs", "inputs_digest", "run"]

SIZES = {
    "full": {
        "serial_stream": {
            "nodes": 8, "cores": 4, "jobs": 8_000, "batch": 2_000,
            "window": 8_192,
        },
        "mpi_ensemble": {"alloc": 512, "jobs": 256},
        "crash_resume": {
            "nodes": 8, "cores": 2, "jobs": 200, "mpi_every": 5,
            "mpi_nodes": 2, "points": 10, "until": 3000.0,
        },
    },
    "smoke": {
        "serial_stream": {
            "nodes": 4, "cores": 2, "jobs": 600, "batch": 200,
            "window": 256,
        },
        "mpi_ensemble": {"alloc": 64, "jobs": 16},
        "crash_resume": {
            "nodes": 4, "cores": 2, "jobs": 30, "mpi_every": 5,
            "mpi_nodes": 2, "points": 2, "until": 3000.0,
        },
    },
}

WORKLOADS = ("serial_stream", "mpi_ensemble", "crash_resume")


# -- inputs (seed -> plain data) ---------------------------------------------


def inputs(workload: str, seed: int, size: dict):
    """The seeded job mix of ``workload`` as plain Python data."""
    rng = random.Random(f"{workload}:{seed}")
    n = size["jobs"]
    if workload == "serial_stream":
        return [round(rng.uniform(0.1, 0.3), 3) for _ in range(n)]
    if workload == "mpi_ensemble":
        # A fixed share of each width, shuffled: the seed moves the order
        # and the durations, not the total rank count.
        quarter = n // 4
        widths = [4] * quarter + [16] * quarter + [8] * (n - 2 * quarter)
        rng.shuffle(widths)
        return [(w, round(rng.uniform(8.0, 12.0), 3)) for w in widths]
    if workload == "crash_resume":
        every = size["mpi_every"]
        lines = []
        for i in range(n):
            if i % every == every - 1:
                lines.append(
                    f"MPI: {size['mpi_nodes']} mpi-bench "
                    f"{rng.uniform(0.3, 0.6):.3f}"
                )
            else:
                lines.append(f"SERIAL: sleep {rng.uniform(0.2, 0.5):.3f}")
        points = size["points"]
        # One crash point per stratum of the baseline's drain time, so
        # every seed crashes early, midway and late.
        fractions = [
            (k + rng.uniform(0.15, 0.85)) / points for k in range(points)
        ]
        return lines, fractions
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(data) -> str:
    """Stable digest of a workload's inputs."""
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


# -- shared wiring and checks ------------------------------------------------


class _TraceFold:
    """Validate one run's records and collect simulated queue waits."""

    def __init__(self, validate: bool = True):
        from repro.analysis.tracecheck import TraceValidator

        self.validator = TraceValidator() if validate else None
        self.queue_waits: list[float] = []
        self.retries = 0
        self._queued: dict[tuple, float] = {}

    def feed(self, rec) -> None:
        if self.validator is not None:
            self.validator.feed(rec)
        cat = rec.category
        if cat == "job.queued":
            data = rec.data
            self._queued[(data["job"], data["attempt"])] = rec.time
        elif cat == "job.grouped":
            data = rec.data
            t = self._queued.pop((data["job"], data["attempt"]), None)
            if t is not None:
                self.queue_waits.append(rec.time - t)
        elif cat == "job.retry":
            self.retries += 1

    def problems(self) -> list[str]:
        if self.validator is None:
            return []
        return [f"lint-trace: {i.render()}" for i in self.validator.issues]


def _fold_records(records, sha, check: bool) -> _TraceFold:
    """Fold an in-RAM trace, adding its archival lines to ``sha``."""
    from repro.simkernel.monitor import record_line

    fold = _TraceFold(validate=check)
    for rec in records:
        fold.feed(rec)
        sha.update(record_line(rec).encode())
    return fold


def _job_problems(dispatcher, expected: int) -> list[str]:
    """Every submitted job settled, and settled ok."""
    problems = []
    if dispatcher.jobs_finished != expected:
        problems.append(f"{dispatcher.jobs_finished}/{expected} jobs settled")
    for c in dispatcher.completed:
        if not c.ok:
            problems.append(f"{c.job.job_id} failed: {c.error}")
    return problems


def _start_workers(platform, dispatcher, staging=None) -> None:
    from repro.core.worker import WorkerAgent

    for node in platform.nodes:
        WorkerAgent(
            platform,
            node,
            dispatcher.endpoint,
            service=dispatcher.service,
            staging=staging,
            heartbeat_interval=dispatcher.config.heartbeat_interval,
        ).start()


def _build_platform(phase, spec, **kwargs):
    from repro.cluster.platform import Platform

    t0 = time.perf_counter()
    platform = Platform(spec, **kwargs)
    if not phase.started:  # later platforms are part of the run
        phase.platform_s += time.perf_counter() - t0
    return platform


def _fold_counts(waits, retries: int, check: bool) -> dict:
    """Counts taken from the trace fold (only when it ran)."""
    if not check:
        return {}
    value, pct, n = tail(waits)
    return {
        "retries": retries,
        "queue_wait_p50": median(waits) if waits else 0.0,
        "queue_wait_tail": value,
        "queue_wait_tail_pct": pct,
        "queue_wait_n": n,
    }


# -- serial_stream -------------------------------------------------------------


def _serial_stream(durations, size, seed, phase, workdir, check) -> dict:
    """Waves of short serial jobs under the spilling streaming trace."""
    from repro.apps.synthetic import SleepProgram
    from repro.cluster.machine import generic_cluster
    from repro.core.dispatcher import JetsDispatcher, JetsServiceConfig
    from repro.core.tasklist import JobSpec
    from repro.obs import session
    from repro.obs.export import iter_jsonl

    spill = os.path.join(workdir, "serial_stream.jsonl")
    jobs = [
        JobSpec(
            program=SleepProgram(d), nodes=1, mpi=False,
            command=f"sleep {d}", job_id=f"s{i:05d}",
        )
        for i, d in enumerate(durations)
    ]
    batch = size["batch"]
    with session(
        stream=True, window=size["window"], trace_out=spill, chrome_out=""
    ):
        platform = _build_platform(
            phase,
            generic_cluster(nodes=size["nodes"], cores_per_node=size["cores"]),
            seed=seed,
        )
        dispatcher = JetsDispatcher(
            platform, JetsServiceConfig(), expected_workers=size["nodes"]
        )
        dispatcher.start()
        _start_workers(platform, dispatcher)
        env = platform.env

        def feeder():
            # Closed loop: the next wave goes in once the last one drained.
            for start in range(0, len(jobs), batch):
                wave = jobs[start:start + batch]
                dispatcher.submit_many(wave)
                while dispatcher.jobs_finished < start + len(wave):
                    yield env.timeout(0.5)
            yield from dispatcher.shutdown_workers()

        proc = env.process(feeder(), name="bench-feeder")
        phase.setup_done()
        env.run(proc)
    phase.run_done()

    fold = _TraceFold(validate=check)
    if check:
        for _run, rec in iter_jsonl(spill):
            fold.feed(rec)
    with open(spill, "rb") as fh:
        spilled = fh.read()
    problems = _job_problems(dispatcher, len(jobs)) + fold.problems()
    return {
        "jobs": dispatcher.jobs_finished,
        "attempted": len(jobs),
        "failed": sum(1 for c in dispatcher.completed if not c.ok)
        + len(jobs) - dispatcher.jobs_finished,
        "problems": problems,
        "counts": {
            "digest": hashlib.sha256(spilled).hexdigest(),
            "events": env.events_processed,
            "records": len(platform.trace),
            "spill_bytes": len(spilled),
            **_fold_counts(fold.queue_waits, fold.retries, check),
        },
    }


# -- mpi_ensemble ----------------------------------------------------------------


def _mpi_ensemble(mix, size, seed, phase, workdir, check) -> dict:
    """The Fig. 9 point: Hydra MPI jobs on a 512-node BG/P allocation."""
    from repro.apps.synthetic import BarrierSleepBarrier
    from repro.cluster.machine import surveyor
    from repro.core.dispatcher import JetsDispatcher
    from repro.core.jets import service_config_for
    from repro.core.staging import StagingManager
    from repro.core.tasklist import JobSpec, TaskList
    from repro.mpi.hydra import PROXY_IMAGE

    machine = surveyor(size["alloc"])
    tasks = TaskList(
        JobSpec(
            program=BarrierSleepBarrier(d), nodes=w, ppn=1, mpi=True,
            command=f"{w} mpi-bench {d}", job_id=f"m{i:04d}",
        )
        for i, (w, d) in enumerate(mix)
    )
    platform = _build_platform(phase, machine, seed=seed)
    env = platform.env
    dispatcher = JetsDispatcher(
        platform, service_config_for(machine), expected_workers=machine.nodes
    )
    dispatcher.start()
    # Binary staging on: the proxy and every application image go to
    # node-local RAM FS at pilot start-up.
    images = {PROXY_IMAGE.name: PROXY_IMAGE}
    for job in tasks:
        images.setdefault(job.program.image.name, job.program.image)
    _start_workers(platform, dispatcher, StagingManager(env, images.values()))

    def feeder():
        dispatcher.submit_many(tasks)
        yield dispatcher.drained
        yield from dispatcher.shutdown_workers()

    proc = env.process(feeder(), name="bench-feeder")
    phase.setup_done()
    env.run(proc)
    phase.run_done()

    sha = hashlib.sha256()
    fold = _fold_records(platform.trace.records, sha, check)
    wireups = [
        c.result.wireup_time for c in dispatcher.completed if c.result
    ]
    n = len(tasks)
    return {
        "jobs": dispatcher.jobs_finished,
        "attempted": n,
        "failed": sum(1 for c in dispatcher.completed if not c.ok)
        + n - dispatcher.jobs_finished,
        "problems": _job_problems(dispatcher, n) + fold.problems(),
        "counts": {
            "digest": sha.hexdigest(),
            "events": env.events_processed,
            "records": len(platform.trace),
            "spill_bytes": 0,
            "wireup_p50": median(wireups) if wireups else 0.0,
            **_fold_counts(fold.queue_waits, fold.retries, check),
        },
    }


# -- crash_resume ------------------------------------------------------------------


def _crash_resume(data, size, seed, phase, workdir, check) -> dict:
    """Journaled runs crashed at seeded points, resumed, and compared
    with an uninterrupted baseline (a slice of ``jets resume --verify``)."""
    from repro.cluster.machine import generic_cluster
    from repro.core import resume
    from repro.core.dispatcher import JetsDispatcher, JetsServiceConfig
    from repro.core.journal import RunJournal
    from repro.core.tasklist import TaskList
    from repro.simkernel import Environment, SeededOrder

    lines, fractions = data
    nodes = size["nodes"]
    service = JetsServiceConfig()
    problems: list[str] = []
    traces = []  # folded after the measured run
    events = 0

    def journaled(path, crash_at=None):
        """One journaled run; returns ``(accounting, t_drain)``, or
        ``(None, None)`` when it crashed first (journal abandoned)."""
        nonlocal events
        tasks = TaskList.from_lines(lines)
        for i, job in enumerate(tasks.jobs):
            job.job_id = f"t{i:04d}"  # replay keys on ids: pin them
        env = Environment(order=SeededOrder(seed))
        platform = _build_platform(
            phase,
            generic_cluster(nodes=nodes, cores_per_node=size["cores"]),
            env=env,
            seed=seed,
        )
        journal = RunJournal(path, env=env)
        journal.run_begin(
            machine="generic", nodes=nodes, seed=seed, jobs=len(tasks),
            policy=service.policy, grouping=service.grouping,
            cores_per_node=size["cores"], stage=False,
        )
        dispatcher = JetsDispatcher(
            platform, service, expected_workers=nodes, journal=journal
        )
        dispatcher.start()
        _start_workers(platform, dispatcher)

        def feeder():
            dispatcher.submit_many(tasks)
            yield dispatcher.drained

        env.process(feeder(), name="bench-feeder")
        stop = env.timeout(size["until"] if crash_at is None else crash_at)
        phase.setup_done()
        env.run(env.any_of([dispatcher.drained, stop]))
        drained = dispatcher.drained.triggered
        if crash_at is not None and not drained:
            journal.abandon()  # dispatcher death: the unflushed tail is lost
            accounting, t_drain = None, None
        else:
            t_drain = env.now
            env.process(dispatcher.shutdown_workers(), name="bench-shutdown")
            env.run(until=env.now + 10 * service.heartbeat_interval + 1.0)
            failed = sum(1 for c in dispatcher.completed if not c.ok)
            journal.run_end(
                ok=drained and failed == 0,
                completed=len(dispatcher.completed) - failed,
                failed=failed,
            )
            journal.close()
            accounting = {
                c.job.job_id: (c.ok, c.job.attempts)
                for c in dispatcher.completed
            }
            if crash_at is None:
                problems.extend(_job_problems(dispatcher, len(tasks)))
        traces.append(platform.trace)
        events += env.events_processed
        return accounting, t_drain

    baseline, t_drain = journaled(os.path.join(workdir, "baseline.journal"))
    points_failed = resubmitted = skipped = 0
    journals = ["baseline.journal"]
    for k, fraction in enumerate(fractions):
        name = f"crash{k:03d}.journal"
        journals.append(name)
        path = os.path.join(workdir, name)
        point: list[str] = []
        final, _ = journaled(path, t_drain * fraction)
        redone: tuple = ()
        if final is None:
            report = resume.resume_run(path, until=size["until"])
            point.extend(report.problems)
            resubmitted += report.resubmitted
            skipped += report.skipped_done + report.skipped_failed
            redone = report.resubmitted_ids
            ledger = resume.load_ledger(path)
            if not ledger.clean:
                point.append("journal not clean after resume")
            final = {
                job.job_id: (job.status == "done", job.attempts)
                for job in ledger.jobs.values()
                if job.settled
            }
        point.extend(_equivalence(baseline, final, redone))
        if point:
            points_failed += 1
            problems.extend(f"crash point {k}: {p}" for p in point[:5])
    phase.run_done()

    sha = hashlib.sha256()
    waits: list[float] = []
    retries = 0
    for trace in traces:
        fold = _fold_records(trace.records, sha, check)
        problems.extend(fold.problems())
        waits.extend(fold.queue_waits)
        retries += fold.retries
    journal_bytes = journal_records = 0
    for name in journals:
        with open(os.path.join(workdir, name), "rb") as fh:
            raw = fh.read()
        sha.update(raw)
        journal_bytes += len(raw)
        journal_records += raw.count(b"\n")
    return {
        # Every crash point re-settles the whole job set, as the baseline does.
        "jobs": len(lines) * (1 + len(fractions)),
        "attempted": len(fractions),
        "failed": points_failed,
        "problems": problems,
        "counts": {
            "digest": sha.hexdigest(),
            "events": events,
            "records": sum(len(trace) for trace in traces),
            "spill_bytes": 0,
            "journal_records": journal_records,
            "journal_bytes": journal_bytes,
            "resume_resubmitted": resubmitted,
            "resume_skipped": skipped,
            **_fold_counts(waits, retries, check),
        },
    }


def _equivalence(baseline: dict, final: dict, resubmitted) -> list[str]:
    """Resumed accounting equals the baseline's, except that a job
    resubmitted after the crash may have used more attempts."""
    if set(final) != set(baseline):
        missing = sorted(set(baseline) - set(final))[:5]
        extra = sorted(set(final) - set(baseline))[:5]
        return [f"job set differs: missing={missing} extra={extra}"]
    redone = set(resubmitted)
    problems = []
    for job_id, (ok, attempts) in sorted(baseline.items()):
        f_ok, f_attempts = final[job_id]
        if f_ok != ok:
            problems.append(f"{job_id}: outcome {f_ok} != baseline {ok}")
        if f_attempts < attempts or (
            job_id not in redone and f_attempts != attempts
        ):
            problems.append(
                f"{job_id}: attempts {f_attempts} vs baseline {attempts}"
            )
    return problems


_RUN = {
    "serial_stream": _serial_stream,
    "mpi_ensemble": _mpi_ensemble,
    "crash_resume": _crash_resume,
}


def run(workload, data, size, seed, phase, workdir, check=True) -> dict:
    """Run one workload on its generated inputs (see module docstring)."""
    return _RUN[workload](data, size, seed, phase, workdir, check)

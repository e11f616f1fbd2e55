"""The repository benchmark: host cost per simulated job, split by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serial_stream --seed 1 \\
        --seconds 30 --trace 0

Runs fresh child processes (``child.py``) of one workload, one after
another, until ``--seconds`` have passed, and reports medians over them.
Children alternate between two ``PYTHONHASHSEED`` values.

* ``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``):
  ``jobs_per_s`` (simulated jobs settled per host second of the run
  phase), ``setup_s`` (host seconds from process start to the first
  simulated event) and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced and traced children and prints the
  per-layer metrics of the traced one with the median run time; its
  layer self times and ``other.self_s`` sum to its run time
  (``trace.wall_s``), and ``trace.overhead_frac`` is that time over the
  untraced median, minus 1.

Every child checks its own outputs (every job settles ok, every crash
point matches its baseline, the trace passes ``TraceValidator``), and
this driver checks that every deterministic count and the trace digest
repeat exactly across children.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Failed operations (jobs, or crash points on ``crash_resume``) over
attempted ones is the run's ``failed_frac``.  A per-run record with
provenance and quartiles goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from layers import END_TO_END, PER_LAYER, ZERO_ON
from stats import median, quartiles
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
HASH_SEEDS = ("0", "1")
#: Whole invocation must end well inside 180 s; a child gets what is left.
BUDGET_S = 170.0


def _spawn(workload, seed, traced, check, scale, spans_out, hashseed,
           deadline):
    # TMPDIR keeps any temporary file inside the checkout.
    env = dict(os.environ, PYTHONHASHSEED=hashseed, TMPDIR=OUT)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0", "--check", "1" if check else "0",
        "--scale", scale,
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"child {workload} seed={seed} traced={traced} "
            f"exited {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload, seed, seconds, traced_mode, scale="full"):
    """Children until ``seconds`` have passed: ``(untraced, traced)``."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    untraced, traced = [], []
    spans_out = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    i = 0
    while True:
        is_traced = traced_mode and i % 2 == 1
        step = i // 2 if traced_mode else i
        # Traced runs and the first untraced run validate their trace;
        # the rest must match its digest.
        child = _spawn(
            workload, seed, is_traced, is_traced or not untraced, scale,
            spans_out if is_traced and not traced else None,
            HASH_SEEDS[step % 2], deadline,
        )
        (traced if is_traced else untraced).append(child)
        i += 1
        # Both hash seeds on each kind of run, and at least three
        # untraced runs for a median.
        enough = len(untraced) >= 3 and (
            not traced_mode or len(traced) >= 2
        )
        if enough and time.monotonic() - start >= seconds:
            return untraced, traced


def check(untraced, traced, workload, layer):
    """Problems found by the children, cross-run determinism and, for a
    traced run, the layer-bypass checks on ``layer``."""
    problems = []
    runs = untraced + traced
    for c in runs:
        problems += [f"hashseed {c['hashseed']}: {p}" for p in c["problems"][:10]]
    first = runs[0]
    for c in runs[1:]:
        for key in ("inputs", "size", "jobs", "attempted", "failed"):
            if c[key] != first[key]:
                problems.append(
                    f"{key} differ between runs: {first[key]!r} != {c[key]!r}"
                )
        for key in first["counts"].keys() & c["counts"].keys():
            if c["counts"][key] != first["counts"][key]:
                problems.append(
                    f"count {key} differs between runs: "
                    f"{first['counts'][key]!r} != {c['counts'][key]!r}"
                )
    for key in ("calls", "events", "send_bytes", "spans"):
        for c in traced[1:]:
            if c[key] != traced[0][key]:
                problems.append(f"traced {key} differ between runs")
    if traced:
        for name in ZERO_ON.get(workload, ()):
            if layer[name] != 0:
                problems.append(f"bypass: {name} = {layer[name]} on {workload}")
    return problems


def end_to_end(untraced):
    return {
        "jobs_per_s": [c["jobs"] / c["run_s"] for c in untraced],
        "setup_s": [c["setup_s"] for c in untraced],
        "peak_rss_mb": [c["peak_rss_mb"] for c in untraced],
    }


def layer_metrics(untraced, traced):
    """Per-layer metrics from the traced run with the median run time
    (the lower one of an even count).  Its counts equal every other
    run's; its self times sum to its wall time, ``trace.wall_s``."""
    t = sorted(traced, key=lambda c: c["run_s"])[(len(traced) - 1) // 2]
    jobs, calls, counts = t["jobs"], t["calls"], t["counts"]

    def per_job(x):
        return x / jobs

    run_u = median([c["run_s"] for c in untraced])
    run_t = t["run_s"]
    can_place = calls["aggregator.can_place"]
    out = {
        "simkernel.events_per_job": per_job(t["events"]),
        "simkernel.events_per_s": t["events"] / run_u,
        "monitor.records_per_job": per_job(calls["monitor.log"]),
        "monitor.spill_bytes_per_job": per_job(counts["spill_bytes"]),
        "netsim.sends_per_job": per_job(calls["netsim.send"]),
        "netsim.bytes_per_job": per_job(t["send_bytes"]),
        "netsim.connects": calls["netsim.connect"],
        "mpi.launches": calls["mpi.launch"],
        "mpi.proxies": calls["mpi.proxy"],
        "mpi.wireup_sim_p50_s": counts.get("wireup_p50", 0.0),
        "oslayer.loads": calls["oslayer.load"],
        "aggregator.can_place": can_place,
        "aggregator.place": calls["aggregator.place"],
        "aggregator.place_ratio": (
            calls["aggregator.place"] / can_place if can_place else 0.0
        ),
        "dispatcher.queue_wait_sim_p50_s": counts["queue_wait_p50"],
        "dispatcher.queue_wait_sim_tail_s": counts["queue_wait_tail"],
        "dispatcher.queue_wait_sim_tail_pct": counts["queue_wait_tail_pct"],
        "dispatcher.queue_wait_samples": counts["queue_wait_n"],
        "dispatcher.retries": counts["retries"],
        "journal.records_per_job": per_job(counts.get("journal_records", 0)),
        "journal.bytes_per_job": per_job(counts.get("journal_bytes", 0)),
        "journal.flushes": calls["journal.flush"],
        "resume.resubmitted": counts.get("resume_resubmitted", 0),
        "resume.skipped": counts.get("resume_skipped", 0),
        "setup.import_s": median([c["import_s"] for c in untraced + traced]),
        "setup.platform_s": median(
            [c["platform_s"] for c in untraced + traced]
        ),
        "trace.wall_s": run_t,
        "trace.overhead_frac": run_t / run_u - 1.0,
        "trace.spans": t["spans"],
        "run.jobs": jobs,
    }
    out.update(t["self_s"])
    return out


def _git_rev():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: reduced sizes for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)

    try:
        untraced, traced = collect(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.scale,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    layer = layer_metrics(untraced, traced) if traced else {}
    problems = check(untraced, traced, args.workload, layer)
    runs = untraced + traced
    attempted = sum(c["attempted"] for c in runs)
    failed = sum(c["failed"] for c in runs)

    if args.trace:
        units = {name: unit for name, unit, *_ in PER_LAYER}
        metrics = {name: layer[name] for name in units}
        values = {
            name: [c["self_s"][name] for c in traced]
            for name in traced[0]["self_s"]
        }
        samples = len(traced)
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        values = end_to_end(untraced)
        metrics = {name: median(values[name]) for name in units}
        samples = len(untraced)
    spread = {name: quartiles(v) for name, v in values.items()}

    failed_frac = failed / attempted
    for name, value in metrics.items():
        q = spread.get(name)
        extra = (
            f"  (median of {samples} runs, q1 {q[0]:.6g}, q3 {q[2]:.6g})"
            if q else ""
        )
        print(f"{args.workload:14s} {name:36s} {value:14.6g} {units[name]}{extra}")
    print(f"{args.workload:14s} {'failed_frac':36s} {failed_frac:14.6g} ratio"
          f"  ({failed} of {attempted})")
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "git_rev": _git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "runs": {"untraced": len(untraced), "traced": len(traced)},
        "hash_seeds": sorted({c["hashseed"] for c in runs}),
        "metrics": {
            name: {
                "value": value,
                "unit": units[name],
                **(
                    dict(
                        zip(("q1", "median", "q3"), spread[name]),
                        samples=values[name],
                    )
                    if name in spread else {}
                ),
            }
            for name, value in metrics.items()
        },
        "failed_frac": failed_frac,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "counts": runs[0]["counts"],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

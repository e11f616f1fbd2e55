"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last line.  The
parent passes ``--t0``, its ``CLOCK_MONOTONIC`` reading just before it
started this process, so ``setup_s`` covers interpreter start-up, the
``repro`` import, input generation and the build of platform,
dispatcher and workers, up to the first ``Environment.run``.

Usage (normally via ``run.py``; without ``--t0`` set-up starts at the
import of ``repro``)::

    python3 perfbench/child.py --workload serial_stream --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch and result files, inside the checkout (ignored by git).
OUT = os.path.join(ROOT, ".perfbench_out")


class Phase:
    """Marks the set-up/run boundary; installs the tracer for the run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.started = False
        #: Host seconds spent building the set-up platform.
        self.platform_s = 0.0
        self.setup_end = 0.0
        self.run_start = 0.0
        self.run_end = 0.0
        self.peak_rss_kb = 0

    def setup_done(self) -> None:
        """Called before every ``Environment.run``; only the first counts."""
        if self.started:
            return
        self.started = True
        self.setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
        if self.tracer is not None:
            self.tracer.install()
        self.run_start = time.perf_counter()

    def run_done(self) -> None:
        self.run_end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.restore()
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_child(
    workload: str,
    seed: int,
    traced: bool,
    scale: str = "full",
    t0: float | None = None,
    spans_out: str | None = None,
    check: bool = True,
) -> dict:
    """Run one workload once in this process; returns the raw result."""
    if t0 is None:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    t_import = time.perf_counter()
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro  # noqa: F401  (the import cost is part of set-up)
    import repro.core.resume  # noqa: F401
    import repro.obs  # noqa: F401

    import_s = time.perf_counter() - t_import

    import workloads
    from tracing import Tracer, self_times

    size = workloads.SIZES[scale][workload]
    data = workloads.inputs(workload, seed, size)
    tracer = Tracer() if traced else None
    phase = Phase(tracer)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        try:
            out = workloads.run(
                workload, data, size, seed, phase, tmp, check or traced
            )
        finally:
            if tracer is not None:
                tracer.restore()
    run_s = phase.run_end - phase.run_start
    out.update(
        workload=workload,
        seed=seed,
        traced=traced,
        scale=scale,
        hashseed=os.environ.get("PYTHONHASHSEED", ""),
        size=size,
        inputs=workloads.inputs_digest(data),
        setup_s=phase.setup_end - t0,
        import_s=import_s,
        platform_s=phase.platform_s,
        run_s=run_s,
        peak_rss_mb=phase.peak_rss_kb / 1024.0,
    )
    if tracer is not None:
        out.update(
            calls=tracer.calls(),
            send_bytes=tracer.send_bytes,
            events=tracer.events,
            spans=len(tracer.spans),
            self_s=self_times(tracer, run_s),
        )
        if spans_out:
            tracer.dump(spans_out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument(
        "--check", type=int, choices=(0, 1), default=1,
        help="fold the trace through TraceValidator (traced runs always do)",
    )
    args = parser.parse_args(argv)
    result = run_child(
        args.workload, args.seed, bool(args.trace), args.scale, args.t0,
        args.spans_out, bool(args.check),
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

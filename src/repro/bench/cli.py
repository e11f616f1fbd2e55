"""The ``jets bench`` subcommand.

Runs one or both workload suites, prints a result table, writes
``BENCH_<suite>.json`` files, and (with ``--against``) gates on wall-time
regression versus a saved baseline::

    jets bench                      # full kernel + macro suites
    jets bench --suite kernel       # one suite
    jets bench --quick              # CI smoke sizes
    jets bench --against BENCH_macro.json --threshold 30
    jets bench --suite macro --quick --profile --out-dir /tmp/hot

``--profile`` runs only the cProfile pass and writes only
``BENCH_profile.json``; it never touches a ``BENCH_<suite>.json``.

Exit codes: 0 ok, 1 regression detected, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .harness import (
    BenchResult,
    compare_runs,
    load_baseline,
    profile_suite,
    run_suite,
    write_profile,
    write_suite,
)
from .workloads import SUITES

__all__ = ["bench_main", "build_bench_parser"]


def build_bench_parser() -> argparse.ArgumentParser:
    """Parser for ``jets bench``."""
    parser = argparse.ArgumentParser(
        prog="jets bench",
        description="Run the performance workload suites and emit "
        "BENCH_<suite>.json.",
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
        help="which suite to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced iteration counts (CI smoke)",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="where to write BENCH_<suite>.json (default: cwd)",
    )
    parser.add_argument(
        "--against",
        default=None,
        metavar="BENCH.json",
        help="compare against a saved baseline; fail on regression. "
        "The baseline's suite name selects which fresh suite it gates.",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="wall-time regression tolerance in percent (default: 25)",
    )
    parser.add_argument(
        "--no-mem",
        action="store_true",
        help="skip the tracemalloc memory pass (halves runtime)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="timed-pass repetitions per workload; the minimum wall "
        "time is reported (default: 1)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named workload(s) of the selected suite "
        "(repeatable); keeps process-wide peak RSS attributable",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="instead of the timed pass, run each workload once under "
        "cProfile and write only BENCH_profile.json: the hot set, i.e. "
        "the project functions called at least once per 256 kernel "
        "events or holding at least 1%% of the self time (what `jets "
        "lint` escalates on). Cannot be combined with --against or "
        "--rss-budget-mb",
    )
    parser.add_argument(
        "--rss-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="fail (exit 1) if any workload's peak RSS exceeds this "
        "budget — the streaming-sink memory gate",
    )
    return parser


def _print_result(result: BenchResult) -> None:
    parts = [f"  {result.name:<18} {result.wall_s:8.3f}s"]
    if (
        result.wall_median_s is not None
        and result.wall_median_s != result.wall_s
    ):
        parts.append(f"median {result.wall_median_s:.3f}s")
    if result.events_per_s:
        parts.append(f"{result.events_per_s:>12,.0f} ev/s")
    parts.append(f"rss {result.peak_rss_kb // 1024} MB")
    if result.alloc_peak_kb is not None:
        parts.append(f"alloc-peak {result.alloc_peak_kb / 1024:.1f} MB")
    print("  ".join(parts))


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets bench`` entry point; returns the process exit code."""
    args = build_bench_parser().parse_args(argv)
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.profile and (
        args.against is not None or args.rss_budget_mb is not None
    ):
        print(
            "jets bench: --profile runs no timed pass, so it cannot gate "
            "(--against, --rss-budget-mb)",
            file=sys.stderr,
        )
        return 2

    baseline = None
    if args.against is not None:
        try:
            baseline = load_baseline(args.against)
        except OSError as exc:
            print(f"jets bench: cannot read {args.against}: {exc}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"jets bench: {exc}", file=sys.stderr)
            return 2

    if not os.path.isdir(args.out_dir):
        print(f"jets bench: {args.out_dir} is not a directory",
              file=sys.stderr)
        return 2

    if args.profile:
        profiled: dict[str, tuple[dict[str, int], set[str]]] = {}
        for suite in suites:
            print(f"profiling {suite}{' (quick)' if args.quick else ''}...")
            try:
                profiled.update(
                    profile_suite(suite, quick=args.quick, only=args.only)
                )
            except KeyError as exc:
                print(f"jets bench: {exc.args[0]}", file=sys.stderr)
                return 2
        profile_path = os.path.join(args.out_dir, "BENCH_profile.json")
        write_profile(profiled, profile_path, quick=args.quick)
        print(f"wrote {profile_path} ({len(profiled)} workloads)")
        return 0

    exit_code = 0
    for suite in suites:
        print(f"suite {suite}{' (quick)' if args.quick else ''}:")
        try:
            run = run_suite(
                suite,
                quick=args.quick,
                memory=not args.no_mem,
                progress=_print_result,
                repeats=max(1, args.repeat),
                only=args.only,
            )
        except KeyError as exc:
            print(f"jets bench: {exc.args[0]}", file=sys.stderr)
            return 2
        suite_baseline = (
            baseline if baseline is not None and baseline.get("suite") == suite
            else None
        )
        out_path = os.path.join(args.out_dir, f"BENCH_{suite}.json")
        write_suite(
            run,
            out_path,
            baseline=suite_baseline,
            baseline_source=args.against if suite_baseline else "",
        )
        print(f"  wrote {out_path}")
        if suite_baseline is not None:
            cmp = compare_runs(run, suite_baseline, args.threshold)
            for name, (old, new, speedup) in sorted(cmp.walls.items()):
                print(
                    f"  {name:<18} {old:8.3f}s -> {new:8.3f}s  "
                    f"({speedup:.2f}x)"
                )
            for note in cmp.skipped:
                print(f"  skipped: {note}")
            for regression in cmp.regressions:
                print(f"  REGRESSION: {regression}", file=sys.stderr)
            if not cmp.ok:
                exit_code = 1
        if args.rss_budget_mb is not None:
            budget_kb = args.rss_budget_mb * 1024
            for result in run.results:
                if result.peak_rss_kb > budget_kb:
                    print(
                        f"  RSS BUDGET EXCEEDED: {result.name} peaked at "
                        f"{result.peak_rss_kb / 1024:.0f} MB "
                        f"(budget {args.rss_budget_mb:.0f} MB)",
                        file=sys.stderr,
                    )
                    exit_code = 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(bench_main())

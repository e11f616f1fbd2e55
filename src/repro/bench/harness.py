"""Measurement core for ``jets bench``.

Each workload is run twice: a *timed* pass (wall clock only — nothing
else is sampling while the clock runs) and an optional *memory* pass
under :mod:`tracemalloc` (which slows execution several-fold, so its
numbers never contaminate the timing).  Peak RSS comes from
``getrusage`` and is a process-wide high-water mark: workloads early in
a suite report their own footprint, later ones report the running
maximum.

The JSON layout (one file per suite, ``BENCH_<suite>.json``)::

    {
      "schema": 1,
      "suite": "macro",
      "quick": false,
      "repeats": 3,
      "python": "3.12.3",
      "results": {
        "fig09_mpi512": {
          "wall_s": 1.93, "wall_median_s": 1.97,
          "events": 1182732, "events_per_s": 612814.5,
          "sim_s": 672.2, "peak_rss_kb": 151220,
          "alloc_peak_kb": 78123.4, "alloc_net_blocks": 51234,
          "meta": {...workload parameters...}
        }, ...
      },
      "baseline": {"source": "BENCH_macro.json", "wall_s": {...}},
      "speedup": {"fig09_mpi512": 1.41, ...}
    }

``baseline``/``speedup`` appear when the run was compared against an
earlier file (``jets bench --against``): ``speedup`` is
``baseline_wall / new_wall`` per workload, so values above 1 are
improvements.  Comparison fails a workload when its wall time regresses
by more than the threshold, or when its (deterministic) kernel event
count grows beyond a small tolerance — event counts transfer across
machines, wall times only roughly.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

from .workloads import SUITES, Workload

__all__ = [
    "BenchResult",
    "SuiteRun",
    "Comparison",
    "run_workload",
    "run_suite",
    "write_suite",
    "load_baseline",
    "compare_runs",
    "profile_workload",
    "profile_suite",
    "write_profile",
    "HOT_EVENTS_PER_CALL",
    "HOT_SELF_SHARE",
]

#: JSON schema version of the BENCH files.
SCHEMA = 1

#: Deterministic event counts may grow by at most this factor before the
#: comparison flags a regression (guards against accidental event churn).
EVENT_GROWTH_TOLERANCE = 1.05


@dataclass
class BenchResult:
    """One workload's measurements."""

    name: str
    wall_s: float
    #: Median wall across the timed repeats (equals ``wall_s`` for a
    #: single repeat); the min/median pair shows both the noise floor
    #: and the typical cost.
    wall_median_s: Optional[float] = None
    events: Optional[int] = None
    events_per_s: Optional[float] = None
    sim_s: Optional[float] = None
    peak_rss_kb: int = 0
    alloc_peak_kb: Optional[float] = None
    alloc_net_blocks: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {"wall_s": round(self.wall_s, 6)}
        if self.wall_median_s is not None:
            out["wall_median_s"] = round(self.wall_median_s, 6)
        if self.events is not None:
            out["events"] = self.events
            out["events_per_s"] = round(self.events_per_s or 0.0, 1)
        if self.sim_s is not None:
            out["sim_s"] = round(self.sim_s, 6)
        out["peak_rss_kb"] = self.peak_rss_kb
        if self.alloc_peak_kb is not None:
            out["alloc_peak_kb"] = round(self.alloc_peak_kb, 1)
        if self.alloc_net_blocks is not None:
            out["alloc_net_blocks"] = self.alloc_net_blocks
        if self.meta:
            out["meta"] = self.meta
        return out


@dataclass
class SuiteRun:
    """All results of one suite execution."""

    suite: str
    quick: bool
    results: list[BenchResult] = field(default_factory=list)
    #: Timed-pass repetitions per workload (wall_s is the minimum).
    repeats: int = 1

    def result(self, name: str) -> Optional[BenchResult]:
        for r in self.results:
            if r.name == name:
                return r
        return None

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "quick": self.quick,
            "repeats": self.repeats,
            "python": sys.version.split()[0],
            "results": {r.name: r.to_json() for r in self.results},
        }


def _peak_rss_kb() -> int:
    """Process high-water RSS in KB (ru_maxrss unit on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_workload(
    workload: Workload,
    quick: bool = False,
    memory: bool = True,
    repeats: int = 1,
) -> BenchResult:
    """Measure one workload: timed pass(es), then optional tracemalloc pass.

    With ``repeats > 1`` the timed pass runs that many times; the
    *minimum* wall time is reported as ``wall_s`` — the standard
    noise-rejection move: a run can only be slowed down by interference,
    never sped up, so the minimum is the best estimate of the workload's
    true cost — and the *median* as ``wall_median_s``, the typical cost
    under whatever noise the machine had.  The workload outputs (events,
    sim time) are deterministic across repeats.
    """
    walls: list[float] = []
    out: dict = {}
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()  # repro: noqa[DT001]
        out = workload.fn(quick) or {}
        walls.append(time.perf_counter() - t0)  # repro: noqa[DT001]
    wall = min(walls)
    ordered = sorted(walls)
    mid = len(ordered) // 2
    median = (
        ordered[mid]
        if len(ordered) % 2
        else (ordered[mid - 1] + ordered[mid]) / 2.0
    )

    events = out.pop("events", None)
    sim_s = out.pop("sim_s", None)
    result = BenchResult(
        name=workload.name,
        wall_s=wall,
        wall_median_s=median,
        events=events,
        events_per_s=(events / wall) if events and wall > 0 else None,
        sim_s=sim_s,
        peak_rss_kb=_peak_rss_kb(),
        meta=out,
    )

    if memory:
        blocks0 = sys.getallocatedblocks()
        tracemalloc.start()
        try:
            workload.fn(quick)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result.alloc_peak_kb = peak / 1024.0
        result.alloc_net_blocks = sys.getallocatedblocks() - blocks0
    return result


def _select(suite: str, only: Optional[list[str]]) -> list[Workload]:
    """The suite's workloads in declaration order, restricted to ``only``;
    ``KeyError`` names an unknown suite or workload."""
    workloads = SUITES.get(suite)
    if workloads is None:
        raise KeyError(f"unknown bench suite {suite!r}")
    if only:
        names = {wl.name for wl in workloads}
        unknown = [n for n in only if n not in names]
        if unknown:
            raise KeyError(
                f"unknown workload(s) in suite {suite!r}: "
                + ", ".join(sorted(unknown))
            )
        workloads = [wl for wl in workloads if wl.name in set(only)]
    return workloads


def run_suite(
    suite: str,
    quick: bool = False,
    memory: bool = True,
    progress=None,
    repeats: int = 1,
    only: Optional[list[str]] = None,
) -> SuiteRun:
    """Run every workload of a named suite, in declaration order.

    ``only`` restricts to the named workloads — the memory-budget CI
    job uses it so peak RSS (a process-wide high-water mark) reflects a
    single workload rather than everything that ran before it.
    """
    run = SuiteRun(suite=suite, quick=quick, repeats=repeats)
    for wl in _select(suite, only):
        result = run_workload(wl, quick=quick, memory=memory, repeats=repeats)
        run.results.append(result)
        if progress is not None:
            progress(result)
    return run


def write_suite(
    run: SuiteRun,
    path: str,
    baseline: Optional[dict] = None,
    baseline_source: str = "",
) -> dict:
    """Write a suite's JSON file (with speedups when a baseline is given)."""
    doc = run.to_json()
    if baseline is not None:
        base_walls = {
            name: entry.get("wall_s")
            for name, entry in baseline.get("results", {}).items()
        }
        doc["baseline"] = {
            "source": baseline_source or "baseline",
            "wall_s": {
                k: v for k, v in base_walls.items() if v is not None
            },
        }
        speedups: dict[str, float] = {}
        for result in run.results:
            old = base_walls.get(result.name)
            if old and result.wall_s > 0:
                speedups[result.name] = round(old / result.wall_s, 3)
        doc["speedup"] = speedups
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


def load_baseline(path: str) -> dict:
    """Load a BENCH JSON file, validating the schema tag."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "results" not in doc:
        raise ValueError(f"{path} is not a jets bench JSON file")
    if doc.get("schema", 1) > SCHEMA:
        raise ValueError(
            f"{path} uses bench schema {doc['schema']}; this build "
            f"understands up to {SCHEMA}"
        )
    return doc


@dataclass
class Comparison:
    """Outcome of comparing a fresh run against a baseline file."""

    threshold_pct: float
    #: workload -> (baseline wall, new wall, speedup)
    walls: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    regressions: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_runs(
    run: SuiteRun, baseline: dict, threshold_pct: float = 25.0
) -> Comparison:
    """Flag workloads that regressed versus a baseline document.

    A workload regresses when its wall time exceeds the baseline by more
    than ``threshold_pct`` percent, or when its deterministic kernel
    event count grew beyond :data:`EVENT_GROWTH_TOLERANCE`.  Workloads
    whose parameters differ from the baseline (e.g. a ``--quick`` run
    against a full baseline) are skipped, not compared — as is any
    workload present on only one side (a fresh workload has no baseline
    yet; a retired one no fresh run), so baseline files survive workload
    additions and removals with a warning instead of an error.
    """
    cmp = Comparison(threshold_pct=threshold_pct)
    skipped, regressions = cmp.skipped, cmp.regressions
    base_results = baseline.get("results", {})
    for result in run.results:
        base = base_results.get(result.name)
        if base is None:
            skipped.append(f"{result.name}: not in baseline")
            continue
        if base.get("meta") and result.meta and base["meta"] != result.meta:
            skipped.append(
                f"{result.name}: parameters differ from baseline"
            )
            continue
        old_wall = base.get("wall_s")
        if old_wall:
            speedup = old_wall / result.wall_s if result.wall_s > 0 else 0.0
            cmp.walls[result.name] = (old_wall, result.wall_s, speedup)
            if result.wall_s > old_wall * (1.0 + threshold_pct / 100.0):
                regressions.append(
                    f"{result.name}: wall {result.wall_s:.3f}s vs baseline "
                    f"{old_wall:.3f}s (> {threshold_pct:.0f}% slower)"
                )
        old_events = base.get("events")
        if old_events and result.events:
            if result.events > old_events * EVENT_GROWTH_TOLERANCE:
                regressions.append(
                    f"{result.name}: kernel events {result.events} vs "
                    f"baseline {old_events} (deterministic count grew "
                    f"> {(EVENT_GROWTH_TOLERANCE - 1) * 100:.0f}%)"
                )
    fresh_names = {result.name for result in run.results}
    for name in base_results:
        if name not in fresh_names:
            skipped.append(f"{name}: in baseline only (not in this run)")
    return cmp


# -- profiling pass (jets bench --profile) --------------------------------
#
# Run *after* (and separately from) the timed pass: cProfile's tracing
# overhead would contaminate wall times, so profiled numbers never enter
# BENCH_<suite>.json and baselines stay comparable.  The output is the
# measured hot set the PF perf rules escalate on; the macro suite's
# ``--quick`` profile is committed as ``repro/analysis/hot_set.json``.

#: A project function is hot when a workload calls it at least once per
#: this many kernel events ...
HOT_EVENTS_PER_CALL = 256
#: ... or when it holds at least this share of the workload's profiled
#: self time (the clause that catches ``Environment.run``, whose inlined
#: event loop is one call per run).
HOT_SELF_SHARE = 0.01

#: Per-file def spans, parsed lazily from source.
_SPAN_CACHE: dict[str, list[tuple[int, int, str]]] = {}


def _def_spans(path: str) -> list[tuple[int, int, str]]:
    """``(first line, last line, qualname)`` per def in one file, sorted
    by first line; the first line is the first decorator's, because
    that is the line cProfile keys a decorated function by."""
    import ast

    from ..analysis.perf_rules import def_qualnames

    cached = _SPAN_CACHE.get(path)
    if cached is not None:
        return cached
    try:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
    except (OSError, SyntaxError):
        tree = None
    spans = sorted(
        (
            min([node.lineno] + [d.lineno for d in node.decorator_list]),
            node.end_lineno or node.lineno,
            qual,
        )
        for node, qual in (def_qualnames(tree) if tree else ())
    )
    _SPAN_CACHE[path] = spans
    return spans


def function_id(filename: str, lineno: int, funcname: str) -> str:
    """Stable ``module:qualname`` id for one profiled frame.

    cProfile keys stats by ``(filename, lineno, co_name)``; ``co_name``
    is the bare name, so ``step`` could be anything.  Re-parsing the
    source recovers the ``Class.method`` qualname of the innermost def
    spanning that line.  Comprehension and lambda frames thereby count
    toward their enclosing def (or ``<module>``); a line no def spans
    keeps the bare name.
    """
    from ..analysis.perf_rules import module_name_for

    qual = "<module>" if funcname.startswith("<") else funcname
    for first, last, name in _def_spans(filename):
        if first > lineno:
            break
        if lineno <= last:
            qual = name
    return f"{module_name_for(filename)}:{qual}"


def profile_workload(
    workload: Workload, quick: bool = False
) -> tuple[dict[str, int], set[str]]:
    """cProfile one workload: the call count of every ``repro`` function
    it ran, sorted by id, and the ids that are hot.

    A function is hot when its calls reach one per
    :data:`HOT_EVENTS_PER_CALL` kernel events (the workload's
    ``events``) or its self time reaches :data:`HOT_SELF_SHARE` of the
    profile's total.  Module-level code (a class-body lambda, a
    top-level comprehension) folds into ``<module>``, which holds no
    def for a lint to escalate, so it never enters either.  A
    ``<genexpr>`` frame adds its self time to its enclosing def but not
    its calls: cProfile counts every resume of a generator as a call.
    """
    import cProfile
    import gc
    import os
    import pstats

    # Finalize what earlier passes left behind (suspended process
    # generators run their ``finally`` blocks when collected), so none
    # of it is counted against this workload.
    gc.collect()
    prof = cProfile.Profile()
    prof.enable()
    try:
        out = workload.fn(quick) or {}
    finally:
        prof.disable()
    stats = pstats.Stats(prof)
    rows = stats.stats  # type: ignore[attr-defined]
    events = out.get("events") or 0
    marker = f"{os.sep}repro{os.sep}"
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (filename, lineno, funcname), row in rows.items():
        if marker not in filename:
            continue
        fid = function_id(filename, lineno, funcname)
        if fid.endswith(":<module>"):
            continue
        resumes = funcname == "<genexpr>"
        calls[fid] = calls.get(fid, 0) + (0 if resumes else row[1])
        self_s[fid] = self_s.get(fid, 0.0) + row[2]
    floor = HOT_SELF_SHARE * stats.total_tt  # type: ignore[attr-defined]
    hot = {
        fid for fid, n in calls.items()
        if (events and n * HOT_EVENTS_PER_CALL >= events)
        or self_s[fid] >= floor
    }
    return dict(sorted(calls.items())), hot


def profile_suite(
    suite: str, quick: bool = False, only: Optional[list[str]] = None
) -> dict[str, tuple[dict[str, int], set[str]]]:
    """Profile every workload of a suite; name -> (calls, hot ids)."""
    return {
        wl.name: profile_workload(wl, quick=quick)
        for wl in _select(suite, only)
    }


def write_profile(
    profiles: dict[str, tuple[dict[str, int], set[str]]],
    path: str,
    quick: bool = False,
) -> dict:
    """Write ``BENCH_profile.json``, the layout ``load_profile`` reads.

    ``hot`` maps each id that is hot in some workload, sorted, to its
    call count in every workload that ran it, one id per line.  The
    file holds no timings and no interpreter version: call counts are
    deterministic, so regenerating it on unchanged source rewrites it
    byte for byte.
    """
    hot_ids = set().union(*(hot for _calls, hot in profiles.values()))
    hot = {
        fid: {
            name: calls[fid]
            for name, (calls, _hot) in profiles.items() if fid in calls
        }
        for fid in sorted(hot_ids)
    }
    meta = {
        "schema": SCHEMA,
        "kind": "profile",
        "quick": quick,
        "rule": {
            "events_per_call": HOT_EVENTS_PER_CALL,
            "self_share": HOT_SELF_SHARE,
        },
        "workloads": list(profiles),
    }
    rows = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in hot.items()]
    with open(path, "w") as fh:
        fh.write("{\n")
        for key, value in meta.items():
            fh.write(f"  {json.dumps(key)}: {json.dumps(value)},\n")
        fh.write('  "hot": {\n' + ",\n".join(rows) + "\n  }\n}\n")
    return {**meta, "hot": hot}

"""The benchmark's own tests.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from layers import END_TO_END, PER_LAYER, ZERO_ON  # noqa: E402
from tracing import LAYER_OF, TARGETS, Tracer, self_times  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _originals():
    out = {}
    for module, owner, attr, _span, _gen in TARGETS:
        obj = importlib.import_module(module)
        if owner is not None:
            obj = getattr(obj, owner)
        out[(module, owner, attr)] = obj.__dict__[attr]
    return out


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- wrappers ------------------------------------------------------------------


def test_wrappers_install_and_restore():
    before = _originals()
    traced = child.run_child("mpi_ensemble", 1, True, "smoke")
    assert _originals() == before
    plain = child.run_child("mpi_ensemble", 1, False, "smoke")
    assert _originals() == before
    assert plain["problems"] == [] and traced["problems"] == []
    # The wrappers change no simulated behaviour.  (Digests are compared
    # across fresh processes by the driver: worker and mpiexec ids come
    # from process-wide counters, so a second run in one process logs
    # other ids.)
    for key in ("events", "records", "queue_wait_p50", "wireup_p50"):
        assert plain["counts"][key] == traced["counts"][key], key
    assert traced["events"] == traced["counts"]["events"]
    assert traced["calls"]["mpi.launch"] == plain["attempted"]


def test_self_times_account_for_the_traced_wall():
    out = child.run_child("crash_resume", 2, True, "smoke")
    assert sum(out["self_s"].values()) == pytest.approx(out["run_s"])
    assert set(out["self_s"]) == set(LAYER_OF.values()) | {"other.self_s"}
    assert min(out["self_s"].values()) >= -1e-6


def test_generator_wrapper_forwards_send_throw_and_return():
    mod = types.ModuleType("perfbench_fake")

    def worker(n):
        total = 0
        for _ in range(n):
            try:
                total += yield "tick"
            except KeyError:
                total += 100
        return total

    mod.worker = worker
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        tracer.install([(mod.__name__, None, "worker", "fake.worker", True)])
        try:
            gen = mod.worker(3)
            assert gen.__name__ == "worker"
            assert next(gen) == "tick"
            assert gen.send(1) == "tick"
            assert gen.throw(KeyError()) == "tick"
            with pytest.raises(StopIteration) as stop:
                gen.send(2)
            assert stop.value.value == 103
        finally:
            tracer.restore()
        assert mod.worker is worker
        assert tracer.calls() == {"fake.worker": 1}
        # One span per resumption, each a top-level span here.
        assert len(tracer.spans) == 4
        assert all(span[3] == -1 for span in tracer.spans)
        times = self_times(tracer, wall_s=1.0)
        assert sum(times.values()) == pytest.approx(1.0)
    finally:
        del sys.modules[mod.__name__]


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_configuration(workload):
    size = workloads.SIZES["smoke"][workload]
    one = workloads.inputs(workload, 1, size)
    assert workloads.inputs(workload, 1, size) == one
    assert workloads.inputs(workload, 2, size) != one
    runs = [child.run_child(workload, s, False, "smoke") for s in (1, 2)]
    assert runs[0]["size"] == runs[1]["size"] == size
    assert runs[0]["inputs"] != runs[1]["inputs"]
    assert runs[0]["counts"]["digest"] != runs[1]["counts"]["digest"]


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, pct, n = stats.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert (pct, n) == (90.0, 100)
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


# -- the driver ----------------------------------------------------------------


def test_metric_table_matches_benchmark_json(benchmark_json):
    assert [
        (m["name"], m["unit"], m["better"])
        for m in benchmark_json["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]
    ] == [row[:3] for row in PER_LAYER]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(
        workloads.WORKLOADS
    )
    e2e = {name for name, _u, _b in END_TO_END} | {"failed_frac"}
    per_layer = {row[0] for row in PER_LAYER}
    for name, _u, _b, _module, moves, on in PER_LAYER:
        assert set(moves) <= e2e, name
        assert set(on) <= set(workloads.WORKLOADS), name
    for names in ZERO_ON.values():
        assert set(names) <= per_layer


def test_printed_metrics_match_benchmark_json(benchmark_json):
    result = _result(
        _bench("--workload", "mpi_ensemble", "--seed", "4", "--seconds", "0",
               "--trace", "0", "--scale", "smoke")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes(workload, benchmark_json):
    result = _result(
        _bench("--workload", workload, "--seed", "5", "--seconds", "0",
               "--trace", "1", "--scale", "smoke")
    )
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name in ZERO_ON[workload]:
        assert metrics[name] == 0, name
    assert metrics["simkernel.events_per_job"] > 0
    assert metrics["trace.spans"] > 0
    # Layer self times and other.self_s account for the traced wall time.
    self_names = set(LAYER_OF.values()) | {"other.self_s"}
    assert sum(metrics[n] for n in self_names) == pytest.approx(
        metrics["trace.wall_s"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _bench(
        "--workload", "serial_stream", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

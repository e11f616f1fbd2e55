"""The ``jets bench --profile`` pass: stable ids, the hot-set rule,
JSON layout, CLI."""

from __future__ import annotations

import importlib.util
import inspect
import json

import pytest

from repro.bench.harness import (
    HOT_EVENTS_PER_CALL,
    function_id,
    profile_suite,
    profile_workload,
    write_profile,
)
from repro.bench.workloads import Workload
from repro.simkernel.core import Environment


def sim_workload(name="sim", steps=200):
    """A real (tiny) kernel run, so profiled frames hit repro code."""

    # Environment is imported at module level: import time inside the
    # profile would dilute every self-time share.
    def fn(quick):
        env = Environment()

        def proc():
            for _ in range(steps):
                yield env.timeout(1)

        env.process(proc())
        env.run()
        return {"events": env.events_processed}

    return Workload(name=name, fn=fn, doc="profile fixture")


class TestFunctionIds:
    def test_method_qualname_recovered(self):
        path = inspect.getsourcefile(Environment.step)
        line = Environment.step.__code__.co_firstlineno
        assert (
            function_id(path, line, "step")
            == "repro.simkernel.core:Environment.step"
        )

    def test_unknown_line_falls_back_to_bare_name(self):
        from repro.simkernel import core

        path = inspect.getsourcefile(core)
        assert function_id(path, 10**9, "mystery") == (
            "repro.simkernel.core:mystery"
        )

    def test_properties_keep_their_class(self):
        # cProfile keys a decorated function by its first decorator's
        # line, not by its def line.
        from repro.core.aggregator import Aggregator

        for cls, name, module in (
            (Environment, "now", "repro.simkernel.core"),
            (Aggregator, "free_slot_count", "repro.core.aggregator"),
        ):
            code = getattr(cls, name).fget.__code__
            path = inspect.getsourcefile(getattr(cls, name).fget)
            assert function_id(path, code.co_firstlineno, name) == (
                f"{module}:{cls.__name__}.{name}"
            )

    def test_decorated_method_and_inner_frames(self, tmp_path):
        path = tmp_path / "decorated.py"
        path.write_text(
            "def deco(f):\n"
            "    return f\n"
            "\n"
            "class Box:\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 1\n"
            "\n"
            "    @deco\n"
            "    @deco\n"
            "    def run(self):\n"
            "        key = lambda x: -x\n"
            "        return sorted((x for x in range(3)), key=key)\n"
        )
        spec = importlib.util.spec_from_file_location("decorated", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        run = mod.Box.run.__code__
        inner = [c for c in run.co_consts if inspect.iscode(c)]
        assert {c.co_name for c in inner} == {"<lambda>", "<genexpr>"}
        for code in [mod.Box.size.fget.__code__, run, *inner]:
            fid = function_id(str(path), code.co_firstlineno, code.co_name)
            assert fid == (
                "decorated:Box.size" if code.co_name == "size"
                else "decorated:Box.run"
            )


class TestProfileWorkload:
    def test_hot_frames_meet_the_rule(self):
        calls, hot = profile_workload(sim_workload(steps=400))
        assert list(calls) == sorted(calls)
        assert all(i.startswith("repro.") for i in calls)
        assert hot <= set(calls)
        # One call per run, but the event loop's self time: hot.
        assert "repro.simkernel.core:Environment.run" in hot
        # One call per event: hot.
        assert "repro.simkernel.core:Environment.timeout" in hot
        # Once per run, negligible self time: cold.
        assert calls["repro.simkernel.core:Environment.__init__"] == 1
        assert "repro.simkernel.core:Environment.__init__" not in hot

    def test_genexpr_resumes_are_not_calls(self, tmp_path):
        # Profiled frames must sit under a ``repro`` directory.
        path = tmp_path / "repro" / "genexpr_probe.py"
        path.parent.mkdir()
        path.write_text(
            "def once():\n"
            "    return sum(1 for _ in range(10_000))\n"
        )
        spec = importlib.util.spec_from_file_location("genexpr_probe", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        def fn(quick):
            assert mod.once() == 10_000
            return {"events": 1}

        calls, _hot = profile_workload(
            Workload(name="genexpr", fn=fn, doc="profile fixture")
        )
        assert calls == {"repro.genexpr_probe:once": 1}

    def test_call_threshold_scales_with_events(self):
        calls, _hot = profile_workload(sim_workload(steps=400))
        timeout = calls["repro.simkernel.core:Environment.timeout"]
        assert timeout * HOT_EVENTS_PER_CALL >= 400


class TestWriteProfile:
    def test_round_trips_through_load_profile(self, tmp_path):
        from repro.analysis.perf_rules import load_profile

        profiles = {"sim": profile_workload(sim_workload())}
        path = tmp_path / "BENCH_profile.json"
        doc = write_profile(profiles, str(path), quick=True)
        assert doc["kind"] == "profile"
        assert json.loads(path.read_text()) == doc
        hot = load_profile(str(path))
        assert set(hot) == profiles["sim"][1]
        assert hot["repro.simkernel.core:Environment.run"] == {"sim": 1}

    def test_one_line_per_id_with_every_workloads_count(self, tmp_path):
        path = tmp_path / "BENCH_profile.json"
        write_profile(
            {
                "a": ({"m:f": 3, "m:g": 9, "m:h": 1}, {"m:g"}),
                "b": ({"m:f": 4}, {"m:f"}),
            },
            str(path),
        )
        lines = path.read_text().splitlines()
        assert '    "m:f": {"a": 3, "b": 4},' in lines
        assert '    "m:g": {"a": 9}' in lines
        assert not any('"m:h"' in line for line in lines)

    def test_rewrite_is_byte_stable(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second):
            write_profile(
                {"sim": profile_workload(sim_workload())}, str(path)
            )
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_non_profile_json(self, tmp_path):
        from repro.analysis.perf_rules import load_profile

        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"results": {}}))
        with pytest.raises(ValueError):
            load_profile(str(path))

    def test_profile_suite_unknown_raises(self):
        with pytest.raises(KeyError):
            profile_suite("nope")


class TestBenchCliProfile:
    def test_writes_bench_profile_json(self, tmp_path, monkeypatch, capsys):
        import repro.bench.cli as cli
        import repro.bench.harness as harness

        fake = {"kernel": [sim_workload("a"), sim_workload("b", steps=50)]}
        monkeypatch.setattr(harness, "SUITES", fake)
        monkeypatch.setattr(cli, "SUITES", fake)
        assert cli.bench_main([
            "--suite", "kernel", "--out-dir", str(tmp_path),
            "--no-mem", "--profile",
        ]) == 0
        path = tmp_path / "BENCH_profile.json"
        doc = json.loads(path.read_text())
        assert set(doc["workloads"]) == {"a", "b"}
        assert "repro.simkernel.core:Environment.run" in doc["hot"]
        # Profile-only: no timed pass runs, so no results file is
        # written over a committed baseline.
        assert not (tmp_path / "BENCH_kernel.json").exists()

    def test_profile_leaves_existing_results_alone(
        self, tmp_path, monkeypatch
    ):
        import repro.bench.cli as cli
        import repro.bench.harness as harness

        fake = {"kernel": [sim_workload("a", steps=20)]}
        monkeypatch.setattr(harness, "SUITES", fake)
        monkeypatch.setattr(cli, "SUITES", fake)
        baseline = tmp_path / "BENCH_kernel.json"
        baseline.write_text("committed\n")
        assert cli.bench_main([
            "--suite", "kernel", "--out-dir", str(tmp_path), "--profile",
        ]) == 0
        assert baseline.read_text() == "committed\n"
        assert (tmp_path / "BENCH_profile.json").exists()

    @pytest.mark.parametrize(
        "extra", [["--against", "BENCH_kernel.json"], ["--rss-budget-mb", "9"]]
    )
    def test_profile_refuses_gates(self, tmp_path, capsys, extra):
        import repro.bench.cli as cli

        assert cli.bench_main([
            "--suite", "kernel", "--out-dir", str(tmp_path), "--profile",
            *extra,
        ]) == 2
        assert "--profile" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_no_profile_flag_writes_nothing(self, tmp_path, monkeypatch):
        import repro.bench.cli as cli
        import repro.bench.harness as harness

        fake = {"kernel": [sim_workload("a", steps=20)]}
        monkeypatch.setattr(harness, "SUITES", fake)
        monkeypatch.setattr(cli, "SUITES", fake)
        assert cli.bench_main([
            "--suite", "kernel", "--out-dir", str(tmp_path), "--no-mem",
        ]) == 0
        assert not (tmp_path / "BENCH_profile.json").exists()

"""Import fence: start-up loads only what a run executes.

A fresh interpreter imports the package the way a run does, runs a small
serial + MPI simulation, and reports which heavy or tooling-only modules
it loaded.  networkx (used only by :meth:`Torus3D.graph`), the lint
framework, the chaos engine and the trace exporters/report renderer must
stay out of ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import types

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

FENCED = (
    "networkx",
    "repro.analysis.framework",
    "repro.core.chaos",
    "repro.obs.export",
    "repro.obs.report",
)

PACKAGES = (
    "repro",
    "repro.core",
    "repro.obs",
    "repro.analysis",
    "repro.metrics",
)


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return its last stdout line
    parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_path_stays_inside_the_fence():
    out = _run(
        f"""
        import json, sys
        import repro
        import repro.core.resume
        import repro.obs

        from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
        from repro.cluster.machine import surveyor
        from repro.cluster.platform import Platform
        from repro.core.dispatcher import JetsDispatcher, JetsServiceConfig
        from repro.core.tasklist import JobSpec
        from repro.core.worker import WorkerAgent

        platform = Platform(surveyor(8), seed=1)
        env = platform.env
        dispatcher = JetsDispatcher(
            platform, JetsServiceConfig(), expected_workers=8
        )
        dispatcher.start()
        for node in platform.nodes:
            WorkerAgent(
                platform, node, dispatcher.endpoint,
                service=dispatcher.service,
            ).start()
        jobs = [
            JobSpec(program=SleepProgram(0.5), nodes=1, mpi=False,
                    command="sleep 0.5", job_id=f"s{{i}}")
            for i in range(6)
        ] + [
            JobSpec(program=BarrierSleepBarrier(1.0), nodes=4, ppn=1,
                    mpi=True, command="4 mpi-bench 1.0", job_id=f"m{{i}}")
            for i in range(3)
        ]

        def feeder():
            dispatcher.submit_many(jobs)
            yield dispatcher.drained
            yield from dispatcher.shutdown_workers()

        env.run(env.process(feeder()))
        print(json.dumps({{
            "finished": dispatcher.jobs_finished,
            "ok": all(c.ok for c in dispatcher.completed),
            "loaded": [m for m in {FENCED!r} if m in sys.modules],
        }}))
        """
    )
    assert out["finished"] == 9 and out["ok"]
    assert out["loaded"] == []


def test_every_exported_name_resolves():
    out = _run(
        f"""
        import importlib, json
        missing = []
        for name in {PACKAGES!r}:
            pkg = importlib.import_module(name)
            assert len(set(pkg.__all__)) == len(pkg.__all__), name
            assert set(pkg.__all__) <= set(dir(pkg)), name
            for attr in pkg.__all__:
                if not hasattr(pkg, attr):
                    missing.append(name + "." + attr)
        print(json.dumps(missing))
        """
    )
    assert out == []


def test_star_import_and_unknown_name():
    namespace: dict = {}
    exec("from repro.core import *", namespace)
    assert "JetsDispatcher" in namespace and "ChaosEngine" in namespace
    import repro.core

    with pytest.raises(AttributeError):
        repro.core.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "first",
    [
        "import repro.obs.session",
        "from repro.obs.session import ObsSession",
        "import repro.obs",
        "from repro.obs import session",
    ],
)
def test_obs_session_is_the_function(first):
    # ``session`` names both a submodule and a function; whichever import
    # runs first, the package attribute must stay the function.
    out = _run(
        f"""
        import json, types
        {first}
        import repro.obs.session
        from repro.obs import session
        import repro.obs
        print(json.dumps([
            callable(session) and not isinstance(session, types.ModuleType),
            repro.obs.session is session,
        ]))
        """
    )
    assert out == [True, True]
    from repro.obs import session

    assert not isinstance(session, types.ModuleType) and callable(session)


def test_torus_graph_loads_networkx_on_demand():
    out = _run(
        """
        import json, sys
        from repro.netsim.topology import Torus3D
        t = Torus3D((3, 3, 2))
        before = "networkx" in sys.modules
        g = t.graph()
        after = "networkx" in sys.modules
        import networkx as nx
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        print(json.dumps([before, after, all(
            t.hops(a, b) == lengths[a][b]
            for a in range(t.n) for b in range(t.n)
        )]))
        """
    )
    assert out == [False, True, True]

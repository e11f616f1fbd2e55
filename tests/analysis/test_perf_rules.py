"""The PF001-PF007 hot-path perf rules against their seeded fixture.

``perf_hazards.py`` plants every pattern twice: once in the methods of
its fixture ``Environment``, which the tests install as the hot set
(hot → error, ``[hot path]`` tag), and once in module-level helpers the
hot set does not name (cold → warning).
"""

from __future__ import annotations

import ast

import pytest

from repro.analysis.framework import Module, lint_source, rules_for
from repro.analysis.perf_rules import (
    module_name_for,
    set_hot_profile,
    slotless_dataclasses,
)

from .test_static_rules import lines_for, lint_fixture, mark_lines

PF_RULES = ["PF001", "PF002", "PF003", "PF004", "PF005", "PF006", "PF007"]

#: The fixture's hot set, as a measured profile would name it.
FIXTURE_HOT = [
    "perf_hazards:Environment.step",
    "perf_hazards:Environment._drain",
    "perf_hazards:Environment._place",
    "perf_hazards:Environment._guarded_recv",
]


def lint_with_hot_set(hot, name="perf_hazards.py"):
    set_hot_profile(hot)
    try:
        return lint_fixture(name, select=PF_RULES)
    finally:
        set_hot_profile(None)


def severities_at(findings, rule, lines):
    return {f.severity for f in findings if f.rule == rule and f.line in lines}


class TestPerfRules:
    @pytest.fixture(scope="class")
    def linted(self):
        return lint_with_hot_set(FIXTURE_HOT)

    # -- each rule fires exactly on its seeded lines -----------------------

    def test_pf001_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF001-hot")
            + mark_lines(source, "PF001-reducer")
            + mark_lines(source, "PF001-cold")
        )
        assert lines_for(findings, "PF001") == expected

    def test_pf002_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF002-hot") + mark_lines(source, "PF002-cold")
        )
        assert lines_for(findings, "PF002") == expected

    def test_pf003_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF003-hot") + mark_lines(source, "PF003-cold")
        )
        assert lines_for(findings, "PF003") == expected

    def test_pf004_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF004-hot") + mark_lines(source, "PF004-cold")
        )
        assert lines_for(findings, "PF004") == expected

    def test_pf005_hot_only(self, linted):
        source, findings = linted
        # Fires on the hot try, not on cold_retry nor on the
        # try-around-yield in _guarded_recv.
        assert lines_for(findings, "PF005") == set(
            mark_lines(source, "PF005-hot")
        )

    def test_pf006_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF006-hot") + mark_lines(source, "PF006-cold")
        )
        assert lines_for(findings, "PF006") == expected

    def test_pf007_lines(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PF007-hot") + mark_lines(source, "PF007-cold")
        )
        assert lines_for(findings, "PF007") == expected

    def test_pf007_tuple_entry_called_out(self, linted):
        source, findings = linted
        tuple_pushes = set(
            mark_lines(source, "PF007-hot")
            + mark_lines(source, "PF007-cold")[:1]  # the _push line
        )
        for f in findings:
            if f.rule != "PF007":
                continue
            assert ("tuple entry" in f.message) == (f.line in tuple_pushes)

    # -- severity escalation on the hot path -------------------------------

    @pytest.mark.parametrize(
        "rule,hot_mark,cold_mark",
        [
            ("PF001", "PF001-hot", "PF001-cold"),
            ("PF002", "PF002-hot", "PF002-cold"),
            ("PF003", "PF003-hot", "PF003-cold"),
            ("PF004", "PF004-hot", "PF004-cold"),
            ("PF006", "PF006-hot", "PF006-cold"),
            ("PF007", "PF007-hot", "PF007-cold"),
        ],
    )
    def test_hot_error_cold_warning(self, linted, rule, hot_mark, cold_mark):
        source, findings = linted
        hot_lines = set(mark_lines(source, hot_mark))
        cold_lines = set(mark_lines(source, cold_mark))
        assert severities_at(findings, rule, hot_lines) == {"error"}
        assert severities_at(findings, rule, cold_lines) == {"warning"}

    def test_hot_findings_tagged(self, linted):
        _, findings = linted
        for f in findings:
            assert f.hot == (f.severity == "error")
            assert f.hot == f.message.endswith("[hot path]")

    def test_slotted_dataclass_clean(self, linted):
        source, findings = linted
        slotted = [
            i for i, line in enumerate(source.splitlines(), 1)
            if "SlottedRecord(" in line
        ]
        assert slotted
        assert not lines_for(findings, "PF004") & set(slotted)

    # -- the hot set decides, by exact id ---------------------------------

    def test_hot_profile_escalates_cold_function(self):
        source, findings = lint_with_hot_set(
            FIXTURE_HOT + ["perf_hazards:cold_attr_loop"]
        )
        cold = set(mark_lines(source, "PF002-cold"))
        assert severities_at(findings, "PF002", cold) == {"error"}
        # Other cold functions stay warnings.
        assert severities_at(
            findings, "PF003", set(mark_lines(source, "PF003-cold"))
        ) == {"warning"}

    def test_ids_match_exactly(self):
        # A same-named function in another module, or a bare name, does
        # not make this module's function hot.
        source, findings = lint_with_hot_set(
            ["elsewhere:cold_attr_loop", "cold_attr_loop", "step"]
        )
        assert {f.severity for f in findings} == {"warning"}

    def test_empty_hot_set_leaves_only_warnings(self):
        source, findings = lint_with_hot_set([])
        assert findings
        assert not lines_for(findings, "PF005")
        assert {f.severity for f in findings} == {"warning"}


KERNEL_LOOP = (
    "class Environment:\n"
    "    def run(self, until=None):\n"
    "        while self.queue:\n"
    "            try:\n"
    "                self.step()\n"
    "            except KeyError:\n"
    "                break\n"
)


class TestCommittedHotSet:
    """Without ``--hot-profile`` the rules read the committed set."""

    def test_kernel_loop_is_hot_by_default(self):
        findings = lint_source(
            KERNEL_LOOP, path="src/repro/simkernel/core.py",
            rules=rules_for(["PF005"]),
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("PF005", "error")
        ]

    def test_same_code_elsewhere_is_cold(self):
        findings = lint_source(
            KERNEL_LOOP, path="src/repro/tools/other.py",
            rules=rules_for(["PF005"]),
        )
        assert findings == []


class TestModuleNames:
    def test_src_anchored(self):
        assert (
            module_name_for("/x/src/repro/simkernel/core.py")
            == "repro.simkernel.core"
        )

    def test_repro_anchored(self):
        assert module_name_for("repro/core/jets.py") == "repro.core.jets"

    def test_init_drops_stem(self):
        assert module_name_for("/x/src/repro/obs/__init__.py") == "repro.obs"

    def test_bare_file_uses_stem(self):
        assert module_name_for("perf_hazards.py") == "perf_hazards"


def slotless(*sources: str) -> frozenset[str]:
    return slotless_dataclasses([
        Module(f"mod{i}.py", src, ast.parse(src))
        for i, src in enumerate(sources)
    ])


class TestClassIndex:
    """PF004's per-name class index: which names it reports."""

    def test_plain_dataclass_is_flagged(self):
        assert slotless(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Rec:\n"
            "    a: int\n"
        ) == {"Rec"}

    def test_attribute_and_called_decorators(self):
        assert slotless(
            "import dataclasses\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Rec:\n"
            "    a: int\n"
        ) == {"Rec"}

    def test_slotted_classes_are_exempt(self):
        assert slotless(
            "@dataclass(slots=True)\n"
            "class A:\n"
            "    a: int\n"
            "@dataclass\n"
            "class B:\n"
            "    __slots__ = ('a',)\n"
            "@dataclass\n"
            "class C:\n"
            "    __slots__: tuple = ('a',)\n"
        ) == frozenset()

    def test_non_dataclass_is_exempt(self):
        assert slotless("class Service:\n    pass\n") == frozenset()

    def test_exceptions_are_exempt(self):
        assert slotless(
            "@dataclass\n"
            "class JobError:\n"
            "    a: int\n"
            "@dataclass\n"
            "class Lost(RuntimeError):\n"
            "    a: int\n"
        ) == frozenset()

    def test_enum_and_record_bases_are_exempt(self):
        assert slotless(
            "@dataclass\n"
            "class Kind(enum.Enum):\n"
            "    A = 1\n"
            "@dataclass\n"
            "class Pair(NamedTuple):\n"
            "    a: int\n"
            "@dataclass\n"
            "class Shape(Protocol):\n"
            "    a: int\n"
        ) == frozenset()

    def test_any_exempt_namesake_exempts_the_name(self):
        # Calls match by name only; one slotted class of the name in
        # any module keeps the name unflagged.
        assert slotless(
            "@dataclass\nclass Rec:\n    a: int\n",
            "@dataclass(slots=True)\nclass Rec:\n    a: int\n",
        ) == frozenset()

"""R014 fixtures: one ambient context, constructed only in ``repro/observe.py``.

Telemetry, trace and profile sinks reach deep pipeline stages through a
single ContextVar; a second one would bring back the parallel install
and merge paths the observation context replaced.
"""

from __future__ import annotations

from pathlib import Path

from repro.tools.analysis.engine import lint_source

PATH = Path("src/repro/core/example.py")
OBSERVE_PATH = Path("src/repro/observe.py")


def r014(source: str, path: Path = PATH):
    return [d for d in lint_source(source, path) if d.code == "R014"]


class TestPositive:
    def test_module_attribute_construction(self):
        source = (
            "import contextvars\n"
            "_ACTIVE = contextvars.ContextVar('x', default=None)\n"
        )
        found = r014(source)
        assert len(found) == 1
        assert found[0].line == 2
        assert "repro/observe.py" in found[0].message

    def test_from_import_construction(self):
        source = (
            "from contextvars import ContextVar\n"
            "_ACTIVE = ContextVar('x', default=None)\n"
        )
        assert len(r014(source)) == 1

    def test_aliased_import_construction(self):
        source = (
            "from contextvars import ContextVar as Var\n"
            "def make():\n"
            "    return Var('x')\n"
        )
        assert len(r014(source)) == 1

    def test_other_packages_are_in_scope_too(self):
        source = "import contextvars\nV = contextvars.ContextVar('x')\n"
        assert len(r014(source, Path("src/repro/trace/context.py"))) == 1
        assert len(r014(source, Path("src/repro/gateway/observe.py"))) == 1


class TestNegative:
    def test_observation_module_is_exempt(self):
        source = (
            "from contextvars import ContextVar\n"
            "_ACTIVE = ContextVar('repro_observation', default=None)\n"
        )
        assert r014(source, OBSERVE_PATH) == []

    def test_annotation_and_import_alone_are_fine(self):
        # Only construction counts: typing against ContextVar or reading
        # another module's var does not add ambient state.
        source = (
            "from contextvars import ContextVar, copy_context\n"
            "def run(var: 'ContextVar[int]'):\n"
            "    return copy_context().run(var.get)\n"
        )
        assert r014(source) == []

    def test_noqa_suppresses(self):
        source = (
            "import contextvars\n"
            "V = contextvars.ContextVar('x')  # noqa: R014 -- test double\n"
        )
        assert r014(source) == []

"""Unit tests for every repro-lint rule (R001-R008), positive and negative."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.tools.analysis import RULES, lint_paths, lint_source, main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def codes_for(source, path="src/repro/core/example.py"):
    """Lint a snippet and return the sorted list of rule codes raised."""
    diagnostics = lint_source(textwrap.dedent(source), Path(path))
    return sorted(d.code for d in diagnostics)


class TestR001RngDiscipline:
    def test_flags_default_rng_call(self):
        assert codes_for(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            """
        ) == ["R001"]

    def test_flags_legacy_seed_and_module_functions(self):
        assert codes_for(
            """
            import numpy as np
            np.random.seed(3)
            x = np.random.rand(4)
            """
        ) == ["R001", "R001"]

    def test_flags_from_import_alias(self):
        assert codes_for(
            """
            from numpy.random import default_rng as mk
            rng = mk(0)
            """
        ) == ["R001"]

    def test_flags_numpy_random_module_alias(self):
        assert codes_for(
            """
            from numpy import random
            random.normal(size=3)
            """
        ) == ["R001"]

    def test_allows_ensure_rng_and_generator_annotations(self):
        assert codes_for(
            """
            from __future__ import annotations

            import numpy as np

            from repro.utils import ensure_rng

            def draw(rng: np.random.Generator | None = None) -> float:
                '''Draw one sample through the sanctioned RNG plumbing.'''
                if isinstance(rng, np.random.Generator):
                    return float(rng.random())
                return float(ensure_rng(rng).random())
            """
        ) == []

    def test_rng_module_itself_is_exempt(self):
        source = """
            import numpy as np
            rng = np.random.default_rng(0)
            """
        assert codes_for(source, path="src/repro/utils/rng.py") == []

    def test_noqa_suppresses(self):
        assert codes_for(
            """
            import numpy as np
            rng = np.random.default_rng(0)  # noqa: R001
            """
        ) == []


class TestR002FutureAnnotations:
    def test_flags_pep604_without_future_import(self):
        assert codes_for(
            """
            def f(x: int | None) -> int:
                return x or 0
            """
        ) == ["R002", "R006"]

    def test_flags_pep585_without_future_import(self):
        assert codes_for(
            """
            def _f(x: list[int]):
                return x
            """
        ) == ["R002"]

    def test_flags_annotated_assignment(self):
        assert codes_for("x: dict[str, int] = {}\n") == ["R002"]

    def test_clean_with_future_import(self):
        assert codes_for(
            """
            from __future__ import annotations

            def _f(x: list[int] | None):
                return x
            """
        ) == []

    def test_typing_generics_do_not_require_future_import(self):
        assert codes_for(
            """
            from typing import List, Optional

            def _f(x: Optional[List[int]]):
                return x
            """
        ) == []


class TestR003FloatEqualityOnOffsets:
    def test_flags_offset_equality(self):
        assert codes_for(
            """
            def _f(offset_bins, other):
                return offset_bins == other
            """
        ) == ["R003"]

    def test_flags_bin_inequality_attribute(self):
        assert codes_for(
            """
            def _f(peak, target):
                return peak.position_bins != target
            """
        ) == ["R003"]

    def test_allows_tolerance_compare(self):
        assert codes_for(
            """
            def _f(offset_bins, other):
                return abs(offset_bins - other) < 1e-9
            """
        ) == []

    def test_allows_size_compare_of_bins_array(self):
        assert codes_for(
            """
            def _f(positions_bins, delays):
                return positions_bins.size != delays.size
            """
        ) == []

    def test_allows_unrelated_names_and_none(self):
        assert codes_for(
            """
            def _f(count, offset_bins):
                return count == 3 and offset_bins is None
            """
        ) == []


class TestR004MutableDefaults:
    def test_flags_list_dict_set_defaults(self):
        assert codes_for(
            """
            def _f(a=[], b={}, c=set()):
                return a, b, c
            """
        ) == ["R004", "R004", "R004"]

    def test_flags_kwonly_mutable_default(self):
        assert codes_for(
            """
            def _f(*, acc=[]):
                return acc
            """
        ) == ["R004"]

    def test_allows_none_and_immutable_defaults(self):
        assert codes_for(
            """
            def _f(a=None, b=(), c=3, d="x"):
                return a, b, c, d
            """
        ) == []


class TestR005BareExcept:
    def test_flags_bare_except(self):
        assert codes_for(
            """
            try:
                pass
            except:
                pass
            """
        ) == ["R005"]

    def test_allows_typed_except(self):
        assert codes_for(
            """
            try:
                pass
            except (ValueError, KeyError):
                pass
            except Exception:
                pass
            """
        ) == []


class TestR006Docstrings:
    def test_flags_public_function_in_core(self):
        source = """
            def decode(x):
                return x
            """
        assert codes_for(source, path="src/repro/core/example.py") == ["R006"]

    def test_flags_public_method_in_phy(self):
        source = """
            class Modulator:
                def modulate(self, x):
                    return x
            """
        assert codes_for(source, path="src/repro/phy/example.py") == ["R006"]

    def test_allows_private_and_documented_and_nested(self):
        source = '''
            def decode(x):
                """Documented."""
                def helper(y):
                    return y
                return helper(x)

            def _internal(x):
                return x
            '''
        assert codes_for(source, path="src/repro/core/example.py") == []

    def test_not_enforced_outside_core_and_phy(self):
        source = """
            def run(x):
                return x
            """
        assert codes_for(source, path="src/repro/experiments/example.py") == []


class TestR007LstsqInCore:
    def test_flags_np_linalg_lstsq_in_core(self):
        source = """
            import numpy as np
            h = np.linalg.lstsq(a, b, rcond=None)
            """
        assert codes_for(source, path="src/repro/core/residual.py") == ["R007"]

    def test_flags_linalg_submodule_alias(self):
        source = """
            import numpy.linalg as la
            h = la.lstsq(a, b, rcond=None)
            """
        assert codes_for(source, path="src/repro/core/sic.py") == ["R007"]

    def test_flags_from_import(self):
        source = """
            from numpy.linalg import lstsq as solve
            h = solve(a, b, rcond=None)
            """
        assert codes_for(source, path="src/repro/core/offsets.py") == ["R007"]

    def test_allows_chanest_and_engine(self):
        source = """
            import numpy as np
            h = np.linalg.lstsq(a, b, rcond=None)
            """
        assert codes_for(source, path="src/repro/core/chanest.py") == []
        assert codes_for(source, path="src/repro/core/engine.py") == []

    def test_not_enforced_outside_core(self):
        source = """
            import numpy as np
            h = np.linalg.lstsq(a, b, rcond=None)
            """
        assert codes_for(source, path="src/repro/phy/example.py") == []

    def test_allows_other_linalg_calls_in_core(self):
        source = """
            import numpy as np
            h = np.linalg.solve(a, b)
            """
        assert codes_for(source, path="src/repro/core/residual.py") == []


class TestR008PerfCounterInGateway:
    def test_flags_time_perf_counter_in_gateway(self):
        source = """
            import time
            started = time.perf_counter()
            """
        assert codes_for(source, path="src/repro/gateway/runtime.py") == ["R008"]

    def test_flags_module_alias(self):
        source = """
            import time as t
            started = t.perf_counter()
            """
        assert codes_for(source, path="src/repro/gateway/workers.py") == ["R008"]

    def test_flags_from_import_alias(self):
        source = """
            from time import perf_counter as tick
            started = tick()
            """
        assert codes_for(source, path="src/repro/gateway/sharded.py") == ["R008"]

    def test_allows_telemetry_and_trace(self):
        source = """
            import time
            started = time.perf_counter()
            """
        assert codes_for(source, path="src/repro/gateway/telemetry.py") == []
        assert codes_for(source, path="src/repro/gateway/trace/spans.py") == []

    def test_not_enforced_outside_gateway(self):
        source = """
            import time
            started = time.perf_counter()
            """
        assert codes_for(source, path="src/repro/core/decoder.py") == []

    def test_allows_other_time_calls_in_gateway(self):
        source = """
            import time
            time.sleep(0.01)
            now = time.time()
            """
        assert codes_for(source, path="src/repro/gateway/workers.py") == []

    def test_noqa_suppresses(self):
        source = """
            import time
            started = time.perf_counter()  # noqa: R008
            """
        assert codes_for(source, path="src/repro/gateway/runtime.py") == []


class TestR012CascadeLayering:
    def test_flags_from_import_in_gateway(self):
        source = """
            from repro.core.fastpath import FastPathDecoder
            """
        assert codes_for(source, path="src/repro/gateway/workers.py") == ["R012"]

    def test_flags_plain_import_in_server(self):
        source = """
            import repro.core.fastpath
            """
        assert codes_for(source, path="src/repro/server/server.py") == ["R012"]

    def test_flags_submodule_import_from_package(self):
        source = """
            from repro.core import fastpath
            """
        assert codes_for(source, path="src/repro/gateway/runtime.py") == ["R012"]

    def test_flags_resolved_call_through_alias(self):
        source = """
            from repro.core.fastpath import FastPathDecoder as FP
            decoder = FP(params)
            """
        assert codes_for(source, path="src/repro/gateway/sharded.py") == [
            "R012",
            "R012",
        ]

    def test_allows_cascade_entry_point(self):
        source = """
            from repro.core.cascade import DECODE_TIERS, build_pipeline
            pipeline = build_pipeline("cascade", params)
            """
        assert codes_for(source, path="src/repro/gateway/workers.py") == []

    def test_not_enforced_inside_core(self):
        source = """
            from repro.core.fastpath import FastPathDecoder
            decoder = FastPathDecoder(params)
            """
        assert codes_for(source, path="src/repro/core/cascade.py") == []

    def test_noqa_suppresses(self):
        source = """
            from repro.core.fastpath import FastPathDecoder  # noqa: R012
            """
        assert codes_for(source, path="src/repro/gateway/workers.py") == []


class TestDiagnosticsAndCli:
    def test_diagnostic_format_is_file_line_code(self):
        diagnostics = lint_source(
            "import numpy as np\nnp.random.seed(1)\n", Path("src/repro/mac/x.py")
        )
        assert len(diagnostics) == 1
        rendered = diagnostics[0].format()
        assert rendered.startswith("src/repro/mac/x.py:2:R001 ")

    def test_syntax_error_becomes_diagnostic(self):
        diagnostics = lint_source("def broken(:\n", Path("src/repro/core/x.py"))
        assert [d.code for d in diagnostics] == ["E999"]

    def test_rule_catalog_covers_r001_through_r013(self):
        assert sorted(RULES) == [
            "R001",
            "R002",
            "R003",
            "R004",
            "R005",
            "R006",
            "R007",
            "R008",
            "R009",
            "R010",
            "R011",
            "R012",
            "R013",
        ]

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "ok.py").write_text("X = 1\n")
        (tmp_path / "bad.py").write_text("import numpy as np\nnp.random.rand(2)\n")
        diagnostics = lint_paths([tmp_path])
        assert [d.code for d in diagnostics] == ["R001"]

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("try:\n    pass\nexcept:\n    pass\n")

        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert f"{dirty}:3:R005" in out
        assert main([str(tmp_path / "missing")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "R008" in out

    def test_wrapper_script_runs_without_pythonpath(self, tmp_path):
        wrapper = REPO_ROOT / "tools" / "repro_lint.py"
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\nnp.random.seed(0)\n")
        result = subprocess.run(
            [sys.executable, str(wrapper), str(dirty)],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert result.returncode == 1
        assert ":2:R001" in result.stdout

    @pytest.mark.parametrize("code", sorted(RULES))
    def test_every_rule_has_a_description(self, code):
        assert len(RULES[code]) > 10

"""Shared vocabulary of the analysis engine: diagnostics and the rule catalog.

Every pass in :mod:`repro.tools.analysis` reports findings as
:class:`Diagnostic` values rendered ``file:line:code message`` -- the
same canonical form the original single-file linter used, so editor
integrations and the CI grep surface are unchanged by the engine
migration.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The full rule catalog.  R001-R008 predate the AST engine (their
#: diagnostics are byte-compatible with the legacy scanner); R009-R011
#: are the dataflow passes the engine exists for.
RULES: dict[str, str] = {
    "R001": "direct np.random call outside utils/rng.py; route through ensure_rng",
    "R002": "PEP 604/585 annotation syntax without `from __future__ import annotations`",
    "R003": "float equality on offset/bin quantity; use a tolerance compare",
    "R004": "mutable default argument",
    "R005": "bare `except:` clause",
    "R006": "public function in core/ or phy/ missing a docstring",
    "R007": "np.linalg.lstsq in core/ outside chanest.py/engine.py; "
    "use repro.core.engine",
    "R008": "time.perf_counter in gateway/ outside telemetry.py; "
    "use repro.gateway.telemetry.clock",
    "R009": "unguarded shared-state mutation reachable from a thread entry "
    "point, or inconsistent lock acquisition order",
    "R010": "nondeterminism in a decode path: unordered set iteration "
    "feeding ordered output, id()-keyed sorting, or RNG not derived "
    "via derive_rng/ensure_rng",
    "R011": "implicit complex64 -> complex128 upcast in a core//phy/ hot "
    "kernel (float64/complex128 operand mixed into complex64 data)",
    "R012": "repro.core.fastpath used from gateway//server/ code; tier "
    "selection and escalation belong to repro.core.cascade.build_pipeline",
    "R013": "tracemalloc/resource/time.process_time outside repro/profile/; "
    "route resource accounting through repro.profile.resources",
    "R014": "contextvars.ContextVar constructed outside repro/observe.py; "
    "ambient state lives in the one observation context",
}


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding, formatted as ``file:line:code message``."""

    path: str
    line: int
    code: str
    message: str

    def format(self) -> str:
        """Render as the canonical ``file:line:code message`` form."""
        return f"{self.path}:{self.line}:{self.code} {self.message}"

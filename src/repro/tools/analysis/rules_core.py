"""Rules R001-R008 (legacy scanner ports) plus R012-R014 (layering rules).

One visitor collects all of them in a single traversal of the shared
:class:`repro.tools.analysis.model.ModuleModel` tree.  Diagnostics are
byte-compatible with the pre-engine scanner: same codes, same anchor
lines, same messages (the per-rule alias bookkeeping the old checker
carried is subsumed by the model's :class:`ImportMap`).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.tools.analysis.base import Diagnostic
from repro.tools.analysis.model import ModuleModel, dotted_name

#: Files allowed to touch ``np.random`` directly (the RNG plumbing itself).
_RNG_ALLOWED_SUFFIXES: Tuple[Tuple[str, ...], ...] = (("utils", "rng.py"),)

#: ``core/`` files allowed to call ``np.linalg.lstsq`` directly: the
#: reference channel solver and the engine's own degenerate-Gram fallback.
_R007_ALLOWED_NAMES = frozenset({"chanest.py", "engine.py"})

#: ``gateway/`` files allowed to call ``time.perf_counter`` directly: the
#: telemetry module that wraps it as :func:`clock`.
_R008_ALLOWED_NAMES = frozenset({"telemetry.py"})

#: The module every escalation decision lives behind: gateway//server/
#: code must reach Tier 0 through :func:`repro.core.cascade.build_pipeline`
#: rather than importing/calling the fast path directly (R012).
_FASTPATH_MODULE: Tuple[str, ...] = ("repro", "core", "fastpath")

#: Modules whose use marks a file as doing resource accounting; confined
#: to ``repro/profile/`` so the places that can perturb timing or start
#: allocation tracing stay auditable (R013).
_R013_MODULES = frozenset({"tracemalloc", "resource"})

#: The one module allowed to construct a ``contextvars.ContextVar``: every
#: ambient sink lives in its single observation context (R014).
_OBSERVE_SUFFIX: Tuple[str, ...] = ("repro", "observe.py")

#: Terminal attribute names that make an operand a *property of* an
#: offset/bin array (its size, shape, ...) rather than the quantity itself.
_R003_EXEMPT_ATTRS = frozenset({"size", "shape", "ndim", "dtype", "len", "count"})

#: Identifier pattern that marks a value as an offset/bin quantity.
_R003_NAME = re.compile(r"offset|(?:^|_)bins?(?:$|_)")

#: Builtin generics whose subscription is PEP 585 syntax.
_PEP585_GENERICS = frozenset({"list", "dict", "tuple", "set", "frozenset", "type"})

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class CoreRulesVisitor(ast.NodeVisitor):
    """Single-traversal visitor for R001-R008 over one module model."""

    def __init__(self, model: ModuleModel) -> None:
        self.model = model
        path = model.path
        self.diagnostics: List[Diagnostic] = []
        self._rng_exempt = any(
            tuple(path.parts[-len(suffix):]) == suffix
            for suffix in _RNG_ALLOWED_SUFFIXES
        )
        self._docstring_scope = any(
            part in ("core", "phy") for part in path.parent.parts
        )
        self._lstsq_scope = (
            "core" in path.parent.parts and path.name not in _R007_ALLOWED_NAMES
        )
        self._perf_counter_scope = (
            "gateway" in path.parent.parts
            and "trace" not in path.parent.parts
            and path.name not in _R008_ALLOWED_NAMES
        )
        self._fastpath_scope = any(
            part in ("gateway", "server") for part in path.parent.parts
        )
        self._resource_scope = "profile" not in path.parent.parts
        self._contextvar_scope = tuple(path.parts[-2:]) != _OBSERVE_SUFFIX
        # Class nesting depth, to distinguish methods from nested closures.
        self._scope_stack: List[ast.AST] = [model.tree]

    # -- plumbing ------------------------------------------------------

    def _report(self, code: str, line: int, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(path=str(self.model.path), line=line, code=code, message=message)
        )

    def _resolved(self, node: ast.expr) -> Tuple[Optional[Tuple[str, ...]], str]:
        """(fully-qualified chain or None, source spelling of the chain)."""
        chain = dotted_name(node)
        if chain is None:
            return None, ""
        return self.model.imports.resolve(chain), ".".join(chain)

    # -- R001/R007/R008: call-site discipline --------------------------

    def visit_Call(self, node: ast.Call) -> None:
        """R001/R007/R008/R012-R014: flag disallowed direct call targets."""
        resolved, spelled = self._resolved(node.func)
        if resolved is not None:
            if (
                not self._rng_exempt
                and len(resolved) >= 3
                and resolved[:2] == ("numpy", "random")
            ):
                self._report(
                    "R001",
                    node.lineno,
                    f"direct call to {spelled}; route randomness "
                    "through repro.utils.rng.ensure_rng",
                )
            if self._lstsq_scope and resolved == ("numpy", "linalg", "lstsq"):
                self._report(
                    "R007",
                    node.lineno,
                    f"direct call to {spelled} in core/; route the "
                    "solve through repro.core.engine (normal equations)",
                )
            if self._perf_counter_scope and resolved == ("time", "perf_counter"):
                self._report(
                    "R008",
                    node.lineno,
                    f"direct call to {spelled} in gateway/; use "
                    "repro.gateway.telemetry.clock",
                )
            if (
                self._fastpath_scope
                and resolved[: len(_FASTPATH_MODULE)] == _FASTPATH_MODULE
            ):
                self._report(
                    "R012",
                    node.lineno,
                    f"direct call to {spelled} outside the cascade; select "
                    "tiers via repro.core.cascade.build_pipeline",
                )
            if self._resource_scope and (
                resolved == ("time", "process_time")
                or resolved[0] in _R013_MODULES
            ):
                self._report(
                    "R013",
                    node.lineno,
                    f"direct call to {spelled} outside repro/profile/; use "
                    "repro.profile.resources (ResourceAccountant, "
                    "process_cpu, peak_rss_kb)",
                )
            if self._contextvar_scope and resolved == ("contextvars", "ContextVar"):
                self._report(
                    "R014",
                    node.lineno,
                    f"{spelled} constructed outside repro/observe.py; add "
                    "the sink to the one ambient observation context",
                )
        self.generic_visit(node)

    # -- R012: escalation decisions stay inside the cascade ------------

    def _check_fastpath_import(self, line: int, module: Tuple[str, ...]) -> None:
        if (
            self._fastpath_scope
            and module[: len(_FASTPATH_MODULE)] == _FASTPATH_MODULE
        ):
            self._report(
                "R012",
                line,
                "repro.core.fastpath imported outside the cascade; select "
                "tiers via repro.core.cascade.build_pipeline",
            )

    def _check_resource_import(self, line: int, module: Tuple[str, ...]) -> None:
        """R013: resource-accounting modules imported outside profile/."""
        if self._resource_scope and module[0] in _R013_MODULES:
            self._report(
                "R013",
                line,
                f"`{module[0]}` imported outside repro/profile/; route "
                "resource accounting through repro.profile.resources",
            )

    def visit_Import(self, node: ast.Import) -> None:
        """R012/R013: disallowed module imports for this file's layer."""
        for alias in node.names:
            chain = tuple(alias.name.split("."))
            self._check_fastpath_import(node.lineno, chain)
            self._check_resource_import(node.lineno, chain)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """R012/R013: `from <module> import ...` forms of the same.

        R012 additionally catches ``from repro.core import fastpath``;
        R013 flags any ``from tracemalloc//resource/ import ...``."""
        if node.module is None or node.level:
            self.generic_visit(node)
            return
        base = tuple(node.module.split("."))
        self._check_resource_import(node.lineno, base)
        if base[: len(_FASTPATH_MODULE)] == _FASTPATH_MODULE:
            self._check_fastpath_import(node.lineno, base)
        else:
            for alias in node.names:
                self._check_fastpath_import(node.lineno, base + (alias.name,))
        self.generic_visit(node)

    # -- R002: future annotations --------------------------------------

    def _check_annotation(self, annotation: Optional[ast.expr]) -> None:
        if annotation is None or self.model.has_future_annotations:
            return
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.BitOr):
                self._report(
                    "R002",
                    sub.lineno,
                    "PEP 604 union in annotation requires "
                    "`from __future__ import annotations`",
                )
                return
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in _PEP585_GENERICS
            ):
                self._report(
                    "R002",
                    sub.lineno,
                    f"PEP 585 `{sub.value.id}[...]` annotation requires "
                    "`from __future__ import annotations`",
                )
                return

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        """R002: modern annotation syntax needs the future import."""
        self._check_annotation(node.annotation)
        self.generic_visit(node)

    # -- R003: float equality on offsets/bins --------------------------

    @staticmethod
    def _quantity_name(node: ast.expr) -> Optional[str]:
        """Terminal identifier of an operand, if it is a name/attribute."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            if node.attr in _R003_EXEMPT_ATTRS:
                return None
            return node.attr
        # len(x), int(x), x.round() ... treat as non-quantity; exact
        # equality on derived integers is legitimate.
        return None

    def _is_offset_quantity(self, node: ast.expr) -> bool:
        name = self._quantity_name(node)
        return name is not None and bool(_R003_NAME.search(name.lower()))

    def visit_Compare(self, node: ast.Compare) -> None:
        """R003: exact equality on offset/bin quantities."""
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (left, right)
            if any(
                isinstance(other, ast.Constant)
                and (other.value is None or isinstance(other.value, (str, bool)))
                for other in pair
            ):
                continue
            if any(self._is_offset_quantity(operand) for operand in pair):
                self._report(
                    "R003",
                    node.lineno,
                    "exact ==/!= on an offset/bin quantity; use "
                    "circular_distance / np.isclose with a tolerance",
                )
        self.generic_visit(node)

    # -- R004/R006: function-level rules -------------------------------

    def _visit_function(self, node: _FunctionNode) -> None:
        self._check_mutable_defaults(node)
        self._check_docstring(node)
        for arg in [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
            node.args.vararg,
            node.args.kwarg,
        ]:
            if arg is not None:
                self._check_annotation(arg.annotation)
        self._check_annotation(node.returns)
        self._scope_stack.append(node)
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """R004/R006 plus annotation checks for a function."""
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """R004/R006 plus annotation checks for an async function."""
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Track class scope so R006 sees methods as public items."""
        self._scope_stack.append(node)
        self.generic_visit(node)
        self._scope_stack.pop()

    def _check_mutable_defaults(self, node: _FunctionNode) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._report(
                    "R004",
                    default.lineno,
                    f"mutable default argument in `{node.name}`; default to "
                    "None and build inside the function",
                )

    def _check_docstring(self, node: _FunctionNode) -> None:
        if not self._docstring_scope or node.name.startswith("_"):
            return
        # Only module-level functions and class methods; nested closures
        # are implementation detail.
        if not isinstance(self._scope_stack[-1], (ast.Module, ast.ClassDef)):
            return
        if not ast.get_docstring(node):
            self._report(
                "R006",
                node.lineno,
                f"public function `{node.name}` in core/phy has no docstring",
            )

    # -- R005: bare except ---------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        """R005: bare except clauses."""
        if node.type is None:
            self._report(
                "R005",
                node.lineno,
                "bare `except:`; name the exception types (or `Exception`)",
            )
        self.generic_visit(node)


def check_core_rules(model: ModuleModel) -> Iterator[Diagnostic]:
    """Run R001-R008 and R012-R014 over one module model."""
    visitor = CoreRulesVisitor(model)
    visitor.visit(model.tree)
    return iter(visitor.diagnostics)


__all__: Sequence[str] = ("CoreRulesVisitor", "check_core_rules")

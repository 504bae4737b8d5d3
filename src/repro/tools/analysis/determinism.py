"""R010: determinism hazards in decode paths.

Three hazard families, all of which have bitten reproduction pipelines
before (identical inputs, different outputs across runs or machines):

* **Stray RNG state** -- constructing stdlib ``random`` state instead of
  taking a generator through ``repro.utils.rng.ensure_rng`` /
  ``derive_rng`` escapes the experiment seed, so a seeded simulation no
  longer reproduces (``np.random`` is already policed by R001).  The
  receive chain itself draws no randomness at all.
* **id()-keyed ordering** -- ``sorted(xs, key=id)`` orders by memory
  address, which varies run to run.
* **Unordered iteration feeding ordered output** -- iterating a ``set``
  into a list/tuple/dict or a loop body makes the output order depend on
  hash seeding and insertion history.  Iteration is fine when it flows
  through an order-insensitive sink (``sorted``, ``min``, ``max``,
  ``sum``, ``len``, ``any``, ``all``, or back into a set).

The pass is scoped to runtime packages: the analysis tooling itself
(``tools/``) and the RNG plumbing (``utils/rng.py``) are exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.tools.analysis.base import Diagnostic
from repro.tools.analysis.model import ModuleModel, dotted_name

#: stdlib ``random`` module members whose call sites create or consume
#: process-global (or ad hoc) RNG state.
_STDLIB_RNG = frozenset(
    {
        "Random",
        "SystemRandom",
        "seed",
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "expovariate",
    }
)

#: Builtins that consume an iterable without exposing its order.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: Ordering-sensitive sort entry points whose ``key=`` we inspect.
_SORTERS = frozenset({"sorted", "min", "max"})

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _is_set_builtin_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _key_uses_id(key: ast.expr) -> bool:
    """Whether a sort ``key=`` argument is ``id`` or closes over ``id(...)``."""
    if isinstance(key, ast.Name) and key.id == "id":
        return True
    if isinstance(key, ast.Lambda):
        return any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
            for sub in ast.walk(key.body)
        )
    return False


class DeterminismVisitor(ast.NodeVisitor):
    """Single traversal collecting every R010 hazard in one module."""

    def __init__(self, model: ModuleModel) -> None:
        self.model = model
        self.diagnostics: List[Diagnostic] = []
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(model.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        # Per-function name -> "is set-typed" inference; module scope is
        # the outermost frame.
        self._set_names: List[Set[str]] = [self._collect_set_names(model.tree)]

    # -- plumbing -------------------------------------------------------

    def _report(self, line: int, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                path=str(self.model.path), line=line, code="R010", message=message
            )
        )

    def _collect_set_names(self, scope: ast.AST) -> Set[str]:
        """Names bound to set expressions anywhere in ``scope``.

        A name also bound to a non-set value anywhere is dropped again:
        ambiguity must not produce false positives.
        """
        bound: Set[str] = set()
        ambiguous: Set[str] = set()
        stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested scopes track their own bindings
            if isinstance(node, ast.Assign):
                is_set = self._is_unordered(node.value, track_names=False)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        (bound if is_set else ambiguous).add(target.id)
            stack.extend(ast.iter_child_nodes(node))
        return bound - ambiguous

    def _is_unordered(self, node: ast.expr, track_names: bool = True) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if _is_set_builtin_call(node):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # Set algebra preserves unorderedness.
            return self._is_unordered(node.left, track_names) or self._is_unordered(
                node.right, track_names
            )
        if track_names and isinstance(node, ast.Name):
            return any(node.id in frame for frame in self._set_names)
        return False

    def _sanitized(self, node: ast.AST) -> bool:
        """Whether an enclosing call is order-insensitive."""
        current: Optional[ast.AST] = node
        while current is not None:
            parent = self._parents.get(id(current))
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE
            ):
                return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            current = parent
        return False

    # -- scope handling -------------------------------------------------

    def _visit_scope(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self._set_names.append(self._collect_set_names(node))
        self.generic_visit(node)
        self._set_names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Enter a new function scope for set-name tracking."""
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Enter a new async-function scope for set-name tracking."""
        self._visit_scope(node)

    # -- stray RNG state ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        """Check stray RNG construction, id()-keyed sorts, list(set)."""
        chain = dotted_name(node.func)
        if chain is not None:
            resolved = self.model.imports.resolve(chain)
            if (
                resolved is not None
                and len(resolved) == 2
                and resolved[0] == "random"
                and resolved[1] in _STDLIB_RNG
            ):
                self._report(
                    node.lineno,
                    f"`{'.'.join(chain)}` creates RNG state outside the "
                    "experiment seed; take a generator via "
                    "repro.utils.rng.ensure_rng/derive_rng",
                )
        self._check_sort_key(node)
        self._check_materialize(node)
        self.generic_visit(node)

    def _check_sort_key(self, node: ast.Call) -> None:
        is_sorter = (
            isinstance(node.func, ast.Name) and node.func.id in _SORTERS
        ) or (isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
        if not is_sorter:
            return
        for keyword in node.keywords:
            if keyword.arg == "key" and _key_uses_id(keyword.value):
                self._report(
                    node.lineno,
                    "id()-keyed ordering depends on memory addresses; "
                    "sort by a stable key",
                )

    # -- unordered iteration feeding ordered output ---------------------

    def _report_set_iteration(self, node: ast.AST, what: str) -> None:
        self._report(
            node.lineno,
            f"{what} iterates an unordered set into an ordered output; "
            "wrap in sorted(...) or use a deterministic container",
        )

    def _check_materialize(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and node.args
            and self._is_unordered(node.args[0])
            and not self._sanitized(node)
        ):
            self._report_set_iteration(node, f"{node.func.id}(...)")

    def visit_For(self, node: ast.For) -> None:
        """Flag for-loops that iterate an unordered set directly."""
        if self._is_unordered(node.iter) and not self._sanitized(node):
            self._report_set_iteration(node, "for loop")
        self.generic_visit(node)

    def _check_comprehension(
        self, node: Union[ast.ListComp, ast.GeneratorExp, ast.DictComp]
    ) -> None:
        if self._sanitized(node):
            return
        kind = {
            ast.ListComp: "list comprehension",
            ast.GeneratorExp: "generator expression",
            ast.DictComp: "dict comprehension",
        }[type(node)]
        for generator in node.generators:
            if self._is_unordered(generator.iter):
                self._report_set_iteration(node, kind)
                return

    def visit_ListComp(self, node: ast.ListComp) -> None:
        """Flag list comprehensions over unordered sets."""
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        """Flag generator expressions over unordered sets."""
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        """Flag dict comprehensions over unordered sets."""
        self._check_comprehension(node)
        self.generic_visit(node)


#: Files exempt from R010: the RNG plumbing itself.
_R010_ALLOWED_SUFFIXES: Tuple[Tuple[str, ...], ...] = (("utils", "rng.py"),)


def check_determinism(model: ModuleModel) -> Iterator[Diagnostic]:
    """Run R010 over one module model (unfiltered by noqa)."""
    path = model.path
    if "tools" in path.parts:
        return iter(())
    if any(
        tuple(path.parts[-len(suffix):]) == suffix
        for suffix in _R010_ALLOWED_SUFFIXES
    ):
        return iter(())
    visitor = DeterminismVisitor(model)
    visitor.visit(model.tree)
    return iter(visitor.diagnostics)

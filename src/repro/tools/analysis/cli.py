"""``repro-lint`` command line front end for the analysis engine.

Exit codes match the legacy scanner: 0 clean, 1 findings, 2 bad usage.
``--engine=ast`` is the only engine (the legacy line scanner is gone);
the flag is kept so invocations are explicit about what they run, and
so a future engine can slot in without breaking call sites.  ``--json``
additionally writes the findings as a JSON array for CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.tools.analysis.base import RULES
from repro.tools.analysis.engine import lint_paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: 0 when clean, 1 on any diagnostic, 2 on bad usage."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Choir repo-specific static analysis (rules R001-R014).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--engine",
        choices=["ast"],
        default="ast",
        help="analysis engine (the AST dataflow engine is the default "
        "and only engine)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write findings as a JSON array to FILE (for CI artifacts)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, description in sorted(RULES.items()):
            print(f"{code}  {description}")
        return 0

    targets = [Path(p) for p in args.paths]
    missing = [p for p in targets if not p.exists()]
    if missing:
        for path in missing:
            print(f"repro-lint: no such path: {path}", file=sys.stderr)
        return 2

    diagnostics = lint_paths(targets)
    for diagnostic in diagnostics:
        print(diagnostic.format())
    if args.json is not None:
        payload = [
            {
                "path": d.path,
                "line": d.line,
                "code": d.code,
                "message": d.message,
            }
            for d in diagnostics
        ]
        Path(args.json).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    if diagnostics:
        print(
            f"repro-lint: {len(diagnostics)} finding(s) across "
            f"{len({d.path for d in diagnostics})} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

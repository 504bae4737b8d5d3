#!/usr/bin/env python
"""Runnable wrapper for the repro-lint static-analysis engine.

Usage::

    python tools/repro_lint.py [paths...]                # default: src
    python tools/repro_lint.py --engine=ast src tools
    python tools/repro_lint.py --json findings.json src
    python tools/repro_lint.py --list-rules

The implementation lives in :mod:`repro.tools.analysis` so it ships with
the package (console script ``repro-lint``); this wrapper only makes it
runnable from a source checkout without installation.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.tools.analysis import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

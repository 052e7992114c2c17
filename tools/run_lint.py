#!/usr/bin/env python3
"""Thin runner for the project lint pass (``python -m repro lint``).

Exists so the lint can be invoked without an installed package or a
``PYTHONPATH`` export — pre-commit and bare checkouts both call this:

    python tools/run_lint.py [--format json] [paths...]

Defaults to linting ``src/repro`` when no paths are given; flags pass
through to the ``lint`` subcommand.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    args = sys.argv[1:]
    if not any(not a.startswith("-") for a in args):
        args = [*args, str(REPO_ROOT / "src" / "repro")]
    sys.exit(main(["lint", *args]))

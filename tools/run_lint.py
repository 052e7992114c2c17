#!/usr/bin/env python3
"""Thin runner for the project lint pass (``python -m repro lint``).

Exists so the lint can be invoked without an installed package or a
``PYTHONPATH`` export — pre-commit and bare checkouts both call this:

    python tools/run_lint.py [--format json] [paths...]

Arguments pass through to the ``lint`` subcommand, which lints the
``repro`` package itself when no paths are given.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["lint", *sys.argv[1:]]))

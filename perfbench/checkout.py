"""Locate the checkout the benchmark runs in and put its sources first on the path.

The benchmark measures the `injecttst` package of the checkout it sits in,
never an installed copy, so it refuses to run where `src/injecttst` is absent.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def use_checkout_sources() -> None:
    """Import `injecttst` from this checkout; exit with code 2 if it is missing."""
    if not (SRC / "injecttst" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no src/injecttst package under {ROOT}; "
                         "run the benchmark from a checkout of the repository\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import injecttst
    if Path(injecttst.__file__).resolve().parent != SRC / "injecttst":
        sys.stderr.write(f"perfbench: imported injecttst from {injecttst.__file__}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)

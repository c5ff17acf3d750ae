"""Locations the benchmark uses, all inside the checkout it runs from."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Scratch files of a run (inputs, reports, models) and the traces it keeps.
WORK = ROOT / ".bench_work"


def add_src() -> None:
    """Import walkembed from this checkout's sources, or exit with code 2."""
    if not (SRC / "walkembed" / "__init__.py").is_file():
        print(f"bench: no walkembed sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import walkembed

    if not Path(walkembed.__file__).resolve().is_relative_to(SRC):
        print(f"bench: walkembed imported from {walkembed.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)

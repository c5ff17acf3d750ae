"""The names the benchmark's layer tracer patches must exist.

``bench/layertrace.py`` replaces ``walkembed.<module>.<attribute>`` for
every entry of its ``PATCHES`` list with ``getattr``, so a renamed or
removed function (or a dropped ``from .x import f`` that a patch targets)
crashes every traced run.  The tracer is loaded by path, read-only.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _patches():
    spec = importlib.util.spec_from_file_location("_bench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_traced_name_resolves():
    patches = _patches()
    assert patches
    missing = [
        f"walkembed.{module_name}.{attr}"
        for module_name, attr, *_ in patches
        if not callable(getattr(importlib.import_module(f"walkembed.{module_name}"), attr, None))
    ]
    assert missing == []

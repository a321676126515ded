"""The benchmark's tracer patches cthh by name: every name it lists must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_cthh():
    tracing = load_tracing()
    names = ([(mod, None, name) for mod, name in tracing.FUNCTIONS]
             + list(tracing.METHODS) + list(tracing.LEAVES))
    assert tracing.FUNCTIONS and tracing.METHODS and tracing.LEAVES
    missing = []
    for modname, owner, name in names:
        target = importlib.import_module(modname)
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, name, None)):
            missing.append((modname, owner, name))
    assert missing == []

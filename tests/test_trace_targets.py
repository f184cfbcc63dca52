"""The benchmark's trace list names functions that exist.

perfbench/tracing.py wraps each (module, attribute) of TRACED where the
program looks it up.  A refactor that renames or drops one of those names
would make a traced run fail, so the names are checked here without
installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.TRACED
    missing = []
    for module_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing

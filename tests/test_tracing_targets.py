"""The benchmark's tracer wraps package attributes by name; each must exist.

`perfbench/tracing.py` is loaded from its file and only read: a rename or a
deletion in the package that it still names would make every traced run fail
with AttributeError.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load_tracing()
    targets = tracing._targets()
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets if not hasattr(module, attr)]
    assert missing == []
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    with tracing.patched(tracing.Tracer()):
        pass
    assert [getattr(module, attr) for module, attr, _, _ in targets] == originals

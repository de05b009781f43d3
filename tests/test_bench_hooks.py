"""The benchmark wraps named meshtv functions (``HOOKS`` in bench/tracing.py);
a renamed or deleted target would silently drop its span, so every target
must resolve."""

import importlib.util
import os
import sys

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "tracing.py")


def test_every_bench_hook_target_resolves():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    missing = []
    for _, module_name, path in tracing.HOOKS:
        try:
            tracing._resolve(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
    assert not missing

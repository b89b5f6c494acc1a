"""Every function the layer tracer wraps must still exist where it looks.

``perfbench/run.py --trace 1`` patches the names listed in
``perfbench/layers.py``; a rename or deletion in the package would make it
fail only when tracing is switched on.
"""

import importlib
import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{module}.{attr}" for module, attr, _, _ in layers.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert layers.WRAPPED and missing == []

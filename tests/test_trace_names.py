"""The benchmark's tracer wraps functions by name; each name must resolve.

perfbench/layertrace.py lists them in LAYERS. A rename in matfrob that
drops one would leave that span absent and its per-layer metrics at zero.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layers():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in _layers().items() for name in names]
)
def test_traced_name_resolves(layer, name):
    owner = np.linalg if layer == "lapack" else importlib.import_module(f"matfrob.{layer}")
    target = owner
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target), f"{layer}.{name}"

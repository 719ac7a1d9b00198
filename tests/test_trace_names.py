"""The benchmark's tracer wraps functions by name; each name must resolve.

perfbench/layertrace.py lists them in LAYERS. A rename in matfrob that
drops one would leave that span absent and its per-layer metrics at zero;
so would a refactor that stops calling it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import matfrob.cli
from matfrob.documents import dump_document

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in _layertrace().LAYERS.items() for name in names],
)
def test_traced_name_resolves(layer, name):
    owner = np.linalg if layer == "lapack" else importlib.import_module(f"matfrob.{layer}")
    target = owner
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target), f"{layer}.{name}"


@pytest.mark.parametrize(
    "layer, name",
    [
        (layer, name)
        for layer, names in _layertrace().LAYERS.items()
        if layer != "lapack"
        for name in names
        if "." not in name
    ],
)
def test_traced_name_is_one_object_in_every_module(layer, name):
    # the tracer wraps each module attribute that *is* the listed function,
    # so a module holding its own copy under the name would go untraced;
    # funcalc.func_jordan_block is jordan's, for one
    original = getattr(importlib.import_module(f"matfrob.{layer}"), name)
    holders = [
        module for key, module in sys.modules.items()
        if (key == "matfrob" or key.startswith("matfrob.")) and hasattr(module, name)
    ]
    assert holders
    for module in holders:
        assert getattr(module, name) is original, (module.__name__, name)


def test_every_traced_name_is_called(tmp_path, capsys):
    # one op per command: apply on a matrix, verify on a spec with a real
    # block and a complex pair, synthesize, check-evpos
    matrix = tmp_path / "m.json"
    dump_document({"name": "m", "rows": [[2.0, 1.0], [1.0, 3.0]]}, matrix)
    spec = tmp_path / "s.json"
    dump_document(
        {"name": "s", "real_blocks": [{"lambda": 2.0}],
         "complex_blocks": [{"re": 0.2, "im": 0.3}]},
        spec,
    )
    out = str(tmp_path / "out.json")
    argvs = [
        ["apply", str(matrix), "--fn", "exp", "--out", out],
        ["verify", str(spec), "--fn", "exp", "--out", out],
        ["synthesize", str(spec), "--out", out],
        ["check-evpos", str(matrix), "--out", out],
    ]
    layertrace = _layertrace()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for argv in argvs:
            tracer.begin_op()
            assert matfrob.cli.main(argv) == 0, argv
            tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.absent == []
    layers, _ = tracer.per_op()
    uncalled = [name for name in layertrace.SPAN_NAMES if not layers[name][0]]
    assert uncalled == []

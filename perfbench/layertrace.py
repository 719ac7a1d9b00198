"""Spans around the calls into each matfrob layer, recorded from outside.

``Tracer.install()`` replaces every listed function with a wrapper at each
matfrob module attribute that refers to it (perron, jordan and cli import
them by name), on the class for listed methods, and on ``numpy.linalg`` for
the LAPACK entry points. A wrapper records a span (name, start, end, parent,
op) only between ``begin_op`` and ``end_op``; outside ops it calls straight
through. ``uninstall()`` puts the originals back.

Spans live in flat arrays in memory and are written out once, by ``save``.
A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children nest inside their
parent and never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> functions; "Class.method" names a method.
LAYERS = {
    "core": ("eigen_decompose", "mat_inverse", "condition_estimate"),
    "lapack": ("eig", "svd", "inv"),
    "jordan": (
        "extract_diagonalizable_structure",
        "synthesize_matrix",
        "RealJordanFactors.reconstruct",
        "JordanSpec.distinct_eigenvalues",
    ),
    "funcalc": (
        "matrix_function",
        "defined_on_spectrum",
        "func_jordan_block",
        "func_real_jordan_block",
        "SpectralFunction.eval",
        "SpectralFunction.deriv",
    ),
    "perron": (
        "strong_pf_check",
        "eventually_positive_check",
        "power_threshold",
        "frobenius_check",
        "verify_preservation_theorem",
    ),
    "documents": ("load_document", "parse_matrix_document", "parse_spec_document", "dump_document"),
    "cli": ("cmd_apply", "cmd_verify", "cmd_check_evpos"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
SCALAR_NODE = ("funcalc.SpectralFunction.eval", "funcalc.SpectralFunction.deriv")
OP = "op"


def _module(layer):
    if layer == "lapack":
        return np.linalg
    return sys.modules.get(f"matfrob.{layer}")


class Tracer:
    def __init__(self):
        self.names = (OP,) + SPAN_NAMES
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.ops = 0
        self.absent = []
        self._restore = []

    # --- wrapping -------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "matfrob" or k.startswith("matfrob.")]
        for nid, span in enumerate(SPAN_NAMES, start=1):
            layer, _, path = span.partition(".")
            owner = _module(layer)
            cls_name, _, meth = path.rpartition(".")
            if owner is None:
                self.absent.append(span)
                continue
            if cls_name:
                cls = getattr(owner, cls_name, None)
                # subclasses that override the method get the same span name
                classes = [] if cls is None else [
                    c for c in vars(owner).values() if isinstance(c, type) and issubclass(c, cls)
                ]
                found = [c for c in classes if callable(vars(c).get(meth))]
                for c in found:
                    self._patch(c, meth, vars(c)[meth], nid)
                if not found:
                    self.absent.append(span)
                continue
            original = getattr(owner, path, None)
            if original is None:
                self.absent.append(span)
                continue
            holders = [owner] if layer == "lapack" else []
            holders += [m for m in modules if any(v is original for v in vars(m).values())]
            for holder in dict.fromkeys(holders):
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, original, nid)

    def _patch(self, holder, attr, original, nid):
        call = self._call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(nid, original, args, kwargs)

        setattr(holder, attr, wrapper)
        self._restore.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # --- recording ------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.ops)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _call(self, nid, fn, args, kwargs):
        if not self.stack:
            return fn(*args, **kwargs)
        idx = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def begin_op(self):
        self._open(0)

    def end_op(self):
        self._close(self.stack[-1])
        self.ops += 1

    # --- results --------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_op(self):
        """{span name: (calls per op, self ms per op)} and scalar node evaluations per op."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=dur - covered, minlength=k)
        ops = max(self.ops, 1)
        layers = {
            name: (calls[nid] / ops, self_s[nid] * 1e3 / ops)
            for nid, name in enumerate(self.names)
            if nid > 0
        }
        node = np.isin(a["name"], [self.names.index(n) for n in SCALAR_NODE])
        nested = np.zeros_like(node)
        nested[child] = node[a["parent"][child]]
        return layers, int(np.sum(node & ~nested)) / ops

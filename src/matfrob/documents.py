"""JSON document formats and the scalar-function expression language.

Two document kinds travel through the command line: a matrix document
({"name": ..., "rows": [[...], ...]}) and a factored-form document
({"real_blocks": [{"lambda": ..., "size": ...}], "complex_blocks":
[{"re": ..., "im": ..., "size": ...}], optional "transform" rows, optional
"name"}). Emission uses repr-faithful floats so every emitted document
re-parses to exactly the same values.

Function expressions are sums of weighted atoms, e.g.
"0.5*exp + poly:1,0,2" or "root:3"; atoms are exp, abs, pow:P, root:P and
poly:c0,c1,... with real coefficients.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import MatFrobError
from .funcalc import (
    Abs,
    Exp,
    Monomial,
    Polynomial,
    PrincipalRoot,
    ScaledSum,
    SpectralFunction,
)
from .jordan import JordanSpec

__all__ = [
    "DocumentFormatError",
    "ExpressionError",
    "load_document",
    "dump_document",
    "is_matrix_document",
    "is_spec_document",
    "parse_matrix_document",
    "matrix_document",
    "parse_spec_document",
    "spec_document",
    "parse_function_expression",
]


class DocumentFormatError(MatFrobError):
    """Document text or structure does not match the expected format."""


class ExpressionError(MatFrobError):
    """Function expression does not parse."""


def load_document(path) -> dict:
    """Read and JSON-parse a document file; failures carry line/column."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DocumentFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise DocumentFormatError(f"{path}: top level must be a JSON object")
    return doc


def dump_document(doc: dict, path=None) -> str:
    """Serialize a document; optionally also write it to a file."""
    text = json.dumps(doc, indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def is_matrix_document(doc: dict) -> bool:
    return "rows" in doc


def is_spec_document(doc: dict) -> bool:
    return "real_blocks" in doc or "complex_blocks" in doc


_NUMBER_TYPES = {float, int}


def _as_float(x) -> float:
    try:
        return float(x)
    except OverflowError:  # an integer beyond the float range
        return math.inf if x > 0 else -math.inf


def _number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DocumentFormatError(f"{where}: expected a number, got {x!r}")
    value = _as_float(x)
    if not math.isfinite(value):
        raise DocumentFormatError(f"{where}: expected a finite number, got {x!r}")
    return value


def parse_matrix_document(doc: dict) -> tuple[str, np.ndarray]:
    """Validate a matrix document; returns (name, square check left to caller).

    Entries must be finite numbers. Rows are type-checked as a whole and
    converted in one array build; only a row holding some other type is
    walked entry by entry, to name it.
    """
    name = doc.get("name", "matrix")
    if not isinstance(name, str):
        raise DocumentFormatError(f"name must be a string, got {name!r}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        raise DocumentFormatError("rows must be a nonempty list of lists")
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise DocumentFormatError(f"rows[{i}] must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DocumentFormatError(
                f"rows[{i}] has {len(row)} entries, expected {width}"
            )
        if not set(map(type, row)) <= _NUMBER_TYPES:
            for x in row:
                if type(x) not in _NUMBER_TYPES:
                    _number(x, f"rows[{i}]")
    try:
        data = np.array(rows, dtype=float)
    except OverflowError:
        data = np.array([[_as_float(x) for x in row] for row in rows])
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise DocumentFormatError(
            f"rows[{i}][{j}]: expected a finite number, got {rows[i][j]!r}"
        )
    return name, data


def matrix_document(name: str, a) -> dict:
    m = np.asarray(a, dtype=float)
    return {"name": str(name), "rows": [[float(x) for x in row] for row in m]}


def parse_spec_document(doc: dict) -> tuple[str, JordanSpec, np.ndarray | None]:
    """Validate a factored-form document: (name, spec, optional transform)."""
    name = doc.get("name", "synthesized")
    if not isinstance(name, str):
        raise DocumentFormatError(f"name must be a string, got {name!r}")
    real_raw = doc.get("real_blocks", [])
    cplx_raw = doc.get("complex_blocks", [])
    if not isinstance(real_raw, list) or not isinstance(cplx_raw, list):
        raise DocumentFormatError("real_blocks and complex_blocks must be lists")
    real_blocks = []
    for i, item in enumerate(real_raw):
        if not isinstance(item, dict):
            raise DocumentFormatError(f"real_blocks[{i}] must be an object")
        lam = _number(item.get("lambda"), f"real_blocks[{i}].lambda")
        size = item.get("size", 1)
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise DocumentFormatError(
                f"real_blocks[{i}].size must be a positive integer, got {size!r}"
            )
        real_blocks.append((lam, size))
    complex_blocks = []
    for i, item in enumerate(cplx_raw):
        if not isinstance(item, dict):
            raise DocumentFormatError(f"complex_blocks[{i}] must be an object")
        re = _number(item.get("re"), f"complex_blocks[{i}].re")
        im = _number(item.get("im"), f"complex_blocks[{i}].im")
        size = item.get("size", 1)
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise DocumentFormatError(
                f"complex_blocks[{i}].size must be a positive integer, got {size!r}"
            )
        if not im > 0.0:
            raise DocumentFormatError(
                f"complex_blocks[{i}] must use the representative with positive "
                f"imaginary part, got im = {im}"
            )
        complex_blocks.append((complex(re, im), size))
    try:
        spec = JordanSpec(
            real_blocks=tuple(real_blocks), complex_blocks=tuple(complex_blocks)
        )
    except ValueError as exc:
        raise DocumentFormatError(str(exc)) from exc
    transform = None
    if "transform" in doc and doc["transform"] is not None:
        _, transform = parse_matrix_document({"rows": doc["transform"]})
        if transform.shape[0] != transform.shape[1]:
            raise DocumentFormatError(
                f"transform must be square, got shape {transform.shape}"
            )
        if transform.shape[0] != spec.total_dimension:
            raise DocumentFormatError(
                f"transform is {transform.shape[0]}x{transform.shape[1]} but the "
                f"blocks have total dimension {spec.total_dimension}"
            )
    return name, spec, transform


def spec_document(spec: JordanSpec, transform=None, name: str = "synthesized") -> dict:
    doc: dict = {
        "name": str(name),
        "real_blocks": [
            {"lambda": float(lam), "size": int(n)} for lam, n in spec.real_blocks
        ],
        "complex_blocks": [
            {"re": lam.real, "im": lam.imag, "size": int(n)}
            for lam, n in spec.complex_blocks
        ],
    }
    if transform is not None:
        m = np.asarray(transform, dtype=float)
        doc["transform"] = [[float(x) for x in row] for row in m]
    return doc


def _split_terms(text: str) -> list[str]:
    """Split on top-level '+', keeping scientific-notation and sign plusses."""
    terms = []
    start = 0
    for i, ch in enumerate(text):
        if ch != "+":
            continue
        if text[start:i].strip() == "":
            continue  # unary sign
        prev = text[i - 1] if i > 0 else ""
        nxt = text[i + 1] if i + 1 < len(text) else ""
        if prev in "eE" and (nxt.isdigit()):
            continue  # exponent like 1e+3
        terms.append(text[start:i])
        start = i + 1
    terms.append(text[start:])
    return terms


def _parse_atom(text: str) -> SpectralFunction:
    text = text.strip()
    if text == "exp":
        return Exp()
    if text == "abs":
        return Abs()
    if text.startswith("pow:"):
        try:
            return Monomial(int(text[4:]))
        except ValueError as exc:
            raise ExpressionError(f"bad power atom {text!r}: {exc}") from exc
    if text.startswith("root:"):
        try:
            return PrincipalRoot(int(text[5:]))
        except ValueError as exc:
            raise ExpressionError(f"bad root atom {text!r}: {exc}") from exc
    if text.startswith("poly:"):
        parts = text[5:].split(",")
        try:
            coeffs = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ExpressionError(f"bad polynomial atom {text!r}: {exc}") from exc
        try:
            return Polynomial(coeffs)
        except ValueError as exc:
            raise ExpressionError(str(exc)) from exc
    raise ExpressionError(
        f"unknown function atom {text!r} (expected exp, abs, pow:P, root:P or "
        "poly:c0,c1,...)"
    )


def parse_function_expression(text: str) -> SpectralFunction:
    """Parse the mini-language: weighted atoms joined by '+'."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty function expression")
    parsed: list[tuple[float, SpectralFunction]] = []
    for term in _split_terms(text):
        term = term.strip()
        if not term:
            raise ExpressionError(f"empty term in function expression {text!r}")
        weight = 1.0
        atom_text = term
        if "*" in term:
            left, _, right = term.partition("*")
            try:
                weight = float(left.strip())
            except ValueError as exc:
                raise ExpressionError(f"bad weight {left.strip()!r}") from exc
            atom_text = right
        parsed.append((weight, _parse_atom(atom_text)))
    if len(parsed) == 1 and parsed[0][0] == 1.0:
        return parsed[0][1]
    return ScaledSum(tuple(parsed))

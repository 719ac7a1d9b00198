"""JSON document formats and the scalar-function expression language.

Two document kinds travel through the command line: a matrix document
({"name": ..., "rows": [[...], ...]}) and a factored-form document
({"real_blocks": [{"lambda": ..., "size": ...}], "complex_blocks":
[{"re": ..., "im": ..., "size": ...}], optional "transform" rows, optional
"name"}). Documents are read as UTF-8 JSON objects in which no object
repeats a key. They are emitted as single-line JSON (`python -m json.tool`
pretty-prints them) with repr-faithful floats, so every emitted document
re-parses to exactly the same values. A file is written one row at a time:
each top-level key, and each item of a list such as a row of "rows" or
"transform", is one call of the C encoder, and the bytes are exactly
``json.dumps(doc) + "\n"``, as they were when the whole text was built
first.

Function expressions are sums of weighted atoms, e.g.
"0.5*exp + poly:1,0,2" or "root:3"; atoms are exp, abs, pow:P, root:P and
poly:c0,c1,... with real coefficients.
"""

from __future__ import annotations

import json
import math
from functools import partial
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
    "load_document",
    "dump_document",
    "is_matrix_document",
    "is_spec_document",
    "parse_matrix_document",
    "matrix_document",
    "parse_spec_document",
    "parse_function_expression",
]


def _unique_keys(path, pairs: list) -> dict:
    """object_pairs_hook for load_document: a JSON object with a repeated
    key raises, instead of keeping the key's last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise MatFrobError(f"{path}: duplicate key {key!r}")
            seen.add(key)
    return obj


def load_document(path) -> dict:
    """Read and JSON-parse a document file; failures carry line/column.

    The file must be UTF-8 (a failure names the byte offset), and no JSON
    object in it may repeat a key. An integer literal beyond Python's digit
    limit and nesting beyond its recursion limit are format errors too.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise MatFrobError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatFrobError(
            f"{path}: not UTF-8 text at byte offset {exc.start}: {exc.reason}"
        ) from exc
    try:
        doc = json.loads(text, object_pairs_hook=partial(_unique_keys, path))
    except json.JSONDecodeError as exc:
        raise MatFrobError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # int digit limit, nesting depth
        raise MatFrobError(f"{path}: {str(exc).partition(';')[0]}") from exc
    if not isinstance(doc, dict):
        raise MatFrobError(f"{path}: top level must be a JSON object")
    return doc


def _chunks(doc: dict):
    """json.dumps(doc) in pieces: one per top-level key, and one per item
    of a list value, such as a row of "rows" or "transform"."""
    sep = "{"
    for key, value in doc.items():
        if isinstance(key, str) and isinstance(value, list):
            yield f"{sep}{json.dumps(key)}: ["
            for k, item in enumerate(value):
                yield (", " if k else "") + json.dumps(item)
            yield "]"
        else:
            yield sep + json.dumps({key: value})[1:-1]
        sep = ", "
    yield "}" if doc else "{}"


def dump_document(doc: dict, path=None) -> str | None:
    """Serialize a document as single-line JSON.

    Without a path the text is returned. With one, the text and a newline
    are written to that file one chunk at a time, so no copy of the whole
    text is held; nothing is returned.
    """
    if path is None:
        return "".join(_chunks(doc))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(doc))
        fh.write("\n")
    return None


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
        raise MatFrobError(f"{where}: expected a number, got {x!r}")
    value = _as_float(x)
    if not math.isfinite(value):
        raise MatFrobError(f"{where}: expected a finite number, got {x!r}")
    return value


def _block_size(item: dict, where: str) -> int:
    """A block object's size, 1 when absent; a positive integer."""
    size = item.get("size", 1)
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise MatFrobError(f"{where}.size must be a positive integer, got {size!r}")
    return size


def _parse_rows(rows, field: str) -> np.ndarray:
    """The list of rows in a document's `field` as a float array.

    Entries must be finite numbers; errors name them as field[i][j]. Rows
    are type-checked as a whole and converted in one array build; only a
    row holding some other type is walked entry by entry, to name it.
    """
    if not isinstance(rows, list) or not rows:
        raise MatFrobError(f"{field} must be a nonempty list of lists")
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise MatFrobError(f"{field}[{i}] must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatFrobError(
                f"{field}[{i}] has {len(row)} entries, expected {width}"
            )
        if not set(map(type, row)) <= _NUMBER_TYPES:
            for x in row:
                if type(x) not in _NUMBER_TYPES:
                    _number(x, f"{field}[{i}]")
    try:
        data = np.array(rows, dtype=float)
    except OverflowError:
        data = np.array([[_as_float(x) for x in row] for row in rows])
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise MatFrobError(
            f"{field}[{i}][{j}]: expected a finite number, got {rows[i][j]!r}"
        )
    return data


def parse_matrix_document(doc: dict) -> tuple[str, np.ndarray]:
    """Validate a matrix document; returns (name, square check left to caller)."""
    name = doc.get("name", "matrix")
    if not isinstance(name, str):
        raise MatFrobError(f"name must be a string, got {name!r}")
    return name, _parse_rows(doc.get("rows"), "rows")


def matrix_document(name: str, a) -> dict:
    return {"name": str(name), "rows": np.asarray(a, dtype=float).tolist()}


def parse_spec_document(doc: dict) -> tuple[str, JordanSpec, np.ndarray | None]:
    """Validate a factored-form document: (name, spec, optional transform)."""
    name = doc.get("name", "synthesized")
    if not isinstance(name, str):
        raise MatFrobError(f"name must be a string, got {name!r}")
    real_raw = doc.get("real_blocks", [])
    cplx_raw = doc.get("complex_blocks", [])
    if not isinstance(real_raw, list) or not isinstance(cplx_raw, list):
        raise MatFrobError("real_blocks and complex_blocks must be lists")
    real_blocks = []
    for i, item in enumerate(real_raw):
        if not isinstance(item, dict):
            raise MatFrobError(f"real_blocks[{i}] must be an object")
        lam = _number(item.get("lambda"), f"real_blocks[{i}].lambda")
        real_blocks.append((lam, _block_size(item, f"real_blocks[{i}]")))
    complex_blocks = []
    for i, item in enumerate(cplx_raw):
        if not isinstance(item, dict):
            raise MatFrobError(f"complex_blocks[{i}] must be an object")
        re = _number(item.get("re"), f"complex_blocks[{i}].re")
        im = _number(item.get("im"), f"complex_blocks[{i}].im")
        size = _block_size(item, f"complex_blocks[{i}]")
        if not im > 0.0:
            raise MatFrobError(
                f"complex_blocks[{i}] must use the representative with positive "
                f"imaginary part, got im = {im}"
            )
        complex_blocks.append((complex(re, im), size))
    try:
        spec = JordanSpec(
            real_blocks=tuple(real_blocks), complex_blocks=tuple(complex_blocks)
        )
    except ValueError as exc:
        raise MatFrobError(str(exc)) from exc
    transform = None
    if "transform" in doc and doc["transform"] is not None:
        transform = _parse_rows(doc["transform"], "transform")
        if transform.shape[0] != transform.shape[1]:
            raise MatFrobError(
                f"transform must be square, got shape {transform.shape}"
            )
        if transform.shape[0] != spec.total_dimension:
            raise MatFrobError(
                f"transform is {transform.shape[0]}x{transform.shape[1]} but the "
                f"blocks have total dimension {spec.total_dimension}"
            )
    return name, spec, transform


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
            raise MatFrobError(f"bad power atom {text!r}: {exc}") from exc
    if text.startswith("root:"):
        try:
            return PrincipalRoot(int(text[5:]))
        except ValueError as exc:
            raise MatFrobError(f"bad root atom {text!r}: {exc}") from exc
    if text.startswith("poly:"):
        try:
            return Polynomial(tuple(float(p) for p in text[5:].split(",")))
        except ValueError as exc:
            raise MatFrobError(f"bad polynomial atom {text!r}: {exc}") from exc
    raise MatFrobError(
        f"unknown function atom {text!r} (expected exp, abs, pow:P, root:P or "
        "poly:c0,c1,...)"
    )


def parse_function_expression(text: str) -> SpectralFunction:
    """Parse the mini-language: weighted atoms joined by '+'."""
    if not isinstance(text, str) or not text.strip():
        raise MatFrobError("empty function expression")
    parsed: list[tuple[float, SpectralFunction]] = []
    for term in _split_terms(text):
        term = term.strip()
        if not term:
            raise MatFrobError(f"empty term in function expression {text!r}")
        weight = 1.0
        atom_text = term
        if "*" in term:
            left, _, right = term.partition("*")
            try:
                weight = float(left.strip())
            except ValueError as exc:
                raise MatFrobError(f"bad weight {left.strip()!r}") from exc
            atom_text = right
        parsed.append((weight, _parse_atom(atom_text)))
    if len(parsed) == 1 and parsed[0][0] == 1.0:
        return parsed[0][1]
    try:
        return ScaledSum(tuple(parsed))
    except ValueError as exc:
        raise MatFrobError(f"bad function expression {text!r}: {exc}") from exc

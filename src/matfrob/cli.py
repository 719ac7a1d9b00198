"""Command line front end.

Commands: check-pf, check-evpos, apply, verify, synthesize. Exit code 0
means success / property holds, 1 means the checked property fails, 2 means
the input could not be used (parse error, domain violation, defective
matrix, ill-conditioned transform).

Reports go to stdout. When a command's primary output is a document and no
--out path is given, the document goes to stdout and secondary report lines
to stderr, so stdout always re-parses as a document.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .core import (
    DEFAULT_TOL,
    MatFrobError,
    PreconditionError,
    Tolerance,
    condition_estimate,
    norm_inf,
)
from .documents import (
    dump_document,
    is_matrix_document,
    is_spec_document,
    load_document,
    matrix_document,
    parse_function_expression,
    parse_matrix_document,
    parse_spec_document,
)
from .funcalc import (
    Exp,
    Monomial,
    NotDefinedOnSpectrumError,
    Polynomial,
    ScaledSum,
    matrix_function,
    taylor_oracle,
)
from .jordan import extract_diagonalizable_structure, synthesize_matrix
from .perron import (
    eventually_positive_check,
    power_threshold,
    strong_pf_check,
    verify_preservation_theorem,
)
from .sampling import random_orthogonal

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_ERROR = 2

ORACLE_TERMS = 80
ORACLE_LIMIT = 1e-6


def _tolerance(args) -> Tolerance:
    if not 0.0 <= args.tol < math.inf:
        raise MatFrobError(f"--tol must be finite and nonnegative, got {args.tol}")
    return Tolerance(rel_eps=args.tol)


def _write_report(args, payload) -> None:
    """payload() as JSON to --out; built only when --out is given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload()) + "\n")


def _emit_document(args, doc: dict) -> None:
    """Document to --out when given, else stdout; see module docstring."""
    if args.out:
        dump_document(doc, args.out)
    else:
        print(dump_document(doc))


def _report_line(args, text: str) -> None:
    """Secondary report line; stderr when stdout carries a document."""
    if args.out:
        print(text)
    else:
        print(text, file=sys.stderr)


def _require_fn(args):
    if not args.fn:
        raise MatFrobError("this command needs --fn with a function expression")
    return parse_function_expression(args.fn)


def _synthesize_from_spec(args, doc):
    """Factored-form document to (name, matrix, factors).

    A document without a transform gets a random orthogonal one drawn from
    --seed, which must be nonnegative.
    """
    if args.seed < 0:
        raise MatFrobError(f"--seed must be nonnegative, got {args.seed}")
    name, spec, transform = parse_spec_document(doc)
    if transform is None:
        rng = np.random.default_rng(args.seed)
        transform = random_orthogonal(rng, spec.total_dimension)
    a, factors = synthesize_matrix(spec, transform)
    return name, a, factors


def _load_as_factors(args):
    """Either document kind to factored form: (name, matrix, factors)."""
    doc = load_document(args.input)
    if is_matrix_document(doc):
        name, a = parse_matrix_document(doc)
        factors = extract_diagonalizable_structure(a)
        return name, a, factors
    if is_spec_document(doc):
        return _synthesize_from_spec(args, doc)
    raise MatFrobError(
        f"{args.input}: document is neither a matrix (rows) nor a factored "
        "form (real_blocks / complex_blocks)"
    )


def _oracle(a, f) -> np.ndarray:
    """f(A) from power series alone, atom by atom; never the Jordan form.

    A sum is the weighted sum of its atoms' oracles. exp scales and
    squares: the series at A / 2^s, with ||A||_inf / 2^s <= 1/2, squared s
    times. pow and poly take their degree + 1 terms, which is exact. Any
    other atom gets ORACLE_TERMS terms; one without taylor_coefficients
    (root, abs) raises NotEntireError.
    """
    if isinstance(f, ScaledSum):
        return sum(w * _oracle(a, g) for w, g in f.terms)
    if isinstance(f, Exp):
        s = max(0, math.frexp(norm_inf(a))[1] + 1)
        out = taylor_oracle(np.ldexp(a, -s), f, ORACLE_TERMS)
        for _ in range(s):
            out = out @ out
        return out
    if isinstance(f, Monomial):
        return taylor_oracle(a, f, f.power + 1)
    if isinstance(f, Polynomial):
        return taylor_oracle(a, f, len(f.coeffs))
    return taylor_oracle(a, f, ORACLE_TERMS)


def cmd_check_pf(args) -> int:
    tol = _tolerance(args)
    name, a = parse_matrix_document(load_document(args.input))
    report = strong_pf_check(a, tol)
    print(f"matrix: {name}")
    print(report.format_text())
    _write_report(args, lambda: {"name": name, "report": report.to_dict()})
    return EXIT_HOLDS if report.overall else EXIT_FAILS


def _evpos_evidence(report) -> str:
    """The eigenvalue verdict with the numbers behind it, for a DEFECT line.

    YES carries the smaller of the two sides' dominance margins, skipping a
    side with no eigenvalue outside rho's cluster; NO names each failed
    condition with its side.
    """
    sides = {"matrix": report.matrix_report, "transpose": report.transpose_report}
    if report.overall:
        margins = [r.dominance_margin for r in sides.values()]
        margins = [m for m in margins if m is not None]
        if margins:
            return f"YES (dominance margin {min(margins):.6g})"
        return "YES (no eigenvalue outside rho's cluster)"
    failed = [f"{side} {c}" for side, r in sides.items() for c in r.failed_conditions()]
    return f"NO (failed: {', '.join(failed)})"


def _evpos_cluster(report) -> str:
    """rho, its cluster radius on each side, and the eigenvalue nearest rho
    apart from rho itself (the nearest of all when rho is not one), for a
    DEFECT line."""
    m, t = report.matrix_report, report.transpose_report
    text = (
        f"rho = {m.rho:.15g}, cluster radius {m.cluster_radius:.6g} (matrix) "
        f"and {t.cluster_radius:.6g} (transpose)"
    )
    dist = np.abs(np.array(m.spectrum) - m.rho)
    others = np.argsort(dist, kind="stable")[int(m.rho_in_spectrum):]
    if not others.size:
        return f"{text}, no other eigenvalue"
    z = m.spectrum[others[0]]
    return (
        f"{text}, nearest other eigenvalue {z.real:.12g}{z.imag:+.12g}j "
        f"at distance {dist[others[0]]:.6g}"
    )


def cmd_check_evpos(args) -> int:
    tol = _tolerance(args)
    if args.kmax < 1:
        raise MatFrobError(f"--kmax must be at least 1, got {args.kmax}")
    name, a = parse_matrix_document(load_document(args.input))
    report = eventually_positive_check(a, tol)
    threshold = power_threshold(a, args.kmax)
    print(f"matrix: {name}")
    print(report.format_text())
    if threshold is None:
        brute = f"none up to k_max = {args.kmax}"
    else:
        brute = f"{threshold} (k_max = {args.kmax})"
    print(f"power threshold: {brute}")
    if (threshold is not None) != report.overall:
        print(
            f"DEFECT: eigenvalue-based verdict {_evpos_evidence(report)} and "
            f"brute-force power threshold {brute} disagree "
            f"({_evpos_cluster(report)}); this indicates a bug or a "
            "borderline spectrum"
        )
    _write_report(
        args,
        lambda: {
            "name": name, "report": report.to_dict(), "power_threshold": threshold
        },
    )
    return EXIT_HOLDS if report.overall else EXIT_FAILS


def cmd_apply(args) -> int:
    tol = _tolerance(args)
    f = _require_fn(args)
    name, a, factors = _load_as_factors(args)
    fa = matrix_function(factors, f, tol)
    _emit_document(args, matrix_document(f"{args.fn}({name})", fa))
    if args.oracle:
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = _oracle(a, f)
        if not np.isfinite(oracle).all():
            raise MatFrobError(
                "the oracle's power series overflowed float64, so the oracle "
                "is unusable for this matrix; f(A) itself is finite"
            )
        diff = float(np.max(np.abs(fa - oracle)))
        scale = float(np.max(np.abs(oracle)))
        deviation = diff / scale if scale else (math.inf if diff else 0.0)
        _report_line(args, f"relative oracle deviation: {deviation:.3e}")
        if deviation > ORACLE_LIMIT:
            return EXIT_FAILS
    return EXIT_HOLDS


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    f = _require_fn(args)
    doc = load_document(args.input)
    if not is_spec_document(doc):
        raise MatFrobError(
            f"{args.input}: verify needs a factored-form document "
            "(real_blocks / complex_blocks)"
        )
    name, _, factors = _synthesize_from_spec(args, doc)
    try:
        result = verify_preservation_theorem(factors, f, tol)
    except PreconditionError as exc:
        raise MatFrobError(
            f"{exc}; the preservation comparison needs it as a baseline"
        ) from exc
    except NotDefinedOnSpectrumError as exc:
        raise MatFrobError(
            f"{args.fn} is not usable on this spectrum: {exc}. "
            "Choose a function defined (with enough derivatives) at every "
            "eigenvalue."
        ) from exc
    print(f"matrix: {name}   function: {args.fn}")
    print(result.format_text())
    _write_report(
        args, lambda: {"name": name, "fn": args.fn, "result": result.to_dict()}
    )
    return EXIT_HOLDS if result.theorem_consistent else EXIT_FAILS


def cmd_synthesize(args) -> int:
    doc = load_document(args.input)
    if not is_spec_document(doc):
        raise MatFrobError(
            f"{args.input}: synthesize needs a factored-form document "
            "(real_blocks / complex_blocks)"
        )
    name, a, factors = _synthesize_from_spec(args, doc)
    _emit_document(args, matrix_document(name, a))
    _report_line(
        args,
        f"transform condition estimate: {condition_estimate(factors.transform):.6e}",
    )
    return EXIT_HOLDS


OPTIONS = {
    "tol": dict(type=float, default=DEFAULT_TOL.rel_eps,
                help="relative tolerance, finite and >= 0 (default 1e-9)"),
    "seed": dict(type=int, default=0,
                 help="seed for generated transforms (default 0)"),
    "out": dict(type=str, default=None,
                help="write the machine-readable result to this path"),
    "oracle": dict(action="store_true",
                   help="cross-check entire functions against a power series"),
    "kmax": dict(type=int, default=64,
                 help="largest power examined by brute force (default 64)"),
    "fn": dict(type=str, default=None,
               help="function expression, e.g. 'exp' or '0.5*exp + poly:1,2'"),
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    """The named OPTIONS, and only those: the ones the handler reads."""
    for name in names:
        p.add_argument(f"--{name}", **OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matfrob",
        description="Matrix functions on real Jordan structure and strong "
        "Perron-Frobenius checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-pf",
                       help="strong Perron-Frobenius check on a matrix document")
    p.add_argument("input", help="path to a matrix document")
    _add_options(p, "tol", "out")

    p = sub.add_parser("check-evpos",
                       help="eventual positivity check plus brute-force threshold")
    p.add_argument("input", help="path to a matrix document")
    _add_options(p, "tol", "out", "kmax")

    p = sub.add_parser("apply",
                       help="apply --fn to a matrix or factored-form document")
    p.add_argument("input", help="path to a matrix or factored-form document")
    _add_options(p, "tol", "seed", "out", "oracle", "fn")

    p = sub.add_parser("verify",
                       help="compare scalar and matrix preservation verdicts")
    p.add_argument("input", help="path to a factored-form document")
    _add_options(p, "tol", "seed", "out", "fn")

    p = sub.add_parser("synthesize",
                       help="build a matrix from a factored-form document")
    p.add_argument("input", help="path to a factored-form document")
    _add_options(p, "seed", "out")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use and kept: parse_args
    fills a new namespace on every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on every call, so that a wrapped cmd_* is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except MatFrobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

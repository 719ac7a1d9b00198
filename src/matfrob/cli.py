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
import math
import sys
import warnings

import numpy as np

from .core import (
    DEFAULT_TOL,
    MatFrobError,
    PreconditionError,
    Tolerance,
    condition_estimate,
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
from .funcalc import NotDefinedOnSpectrumError, matrix_function, taylor_oracle
from .jordan import extract_diagonalizable_structure, synthesize_matrix
from .perron import (
    _fmt_complex,
    eventually_positive_check,
    power_threshold,
    strong_pf_check,
    verify_preservation_theorem,
)
from .sampling import random_orthogonal

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_ERROR = 2

ORACLE_LIMIT = 1e-6


def _tolerance(args) -> Tolerance:
    if not 0.0 <= args.tol < math.inf:
        raise MatFrobError(f"--tol must be finite and nonnegative, got {args.tol}")
    return Tolerance(rel_eps=args.tol)


def _write_report(args, payload) -> None:
    """payload() as JSON to --out; built only when --out is given."""
    if args.out:
        dump_document(payload(), args.out)


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


def _load_matrix(args):
    """(name, A) from a matrix document; another kind is refused by name."""
    doc = load_document(args.input)
    if is_matrix_document(doc):
        return parse_matrix_document(doc)
    raise MatFrobError(f"{args.input}: {args.command} needs a matrix document (rows)")


def _load_as_factors(args, needs: str | None = None):
    """The input document in factored form: (name, matrix, factors).

    A matrix document is read for its structure; it is refused when
    `needs` names a command that takes a factored form only. A factored
    form without a transform gets a random orthogonal one drawn from
    --seed, which must be nonnegative. A factored form's matrix is None:
    only a caller that reads A forms it. The JSON object is dropped once
    parsed, so it does not live through the O(n^3) work.
    """
    doc = load_document(args.input)
    if needs is None and is_matrix_document(doc):
        name, a = parse_matrix_document(doc)
        del doc
        return name, a, extract_diagonalizable_structure(a)
    if not is_spec_document(doc):
        if needs is None:
            raise MatFrobError(
                f"{args.input}: document is neither a matrix (rows) nor a "
                "factored form (real_blocks / complex_blocks)"
            )
        raise MatFrobError(
            f"{args.input}: {needs} needs a factored-form document "
            "(real_blocks / complex_blocks)"
        )
    if args.seed < 0:
        raise MatFrobError(f"--seed must be nonnegative, got {args.seed}")
    name, spec, transform = parse_spec_document(doc)
    del doc
    if transform is None:
        rng = np.random.default_rng(args.seed)
        transform = random_orthogonal(rng, spec.total_dimension)
    return name, None, synthesize_matrix(spec, transform)


def cmd_check_pf(args) -> int:
    tol = _tolerance(args)
    name, a = _load_matrix(args)
    report = strong_pf_check(a, tol)
    print(f"matrix: {name}")
    print(report.format_text())
    _write_report(args, lambda: {"name": name, "report": report.to_dict()})
    return EXIT_HOLDS if report.overall else EXIT_FAILS


def _evpos_evidence(report) -> str:
    """The eigenvalue verdict with the numbers behind it, for a DEFECT line.

    YES carries the dominance margin, which both sides share, unless no
    eigenvalue lies outside rho's cluster; NO names each failed condition
    with its side.
    """
    sides = {"matrix": report.matrix_report, "transpose": report.transpose_report}
    if report.overall:
        margin = report.matrix_report.dominance_margin
        if margin is not None:
            return f"YES (dominance margin {margin:.6g})"
        return "YES (no eigenvalue outside rho's cluster)"
    failed = [f"{side} {c}" for side, r in sides.items() for c in r.failed_conditions()]
    return f"NO (failed: {', '.join(failed)})"


def _evpos_cluster(report) -> str:
    """rho, its cluster radius (one for both sides), and the eigenvalue
    nearest rho apart from rho itself (the nearest of all when rho is not
    one), for a DEFECT line."""
    m = report.matrix_report
    text = f"rho = {m.rho:.15g}, cluster radius {m.cluster_radius:.6g}"
    dist = np.abs(np.array(m.spectrum) - m.rho)
    others = np.argsort(dist, kind="stable")[int(m.rho_in_spectrum):]
    if not others.size:
        return f"{text}, no other eigenvalue"
    z = m.spectrum[others[0]]
    return (
        f"{text}, nearest other eigenvalue {_fmt_complex(z)} "
        f"at distance {dist[others[0]]:.6g}"
    )


def cmd_check_evpos(args) -> int:
    tol = _tolerance(args)
    if args.kmax < 1:
        raise MatFrobError(f"--kmax must be at least 1, got {args.kmax}")
    name, a = _load_matrix(args)
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
    deviation = None
    if args.oracle:  # before f(A) is emitted, so a refusal emits nothing
        if a is None:
            a = factors.reconstruct()
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = taylor_oracle(a, f)
        if not np.isfinite(oracle).all():
            raise MatFrobError(
                "the oracle's power series overflowed float64, so the oracle "
                "is unusable for this matrix; f(A) itself is finite"
            )
        diff = float(np.max(np.abs(fa - oracle)))
        scale = float(np.max(np.abs(oracle)))
        deviation = diff / scale if scale else (math.inf if diff else 0.0)
    _emit_document(args, matrix_document(f"{args.fn}({name})", fa))
    if deviation is None:
        return EXIT_HOLDS
    _report_line(args, f"relative oracle deviation: {deviation:.3e}")
    return EXIT_FAILS if deviation > ORACLE_LIMIT else EXIT_HOLDS


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    f = _require_fn(args)
    name, _, factors = _load_as_factors(args, "verify")
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
    name, _, factors = _load_as_factors(args, "synthesize")
    _emit_document(args, matrix_document(name, factors.reconstruct()))
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
    with warnings.catch_warnings():  # a warning is one stderr line, no source
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            return handler(args)
        except (MatFrobError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

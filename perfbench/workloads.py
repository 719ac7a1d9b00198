"""The benchmark workloads: input generation, the timed op, its check.

Inputs come from this file's own seeded numpy code, never from
matfrob.sampling, so a change to the library's samplers cannot change the
traffic. Each op draws fresh random data, so no input repeats within a run
and a result cache cannot win by repetition.

A workload object has three parts, called by the loop in run.py:
``make_input(rng, i)`` builds op i's input (untimed), ``run(inp)`` is the
timed op, and ``check(inp, out)`` returns None or a failure message
(untimed). ``cycle`` is the length of the op-kind pattern: ops i and
i + cycle do the same kind of work on different data. ``warmup`` ops,
one of each kind that takes a different code path, make up one set-up pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re

import numpy as np

# Entry points are called through their modules, so that the wrappers the
# traced run installs on those module attributes see the calls.
from matfrob import cli

DENSE_N = 200
KMAX = 64
# A matrix the CLI wrote (exp(A) from apply, A from synthesize) against the
# same matrix built from the planted factors. cond(R) <= 3 here, so roundoff
# is near n * eps * 3 ~ 1e-13; the bound leaves four orders of magnitude for
# accumulation.
REL_BOUND = 1e-9
# The CLI prints the condition estimate with seven significant digits.
COND_REL_BOUND = 1e-6


# --- input generation -----------------------------------------------------


def positive_column_orthogonal(rng, n, flip=None):
    """Orthogonal matrix whose first column is entrywise positive.

    With ``flip`` set, that entry of the first column is negative instead,
    which breaks the Perron vector's positivity for a negative control.
    """
    u = rng.uniform(0.5, 1.5, size=n)
    if flip is not None:
        u[flip] = -u[flip]
    g = np.column_stack([u, rng.standard_normal((n, n - 1))])
    q, _ = np.linalg.qr(g)
    if q[0, 0] * u[0] < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def planted_spectrum(rng, n, gap_share=0.002):
    """Eigenvalues of an n x n diagonalizable matrix: (reals, upper pair members).

    reals[0] is rho, simple and dominant. Every other eigenvalue has
    modulus in [0.05, 0.8] * rho and stays gap_share * rho apart from the
    others and from their conjugates, as in random_pf_spec.
    """
    rho = float(rng.uniform(1.0, 3.0))
    gap = gap_share * rho
    reals, pairs = [rho], []
    taken = [complex(rho)]
    budget = n - 1
    while budget > 0:
        want_pair = budget >= 2 and rng.random() < 0.5
        while True:
            r = float(rng.uniform(0.05, 0.8)) * rho
            if want_pair:
                theta = float(rng.uniform(0.2, np.pi - 0.2))
                lam = complex(r * np.cos(theta), r * np.sin(theta))
            else:
                lam = complex(r if rng.random() < 0.5 else -r)
            t = np.asarray(taken)
            if np.all(np.abs(lam - t) >= gap) and np.all(np.abs(lam - t.conj()) >= gap):
                break
        taken.append(lam)
        if want_pair:
            pairs.append(lam)
            budget -= 2
        else:
            reals.append(lam.real)
            budget -= 1
    return reals, pairs


def real_jordan(reals, pairs, f=lambda z: z):
    """Real Jordan matrix of f(J) in matfrob's block order: reals, then pairs.

    All blocks have size 1, so f acts eigenvalue by eigenvalue.
    """
    n = len(reals) + 2 * len(pairs)
    j = np.zeros((n, n))
    for i, lam in enumerate(reals):
        j[i, i] = f(lam)
    for k, lam in enumerate(pairs):
        at = len(reals) + 2 * k
        z = f(lam)
        j[at : at + 2, at : at + 2] = [[z.real, z.imag], [-z.imag, z.real]]
    return j


def planted_dense(rng, n, flip=False):
    """n x n diagonalizable strong-PF factors R, R^-1 and its eigenvalues.

    R = Q diag(d) with Q's first column positive, so rho's right and left
    eigenvectors are positive and A = R J R^-1 is eventually positive. With
    ``flip`` one entry of both is negative: a matrix that is not.
    """
    reals, pairs = planted_spectrum(rng, n)
    q = positive_column_orthogonal(rng, n, int(rng.integers(n)) if flip else None)
    d = rng.uniform(0.6, 1.8, size=n)
    return q * d, q.T / d[:, None], reals, pairs


def spec_document(name, r, reals, pairs):
    return {
        "name": name,
        "real_blocks": [{"lambda": lam, "size": 1} for lam in reals],
        "complex_blocks": [{"re": lam.real, "im": lam.imag, "size": 1} for lam in pairs],
        "transform": r.tolist(),
    }


def write_json(path, doc):
    text = json.dumps(doc)  # one C-encoder pass; json.dump writes in small chunks
    with open(path, "w") as fh:
        fh.write(text)


def call_cli(argv):
    """matfrob.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def relative_error(doc, ref):
    fa = np.array(doc.get("rows"), dtype=float)
    if fa.shape != ref.shape:
        return f"result has shape {fa.shape}, expected {ref.shape}"
    err = float(np.max(np.abs(fa - ref)) / np.max(np.abs(ref)))
    if not err <= REL_BOUND:
        return f"relative error {err:.3e} exceeds {REL_BOUND:.0e}"
    return None


# --- workloads --------------------------------------------------------------


class Dense:
    """n = 200 planted matrices through the CLI: apply, verify, synthesize in turn."""

    name = "dense"
    cycle = 3
    warmup = 3

    def __init__(self, workdir):
        self.src = os.path.join(workdir, "in.json")
        self.out = os.path.join(workdir, "out.json")

    def make_input(self, rng, i):
        if os.path.exists(self.out):
            os.remove(self.out)
        r, r_inv, reals, pairs = planted_dense(rng, DENSE_N)
        kind = ("apply", "verify", "synthesize")[i % 3]
        if kind == "apply":
            a = r @ real_jordan(reals, pairs) @ r_inv
            write_json(self.src, {"name": f"dense{i}", "rows": a.tolist()})
            return kind, r @ real_jordan(reals, pairs, np.exp) @ r_inv
        write_json(self.src, spec_document(f"dense{i}", r, reals, pairs))
        if kind == "verify":
            return kind, None
        s = np.linalg.svd(r, compute_uv=False)
        return kind, (r @ real_jordan(reals, pairs) @ r_inv, s[0] / s[-1])

    def run(self, inp):
        fn = ["--fn", "exp"] if inp[0] != "synthesize" else []
        return call_cli([inp[0], self.src, *fn, "--out", self.out])

    def check(self, inp, out):
        kind, ref = inp
        code, stdout, stderr = out
        if code != 0:
            return f"{kind} exited {code}: {stderr[-200:]}"
        try:
            with open(self.out) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"{kind} --out does not re-parse: {exc}"
        if kind == "apply":
            error = relative_error(doc, ref)
            return None if error is None else f"apply {error}"
        if kind == "verify":
            result = doc.get("result", {})
            if not (result.get("theorem_consistent") and result.get("f_is_frobenius")):
                return "verify: exp must be Frobenius and the verdicts must agree"
            return None
        a, cond = ref
        error = relative_error(doc, a)
        if error is not None:
            return f"synthesize {error}"
        found = re.search(r"transform condition estimate: (\S+)", stdout)
        if found is None or not abs(float(found[1]) - cond) <= COND_REL_BOUND * cond:
            return f"synthesize: condition estimate {found and found[1]}, expected {cond:.6e}"
        return None


class Evpos:
    """check-evpos on n = 200 matrices; every fourth is a negative control."""

    name = "evpos"
    cycle = 4
    warmup = 1

    def __init__(self, workdir):
        self.src = os.path.join(workdir, "in.json")

    def make_input(self, rng, i):
        planted = i % 4 != 3
        r, r_inv, reals, pairs = planted_dense(rng, DENSE_N, flip=not planted)
        a = r @ real_jordan(reals, pairs) @ r_inv
        write_json(self.src, {"name": f"evpos{i}", "rows": a.tolist()})
        return planted

    def run(self, planted):
        return call_cli(["check-evpos", self.src, "--kmax", str(KMAX)])

    def check(self, planted, out):
        code, stdout, _ = out
        if code != (0 if planted else 1):
            return f"check-evpos exited {code} on a {'planted' if planted else 'control'} matrix"
        if "DEFECT" in stdout:
            return "check-evpos printed a DEFECT line"
        verdict = "eventually positive: " + ("YES" if planted else "NO")
        if verdict not in stdout:
            return f"check-evpos did not print '{verdict}'"
        has_threshold = "power threshold: none" not in stdout
        if has_threshold != planted:
            return f"power threshold present={has_threshold} on a {'planted' if planted else 'control'} matrix"
        return None


WORKLOADS = {w.name: w for w in (Dense, Evpos)}

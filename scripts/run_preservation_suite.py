#!/usr/bin/env python3
"""Batch experiment: scalar vs matrix preservation verdicts over random
strong Perron-Frobenius matrices.

For each trial a random factored matrix is drawn and every catalogue
function is pushed through verify_preservation_theorem. The table reports,
per function, how often the scalar conditions held, how often f(A) kept the
strong Perron-Frobenius property, and whether the two sides ever diverged
(they never should).
"""

import argparse
import sys
from collections import Counter

import numpy as np

from matfrob import (
    Exp,
    Monomial,
    NotDefinedOnSpectrumError,
    Polynomial,
    PrincipalRoot,
    ScaledSum,
    verify_preservation_theorem,
)
from matfrob.sampling import random_pf_factors

CATALOGUE = [
    Exp(),
    Monomial(1),
    Monomial(2),
    Monomial(3),
    PrincipalRoot(2),
    PrincipalRoot(3),
    Polynomial((0.5, 1.0, 0.25)),
    ScaledSum(((-1.0, Monomial(1)),)),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-dim", type=int, default=10)
    ap.add_argument("--max-block", type=int, default=3)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    ran = Counter()
    scalar_yes = Counter()
    matrix_yes = Counter()
    skipped = Counter()
    disagreements = []

    for trial in range(args.trials):
        factors = random_pf_factors(
            rng, max_dim=args.max_dim, max_block_size=args.max_block
        )
        for f in CATALOGUE:
            name = f.describe()
            try:
                res = verify_preservation_theorem(factors, f)
            except NotDefinedOnSpectrumError:
                skipped[name] += 1
                continue
            ran[name] += 1
            scalar_yes[name] += res.f_is_frobenius
            matrix_yes[name] += res.fa_strong_pf
            if not res.theorem_consistent:
                disagreements.append((trial, name))

    width = max(len(f.describe()) for f in CATALOGUE)
    print(f"{'function':<{width}}  {'ran':>5}  {'scalar':>6}  {'matrix':>6}  {'skipped':>7}")
    for f in CATALOGUE:
        name = f.describe()
        print(
            f"{name:<{width}}  {ran[name]:>5}  {scalar_yes[name]:>6}  "
            f"{matrix_yes[name]:>6}  {skipped[name]:>7}"
        )
    print()
    if disagreements:
        print(f"DISAGREEMENTS ({len(disagreements)}):")
        for trial, name in disagreements[:20]:
            print(f"  trial {trial}: {name}")
        return 1
    print(f"{args.trials} trials, scalar and matrix verdicts always agreed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Verdicts that provably cannot change under a transformation do not.

Factored input (spec, R) represents A = R J R^-1. The factors (spec, D P R),
with D a positive diagonal and P a permutation, represent the similar matrix
(D P) A (D P)^-1, which has the strong Perron-Frobenius property exactly when
A does: the spectrum is the same and rho's eigenvector D P x is positive
exactly when x is. D = diag(2^k) keeps every product exact. f(A)'s
report, at a tolerance, may not resolve the moved factors' Perron vector,
but that refusal comes only after A's report held.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matfrob import (
    MatFrobError,
    Monomial,
    PreconditionError,
    RealJordanFactors,
    verify_preservation_theorem,
)
from matfrob.sampling import random_pf_factors


def factored_verdict(factors):
    """A's verdict as verify_preservation_theorem reports it: the failed
    conditions named by its refusal, or "holds"."""
    try:
        verify_preservation_theorem(factors, Monomial(1))
    except PreconditionError as exc:
        return str(exc)
    except MatFrobError as exc:
        assert str(exc).startswith("the comparison is unresolved"), exc
    return "holds"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.integers(1, 3), data=st.data())
def test_factored_verdict_under_diagonal_and_permutation_similarity(seed, block, data):
    rng = np.random.default_rng(seed)
    factors = random_pf_factors(rng, max_dim=8, max_block_size=block)
    n = factors.spec.total_dimension
    k = np.array(data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n)))
    p = np.eye(n)[data.draw(st.permutations(range(n)))]
    dp, dp_inv = np.ldexp(p, k[:, None]), np.ldexp(p.T, -k[None, :])
    moved = RealJordanFactors(
        factors.spec, dp @ factors.transform, factors.transform_inverse @ dp_inv
    )
    assert factored_verdict(moved) == factored_verdict(factors) == "holds"

"""Every public entry that takes a matrix refuses malformed input alike.

core.square_matrix is the one validator; each entry below calls it at its
own entry, so each input gets one exception class and one message from
every entry, whatever that entry goes on to compute.
"""

import math

import numpy as np
import pytest

from matfrob import (
    Exp,
    JordanSpec,
    PreconditionError,
    RealJordanFactors,
    eventually_positive_check,
    extract_diagonalizable_structure,
    power_threshold,
    strong_pf_check,
    synthesize_matrix,
    taylor_oracle,
)
from matfrob.core import condition_estimate, eigen_decompose, mat_inverse

ONE = JordanSpec(real_blocks=((1.0, 1),))

ENTRIES = {
    "strong_pf_check": strong_pf_check,
    "eventually_positive_check": eventually_positive_check,
    "power_threshold": lambda a: power_threshold(a, 64),
    "taylor_oracle": lambda a: taylor_oracle(a, Exp()),
    "extract_diagonalizable_structure": extract_diagonalizable_structure,
    "synthesize_matrix": lambda a: synthesize_matrix(ONE, a),
    "RealJordanFactors.transform": lambda a: RealJordanFactors(ONE, a, np.eye(1)),
    "RealJordanFactors.transform_inverse": lambda a: RealJordanFactors(ONE, np.eye(1), a),
    "mat_inverse": mat_inverse,
    "condition_estimate": condition_estimate,
    "eigen_decompose": eigen_decompose,
}

INPUTS = {
    "empty": (
        np.zeros((0, 0)),
        PreconditionError,
        "expected a nonempty matrix, got shape (0, 0)",
    ),
    "2x3": (
        np.ones((2, 3)),
        PreconditionError,
        "expected a square matrix, got shape (2, 3)",
    ),
    "1-d": (
        np.ones(3),
        PreconditionError,
        "expected a 2-d matrix, got shape (3,)",
    ),
    "nan": (
        np.array([[1.0, math.nan], [0.0, 1.0]]),
        PreconditionError,
        "expected a finite matrix, got nan at [0, 1]",
    ),
    "inf": (
        np.array([[1.0, 0.0], [math.inf, 1.0]]),
        PreconditionError,
        "expected a finite matrix, got inf at [1, 0]",
    ),
    "complex": (
        np.array([[1.0, 1j], [0.0, 1.0]]),
        ValueError,
        "expected a real matrix, got nonzero imaginary entries",
    ),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("given", INPUTS)
def test_every_entry_refuses_alike(entry, given):
    a, cls, message = INPUTS[given]
    with pytest.raises(Exception) as exc:
        ENTRIES[entry](a)
    assert (exc.type, str(exc.value)) == (cls, message)

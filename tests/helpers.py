"""Shared test utilities: spectrum comparison, function catalogues, call
counts, strict JSON."""

import json

import numpy as np

import matfrob.perron
from matfrob import (
    Abs,
    Exp,
    JordanSpec,
    Monomial,
    Polynomial,
    PrincipalRoot,
    ScaledSum,
    SpectralFunction,
)


def assert_multiset_close(actual, expected, atol=1e-7):
    """Greedy nearest matching of two complex multisets."""
    actual = [complex(z) for z in actual]
    remaining = [complex(z) for z in expected]
    assert len(actual) == len(remaining), (actual, remaining)
    for z in actual:
        j = min(range(len(remaining)), key=lambda k: abs(z - remaining[k]))
        assert abs(z - remaining[j]) <= atol, (z, remaining[j], atol)
        remaining.pop(j)


def differentiable_catalogue():
    return [
        Exp(),
        Monomial(1),
        Monomial(2),
        Monomial(3),
        Monomial(4),
        PrincipalRoot(2),
        PrincipalRoot(3),
        Polynomial((0.5, 1.0, 0.25)),
        ScaledSum(((0.5, Exp()), (1.0, Polynomial((1.0, 2.0))))),
    ]


def full_catalogue():
    return differentiable_catalogue() + [Abs()]


NEGATE = ScaledSum(((-1.0, Monomial(1)),))


def random_domain_points(rng, f, count, radius=2.0):
    """Random complex points inside f's domain, away from branch cuts."""
    pts = []
    excludes_cut = not f.defined_at(0.0)
    while len(pts) < count:
        r = rng.uniform(0.3, radius)
        theta = rng.uniform(-np.pi, np.pi)
        z = complex(r * np.cos(theta), r * np.sin(theta))
        if excludes_cut and abs(z.imag) < 1e-3 * max(1.0, abs(z.real)):
            continue
        if not f.defined_at(z):
            continue
        pts.append(z)
    return pts


def spec_at(points, size):
    """A spec with one block of the given size at each point: a real block
    at a real point, a pair block at any other (keyed by its upper half)."""
    points = [complex(z) for z in points]
    return JordanSpec(
        tuple((z.real, size) for z in points if not z.imag),
        tuple((z if z.imag > 0 else z.conjugate(), size) for z in points if z.imag),
    )


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    return json.loads(text, parse_constant=refuse)


def split_double_eigenvalue_matrix(seed=70, lam=1.0):
    """A = R diag(3, lam, lam, mu) R^-1 whose semisimple double eigenvalue
    lam LAPACK returns as a conjugate pair with imaginary parts of rounding
    size.

    R = Q diag(d) with Q orthogonal (QR of a seeded Gaussian), d ~ U(0.6, 1.8)
    and mu ~ U(-2, 2). Returns (A, R, eigenvalues). The split is asserted
    here, because a case where LAPACK returns 1 twice as real tests nothing.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    r = q * rng.uniform(0.6, 1.8, 4)
    lams = np.array([3.0, lam, lam, rng.uniform(-2.0, 2.0)])
    a = r @ np.diag(lams) @ np.linalg.inv(r)
    w = np.linalg.eig(a)[0]
    rho = np.max(np.abs(w))
    split = (np.abs(w.imag) > 0.0) & (np.abs(w.imag) <= 1e-12 * rho)
    assert np.count_nonzero(split) == 2, w
    return a, r, lams


def count_scalar_calls(monkeypatch):
    """Record (f, z, order) for every eval/deriv call not made from inside
    another (an eval is order 0); returns the list."""
    calls = []
    depth = [0]

    def counting(original):
        def wrapper(self, z, *order):
            if not depth[0]:
                calls.append((self, complex(z), int(order[0]) if order else 0))
            depth[0] += 1
            try:
                return original(self, z, *order)
            finally:
                depth[0] -= 1

        return wrapper

    for name in ("eval", "deriv"):
        monkeypatch.setattr(
            SpectralFunction, name, counting(getattr(SpectralFunction, name))
        )
    return calls


def count_svd_calls(monkeypatch):
    """Record the operand shape of every np.linalg.svd call; returns the list."""
    calls = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


class MatmulRecorder(np.ndarray):
    """Array view that records the operand dtypes of each matmul it joins."""

    dtypes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(np.asarray(x) for x in inputs)
        if ufunc is np.matmul:
            MatmulRecorder.dtypes.append(tuple(x.dtype for x in inputs))
        return getattr(ufunc, method)(*inputs, **kwargs)


def count_power_products(monkeypatch):
    """Record every matrix product perron.power_threshold forms; returns the
    list. Whatever _power_of_two_scaled returns becomes a recording view, and
    every product has such an operand: the scaled A or a rescaled power."""
    scale = matfrob.perron._power_of_two_scaled
    MatmulRecorder.dtypes = []
    monkeypatch.setattr(
        matfrob.perron,
        "_power_of_two_scaled",
        lambda a, size: scale(a, size).view(MatmulRecorder),
    )
    return MatmulRecorder.dtypes

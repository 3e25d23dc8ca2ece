from fractions import Fraction
from math import comb

import numpy as np
import pytest

from bezproj import bernstein
from oracles import (
    bernstein_design_ref,
    exact_bernstein_proj,
    fraction_inverse_ref,
    gauss_panels,
)


def test_eval_basis_matches_binomial_formula(rng):
    for p in range(1, 7):
        xi = rng.uniform(-1, 1, size=17)
        got = np.stack([bernstein.eval_basis(p, x) for x in xi])
        assert np.allclose(got, bernstein_design_ref(p, xi), atol=1e-14)


def test_eval_basis_partition_of_unity_and_endpoints():
    for p in range(1, 8):
        for x in np.linspace(-1, 1, 11):
            vals = bernstein.eval_basis(p, x)
            assert vals.shape == (p + 1,)
            assert np.all(vals >= -1e-15)
            assert abs(vals.sum() - 1) < 1e-14
        lo = bernstein.eval_basis(p, -1.0)
        hi = bernstein.eval_basis(p, 1.0)
        assert lo[0] == pytest.approx(1) and abs(lo[1:]).max() < 1e-15
        assert hi[-1] == pytest.approx(1) and abs(hi[:-1]).max() < 1e-15


def test_eval_basis_rejects_points_outside_biunit():
    with pytest.raises(ValueError):
        bernstein.eval_basis(2, 1.5)
    with pytest.raises(ValueError):
        bernstein.eval_basis(2, -1.0000001)


@pytest.mark.parametrize("p", [True, 2.0, -1], ids=["bool", "float", "negative"])
def test_degrees_are_nonnegative_integers(p):
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        bernstein.gramian(p)


def test_bernstein_integral_matches_quadrature():
    for p in range(1, 6):
        a, b = -0.3, 1.7
        for j in range(p + 1):
            val = gauss_panels(
                lambda x: bernstein_design_ref(p, 2 * (x - a) / (b - a) - 1)[:, j],
                a, b,
            )
            # the Bernstein functions sum to one, so a Gramian row sums
            # to the integral of its function over [-1, 1]
            assert val == pytest.approx(0.5 * (b - a) * bernstein.gramian(p)[j].sum())


def test_gramian_against_quadrature():
    for p in range(1, 7):
        G = bernstein.gramian(p)
        for j in range(p + 1):
            for k in range(p + 1):
                ref = gauss_panels(
                    lambda x: bernstein_design_ref(p, x)[:, j]
                    * bernstein_design_ref(p, x)[:, k],
                    -1.0, 1.0,
                )
                assert G[j, k] == pytest.approx(ref, abs=1e-14)


def test_gramian_quadratic_golden():
    G = bernstein.gramian(2)
    expect = np.array(
        [
            [2 / 5, 1 / 5, 1 / 15],
            [1 / 5, 4 / 15, 1 / 5],
            [1 / 15, 1 / 5, 2 / 5],
        ]
    )
    assert np.array_equal(np.round(G, 15), np.round(expect, 15))


def test_gramian_inverse_is_inverse():
    for p in range(1, 6):
        Gi = bernstein.gramian_inverse(p)
        assert np.allclose(Gi @ bernstein.gramian(p), np.eye(p + 1), atol=1e-10)
    with pytest.warns(RuntimeWarning):
        Gi = bernstein.gramian_inverse(7)
    assert np.allclose(Gi @ bernstein.gramian(7), np.eye(8), atol=1e-6)


def test_gramian_inverse_multi_tensorizes():
    Gi = bernstein.gramian_inverse_multi((2, 3))
    expect = np.kron(bernstein.gramian_inverse(3), bernstein.gramian_inverse(2))
    assert np.allclose(Gi, expect, atol=1e-12)
    G = np.kron(bernstein.gramian(3), bernstein.gramian(2))
    assert np.allclose(Gi @ G, np.eye(12), atol=1e-10)


def test_interval_transform_reexpresses_polynomials(rng):
    # q = A c holds the window-local coefficients of the same polynomial
    for p in (1, 2, 3, 4):
        for a, b in ((-1.0, 0.0), (-0.2, 0.9), (-1.0, 3.0), (-6.0, 1.0)):
            A = bernstein.interval_transform(p, a, b)
            c = rng.normal(size=p + 1)
            q = A @ c
            for xi in rng.uniform(-1, 1, size=5):
                x = 0.5 * ((1 - xi) * a + (1 + xi) * b)
                lhs = bernstein_design_ref(p, np.array([xi]))[0] @ q
                rhs = bernstein_design_ref(p, np.array([x]))[0] @ c
                assert lhs == pytest.approx(rhs, abs=1e-11)


def test_interval_transform_rows():
    for p in (1, 2, 3):
        A = bernstein.interval_transform(p, -0.4, 0.7)
        assert np.allclose(A.sum(axis=1), 1, atol=1e-13)
        assert np.allclose(A[0], bernstein_design_ref(p, np.array([-0.4]))[0])
        assert np.allclose(A[p], bernstein_design_ref(p, np.array([0.7]))[0])


def test_interval_transform_needs_ordered_window():
    with pytest.raises(ValueError):
        bernstein.interval_transform(2, 0.5, 0.5)
    with pytest.raises(ValueError):
        bernstein.interval_transform(2, 0.5, -0.5)


def test_interval_transform_golden_halves():
    A_l = bernstein.interval_transform(2, -1.0, 0.0)
    A_r = bernstein.interval_transform(2, 0.0, 1.0)
    assert np.allclose(A_l, [[1, 0, 0], [0.5, 0.5, 0], [0.25, 0.5, 0.25]], atol=0)
    assert np.allclose(A_r, [[0.25, 0.5, 0.25], [0, 0.5, 0.5], [0, 0, 1]], atol=0)


def test_interval_transform_inverse_undoes_restriction(rng):
    # the inverse is the same kernel on the reciprocal window
    for p in (1, 2, 3):
        for a, b in ((-1.0, 0.2), (-0.5, 1.0), (-0.3, 0.4)):
            ra = (-2 - a - b) / (b - a)
            rb = (2 - a - b) / (b - a)
            A = bernstein.interval_transform(p, a, b)
            Ai = bernstein.interval_transform(p, ra, rb)
            assert np.allclose(Ai @ A, np.eye(p + 1), atol=1e-10)
            assert np.allclose(A @ Ai, np.eye(p + 1), atol=1e-10)


def test_elevation_matrix_golden():
    E = bernstein.elevation_matrix(3, 4)
    expect = np.array(
        [
            [1, 1 / 4, 0, 0, 0],
            [0, 3 / 4, 1 / 2, 0, 0],
            [0, 0, 1 / 2, 3 / 4, 0],
            [0, 0, 0, 1 / 4, 1],
        ]
    )
    assert np.allclose(E, expect, atol=1e-15)


def test_elevation_matrix_is_correctly_rounded():
    """E[i, i+k] = C(p,i) C(q-p,k) / C(q,i+k), one rounding per entry;
    chained float step matrices missed it in 389 entries up to q = 11."""
    for q in range(12):
        for p in range(q + 1):
            E = bernstein.elevation_matrix(p, q)
            ref = np.zeros((p + 1, q + 1))
            for i in range(p + 1):
                for k in range(q - p + 1):
                    ref[i, i + k] = float(Fraction(comb(p, i) * comb(q - p, k), comb(q, i + k)))
            assert np.array_equal(E, ref), (p, q)


def test_elevation_expresses_low_degree_basis_exactly(rng):
    for p, q in ((1, 2), (2, 4), (3, 5)):
        E = bernstein.elevation_matrix(p, q)
        xi = rng.uniform(-1, 1, size=9)
        lhs = bernstein_design_ref(p, xi)
        rhs = bernstein_design_ref(q, xi) @ E.T
        assert np.allclose(lhs, rhs, atol=1e-13)
        # elevated coefficients reproduce the same polynomial
        c = rng.normal(size=p + 1)
        assert np.allclose(
            bernstein_design_ref(q, xi) @ (E.T @ c), lhs @ c, atol=1e-13
        )


def test_elevation_rejects_downward():
    with pytest.raises(ValueError):
        bernstein.elevation_matrix(3, 2)


def test_reduction_matrix_golden():
    D = bernstein.reduction_matrix(3, 2)
    expect = np.array(
        [[19, -5, 1], [3, 15, -3], [-3, 15, 3], [1, -5, 19]], dtype=float
    ) / 20.0
    assert np.allclose(D, expect, atol=1e-14)


def test_reduction_is_left_inverse_of_elevation(rng):
    for p, q in ((2, 1), (3, 2), (4, 2), (5, 3)):
        E = bernstein.elevation_matrix(q, p)
        D = bernstein.reduction_matrix(p, q)
        assert np.allclose(E @ D, np.eye(q + 1), atol=1e-11)
        c = rng.normal(size=q + 1)
        assert np.allclose(D.T @ (E.T @ c), c, atol=1e-11)


def test_reduction_rejects_upward():
    with pytest.raises(ValueError):
        bernstein.reduction_matrix(2, 3)


def test_reduction_near_best_l2(rng):
    # reducing a cubic to a quadratic lands close to the L2-best quadratic
    c = rng.normal(size=4)
    D = bernstein.reduction_matrix(3, 2)
    got = D.T @ c

    def f(x):
        return bernstein_design_ref(3, np.asarray(x)) @ c

    best = exact_bernstein_proj(f, -1.0, 1.0, 2)
    # the l2-best coefficients are the L2-best polynomial (Lutterkort,
    # Peters & Reif 1999), so the two agree to rounding
    assert np.max(np.abs(got - best)) <= 1e-12 * np.max(np.abs(c))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reduction_matrix_is_correctly_rounded():
    """D = M G_q^{-1}, M the mixed Gramian, one rounding per entry;
    chained float pseudoinverse steps missed it in 2295 entries up to p = 11."""
    for p in range(12):
        for q in range(p):
            G = [[Fraction(2 * comb(q, j) * comb(q, k), (2 * q + 1) * comb(2 * q, j + k))
                  for k in range(q + 1)] for j in range(q + 1)]
            M = [[Fraction(2 * comb(p, i) * comb(q, k), (p + q + 1) * comb(p + q, i + k))
                  for k in range(q + 1)] for i in range(p + 1)]
            Gi = fraction_inverse_ref(G)
            ref = [[float(sum(m * g for m, g in zip(row, col))) for col in zip(*Gi)] for row in M]
            assert np.array_equal(bernstein.reduction_matrix(p, q), ref), (p, q)


def test_condition_warning_raised_beyond_degree_five():
    for fn in (
        lambda: bernstein.gramian_inverse(6),
        lambda: bernstein.interval_transform(6, -1, 0),
        lambda: bernstein.reduction_matrix(6, 5),
    ):
        with pytest.warns(RuntimeWarning):
            fn()

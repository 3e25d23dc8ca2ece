"""The numpy evaluation kernels must agree with independent references
(closed-form Bernstein values and scipy's B-spline design matrix)."""

import numpy as np

from bezproj.bernstein import bernstein_matrix
from bezproj.spline_space import bspline_basis_matrix
from oracles import bernstein_design_ref, bspline_design, random_open_kv


def test_bernstein_matrix_matches_reference(rng):
    for p in range(1, 7):
        xi = rng.uniform(-1, 1, size=23)
        assert np.allclose(bernstein_matrix(p, xi), bernstein_design_ref(p, xi), atol=1e-14)


def test_bernstein_matrix_allows_points_outside_biunit(rng):
    xi = np.array([-2.5, 1.75, 3.0])
    got = bernstein_matrix(3, xi)
    assert np.allclose(got, bernstein_design_ref(3, xi), atol=1e-11)


def test_bspline_basis_matrix_matches_scipy(rng):
    for p in (1, 2, 3, 4):
        for _ in range(4):
            kv = random_open_kv(rng, p)
            xs = np.concatenate(
                [rng.uniform(kv[0], kv[-1], size=40), [kv[0], kv[-1]]]
            )
            got = bspline_basis_matrix(kv, p, xs)
            ref = bspline_design(kv, p, xs)
            assert np.allclose(got, ref, atol=1e-12)
            assert np.allclose(got.sum(axis=1), 1, atol=1e-12)

"""Property tests of the one extraction routine behind the float and exact
paths, on random open knot vectors with random multiplicities: against
each other and against knot insertion (Algorithm 1)."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bezier_extraction_ref, fraction_inverse_ref

from bezproj.spline_space import KnotVector, univariate_extraction_exact


@st.composite
def open_knot_vectors(draw):
    p = draw(st.integers(1, 5))
    den = draw(st.integers(2, 64))
    interior = draw(st.lists(st.integers(1, den - 1), unique=True, max_size=6))
    knots = [Fraction(0)] * (p + 1)
    for t in sorted(interior):
        knots += [Fraction(t, den)] * draw(st.integers(1, p))
    knots += [Fraction(1)] * (p + 1)
    return knots, p


@settings(max_examples=200, deadline=None)
@given(open_knot_vectors())
def test_extraction_float_and_exact_agree_and_invert(case):
    knots, p = case
    exact = univariate_extraction_exact(knots, p)
    floats = KnotVector([float(t) for t in knots], p).extraction()
    assert len(exact) == len(floats) == len(set(knots)) - 1
    identity = [[Fraction(int(i == j)) for j in range(p + 1)] for i in range(p + 1)]
    for Cq, C in zip(exact, floats):
        assert np.allclose(np.array(Cq, dtype=float), C, rtol=0, atol=1e-13)
        # the element's functions sum to one, so every Bernstein column does
        assert all(sum(row[k] for row in Cq) == 1 for k in range(p + 1))
        assert np.allclose(C.sum(axis=0), 1, rtol=0, atol=1e-13)
        R = fraction_inverse_ref(Cq)
        CR = [
            [sum(Cq[i][k] * R[k][j] for k in range(p + 1)) for j in range(p + 1)]
            for i in range(p + 1)
        ]
        assert CR == identity


@settings(max_examples=200, deadline=None)
@given(open_knot_vectors())
def test_blossom_kernel_matches_knot_insertion(case):
    knots, p = case
    assert univariate_extraction_exact(knots, p) == bezier_extraction_ref(knots, p)
    floats = [float(t) for t in knots]
    ref = np.array(bezier_extraction_ref(floats, p))
    got = KnotVector(floats, p).extraction()
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

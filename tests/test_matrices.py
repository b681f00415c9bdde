import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ptsphere.errors import DimensionMismatch, SingularMatrix
from ptsphere.exact import I, rat
from ptsphere.matrices import ExactMatrix, exact_inverse, mat_exp_numeric

from catalog_models import PARAMS, build_masa


def _rand_matrix(rng, n):
    return ExactMatrix(
        [
            [rat(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_identity_and_product():
    e = ExactMatrix.identity(3)
    m = ExactMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    assert e @ m == m
    assert m @ e == m
    assert (m - m).is_zero()


def test_det_rank_examples():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m.rank() == 2
    sing = ExactMatrix([[1, 2], [2, 4]])
    assert sing.rank() == 1


def test_exact_inverse_complex_entries():
    m = ExactMatrix([[rat(1), I], [I, rat(1)]])
    inv = exact_inverse(m)
    assert m @ inv == ExactMatrix.identity(2)


def test_exact_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        exact_inverse(ExactMatrix([[1, 1], [1, 1]]))


def test_solve_and_commutator():
    a = ExactMatrix([[0, 1], [0, 0]])
    b = ExactMatrix([[0, 0], [1, 0]])
    assert a.commutator(b) == ExactMatrix([[1, 0], [0, -1]])


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        ExactMatrix.identity(2) @ ExactMatrix.identity(3)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_random_inverse_roundtrip(seed):
    rng = random.Random(seed)
    m = _rand_matrix(rng, 3)
    if m.rank() < 3:
        with pytest.raises(SingularMatrix):
            exact_inverse(m)
    else:
        assert m @ exact_inverse(m) == ExactMatrix.identity(3)


def test_mat_exp_rotation():
    theta = 0.3
    g = np.array([[0.0, -theta], [theta, 0.0]])
    r = mat_exp_numeric(g)
    expect = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(r, expect)


@pytest.mark.parametrize("name", list(PARAMS))
def test_mat_exp_matches_scipy_on_catalog_generators(name):
    # scipy.linalg.expm is the reference only; its Pade-5 branch serves
    # 1-norms below about 0.25, so the norms straddle that switch
    Zs = [Z.to_numpy() for Z in build_masa(name).matrices]
    rng = np.random.default_rng(len(name))
    for norm in (0.01, 0.1, 0.24, 0.26, 0.5, 1.0, 2.5, 6.0):
        for _ in range(4):
            g = sum(xi * Zi for xi, Zi in zip(rng.normal(size=len(Zs)), Zs))
            g *= norm / np.abs(g).sum(axis=0).max()
            ref = scipy.linalg.expm(g)
            assert np.max(np.abs(mat_exp_numeric(g) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_mat_exp_rejects_non_square_and_non_finite():
    with pytest.raises(DimensionMismatch):
        mat_exp_numeric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mat_exp_numeric(np.array([[0.0, np.inf], [0.0, 0.0]]))

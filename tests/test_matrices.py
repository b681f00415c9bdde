import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ptsphere.errors import DimensionMismatch, SingularMatrix
from ptsphere.exact import ZERO, Exact, I, rat
from ptsphere.matrices import ExactMatrix, exact_inverse, mat_exp_numeric, row_reduce

from catalog_models import PARAMS, build_masa
import gauss_jordan_reference


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


SQRT2 = Exact.sqrt_rational(2)


def _rand_scalar(rng, radical):
    if rng.random() < 0.3:
        return ZERO
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    x = rat(q(), q())
    return x + rat(q(), q()) * SQRT2 if radical else x


def _rand_rows(rng, r, c, radical):
    return ExactMatrix([[_rand_scalar(rng, radical) for _ in range(c)] for _ in range(r)])


def _rand_system(rng, kind, radical):
    """Augmented rows [A | B] and the number of columns of A."""
    r, c = {"square": (5, 5), "over": (7, 4), "deficient": (6, 5),
            "inconsistent": (6, 3), "zero rows": (6, 4), "gap": (5, 4), "wide": (3, 6)}[kind]
    if kind == "deficient":
        A = _rand_rows(rng, r, 2, radical) @ _rand_rows(rng, 2, c, radical)
    else:
        A = _rand_rows(rng, r, c, radical)
    if kind == "zero rows":
        A = ExactMatrix([row if i % 3 else [ZERO] * c for i, row in enumerate(A.entries)])
    if kind == "gap":  # column 1 gets no pivot, the columns after it do
        A = ExactMatrix([[x, x * 3, *rest] for x, _, *rest in A.entries])
    B = A @ _rand_rows(rng, c, 2, radical)
    if kind == "inconsistent":
        B = B + _rand_rows(rng, r, 2, radical)
    if kind == "square":  # [A | I], as exact_inverse reduces it
        B = ExactMatrix.identity(r)
    return [list(a) + list(b) for a, b in zip(A.entries, B.entries)], c


@pytest.mark.parametrize("radical", [False, True], ids=["Q(i)", "Q(i,sqrt2)"])
def test_row_reduce_matches_gauss_jordan(radical):
    rng = random.Random(2026 + radical)
    kinds = ["square", "over", "deficient", "inconsistent", "zero rows", "gap", "wide"]
    cases = [_rand_system(rng, kind, radical) for kind in kinds for _ in range(4)]
    cases += [([], 3), ([[ZERO] * 4] * 3, 3)]
    for rows, ncols in cases:
        got_rows, got_pivots = row_reduce(rows, ncols)
        ref_rows, ref_pivots = gauss_jordan_reference.row_reduce(rows, ncols)
        assert got_pivots == ref_pivots
        # every row equal: the pivot rows, and the rows past the pivots, so
        # also whether those are zero (an inconsistent fit)
        assert got_rows == ref_rows


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

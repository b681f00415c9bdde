from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ptsphere.errors import DimensionMismatch, UnsupportedOrder, UnsupportedRank
from ptsphere.exact import I, Exact, rat
from ptsphere.lie import (
    EnvElement,
    U2_SYMMETRIC,
    U3_SYMMETRIC,
    anticommutator,
    build_generators,
    casimir_element,
    env_commutator,
    pbw_normal_form,
    verify_structure_constants,
)
from ptsphere.matrices import ExactMatrix


@pytest.fixture(scope="module")
def u2():
    return build_generators(2)


@pytest.fixture(scope="module")
def u3():
    return build_generators(3)


def test_structure_constants_pass(u2, u3):
    for basis in (u2, u3):
        rep = verify_structure_constants(basis)
        assert rep.passed, rep.mismatches
        assert rep.mismatches == []
    assert verify_structure_constants(u2).checked >= 4
    assert verify_structure_constants(u3).checked >= 28


def test_unsupported_rank():
    with pytest.raises(UnsupportedRank):
        build_generators(4)


def test_symmetry_flags_match_matrices(u2, u3):
    for basis, flags in ((u2, U2_SYMMETRIC), (u3, U3_SYMMETRIC)):
        for m, flag in zip(basis.generators, flags):
            assert m.is_symmetric() == flag


def test_brackets_close_in_basis(u2, u3):
    # every commutator of basis elements must expand exactly in the basis
    for basis in (u2, u3):
        n = basis.size
        for i in range(n):
            for j in range(n):
                coeffs = basis.bracket_coeffs(i, j)
                m = basis.generators[i].commutator(basis.generators[j])
                acc = None
                for idx, c in coeffs.items():
                    term = basis.generators[idx].scale(c)
                    acc = term if acc is None else acc + term
                if acc is None:
                    assert m.is_zero()
                else:
                    assert (m - acc).is_zero()


_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
_entries = st.tuples(_rationals, _rationals, _rationals).map(
    lambda t: rat(t[0]) + I * rat(t[1]) + Exact.sqrt_rational(2) * rat(t[2])
)
_square = st.sampled_from([2, 3]).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(_square)
@settings(max_examples=100, deadline=None)
def test_expand_in_basis_round_trip(rows):
    # Gaussian-rational plus sqrt(2) entries: sum_k c_k X_k rebuilds m, and
    # only nonzero coefficients are stored
    m = ExactMatrix(rows)
    basis = build_generators(m.rows)
    coeffs = basis.expand_in_basis(m)
    assert not any(c.is_zero() for c in coeffs.values())
    acc = ExactMatrix.zero(m.rows, m.rows)
    for k, c in coeffs.items():
        acc = acc + basis.generators[k].scale(c)
    assert acc == m


@pytest.mark.parametrize("n", [2, 4])
def test_expand_in_basis_rejects_a_matrix_of_another_size(u3, n):
    with pytest.raises(DimensionMismatch):
        u3.expand_in_basis(ExactMatrix.identity(n))


def test_pbw_normal_form_sorts_words(u2):
    x = EnvElement.gen(2) * EnvElement.gen(1)
    nf = pbw_normal_form(x, u2)
    for word in nf.terms:
        assert list(word) == sorted(word)
    # X2 X1 = X1 X2 - [X1, X2] reordering must preserve the commutator
    direct = env_commutator(EnvElement.gen(1), EnvElement.gen(2), u2)
    resum = pbw_normal_form(EnvElement.gen(1) * EnvElement.gen(2) - x, u2)
    assert resum == pbw_normal_form(direct, u2)


def test_env_commutator_bilinear(u2):
    a = EnvElement.gen(1).scale(rat(Fraction(2, 3)))
    b = EnvElement.gen(2) + EnvElement.gen(3)
    lhs = env_commutator(a, b, u2)
    rhs = (
        env_commutator(EnvElement.gen(1), EnvElement.gen(2), u2)
        + env_commutator(EnvElement.gen(1), EnvElement.gen(3), u2)
    ).scale(rat(Fraction(2, 3)))
    assert pbw_normal_form(lhs, u2) == pbw_normal_form(rhs, u2)


def test_anticommutator_symmetric(u2):
    a, b = EnvElement.gen(1), EnvElement.gen(2)
    assert pbw_normal_form(anticommutator(a, b), u2) == pbw_normal_form(
        anticommutator(b, a), u2
    )


@pytest.mark.parametrize("n, order", [(2, 2), (3, 2), (3, 3)], ids=["2", "3", "3-cubic"])
def test_quadratic_casimir_is_central(n, order):
    basis = build_generators(n)
    c = casimir_element(order, basis)
    for i in range(basis.size):
        comm = env_commutator(c, EnvElement.gen(i), basis)
        assert pbw_normal_form(comm, basis).is_zero()


def test_casimir_order_guard(u2):
    with pytest.raises(UnsupportedOrder):
        casimir_element(5, u2)

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ptsphere import lie
from ptsphere.errors import DimensionMismatch, UnsupportedOrder, UnsupportedRank
from ptsphere.exact import I, Exact, rat
from ptsphere.lie import (
    EnvElement,
    build_generators,
    casimir_element,
    env_commutator,
    pbw_normal_form,
)
from ptsphere.matrices import ExactMatrix

import pbw_reference
import structure_reference

i = I
# the printed bases, in their printed order, and which of them are symmetric
U2_PRINTED = [
    [[i, 0], [0, i]],    # X0 = i*sigma_0
    [[0, i], [i, 0]],    # X1 = i*sigma_1
    [[0, 1], [-1, 0]],   # X2 = i*sigma_2
    [[i, 0], [0, -i]],   # X3 = i*sigma_3
]
U3_PRINTED = [
    [[i, 0, 0], [0, i, 0], [0, 0, i]],     # X0
    [[i, 0, 0], [0, -i, 0], [0, 0, 0]],    # X1
    [[0, 0, 0], [0, i, 0], [0, 0, -i]],    # X2
    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],    # X3
    [[0, i, 0], [i, 0, 0], [0, 0, 0]],     # X4
    [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],    # X5
    [[0, 0, i], [0, 0, 0], [i, 0, 0]],     # X6
    [[0, 0, 0], [0, 0, 1], [0, -1, 0]],    # X7
    [[0, 0, 0], [0, 0, i], [0, i, 0]],     # X8
]
U2_SYMMETRIC = (True, True, False, True)
U3_SYMMETRIC = (True, True, True, False, True, False, True, False, True)


def _printed_casimirs():
    """The printed su(2) and su(3) quadratic Casimirs and the su(3) cubic."""
    X = [EnvElement.gen(k) for k in range(9)]

    def anticommutator(a, b):
        return a * b + b * a

    c2_u2 = (X[1] * X[1] + X[2] * X[2] + X[3] * X[3]).scale(2)
    c2_u3 = (X[1] * X[1] + X[2] * X[1] + X[2] * X[2]).scale(4)
    for k in range(3, 9):
        c2_u3 = c2_u3 + (X[k] * X[k]).scale(3)
    c3 = (X[8] * X[6] + X[7] * X[5]) * X[4]
    c3 = c3 + (X[8] * X[5] - X[7] * X[6]) * X[3]
    c3 = c3 + ((X[1] - X[2]) * (X[1].scale(2) + X[2]) * (X[1] + X[2].scale(2))).scale(
        Fraction(4, 27)
    )
    c3 = c3 + anticommutator(X[1] + X[2].scale(2), X[3] * X[3] + X[4] * X[4]).scale(
        Fraction(1, 6)
    )
    c3 = c3 + anticommutator(X[1] - X[2], X[5] * X[5] + X[6] * X[6]).scale(Fraction(1, 6))
    c3 = c3 - anticommutator(X[1].scale(2) + X[2], X[7] * X[7] + X[8] * X[8]).scale(
        Fraction(1, 6)
    )
    c3 = c3 - (X[1] - X[2]).scale(Fraction(4, 3))
    return c2_u2, c2_u3, c3


@pytest.fixture(scope="module")
def u2():
    return build_generators(2)


@pytest.fixture(scope="module")
def u3():
    return build_generators(3)


def test_structure_constants_pass(u2, u3):
    # every printed table entry, and X0 central
    for basis in (u2, u3):
        assert structure_reference.mismatches(basis) == []
    assert len(structure_reference.U2_TABLE) == 3
    assert len(structure_reference.U3_TABLE) == 27


def test_unsupported_rank():
    # refused before any matrix is built: u(10^6) would take 10^12 of them
    for n in (1, 4, 10**6):
        with pytest.raises(UnsupportedRank):
            build_generators(n)


def test_generated_bases_are_the_printed_ones(u2, u3):
    for basis, printed in ((u2, U2_PRINTED), (u3, U3_PRINTED)):
        assert basis.generators == tuple(ExactMatrix(m) for m in printed)


def test_symmetry_flags_match_matrices(u2, u3):
    for basis, flags in ((u2, U2_SYMMETRIC), (u3, U3_SYMMETRIC)):
        assert basis.symmetric_flags == flags
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


@pytest.mark.parametrize("n, order", [(2, 2), (3, 2), (3, 3)], ids=["2", "3", "3-cubic"])
def test_quadratic_casimir_is_central(n, order):
    basis = build_generators(n)
    c = casimir_element(order, basis)
    for i in range(basis.size):
        comm = env_commutator(c, EnvElement.gen(i), basis)
        assert pbw_normal_form(comm, basis).is_zero()


def test_quadratic_casimirs_are_the_printed_ones(u2, u3):
    c2_u2, c2_u3, _ = _printed_casimirs()
    assert casimir_element(2, u2) == pbw_normal_form(c2_u2, u2)
    assert casimir_element(2, u3) == pbw_normal_form(c2_u3, u3)
    assert casimir_element(2, u3) is casimir_element(2, u3)  # built once


def test_printed_cubic_casimir_is_the_gelfand_cubic(u3):
    # printed = -(4i/3) G3 - (i/3) C2, exactly, in PBW normal form
    _, _, printed = _printed_casimirs()
    G3, C2 = casimir_element(3, u3), casimir_element(2, u3)
    combo = G3.scale(rat(0, Fraction(-4, 3))) + C2.scale(rat(0, Fraction(-1, 3)))
    assert pbw_normal_form(printed, u3) == pbw_normal_form(combo, u3)


def test_casimir_order_guard(u2):
    for order in (0, 1, 4, 5):
        with pytest.raises(UnsupportedOrder):
            casimir_element(order, u2)


@pytest.mark.parametrize("n, order", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_casimirs_equal_the_unmemoised_rewriting(n, order, monkeypatch):
    basis = build_generators(n)
    kept = casimir_element(order, basis)
    monkeypatch.setattr(lie, "pbw_normal_form", pbw_reference.pbw_normal_form)
    assert casimir_element.__wrapped__(order, basis) == kept


def test_kept_rewrites_equal_the_unmemoised_recursion(u2, u3):
    # every u(2) word of length 4, then 60 random u(3) words of length 3 and
    # 4, each rewritten after its subwords were kept by earlier ones
    words = [(u2, (a, b, c, d)) for a in range(4) for b in range(4) for c in range(4)
             for d in range(4)]
    rng = random.Random(5)
    words += [(u3, tuple(rng.randrange(9) for _ in range(rng.choice((3, 4)))))
              for _ in range(60)]
    for basis, word in words:
        e = EnvElement({word: rat(Fraction(2, 3), 1)})
        assert pbw_normal_form(e, basis) == pbw_reference.pbw_normal_form(e, basis), word


def test_a_second_casimir_lookup_hashes_no_matrix(u3, monkeypatch):
    # the basis keeps its hash, so a cached Casimir is found without hashing
    # the n^2 generator matrices again
    for order in (2, 3):
        casimir_element(order, u3)
    calls = []
    real = ExactMatrix.__hash__
    monkeypatch.setattr(ExactMatrix, "__hash__", lambda self: calls.append(1) or real(self))
    assert casimir_element(2, u3) is casimir_element(2, u3)
    casimir_element(3, u3)
    assert calls == []
    assert hash(u3) == hash((u3.n, u3.generators, u3.symmetric_flags)) and calls

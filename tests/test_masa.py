import json
from fractions import Fraction

import pytest

from ptsphere.errors import (
    DimensionMismatch,
    NotPTCompatible,
    ParamOutOfRange,
    UnknownName,
    UnsupportedRank,
)
from ptsphere.exact import I, ZERO
from ptsphere.matrices import ExactMatrix
from ptsphere.phase import SignedPermutation
from ptsphere.masa import (
    MasaSpec,
    catalog_masa,
    classify_pt,
    lambda_frame,
    load_masa_file,
    masa_from_coeffs,
    symmetric_basis_indices,
    validate_masa,
)

from catalog_models import build_masa, models
import exact_products_reference
from lambda_reference import degenerate_rows, lambda_rows


@pytest.mark.parametrize("name,kw", models())
def test_catalog_models_validate(name, kw):
    m = catalog_masa(name, **kw)
    rep = validate_masa(m)
    assert rep.passed, rep.failures
    assert rep.failures == []


@pytest.mark.parametrize("name,kw", models())
def test_catalog_models_pt_compatible(name, kw):
    m = catalog_masa(name, **kw)
    signs = classify_pt(m, m.parity)
    assert all(e == -1 for e in signs)


def test_catalog_rejects_unknown_name():
    with pytest.raises(UnknownName):
        catalog_masa("not-a-model")
    with pytest.raises(UnknownName):
        catalog_masa("nilpotent", a=Fraction(5))


def test_lambda_parameter_range():
    with pytest.raises(ParamOutOfRange):
        catalog_masa("lambda", lambda2=Fraction(3, 4))
    with pytest.raises(ParamOutOfRange):
        catalog_masa("lambda", lambda2=Fraction(-1, 10))
    # the boundary value has its own rescaled basis under a separate name
    with pytest.raises(ParamOutOfRange):
        catalog_masa("lambda", lambda2=Fraction(1, 2))


def test_oversized_rational_parameter_raises_at_once():
    # without the bound, factoring the radicals of this value runs for minutes
    with pytest.raises(ParamOutOfRange, match="lambda2 = 1000000000039/3000000000091"):
        catalog_masa("lambda", lambda2=Fraction(1000000000039, 3000000000091))
    with pytest.raises(ParamOutOfRange, match="b = 1/1000001"):
        catalog_masa("cartan_od", b=Fraction(1, 10**6 + 1))
    # the bound itself is accepted
    assert catalog_masa("lambda", lambda2=Fraction(1, 10**6)).name == "lambda"


def test_su2ab_degenerate_guard():
    with pytest.raises(ParamOutOfRange):
        catalog_masa("su2ab", a=Fraction(0), b=Fraction(0))


def test_cartan_od_degenerate_guard():
    # at a = b = 0 the second generator is 0, so the rows are not independent;
    # cartan_od refuses the point as su2ab does, and only that point
    with pytest.raises(ParamOutOfRange, match="cannot both vanish"):
        catalog_masa("cartan_od", a=Fraction(0), b=Fraction(0))
    for a, b in ((0, 1), (1, 0)):
        assert validate_masa(catalog_masa("cartan_od", a=Fraction(a), b=Fraction(b))).passed


def test_symmetric_basis_indices():
    assert symmetric_basis_indices(2) == (0, 1, 3)
    assert symmetric_basis_indices(3) == (0, 1, 2, 4, 6, 8)
    with pytest.raises(UnsupportedRank):
        symmetric_basis_indices(5)


def test_dependent_rows_fail_validation():
    m = masa_from_coeffs(2, [[1, 0, 0], [2, 0, 0]], name="dup")
    rep = validate_masa(m)
    assert not rep.independent_ok
    assert not rep.passed


def test_noncommuting_rows_fail_validation():
    # X1 and X3 do not commute in u(2)
    m = masa_from_coeffs(2, [[0, 1, 0], [0, 0, 1]], name="bad")
    rep = validate_masa(m)
    assert not rep.commuting_ok


def _entries(*row):
    # a coefficient row of the MASA file format from (re, im) text pairs
    return [{"re": re, "im": im} for re, im in row]


def test_file_roundtrip(tmp_path):
    m = catalog_masa("cartan_od", a=Fraction(1), b=Fraction(1, 2))
    path = tmp_path / "cartan.json"
    zero = ("0", "0")
    path.write_text(json.dumps({
        "n": 3,
        "basis": "u3",
        "generators": [
            _entries(("1/3", "0"), ("2/3", "0"), ("1/3", "0"), zero, zero, zero),
            _entries(zero, zero, ("1", "0"), zero, zero, ("0", "1")),
            _entries(("2/3", "0"), ("-2/3", "0"), ("-1/3", "0"), zero, zero, zero),
        ],
        "parity": [1, 2, -3],
    }))
    m2 = load_masa_file(str(path))
    assert m2.n == m.n
    assert m2.size == m.size
    assert m2.parity == m.parity
    for a, b in zip(m.matrices, m2.matrices):
        assert (a - b).is_zero()
    assert validate_masa(m2).passed


def test_degenerate_bases_differ_by_sign_swap():
    mp = catalog_masa("degenerate_plus")
    mm = catalog_masa("degenerate_minus")
    assert validate_masa(mp).passed and validate_masa(mm).passed
    assert any((a - b).is_zero() is False for a, b in zip(mp.matrices, mm.matrices))


LAMBDA2_PINS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(2, 7), Fraction(9, 20),
                Fraction(1, 10**6)]


@pytest.mark.parametrize("lam2", LAMBDA2_PINS, ids=str)
def test_lambda_frame_gives_the_printed_rows(lam2):
    m = catalog_masa("lambda", lambda2=lam2)
    ref = masa_from_coeffs(3, lambda_rows(lam2))
    assert m.matrices == ref.matrices


@pytest.mark.parametrize("name, sign", [("degenerate_plus", 1), ("degenerate_minus", -1)])
def test_degenerate_frame_gives_the_rescaled_rows(name, sign):
    m = catalog_masa(name)
    ref = masa_from_coeffs(3, degenerate_rows(sign))
    assert m.params == (sign,)
    assert m.matrices == ref.matrices


@pytest.mark.parametrize("lam2", LAMBDA2_PINS + [Fraction(1, 2)], ids=str)
def test_lambda_frame_rows_are_orthogonal_of_square_e2(lam2):
    for sign in (1, -1):
        rows = lambda_frame(lam2, sign)
        for i, r in enumerate(rows):
            for j, q in enumerate(rows):
                dot = sum((x * y for x, y in zip(r, q)), ZERO)
                assert dot == (1 - 2 * lam2 if i == j else 0)


@pytest.mark.parametrize("name,kw", models())
def test_pt_signs_match_the_matrix_products(name, kw):
    m = build_masa(name)
    assert classify_pt(m, m.parity) == exact_products_reference.classify_pt(m, m.parity)
    # other parities, a 3-cycle among them, whose P is not its own inverse
    others = [[2, -1]] if m.n == 2 else [[-2, 1, 3], [2, 3, -1]]
    for signed in others:
        other = SignedPermutation.from_signed_indices(signed)
        try:
            expected = exact_products_reference.classify_pt(m, other)
        except NotPTCompatible as exc:
            with pytest.raises(NotPTCompatible, match=str(exc)):
                classify_pt(m, other)
        else:
            assert classify_pt(m, other) == expected


def test_a_generator_neither_even_nor_odd_is_refused(tmp_path):
    # su2ab's file with its second generator mixed, as the CLI tests write it
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({
        "n": 2,
        "basis": "u2",
        "generators": [_entries(("1", "0"), ("0", "0"), ("0", "0")),
                       _entries(("0", "0"), ("1", "-1"), ("1", "0"))],
        "parity": [1, -2],
    }))
    m = load_masa_file(str(path))
    for classify in (classify_pt, exact_products_reference.classify_pt):
        with pytest.raises(NotPTCompatible, match="generator 1 is neither even nor odd"):
            classify(m, m.parity)
    with pytest.raises(DimensionMismatch, match="3 != 2"):
        classify_pt(m, SignedPermutation.from_signed_indices([1, 2, -3]))


def test_pt_signs_under_a_three_cycle():
    # P of s1 -> s2 -> s3 -> s1 is not its own inverse; (P conj(Z) P)[a][b]
    # = conj(Z)[a - 1][b + 1] (mod 3), so a real Z whose entries depend on
    # a + b only is even, and i times it odd
    Z = ExactMatrix([[(a + b) % 3 + 1 for b in range(3)] for a in range(3)])
    m = MasaSpec(3, (Z, Z.scale(I)))
    cycle = SignedPermutation.from_signed_indices([2, 3, 1])
    assert classify_pt(m, cycle) == exact_products_reference.classify_pt(m, cycle) == (1, -1)

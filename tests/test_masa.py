from fractions import Fraction

import pytest

from ptsphere.errors import (
    BadBasisIndex,
    ParamOutOfRange,
    UnknownName,
)
from ptsphere.masa import (
    CATALOG_NAMES,
    catalog_masa,
    classify_pt,
    load_masa_file,
    masa_from_coeffs,
    save_masa_file,
    symmetric_basis_indices,
    validate_masa,
)

ALL_MODELS = [
    ("su2ab", dict(a=Fraction(2), b=Fraction(1))),
    ("lambda", dict(lambda2=Fraction(1, 4))),
    ("cartan_od", dict(a=Fraction(1), b=Fraction(1, 2))),
    ("nilpotent", {}),
    ("degenerate_plus", {}),
    ("degenerate_minus", {}),
]


@pytest.mark.parametrize("name,kw", ALL_MODELS)
def test_catalog_models_validate(name, kw):
    m = catalog_masa(name, **kw)
    rep = validate_masa(m)
    assert rep.passed, rep.failures
    assert rep.failures == []


@pytest.mark.parametrize("name,kw", ALL_MODELS)
def test_catalog_models_pt_compatible(name, kw):
    m = catalog_masa(name, **kw)
    signs = classify_pt(m, m.parity)
    assert all(e == -1 for e in signs)


def test_catalog_rejects_unknown_name():
    with pytest.raises(UnknownName):
        catalog_masa("not-a-model")
    with pytest.raises(UnknownName):
        catalog_masa("nilpotent", a=Fraction(5))
    assert "su2ab" in CATALOG_NAMES and "lambda" in CATALOG_NAMES


def test_lambda_parameter_range():
    with pytest.raises(ParamOutOfRange):
        catalog_masa("lambda", lambda2=Fraction(3, 4))
    with pytest.raises(ParamOutOfRange):
        catalog_masa("lambda", lambda2=Fraction(-1, 10))
    # the boundary value has its own rescaled basis under a separate name
    with pytest.raises(ParamOutOfRange):
        catalog_masa("lambda", lambda2=Fraction(1, 2))


def test_su2ab_degenerate_guard():
    with pytest.raises(ParamOutOfRange):
        catalog_masa("su2ab", a=Fraction(0), b=Fraction(0))


def test_symmetric_basis_indices():
    assert symmetric_basis_indices(2) == (0, 1, 3)
    assert symmetric_basis_indices(3) == (0, 1, 2, 4, 6, 8)
    with pytest.raises(BadBasisIndex):
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


def test_file_roundtrip(tmp_path):
    m = catalog_masa("cartan_od", a=Fraction(1), b=Fraction(1, 2))
    path = tmp_path / "cartan.json"
    save_masa_file(m, str(path))
    m2 = load_masa_file(str(path))
    assert m2.n == m.n
    assert m2.size == m.size
    for a, b in zip(m.matrices, m2.matrices):
        assert (a - b).is_zero()
    assert validate_masa(m2).passed


def test_degenerate_bases_differ_by_sign_swap():
    mp = catalog_masa("degenerate_plus")
    mm = catalog_masa("degenerate_minus")
    assert validate_masa(mp).passed and validate_masa(mm).passed
    assert any((a - b).is_zero() is False for a, b in zip(mp.matrices, mm.matrices))

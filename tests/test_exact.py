from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ptsphere.exact import Exact, I, ONE, ZERO, _add_products, _reduced, rat

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
)
gaussians = st.builds(lambda a, b: rat(a, b), rationals, rationals)
# sqrt(2) * sqrt(3) = sqrt(6) and sqrt(2) * sqrt(6) = 2 sqrt(3) exercise the
# radical product rule; each part is zero about half the time
RADICALS = [ONE] + [Exact.sqrt_rational(d) for d in (2, 3, 6)]
exacts = st.builds(
    lambda cs: sum((c * r for c, r in zip(cs, RADICALS)), ZERO),
    st.lists(st.one_of(st.just(ZERO), gaussians), min_size=4, max_size=4),
)


def test_basic_arithmetic():
    assert rat(1, 2) + rat(2, -1) == rat(3, 1)
    assert I * I == rat(-1)
    assert (ONE + I) * (ONE - I) == rat(2)
    assert rat(Fraction(3, 4)).inverse() == rat(Fraction(4, 3))


def test_sqrt_radicals():
    r2 = Exact.sqrt_rational(2)
    assert r2 * r2 == rat(2)
    r8 = Exact.sqrt_rational(8)
    assert r8 == r2.__mul__(rat(2))
    assert Exact.sqrt_rational(Fraction(9, 4)) == rat(Fraction(3, 2))
    neg = Exact.sqrt_rational(-2)
    assert neg * neg == rat(-2)


def test_conjugate_and_parts():
    z = rat(Fraction(1, 3), Fraction(-2, 5))
    assert z.conjugate() == rat(Fraction(1, 3), Fraction(2, 5))
    assert z + z.conjugate() == rat(Fraction(2, 3))
    assert z - z.conjugate() == rat(0, Fraction(-4, 5))
    assert complex(z.to_complex()) == pytest.approx(1 / 3 - 0.4j)


def test_inverse_of_radical_mix():
    z = rat(1) + Exact.sqrt_rational(2)
    assert (z * z.inverse()) == ONE
    w = I * Exact.sqrt_rational(3) + rat(Fraction(1, 2))
    assert (w * w.inverse()) == ONE


@pytest.mark.parametrize("m", range(6))
def test_power_is_the_repeated_product_with_no_square_past_the_last_bit(m, monkeypatch):
    x = I * Exact.sqrt_rational(3) + rat(Fraction(1, 2))
    repeated = ONE
    for _ in range(m):
        repeated = repeated * x
    real, calls = Exact.__mul__, []
    monkeypatch.setattr(Exact, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    power = x ** m
    monkeypatch.undo()
    assert power == repeated
    # one product per set bit of m and one square between consecutive bits
    assert len(calls) == (m.bit_count() + m.bit_length() - 1 if m else 0)


def test_power_and_division():
    assert rat(3) ** 4 == rat(81)
    assert (I ** 2) == rat(-1)
    assert rat(5) / rat(2) == rat(Fraction(5, 2))
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(exacts, exacts, exacts)
@settings(max_examples=200, deadline=None)
def test_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(exacts)
@settings(max_examples=200, deadline=None)
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE


@given(exacts, exacts)
@settings(max_examples=200, deadline=None)
def test_distributivity_and_conjugation(a, b):
    c = rat(Fraction(7, 3))
    assert (a + b) * c == a * c + b * c
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def _canonical(x):
    parts, den = x.int_parts()
    parts = dict(parts)
    return (
        den > 0
        and all(re or im for re, im in parts.values())
        and gcd(den, *(v for c in parts.values() for v in c)) == 1
        and (parts or den == 1)
    )


def test_equal_values_from_different_routes_compare_and_hash_equal():
    r2 = Exact.sqrt_rational(2)
    x = rat(Fraction(3, 4), -2) + r2 * rat(Fraction(5, 6)) + Exact.sqrt_rational(3)
    y = rat(Fraction(2, 9), Fraction(1, 7)) * Exact.sqrt_rational(6) + rat(1)
    pairs = [
        (rat(Fraction(2, 4)), ONE / rat(2)),
        ((x * y) / y, x),
        (Exact.sqrt_rational(8) / 2, r2),
        (Exact.sqrt_rational(Fraction(2, 9)), r2 / 3),
        (x - x, ZERO),
        (Exact({1: (6, -4), 2: (0, 0)}, -8), rat(Fraction(-3, 4), Fraction(1, 2))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert _canonical(a) and _canonical(b)
    assert (x - x).is_zero() and not (x - x) and (x - x).int_parts()[1] == 1


@given(exacts, exacts)
@settings(max_examples=200, deadline=None)
def test_results_are_canonical(a, b):
    for v in (a + b, a - b, a * b, a.conjugate(), -a):
        assert _canonical(v)
    if not b.is_zero():
        q = a / b
        assert _canonical(q)
        assert q * b == a and hash(q * b) == hash(a)


def test_coerce_rejects_non_finite_complex_with_type_error():
    for x in (complex("inf"), complex("-inf"), complex("nan"), complex(1, float("inf"))):
        with pytest.raises(TypeError, match="integer-valued"):
            Exact.coerce(x)
    with pytest.raises(TypeError):
        Exact.coerce(float("inf"))
    assert Exact.coerce(complex(3, -2)) == rat(3, -2)


# -- one-part values against the general rule ---------------------------------

def _general_reduce(num, den):
    """The canonical (parts, den) of int parts over den, by the general rule:
    drop zero parts, divide by gcd(den, every part).  _reduced itself has a
    single-part branch, so it cannot be the reference."""
    num = {d: c for d, c in num.items() if c[0] or c[1]}
    if not num:
        return {}, 1
    g = gcd(den, *(x for c in num.values() for x in c))
    return {d: (a // g, b // g) for d, (a, b) in num.items()}, den // g


def _general_sum(x, y, s):
    """x + s*y over den_x * den_y, merged part by part."""
    (p1, d1), (p2, d2) = x.int_parts(), y.int_parts()
    out = {d: (a * d2, b * d2) for d, (a, b) in p1}
    for d, (a, b) in p2:
        c = out.get(d, (0, 0))
        out[d] = (c[0] + s * a * d1, c[1] + s * b * d1)
    return _general_reduce(out, d1 * d2)


def _form(x):
    parts, den = x.int_parts()
    return dict(parts), den


# one part each: radicals 1, 2, 3, 6, purely real and purely imaginary
# values, and den 1 next to dens sharing factors with the parts
ONE_PART = [
    Exact({d: pair}, den)
    for d in (1, 2, 3, 6)
    for pair in ((1, 0), (0, 1), (-3, 2), (4, -6), (0, -9))
    for den in (1, 2, 6, 9)
]


def test_one_part_products_and_sums_match_the_general_rule():
    for x in ONE_PART:
        px, dx = x.int_parts()
        for y in ONE_PART:
            py, dy = y.int_parts()
            assert _form(x * y) == _general_reduce(_add_products({}, px, py), dx * dy)
            assert _form(x + y) == _general_sum(x, y, 1)
            assert _form(x - y) == _general_sum(x, y, -1)
    r2, r3, r6 = (Exact.sqrt_rational(d) for d in (2, 3, 6))
    assert _form(r2 * r6) == ({3: (2, 0)}, 1)
    assert _form(r2 * r3) == _form(r6) == ({6: (1, 0)}, 1)
    assert _form(I * Exact({2: (0, 3)}, 4)) == ({2: (-3, 0)}, 4)
    assert _form(rat(3) * rat(5)) == ({1: (15, 0)}, 1)


def test_one_part_cancellation_is_the_canonical_zero():
    for x in ONE_PART:
        for z in (x + (-x), x - x, -x + x):
            assert _form(z) == ({}, 1)
            assert not z and z == 0 and hash(z) == hash(0)


def test_multi_part_products_and_sums_match_the_general_rule():
    p = rat(Fraction(1, 3)) + rat(Fraction(2, 5)) * Exact.sqrt_rational(2)
    q = rat(Fraction(-3, 7), 1) + rat(Fraction(1, 2)) * Exact.sqrt_rational(2)
    one = Exact({1: (-3, 2)}, 6), Exact({2: (0, 1)}, 9)
    for x, y in [(p, q), (p, p), (p, -p), (p, one[0]), (one[1], p)]:
        (px, dx), (py, dy) = x.int_parts(), y.int_parts()
        assert _form(x * y) == _general_reduce(_add_products({}, px, py), dx * dy)
        assert _form(x + y) == _general_sum(x, y, 1)
        assert _form(x - y) == _general_sum(x, y, -1)


def test_a_dict_passed_in_is_not_shared_with_the_result():
    for num in ({2: (3, -1)}, {1: (4, 0), 3: (0, 2)}):
        before = dict(num)
        made = Exact(num, 6), _reduced(num, 6)
        num[2] = (7, 7)
        num[5] = (1, 0)
        for x in made:
            assert _form(x) == _general_reduce(before, 6)


def test_real_rationals_hash_as_their_fraction():
    # a == b must imply hash(a) == hash(b), so sets and dicts find them
    for q in (3, -1, 0, Fraction(1, 2), Fraction(-7, 3)):
        x = rat(q)
        assert x == q and hash(x) == hash(q)
        assert q in {x} and x in {q} and {q: 1}.get(x) == 1
    assert 3 in {rat(6) / 2}
    assert rat(1, 2) != Fraction(1, 2)  # rat(re, im): this is 1 + 2i


def test_gaussian_rationals_hash_as_python_complex():
    # rat(3, 2) == 3 + 2j, so they must hash alike; a complex with
    # non-integer parts compares unequal but is hashed by the same rule
    for z in (3 + 2j, 1j, -1j, -5 - 7j, 2**53 - 3j, 0.5 + 0.25j, complex(1 / 3, -1 / 7)):
        x = rat(Fraction(z.real), Fraction(z.imag))
        assert hash(x) == hash(z)
    for z in (3 + 2j, 1j, -5 - 7j, 2**53 - 3j):
        x = rat(int(z.real), int(z.imag))
        assert x == z and z in {x} and x in {z} and {z: 1}.get(x) == 1

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ptsphere.exact import Exact, I, ONE, ZERO, rat

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
    assert z.re == Fraction(1, 3)
    assert z.im == Fraction(-2, 5)
    assert complex(z.to_complex()) == pytest.approx(1 / 3 - 0.4j)


def test_inverse_of_radical_mix():
    z = rat(1) + Exact.sqrt_rational(2)
    assert (z * z.inverse()) == ONE
    w = I * Exact.sqrt_rational(3) + rat(Fraction(1, 2))
    assert (w * w.inverse()) == ONE


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

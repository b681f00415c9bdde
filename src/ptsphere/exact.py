"""Exact scalar arithmetic: complex rationals extended by real square roots.

A scalar is a finite sum  sum_d (a_d + i*b_d) * sqrt(d) / D  where the a_d,
b_d are arbitrary-precision ints, D is one positive int denominator shared by
every part, and the d are distinct squarefree positive integers (d = 1 is the
rational part).  Since square roots of distinct squarefree integers are
linearly independent over Q(i), the form is canonical once zero parts are
dropped and gcd(D, every a_d, every b_d) = 1; zero is no parts over 1.  So
equality, hashing and zero testing compare the stored ints directly.

Sums and products work on plain ints over the product (or lcm) of the
denominators and reduce by one gcd at the end, instead of normalising a
Fraction for every part.  All operations are exact; nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

__all__ = ["Exact", "ZERO", "ONE", "I", "rat"]


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (m, r) with n = m*m*r and r squarefree (n > 0)."""
    m, r = 1, 1
    # strip square factors by trial division; inputs here are small
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            m *= p ** (e // 2)
            if e % 2:
                r *= p
        p += 1 if p == 2 else 2
    return m, r * n


def _new(num: dict, den: int) -> "Exact":
    """An Exact from parts already in canonical form (no check)."""
    x = object.__new__(Exact)
    x._num = num
    x._den = den
    return x


def _reduced(num: dict, den: int) -> "Exact":
    """An Exact from int parts over a positive den: drop zero parts, then
    divide everything by gcd(den, parts)."""
    num = {d: c for d, c in num.items() if c[0] or c[1]}
    if not num:
        return ZERO
    if den == 1:
        return _new(num, 1)
    g = gcd(den, *(x for c in num.values() for x in c))
    if g > 1:
        num = {d: (a // g, b // g) for d, (a, b) in num.items()}
        den //= g
    return _new(num, den)


class Exact:
    """Immutable exact complex scalar over Q(i)[sqrt(d1), sqrt(d2), ...]."""

    __slots__ = ("_num", "_den")

    def __init__(self, num=None, den: int = 1):
        # num: {squarefree d: (int re, int im)} over the nonzero int den
        if not den:
            raise ZeroDivisionError("Exact with denominator 0")
        s = -1 if den < 0 else 1
        num = {d: (s * int(a), s * int(b)) for d, (a, b) in (num or {}).items()}
        x = _reduced(num, s * den)
        self._num, self._den = x._num, x._den

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, re, im=0) -> "Exact":
        re, im = Fraction(re), Fraction(im)
        den = lcm(re.denominator, im.denominator)
        a = re.numerator * (den // re.denominator)
        b = im.numerator * (den // im.denominator)
        return _reduced({1: (a, b)}, den)

    @classmethod
    def sqrt_rational(cls, q) -> "Exact":
        """Exact square root of a rational; sqrt(-x) = i*sqrt(x)."""
        q = Fraction(q)
        if q == 0:
            return ZERO
        neg = q < 0
        if neg:
            q = -q
        # sqrt(p/s) = sqrt(p*s)/s
        m, r = _squarefree_split(q.numerator * q.denominator)
        return _reduced({r: (0, m) if neg else (m, 0)}, q.denominator)

    @staticmethod
    def coerce(x) -> "Exact":
        if isinstance(x, Exact):
            return x
        if isinstance(x, int):
            return _new({1: (int(x), 0)}, 1) if x else ZERO
        if isinstance(x, Rational):
            return Exact.from_rational(x)
        if isinstance(x, complex):
            if x.real != int(x.real) or x.imag != int(x.imag):
                raise TypeError("only exact (integer-valued) complex literals coerce")
            return Exact.from_rational(int(x.real), int(x.imag))
        raise TypeError(f"cannot coerce {type(x).__name__} to Exact")

    # -- predicates & accessors ---------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_rational(self) -> bool:
        return set(self._num) <= {1}

    def is_real(self) -> bool:
        return all(c[1] == 0 for c in self._num.values())

    @property
    def re(self) -> Fraction:
        """Rational real part; raises if the value carries radicals."""
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self._num.get(1, (0, 0))[0], self._den)

    @property
    def im(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self._num.get(1, (0, 0))[1], self._den)

    def real_rational(self) -> Fraction:
        """The value as a Fraction; TypeError unless it is a real rational."""
        if not self._num:
            return Fraction(0)
        pair = self._num.get(1)
        if len(self._num) > 1 or pair is None or pair[1]:
            raise TypeError(f"value is not a real rational: {self}")
        return Fraction(pair[0], self._den)

    def int_parts(self):
        """The canonical form: the (d, (re, im)) int pairs, one per radical
        sqrt(d), and the positive denominator D they share; the value is
        sum_d (re + i*im) * sqrt(d) / D."""
        return self._num.items(), self._den

    def to_complex(self) -> complex:
        z = 0j
        den = self._den
        for d, (a, b) in self._num.items():
            z += complex(a / den, b / den) * (d ** 0.5)
        return z

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Exact":
        if not isinstance(other, Exact):
            other = Exact.coerce(other)
        n1, n2 = self._num, other._num
        if not n2:
            return self
        if not n1:
            return other
        d1, d2 = self._den, other._den
        if d1 == d2:
            g = den = d1
            out = dict(n1)
            for d, (a, b) in n2.items():
                c = out.get(d)
                out[d] = (c[0] + a, c[1] + b) if c else (a, b)
        else:
            g = gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            den = d1 * m1
            out = {d: (a * m1, b * m1) for d, (a, b) in n1.items()}
            for d, (a, b) in n2.items():
                c = out.get(d)
                out[d] = (c[0] + a * m2, c[1] + b * m2) if c else (a * m2, b * m2)
        out = {d: c for d, c in out.items() if c[0] or c[1]}
        if not out:
            return ZERO
        # both inputs are canonical, so gcd(den, parts) divides g = gcd(d1, d2)
        if g > 1:
            g = gcd(g, *(x for c in out.values() for x in c))
            if g > 1:
                out = {d: (a // g, b // g) for d, (a, b) in out.items()}
                den //= g
        return _new(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Exact":
        return _new({d: (-a, -b) for d, (a, b) in self._num.items()}, self._den)

    def __sub__(self, other) -> "Exact":
        return self + (-Exact.coerce(other))

    def __rsub__(self, other) -> "Exact":
        return Exact.coerce(other) + (-self)

    def __mul__(self, other) -> "Exact":
        if not isinstance(other, Exact):
            other = Exact.coerce(other)
        n1, n2 = self._num, other._num
        if not n1 or not n2:
            return ZERO
        out: dict[int, tuple[int, int]] = {}
        for d1, (a1, b1) in n1.items():
            for d2, (a2, b2) in n2.items():
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
                # sqrt(d1)*sqrt(d2) = g*sqrt(r) for squarefree d1, d2
                if d1 == 1:
                    r = d2
                elif d2 == 1:
                    r = d1
                else:
                    g = gcd(d1, d2)
                    r = (d1 // g) * (d2 // g)
                    re *= g
                    im *= g
                c = out.get(r)
                out[r] = (c[0] + re, c[1] + im) if c else (re, im)
        return _reduced(out, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        if not self._num:
            raise ZeroDivisionError("division by exact zero")
        den = self._den
        # purely Gaussian-rational case: D / (a + ib) = D (a - ib) / (a^2 + b^2)
        if self.is_rational():
            a, b = self._num[1]
            return _reduced({1: (den * a, -den * b)}, a * a + b * b)
        # pick a prime appearing in some radical and rationalise it away:
        # D x = A + sqrt(p)*B with A, B free of sqrt(p) and over 1;
        # 1/x = D (A - sqrt(p)B) / (A^2 - p B^2)
        p = None
        for d in self._num:
            if d > 1:
                q = 2
                while d % q:
                    q += 1
                p = q
                break
        A_parts, B_parts = {}, {}
        for d, c in self._num.items():
            if d % p == 0:
                B_parts[d // p] = c
            else:
                A_parts[d] = c
        A, B = _new(A_parts, 1), _new(B_parts, 1)
        norm = A * A - Exact.coerce(p) * B * B
        return (A - _new({p: (1, 0)}, 1) * B) * den * norm.inverse()

    def __truediv__(self, other) -> "Exact":
        return self * Exact.coerce(other).inverse()

    def __rtruediv__(self, other) -> "Exact":
        return Exact.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Exact":
        if n < 0:
            return self.inverse() ** (-n)
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Exact":
        return _new({d: (a, -b) for d, (a, b) in self._num.items()}, self._den)

    # -- comparison & hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            other = Exact.coerce(other)
        except TypeError:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        chunks = []
        for d in sorted(self._num):
            a, b = (Fraction(x, self._den) for x in self._num[d])
            s = f"({a}{'+' if b >= 0 else '-'}{abs(b)}i)" if b else f"{a}"
            chunks.append(s if d == 1 else f"{s}*sqrt({d})")
        return " + ".join(chunks)


ZERO = _new({}, 1)
ONE = Exact.from_rational(1)
I = Exact.from_rational(0, 1)


def rat(re, im=0) -> Exact:
    """Shorthand constructor for an exact complex rational."""
    return Exact.from_rational(re, im)

"""Exact scalar arithmetic: complex rationals extended by real square roots.

A scalar is a finite sum  sum_d (a_d + i*b_d) * sqrt(d)  where the a_d, b_d
are arbitrary-precision rationals and the d are distinct squarefree positive
integers (d = 1 is the rational part).  Since square roots of distinct
squarefree integers are linearly independent over Q(i), the representation is
canonical and zero testing is trivial.  All operations are exact; nothing is
ever rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
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


def _mul_radicals(d1: int, d2: int) -> tuple[int, int]:
    """sqrt(d1)*sqrt(d2) = m*sqrt(r); return (m, r) for squarefree d1, d2."""
    from math import gcd

    g = gcd(d1, d2)
    return g, (d1 // g) * (d2 // g)


class Exact:
    """Immutable exact complex scalar over Q(i)[sqrt(d1), sqrt(d2), ...]."""

    __slots__ = ("_parts",)

    def __init__(self, parts=None):
        # parts: dict {squarefree d: (Fraction re, Fraction im)}, zeros dropped
        if parts is None:
            parts = {}
        self._parts = {d: c for d, c in parts.items() if c[0] or c[1]}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, re, im=0) -> "Exact":
        re, im = Fraction(re), Fraction(im)
        return cls({1: (re, im)} if re or im else {})

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
        coeff = Fraction(m, q.denominator)
        pair = (Fraction(0), coeff) if neg else (coeff, Fraction(0))
        return cls({r: pair})

    @staticmethod
    def coerce(x) -> "Exact":
        if isinstance(x, Exact):
            return x
        if isinstance(x, Rational):
            return Exact.from_rational(x)
        if isinstance(x, complex):
            if x.real != int(x.real) or x.imag != int(x.imag):
                raise TypeError("only exact (integer-valued) complex literals coerce")
            return Exact.from_rational(int(x.real), int(x.imag))
        raise TypeError(f"cannot coerce {type(x).__name__} to Exact")

    # -- predicates & accessors ---------------------------------------------

    def is_zero(self) -> bool:
        return not self._parts

    def __bool__(self) -> bool:
        return bool(self._parts)

    def is_rational(self) -> bool:
        return set(self._parts) <= {1}

    def is_real(self) -> bool:
        return all(c[1] == 0 for c in self._parts.values())

    @property
    def re(self) -> Fraction:
        """Rational real part; raises if the value carries radicals."""
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self._parts.get(1, (Fraction(0), Fraction(0)))[0]

    @property
    def im(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self._parts.get(1, (Fraction(0), Fraction(0)))[1]

    def real_rational(self) -> Fraction:
        """The value as a Fraction; TypeError unless it is a real rational."""
        if not self._parts:
            return Fraction(0)
        pair = self._parts.get(1)
        if len(self._parts) > 1 or pair is None or pair[1]:
            raise TypeError(f"value is not a real rational: {self}")
        return pair[0]

    def parts(self):
        """The canonical form as (d, (re, im)) pairs, one per radical sqrt(d)."""
        return self._parts.items()

    def to_complex(self) -> complex:
        z = 0j
        for d, (a, b) in self._parts.items():
            z += complex(a, b) * (d ** 0.5)
        return z

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Exact":
        other = Exact.coerce(other)
        parts = dict(self._parts)
        for d, (a, b) in other._parts.items():
            pa, pb = parts.get(d, (Fraction(0), Fraction(0)))
            parts[d] = (pa + a, pb + b)
        return Exact(parts)

    __radd__ = __add__

    def __neg__(self) -> "Exact":
        return Exact({d: (-a, -b) for d, (a, b) in self._parts.items()})

    def __sub__(self, other) -> "Exact":
        return self + (-Exact.coerce(other))

    def __rsub__(self, other) -> "Exact":
        return Exact.coerce(other) + (-self)

    def __mul__(self, other) -> "Exact":
        other = Exact.coerce(other)
        parts: dict[int, tuple[Fraction, Fraction]] = {}
        for d1, (a1, b1) in self._parts.items():
            for d2, (a2, b2) in other._parts.items():
                m, r = _mul_radicals(d1, d2)
                re = m * (a1 * a2 - b1 * b2)
                im = m * (a1 * b2 + b1 * a2)
                pa, pb = parts.get(r, (Fraction(0), Fraction(0)))
                parts[r] = (pa + re, pb + im)
        return Exact(parts)

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        if not self._parts:
            raise ZeroDivisionError("division by exact zero")
        # purely Gaussian-rational case
        if self.is_rational():
            a, b = self._parts[1]
            n = a * a + b * b
            return Exact({1: (a / n, -b / n)})
        # pick a prime appearing in some radical and rationalise it away:
        # x = A + sqrt(p)*B with A, B free of sqrt(p); 1/x = (A - sqrt(p)B) / (A^2 - p B^2)
        p = None
        for d in self._parts:
            if d > 1:
                q = 2
                while d % q:
                    q += 1
                p = q
                break
        A_parts, B_parts = {}, {}
        for d, c in self._parts.items():
            if d % p == 0:
                B_parts[d // p] = c
            else:
                A_parts[d] = c
        A, B = Exact(A_parts), Exact(B_parts)
        den = A * A - Exact.from_rational(p) * B * B
        sqrt_p = Exact({p: (Fraction(1), Fraction(0))})
        return (A - sqrt_p * B) * den.inverse()

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
        return Exact({d: (a, -b) for d, (a, b) in self._parts.items()})

    # -- comparison & hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            other = Exact.coerce(other)
        except TypeError:
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self):
        return hash(frozenset(self._parts.items()))

    def __repr__(self) -> str:
        if not self._parts:
            return "0"
        chunks = []
        for d in sorted(self._parts):
            a, b = self._parts[d]
            s = f"({a}{'+' if b >= 0 else '-'}{abs(b)}i)" if b else f"{a}"
            chunks.append(s if d == 1 else f"{s}*sqrt({d})")
        return " + ".join(chunks)


ZERO = Exact()
ONE = Exact.from_rational(1)
I = Exact.from_rational(0, 1)


def rat(re, im=0) -> Exact:
    """Shorthand constructor for an exact complex rational."""
    return Exact.from_rational(re, im)

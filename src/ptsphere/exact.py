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
The product rule, sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) with g = gcd(d1, d2),
is written once, in _add_products, and every product of two nonzero values
goes through it; the sum rule is written once, in _sum.

A sum of products, sum_k x_k * y_k (or x_k * z_k * y_k), is one
sum_of_products call on Exact factors: the products are summed as ints per
denominator, the sums brought over the lcm of those, and the result reduced
once, with one gcd, instead of once per product and once per partial sum.
keyed_sum_of_products does so per key over (key, x, y) triples: every sum
of products keyed by a monomial or a word (PhasePoly combinations,
enveloping-algebra products and PBW rewriting) is one call.  Outside this
module only phase.py's point sweeps, products and derivatives and
matrices.row_reduce read int parts.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational

__all__ = ["Exact", "ZERO", "ONE", "I", "rat", "sum_of_products", "keyed_sum_of_products"]

_HASH_MOD = 1 << sys.hash_info.width


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


def _add_products(out: dict, parts1, parts2) -> dict:
    """Add every product of an int part (d1, (a1, b1)) of parts1 with one
    (d2, (a2, b2)) of parts2 into out, a {d: (re, im)} dict, and return out.
    For squarefree d1, d2: sqrt(d1)*sqrt(d2) = g*sqrt(r), g = gcd(d1, d2)."""
    for d1, (a1, b1) in parts1:
        for d2, (a2, b2) in parts2:
            re = a1 * a2 - b1 * b2
            im = a1 * b2 + b1 * a2
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
    return out


def sum_of_products(terms) -> "Exact":
    """The sum of x*y, or x*z*y, over terms (x, y) or (x, z, y) of Exacts.

    The products are summed per denominator by _add_products, the sums
    brought over the lcm of those denominators, and the result reduced
    once, with one gcd; a term with a zero factor is skipped.  The value is
    the one the per-term Exact products and sums give, int for int."""
    sums = {}  # {D_x*D_y (*D_z): {d: (re, im)}}
    for term in terms:
        x, y = term[0], term[-1]
        if not (x._num and y._num):
            continue
        den, parts = x._den * y._den, x._num.items()
        if len(term) == 3:
            z = term[1]
            if not z._num:
                continue
            den *= z._den
            parts = _add_products({}, parts, z._num.items()).items()
        _add_products(sums.setdefault(den, {}), parts, y._num.items())
    if len(sums) == 1:
        (den, acc), = sums.items()
        return _reduced(acc, den)
    if not sums:
        return ZERO
    L = lcm(*sums)
    out = {}
    for den, acc in sums.items():
        t = L // den
        for d, (a, b) in acc.items():
            c = out.get(d)
            out[d] = (c[0] + a * t, c[1] + b * t) if c else (a * t, b * t)
    return _reduced(out, L)


def keyed_sum_of_products(triples) -> dict:
    """{key: sum x*y} over (key, Exact x, Exact y) triples: the pairs of each
    key summed by one sum_of_products.  A key whose sum is zero is left out;
    the others keep the order in which their keys were first met."""
    cols = {}
    for key, x, y in triples:
        cols.setdefault(key, []).append((x, y))
    out = {}
    for key, col in cols.items():
        c = sum_of_products(col)
        if c:
            out[key] = c
    return out


def _new(num: dict, den: int) -> "Exact":
    """An Exact from parts already in canonical form (no check)."""
    x = object.__new__(Exact)
    x._num = num
    x._den = den
    return x


def _reduced(num: dict, den: int) -> "Exact":
    """An Exact from int parts over a positive den: drop zero parts, then
    divide everything by gcd(den, parts).  The result holds a new dict, so
    the caller may change num afterwards."""
    if len(num) == 1:
        (d, (a, b)), = num.items()
        if not (a or b):
            return ZERO
        if den > 1:
            g = gcd(den, a, b)
            if g > 1:
                a //= g
                b //= g
                den //= g
        return _new({d: (a, b)}, den)
    num = {d: c for d, c in num.items() if c[0] or c[1]}
    if not num:
        return ZERO
    if den == 1:
        return _new(num, 1)
    g = gcd(den, *chain.from_iterable(num.values()))
    if g > 1:
        num = {d: (a // g, b // g) for d, (a, b) in num.items()}
        den //= g
    return _new(num, den)


def _sum(x: "Exact", y: "Exact", s: int) -> "Exact":
    """x + s*y for s = 1 or -1, over the lcm of the denominators."""
    n1, n2 = x._num, y._num
    if not n2:
        return x
    if not n1:
        return y if s > 0 else -y
    d1, d2 = x._den, y._den
    if d1 == d2:
        g = den = d1
        m1, m2 = 1, s
    else:
        g = gcd(d1, d2)
        m1, m2 = d2 // g, s * (d1 // g)
        den = d1 * m1
    # both inputs are canonical, so gcd(den, parts) divides g = gcd(d1, d2)
    out = dict(n1) if m1 == 1 else {d: (a * m1, b * m1) for d, (a, b) in n1.items()}
    for d, (a, b) in n2.items():
        c = out.get(d)
        if c is None:
            out[d] = (a * m2, b * m2)
            continue
        a = c[0] + a * m2
        b = c[1] + b * m2
        if a or b:
            out[d] = (a, b)
        else:
            del out[d]
    if not out:
        return ZERO
    if g > 1:
        g = gcd(g, *chain.from_iterable(out.values()))
        if g > 1:
            out = {d: (a // g, b // g) for d, (a, b) in out.items()}
            den //= g
    return _new(out, den)


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
            # is_integer() is False for inf and nan too
            if not (x.real.is_integer() and x.imag.is_integer()):
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

    def real_rational(self) -> tuple[int, int]:
        """The int parts (a, b) of the value a/b; TypeError unless real rational."""
        if not self._num:
            return 0, 1
        pair = self._num.get(1)
        if len(self._num) > 1 or pair is None or pair[1]:
            raise TypeError(f"value is not a real rational: {self}")
        return pair[0], self._den

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
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Exact":
        return _new({d: (-a, -b) for d, (a, b) in self._num.items()}, self._den)

    def __sub__(self, other) -> "Exact":
        if not isinstance(other, Exact):
            other = Exact.coerce(other)
        return _sum(self, other, -1)

    def __rsub__(self, other) -> "Exact":
        return _sum(Exact.coerce(other), self, -1)

    def __mul__(self, other) -> "Exact":
        if not isinstance(other, Exact):
            other = Exact.coerce(other)
        n1, n2 = self._num, other._num
        if not n1 or not n2:
            return ZERO
        return _reduced(_add_products({}, n1.items(), n2.items()), self._den * other._den)

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
            n >>= 1
            if n:
                base = base * base
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
        re, im = self._num.get(1, (0, 0))
        if len(self._num) != (1 if re or im else 0):
            return hash((self._den, frozenset(self._num.items())))
        # a Gaussian rational hashes as the Fraction (an int when den is 1)
        # or complex it can equal: CPython's rule, in signed machine words
        h = hash(Fraction(re, self._den)) + sys.hash_info.imag * hash(Fraction(im, self._den))
        h %= _HASH_MOD
        h -= _HASH_MOD if h >= _HASH_MOD >> 1 else 0
        return -2 if h == -1 else h

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

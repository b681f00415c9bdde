"""Polynomial / rational-function algebra on the constrained phase space.

Variables for ambient dimension n are ordered s_1..s_n, p_1..p_n, k_1..k_n
(3n exponent slots).  Coefficients are Exact scalars, so every identity test
is a matter of exact zero checks.  Conservation-type identities are decided
by evaluation at exact rational points of the constraint variety
(s.s = 1, s.p = 0).  sample_vals draws each point once, in plain ints: the
stereographic image s = S/Q of a random rational u, the tangent projection
p = P/(D Q^2) of a random rational w, then random rational couplings k.  It
checks sum S^2 = Q^2 and S.P = 0 on those ints for every point and returns
canonical Exacts built from them, with no Fraction on the way.
Every such check, here and in reduction.py, takes its points from the one
sampling path pole_free_values: it draws sample_vals points from a seeded
stream, drops a point where the evaluation divides by zero, and raises
SamplingExhausted after MAX_RESAMPLES (100) poles in a row.  Every zero
verdict is one first_nonzero_residual call, which names the first nonzero
of the verdict's residuals; func_vanishes_on_constraint is its one-residual
case, and reduction's verdicts reach it through one runner that reads each
point into one _Point.

PhasePoly.eval accepts only real rational coordinates and checks every one,
used or not.  It reads their numerators and denominators off the Exact int
parts, sums the terms in plain int arithmetic over the common denominator of
coordinates and coefficients and divides once at the end, so its value is
exact and equals the term-by-term Exact sum.  Each PhasePoly builds its int
form (exponents, and the coefficients' int parts over their lcm kept
column-wise, one list per radical aligned with the terms) at its first
evaluation and keeps it; a PhasePoly is never changed after construction.

A point is read once (_Point): the int pairs of its 3n coordinates, and one
power table per variable and exponent bound.  Each distinct PhasePoly is
swept once per point, one product per term for the term values T_t, and
its value is one column sum per radical.  Its first partials come from the
same T_t by Euler's identity x_j d/dx_j x^e = e_j x^e: the j-th partial is
(b_j/a_j) times the column sum weighted by e_tj, one exact int division by
a_j (at a_j = 0, the terms linear in x_j, with x_j's factor taken out).
PhaseRational.eval and grad_at read their point through the same path, and
verifiers that need several functions at a point pass them one _Point, so
functions that share a den (the generator images share det A) sweep it once
there.  No derivative polynomial is built to evaluate a gradient; only the
symbolic poisson_bracket and deriv build them.  A bracket of two gradients
is one exact.sum_of_products over pairs of their entries.

PhasePoly.__mul__ also sums in ints, through _poly_products, which sums
f*g over any list of pairs: with each operand's coefficients over its own
common denominator and every pair brought over one lcm, it sums every output
monomial's int parts per radical (exact._add_products, the one product rule
of Exact) and reduces each output coefficient once, not once per pair of
terms.  Monomials are keyed by their exponents packed into one int, so a
pair of terms costs one int addition, not a new tuple.  poisson_bracket
sums its 2n products of derivative numerators, and each numerator its two
products, in one such call.  A one-term operand of __mul__ skips the common
denominators: it shifts the other operand's exponents and makes one Exact
product per term.  _combination sums c * f over pairs of a scalar and a
PhasePoly in one exact.keyed_sum_of_products, keyed by monomial.  Arithmetic
results are built by the trusted constructor _poly, which skips the coercion and checks
of the public PhasePoly(n, terms); only sums, which can cancel, drop zero
terms.  The public constructor rejects an exponent tuple of the wrong
length or with a negative entry.

A PhaseRational is normalised so that the first term of its den as printed
(the largest by total degree, then by exponent tuple) has coefficient 1, so
its printed form does not depend on the order in which its terms were built.
A zero num gets den 1, as does an omitted den: one shared PhasePoly per n.
PhasePoly powers are for m >= 0 only; a negative m raises ValueError at
once, and PhaseRational.__pow__ inverts first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import islice
from math import lcm, prod
from operator import add, getitem, mul
from typing import Any, Callable, Iterable, Iterator, Sequence

from .exact import (
    Exact, ONE, ZERO, _add_products, _reduced, keyed_sum_of_products, rat, sum_of_products,
)
from .errors import DimensionMismatch, SamplingExhausted

__all__ = [
    "PhasePoly",
    "PhaseRational",
    "SignedPermutation",
    "poisson_bracket",
    "poisson_bracket_at",
    "dirac_bracket_at",
    "sample_vals",
    "pole_free_values",
    "first_nonzero_residual",
    "func_vanishes_on_constraint",
]

MAX_RESAMPLES = 100
DEFAULT_SEED = 20230411  # of every sampled verdict given no seed


def _poly(n: int, terms: dict[tuple[int, ...], Exact]) -> "PhasePoly":
    """A PhasePoly from nonzero Exact coefficients on valid exponents (no check)."""
    f = object.__new__(PhasePoly)
    f.n = n
    f.terms = terms
    return f


def _print_key(e: tuple[int, ...]):
    """Terms print from the largest key down: total degree, then exponents."""
    return sum(e), e


def _leading(f: "PhasePoly") -> Exact:
    """The coefficient of the first printed term of a nonzero f."""
    return f.terms[max(f.terms, key=_print_key)]


def _int_terms(f: "PhasePoly"):
    """([(e, [(d, (re, im)), ...]), ...], L): the coefficients of f as int
    parts over their common denominator L."""
    coeffs = [(e, *c.int_parts()) for e, c in f.terms.items()]
    L = lcm(*[den for _, _, den in coeffs])
    out = []
    for e, parts, den in coeffs:
        t = L // den
        out.append((e, parts if t == 1 else [(d, (re * t, im * t)) for d, (re, im) in parts]))
    return out, L


def _poly_products(n: int, pairs) -> "PhasePoly":
    """sum f*g over the PhasePoly pairs (f, g), each output coefficient
    reduced once.

    Each operand's coefficients are int parts over its own common
    denominator (_int_terms).  With L the lcm of the pairs' L_f*L_g, f's
    parts are scaled by L/(L_f*L_g), so every product lands over L, and the
    int parts of each output monomial are summed by exact._add_products.
    Monomials are keyed by their exponents packed into one int, w bits a
    slot, where 2^w exceeds every pair's largest exponent of f plus largest
    of g: the packed keys of two terms add to the packed key of their
    product, so a pair of terms costs one int addition, and each output
    monomial is unpacked once (Monagan & Pearce, CASC 2007, LNCS 4770, 295).
    """
    pairs = [(f, g) for f, g in pairs if f.terms and g.terms]
    if not pairs:
        return _poly(n, {})
    top = max(max(map(max, f.terms)) + max(map(max, g.terms)) for f, g in pairs)
    w = max(1, top.bit_length())
    shifts = range(0, 3 * n * w, w)
    weights = [1 << x for x in shifts]

    def packed(f):
        terms, L = _int_terms(f)
        return [(sum(map(mul, e, weights)), parts) for e, parts in terms], L

    forms = [(packed(f), packed(g)) for f, g in pairs]
    L = lcm(*(L1 * L2 for (_, L1), (_, L2) in forms))
    acc = {}
    for (t1, L1), (t2, L2) in forms:
        t = L // (L1 * L2)
        for k1, p1 in t1:
            if t != 1:
                p1 = [(d, (re * t, im * t)) for d, (re, im) in p1]
            for k2, p2 in t2:
                _add_products(acc.setdefault(k1 + k2, {}), p1, p2)
    mask = (1 << w) - 1
    out = {}
    for k, parts in acc.items():
        c = _reduced(parts, L)
        if c:
            out[tuple([(k >> x) & mask for x in shifts])] = c
    return _poly(n, out)


def _combination(n: int, pairs) -> "PhasePoly":
    """sum c*f over the (Exact c, PhasePoly f) pairs: one
    exact.keyed_sum_of_products keyed by f's monomials."""
    return _poly(n, keyed_sum_of_products((e, c, x) for c, f in pairs for e, x in f.terms.items()))


def _coordinates(vals: Sequence[Exact], n: int) -> list[tuple[int, int]]:
    """The int pair (a, b) of each of the 3n coordinates a/b; any coordinate
    with a radical or an imaginary part raises TypeError."""
    if len(vals) != 3 * n:
        raise DimensionMismatch("value vector has wrong length")
    return [Exact.coerce(v).real_rational() for v in vals]


class _Sweep:
    """One PhasePoly at one point: its term values, swept once, and what
    is read off them (value, first partials, and for a den its inverse)."""

    __slots__ = ("f", "mono", "terms", "LD", "parts", "_value", "_grad", "_inv")

    def __init__(self, f: "PhasePoly", point: "_Point"):
        used, maxe, ex, L, cols, _ = f._int_form()
        mono = [point.table(i, m) for i, m in zip(used, maxe)]
        for row in mono:
            L *= row[0]  # b^m
        terms = [prod(map(getitem, mono, e)) for e in ex]
        self.f, self.mono, self.terms, self.LD = f, mono, terms, L
        self.parts = {d: (_dot(re, terms), _dot(im, terms)) for d, re, im in cols}
        self._value = self._grad = self._inv = None

    def value(self) -> Exact:
        if self._value is None:
            self._value = _reduced(self.parts, self.LD)
        return self._value

    def inverse(self) -> Exact:
        """1/value; ZeroDivisionError at a zero of f."""
        if self._inv is None:
            value = self.value()
            if not value:
                raise ZeroDivisionError("denominator vanishes at evaluation point")
            self._inv = value.inverse()
        return self._inv

    def grad(self, qs) -> dict:
        """{variable: partial} over the used variables, as {d: (re, im)} int
        parts over L*D.  By Euler's identity x_j d/dx_j x^e = e_j x^e, the
        partial in x_j = a_j/b_j is (b_j/a_j) sum_t (L*c_t*e_tj) T_t over the
        term values T_t: one weighted column sum per slot and one exact int
        division by a_j.  At a_j = 0 only the terms with e_tj = 1 are left,
        each L*c_t * b_j^m_j * prod_{l != j} mono[l][e_tl]."""
        if self._grad is None:
            used, _, ex, _, _, wcols = self.f._int_form()
            terms, mono = self.terms, self.mono
            self._grad = grad = {}
            for j, i in enumerate(used):
                a, b = qs[i]
                if a:
                    grad[i] = {d: (_dot(re, terms) // a * b, _dot(im, terms) // a * b)
                               for d, re, im in wcols[j]}
                else:
                    # x_j = 0: the x_j-free factors of the terms linear in x_j
                    at_zero = mono[:]
                    at_zero[j] = (0, mono[j][0])
                    rest = [prod(map(getitem, at_zero, e)) if e[j] == 1 else 0 for e in ex]
                    grad[i] = {d: (_dot(re, rest), _dot(im, rest)) for d, re, im in wcols[j]}
        return self._grad


class _Point:
    """A point of phase space, read once: its 3n coordinates (vals, a
    tuple), their int pairs (a, b) and, per variable and largest exponent
    m, the table a^x * b^(m - x) for x = 0..m.  Each PhasePoly is swept once
    here (by identity), so functions that share a den, as the generator
    images share det A, sweep it once per point.  A point is made after its
    coordinates are final and lives for one evaluation step: it keeps no
    reference to the list it was read from."""

    __slots__ = ("n", "vals", "qs", "_tables", "_sweeps")

    def __init__(self, vals: Sequence[Exact], n: int):
        self.n = n
        self.qs = _coordinates(vals, n)
        self.vals = tuple(vals)
        self._tables = {}
        self._sweeps = {}

    def table(self, i: int, m: int) -> list[int]:
        """a^x * b^(m - x) for x = 0..m, for the i-th coordinate a/b."""
        row = self._tables.get((i, m))
        if row is None:
            a, b = self.qs[i]
            row = self._tables[i, m] = [a ** x * b ** (m - x) for x in range(m + 1)]
        return row

    def sweep(self, f: "PhasePoly") -> _Sweep:
        s = self._sweeps.get(id(f))
        if s is None:
            s = self._sweeps[id(f)] = _Sweep(f, self)
        return s

    def value(self, f: "PhasePoly") -> Exact:
        return self.sweep(f).value()

    def eval(self, F: "PhaseRational") -> Exact:
        inv = self.sweep(F.den).inverse()
        return self.sweep(F.num).value() * inv

    def grad(self, F: "PhaseRational") -> list[Exact]:
        """The derivatives of F over the 3n variables s, p, k.  Each is
        (num_i * den - num * den_i) / den^2: the two cross products are
        summed as ints over the two sweeps' denominators, then one Exact
        product with 1/den^2 makes the value.  A pole raises
        ZeroDivisionError before num is swept."""
        den = self.sweep(F.den)
        inv = den.inverse()
        num = self.sweep(F.num)
        dgrad, ngrad = den.grad(self.qs), num.grad(self.qs)
        inv2 = inv * inv
        den_parts = list(den.parts.items())
        minus_num = [(d, (-re, -im)) for d, (re, im) in num.parts.items()]
        q = num.LD * den.LD
        grads = []
        for i in range(3 * self.n):
            acc = {}
            if i in ngrad:
                _add_products(acc, ngrad[i].items(), den_parts)
            if i in dgrad:
                _add_products(acc, minus_num, dgrad[i].items())
            grads.append(_reduced(acc, q) * inv2 if acc else ZERO)
        return grads


def _at(vals: "Sequence[Exact] | _Point", n: int) -> _Point:
    """vals as a point read once: a _Point as it is, else read now."""
    if isinstance(vals, _Point):
        if vals.n != n:
            raise DimensionMismatch("point has wrong dimension")
        return vals
    return _Point(vals, n)


def _dot(col: list[int] | None, terms: list[int]) -> int:
    """sum_t col[t] * terms[t]; 0 for a column of zeros (None)."""
    return sum(map(mul, col, terms)) if col else 0


class PhasePoly:
    """Multivariate polynomial over Exact coefficients, canonical sparse form."""

    __slots__ = ("n", "terms", "_form")

    def __init__(self, n: int, terms: dict[tuple[int, ...], Exact] | None = None):
        self.n = n
        self.terms = {}
        for e, c in (terms or {}).items():
            if len(e) != 3 * n:
                raise DimensionMismatch("exponent tuple has wrong length")
            if min(e) < 0:
                raise DimensionMismatch("exponent tuple has a negative entry")
            c = Exact.coerce(c)
            if not c.is_zero():
                self.terms[e] = c

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, n: int, c) -> "PhasePoly":
        e = (0,) * (3 * n)
        return cls(n, {e: Exact.coerce(c)})

    @classmethod
    def var(cls, n: int, index: int) -> "PhasePoly":
        e = [0] * (3 * n)
        e[index] = 1
        return cls(n, {tuple(e): ONE})

    @classmethod
    def s(cls, n: int, mu: int) -> "PhasePoly":
        return cls.var(n, mu)

    @classmethod
    def p(cls, n: int, mu: int) -> "PhasePoly":
        return cls.var(n, n + mu)

    @classmethod
    def k(cls, n: int, mu: int) -> "PhasePoly":
        return cls.var(n, 2 * n + mu)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def p_degree(self) -> int:
        n = self.n
        return max((sum(e[n : 2 * n]) for e in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, PhasePoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "PhasePoly"):
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")

    def __add__(self, other: "PhasePoly") -> "PhasePoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return _poly(self.n, {e: c for e, c in out.items() if c})

    def __sub__(self, other: "PhasePoly") -> "PhasePoly":
        return self + (-other)

    def __neg__(self) -> "PhasePoly":
        return _poly(self.n, {e: -c for e, c in self.terms.items()})

    def scale(self, c) -> "PhasePoly":
        c = Exact.coerce(c)
        if not c:
            return _poly(self.n, {})
        return _poly(self.n, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "PhasePoly") -> "PhasePoly":
        self._check(other)
        if not self.terms or not other.terms:
            return _poly(self.n, {})
        if len(self.terms) == 1 or len(other.terms) == 1:
            # a monomial shifts the exponents of the other operand, in that
            # operand's term order; nonzero coefficients have a nonzero product
            one, many = (self, other) if len(self.terms) == 1 else (other, self)
            (e1, c1), = one.terms.items()
            return _poly(self.n, {tuple(map(add, e1, e)): c1 * c for e, c in many.terms.items()})
        return _poly_products(self.n, [(self, other)])

    def __pow__(self, m: int) -> "PhasePoly":
        if m < 0:
            raise ValueError(f"a polynomial has no negative power, got {m}")
        out = _one(self.n)
        base = self
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def deriv(self, index: int) -> "PhasePoly":
        out = {}
        for e, c in self.terms.items():
            if e[index]:
                ne = list(e)
                ne[index] -= 1
                parts, den = c.int_parts()
                x = e[index]
                out[tuple(ne)] = _reduced({d: (a * x, b * x) for d, (a, b) in parts}, den)
        return _poly(self.n, out)

    def _int_form(self):
        """(used, maxe, ex, L, cols, wcols), built on first use and kept,
        since a PhasePoly is never changed after construction.  used lists
        the variables that occur and maxe their largest exponents; ex holds
        each term's exponents of the used variables, in term order, and L is
        the lcm of the coefficient denominators.  The coefficients are kept
        column-wise, aligned with the terms: cols holds, per radical sqrt(d),
        (d, re, im) with the real and the imaginary parts of L times every
        term's coefficient there (None for a column of zeros).  wcols[j]
        holds the same columns weighted by each term's exponent of the j-th
        used variable."""
        try:
            return self._form
        except AttributeError:
            pass
        terms, L = _int_terms(self)
        maxe = list(map(max, zip(*self.terms)))
        used = [i for i, m in enumerate(maxe) if m]
        ex = [tuple([e[i] for i in used]) for e, _ in terms]
        radicals = {}
        for t, (_, parts) in enumerate(terms):
            for d, (re, im) in parts:
                col = radicals.get(d)
                if col is None:
                    col = radicals[d] = ([0] * len(terms), [0] * len(terms))
                col[0][t], col[1][t] = re, im
        cols = [(d, re if any(re) else None, im if any(im) else None)
                for d, (re, im) in radicals.items()]
        powers = list(zip(*ex))  # the exponents of each used variable, in term order
        wcols = [
            [(d, re and list(map(mul, re, ej)), im and list(map(mul, im, ej)))
             for d, re, im in cols]
            for ej in powers
        ]
        self._form = used, [maxe[i] for i in used], ex, L, cols, wcols
        return self._form

    def eval(self, vals: "Sequence[Exact] | _Point") -> Exact:
        """Exact value at a point whose coordinates are real rationals.

        With v_i = a_i/b_i read off the int parts of each coordinate, maxe_i
        the largest exponent of variable i, D the product of b_i^maxe_i and L
        the lcm of the coefficient denominators, L*D*f(v) = sum_e (L*c_e) *
        prod_i a_i^e_i * b_i^(maxe_i - e_i), a sum of plain ints for each
        radical of the coefficients.  The exponents, the L*c_e and maxe are
        the cached int form of f, built at its first evaluation.  Only the
        final parts are divided by L*D, so the value is exactly the one
        term-by-term Exact arithmetic gives.  Any coordinate, used by f or
        not, with a radical or an imaginary part raises TypeError.  vals may
        also be a point already read (_Point), which sweeps f once.
        """
        return _at(vals, self.n).value(self)

    def eval_complex(self, vals: Sequence[complex]) -> complex:
        """Float value at a point: each term's Exact.to_complex times its powers."""
        if len(vals) != 3 * self.n:
            raise DimensionMismatch("value vector has wrong length")
        acc = 0j
        for e, c in self.terms.items():
            t = c.to_complex()
            for i, x in enumerate(e):
                if x:
                    t *= complex(vals[i]) ** x
            acc += t
        return acc

    def apply_pt(self, parity: "SignedPermutation") -> "PhasePoly":
        """PT image: conjugate coefficients, signed-permute s and p variables.
        A permutation of the slots maps distinct exponent tuples to distinct
        ones, so each term has its own image term."""
        n = self.n
        out: dict[tuple[int, ...], Exact] = {}
        for e, c in self.terms.items():
            ne = list(e)
            sign = 1
            for mu in range(n):
                tgt = parity.image[mu]
                ne[tgt] = e[mu]
                ne[n + tgt] = e[n + mu]
                if parity.sign[mu] < 0 and (e[mu] + e[n + mu]) % 2:
                    sign = -sign
            out[tuple(ne)] = c.conjugate() if sign > 0 else -c.conjugate()
        return _poly(n, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = (
            [f"s{m+1}" for m in range(self.n)]
            + [f"p{m+1}" for m in range(self.n)]
            + [f"k{m+1}" for m in range(self.n)]
        )
        bits = []
        for e in sorted(self.terms, key=_print_key, reverse=True):
            mon = "*".join(
                f"{names[i]}^{x}" if x > 1 else names[i] for i, x in enumerate(e) if x
            )
            bits.append(f"({self.terms[e]})" + (f"*{mon}" if mon else ""))
        return " + ".join(bits)


@dataclass(frozen=True)
class SignedPermutation:
    """Parity operator: s_mu -> sign_mu * s_{image_mu} (0-based images)."""

    image: tuple[int, ...]
    sign: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError("not a permutation")
        if len(self.sign) != len(self.image) or not set(self.sign) <= {1, -1}:
            raise ValueError("not one sign of +1 or -1 per image")

    @classmethod
    def from_signed_indices(cls, signed: Sequence[int]) -> "SignedPermutation":
        """E.g. [1, 2, -3] maps s1->s1, s2->s2, s3->-s3 (1-based input)."""
        return cls(tuple(abs(x) - 1 for x in signed), tuple(1 if x > 0 else -1 for x in signed))


class PhaseRational:
    """Ratio of PhasePolys; den never identically zero."""

    __slots__ = ("num", "den")

    def __init__(self, num: PhasePoly, den: PhasePoly | None = None):
        if den is None:
            den = _one(num.n)
        if den.is_zero():
            raise ZeroDivisionError("identically-zero denominator")
        num._check(den)
        self.num = num
        self.den = den
        self._strip_content()

    def _strip_content(self):
        # divide num and den by the coefficient of den's first printed term
        if self.num.is_zero():
            self.den = _one(self.n)
            return
        lead = _leading(self.den)
        if lead == ONE:
            return
        inv = lead.inverse()
        self.num = self.num.scale(inv)
        self.den = self.den.scale(inv)

    @property
    def n(self) -> int:
        return self.num.n

    @classmethod
    def const(cls, n: int, c) -> "PhaseRational":
        return cls(PhasePoly.const(n, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return list(self.den.terms) == [(0,) * (3 * self.n)]

    def p_degree(self) -> int:
        return self.num.p_degree()

    def __add__(self, other: "PhaseRational") -> "PhaseRational":
        other = _as_rational(other, self.n)
        if self.den == other.den:
            return PhaseRational(self.num + other.num, self.den)
        return PhaseRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other: "PhaseRational") -> "PhaseRational":
        return self + (-_as_rational(other, self.n))

    def __neg__(self) -> "PhaseRational":
        return PhaseRational(-self.num, self.den)

    def scale(self, c) -> "PhaseRational":
        return PhaseRational(self.num.scale(c), self.den)

    def __mul__(self, other: "PhaseRational") -> "PhaseRational":
        other = _as_rational(other, self.n)
        return PhaseRational(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "PhaseRational") -> "PhaseRational":
        other = _as_rational(other, self.n)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return PhaseRational(self.num * other.den, self.den * other.num)

    def __pow__(self, m: int) -> "PhaseRational":
        if m < 0:
            return PhaseRational(self.den, self.num) ** (-m)
        return PhaseRational(self.num ** m, self.den ** m)

    def deriv(self, index: int) -> "PhaseRational":
        return PhaseRational(_deriv_num(self, index), self.den * self.den)

    def eval(self, vals: "Sequence[Exact] | _Point") -> Exact:
        """Exact value at a point (coordinates, or a _Point already read)."""
        return _at(vals, self.n).eval(self)

    def grad_at(self, vals: "Sequence[Exact] | _Point") -> list[Exact]:
        """The derivatives over the 3n variables s, p, k at a point.

        The point is read once, and den and then num are each swept once
        for their first partials (_Sweep.grad), as int parts over L*D; see
        _Point.grad.  eval at the same _Point reads the value off the same
        sweeps.  A pole raises ZeroDivisionError first, as in eval.
        """
        return _at(vals, self.n).grad(self)

    def apply_pt(self, parity: SignedPermutation) -> "PhaseRational":
        return PhaseRational(self.num.apply_pt(parity), self.den.apply_pt(parity))

    def agrees_with(self, other: "PhaseRational") -> bool:
        """Exact equality as rational functions (cross-multiplied identity)."""
        other = _as_rational(other, self.n)
        return (self.num * other.den - other.num * self.den).is_zero()

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num}) / ({self.den})"


def _deriv_num(f: PhaseRational, index: int) -> PhasePoly:
    """The numerator of df/dv_index over den(f)^2."""
    return _poly_products(f.n, [(f.num.deriv(index), f.den), (f.num, -f.den.deriv(index))])


@cache
def _one(n: int) -> PhasePoly:
    """The constant 1 in ambient dimension n, one object per n: a PhasePoly
    is never changed after construction."""
    return PhasePoly.const(n, 1)


def _as_rational(x, n: int) -> PhaseRational:
    if isinstance(x, PhaseRational):
        return x
    if isinstance(x, PhasePoly):
        return PhaseRational(x)
    return PhaseRational.const(n, x)


# -- brackets -----------------------------------------------------------------


def poisson_bracket(f: PhaseRational, g: PhaseRational) -> PhaseRational:
    """Canonical bracket sum_mu (df/ds_mu dg/dp_mu - df/dp_mu dg/ds_mu).

    Assembled over the shared denominator den(f)^2 den(g)^2; couplings k_mu
    are central and contribute nothing.
    """
    if f.n != g.n:
        raise DimensionMismatch("ambient dimensions differ")
    n = f.n
    pairs = []
    for mu in range(n):
        s_i, p_i = mu, n + mu
        fs, fp = _deriv_num(f, s_i), _deriv_num(f, p_i)
        gs, gp = _deriv_num(g, s_i), _deriv_num(g, p_i)
        pairs += [(fs, gp), (-fp, gs)]
    acc = _poly_products(n, pairs)
    df, dg = f.den, g.den
    return PhaseRational(acc, df * df * dg * dg)


def _bracket_pairs(a: Sequence[Exact], b: Sequence[Exact]):
    """The pairs (a_s[mu], b_p[mu]) and (-a_p[mu], b_s[mu]) over mu, for
    exact.sum_of_products, which skips a pair with a zero entry."""
    n = len(a) // 3
    for mu in range(n):
        yield a[mu], b[n + mu]
        yield -a[n + mu], b[mu]


def _bracket_of_gradients(a: Sequence[Exact], b: Sequence[Exact]) -> Exact:
    """sum_mu a_s[mu] b_p[mu] - a_p[mu] b_s[mu] for two gradients over the 3n
    variables (s, p, then the k, which are central): one sum_of_products."""
    return sum_of_products(_bracket_pairs(a, b))


def poisson_bracket_at(f: PhaseRational, g: PhaseRational, vals) -> Exact:
    """Value of the canonical bracket at a point (coordinates, or a _Point
    already read), without symbolic assembly."""
    if f.n != g.n:
        raise DimensionMismatch("ambient dimensions differ")
    point = _at(vals, f.n)
    return _bracket_of_gradients(f.grad_at(point), g.grad_at(point))


def dirac_bracket_at(f: PhaseRational, g: PhaseRational, vals: Sequence[Exact]) -> Exact:
    point = _Point(vals, f.n)
    return _dirac_of_gradients(f.grad_at(point), g.grad_at(point), vals)


def _dirac_of_gradients(gf: Sequence[Exact], gg: Sequence[Exact], vals: Sequence[Exact]) -> Exact:
    n = len(gf) // 3
    sv = vals[:n]
    pv = vals[n : 2 * n]
    ss = sum((x * x for x in sv), ZERO)
    # gradients of C1 = s.s - 1 and C2 = s.p
    gc1 = [x * rat(2) for x in sv] + [ZERO] * (2 * n)
    gc2 = list(pv) + list(sv) + [ZERO] * n
    pb = _bracket_of_gradients
    corr = (pb(gf, gc1) * pb(gc2, gg) - pb(gf, gc2) * pb(gc1, gg)) / (ss * rat(2))
    return pb(gf, gg) + corr


# -- constraint-point sampling -------------------------------------------------


def _draws(rng: random.Random, count: int) -> tuple[list[int], int]:
    """count draws randint(-8, 8)/randint(1, 8) as numerators over the lcm
    of their denominators, and that lcm."""
    q = [(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(count)]
    den = lcm(*(b for _, b in q))
    return [a * (den // b) for a, b in q], den


def sample_vals(rng: random.Random, n: int) -> list[Exact]:
    """Values of s, p, k (n >= 2) at a random point of the constraint variety.

    u = U/B, w = W/D and k are drawn in that order; s = S/Q with
    S = (2BU, |U|^2 - B^2), Q = |U|^2 + B^2, and p = w - (w.s)s = P/(D Q^2)
    with P = Q^2 W - (W.S) S."""
    if n < 2:
        raise DimensionMismatch("need ambient dimension >= 2")
    U, B = _draws(rng, n - 1)
    W, D = _draws(rng, n)
    K, E = _draws(rng, n)
    r2, b2 = sum(x * x for x in U), B * B
    S, Q = [2 * B * x for x in U] + [r2 - b2], r2 + b2
    ws, q2 = sum(map(mul, W, S)), Q * Q
    P = [q2 * w - ws * x for w, x in zip(W, S)]
    if sum(x * x for x in S) != q2:
        raise ValueError("s is not on the unit sphere")
    if sum(map(mul, S, P)):
        raise ValueError("p is not tangent")
    parts = ((S, Q), (P, D * q2), (K, E))
    return [_reduced({1: (x, 0)}, den) for xs, den in parts for x in xs]


def pole_free_values(
    func: Callable[[list[Exact]], Any], n: int, rng: random.Random | int
) -> Iterator[Any]:
    """func at one sample_vals point after another, skipping poles.

    A point where func raises ZeroDivisionError is dropped and the next one
    drawn; MAX_RESAMPLES poles in a row raise SamplingExhausted.  Points are
    drawn only on demand, so a caller that stops early leaves rng where it
    stopped.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    poles = 0
    while True:
        vals = sample_vals(rng, n)
        try:
            value = func(vals)
        except ZeroDivisionError:
            poles += 1
            if poles >= MAX_RESAMPLES:
                raise SamplingExhausted(f"no pole-free sample in {MAX_RESAMPLES} tries")
            continue
        poles = 0
        yield value


def first_nonzero_residual(
    residuals: Callable[[list[Exact]], Iterable[tuple[str, Exact]]], n: int, trials: int,
    seed: random.Random | int,
) -> str | None:
    """The name of the first nonzero residual at trials pole-free sampled
    points, in point order and then in the order residuals(vals) lists its
    (name, value) pairs; None if all are zero.  residuals is read to the end
    at each point, so a division by zero anywhere in it redraws the point.
    trials < 1 raises ValueError: no point decides nothing."""
    if trials < 1:
        raise ValueError(f"a sampled verdict needs at least one point, got {trials}")
    points = pole_free_values(lambda vals: list(residuals(vals)), n, seed)
    for named in islice(points, trials):
        for name, value in named:
            if not value.is_zero():
                return name
    return None


def func_vanishes_on_constraint(
    func: Callable[[Sequence[Exact]], Exact], n: int, trials: int, seed: int = DEFAULT_SEED
) -> bool:
    """func is zero at trials pole-free sampled points of the constraint
    variety; a rational identity wants max(20, 1 + degree) of them."""
    return first_nonzero_residual(lambda vals: [("", func(vals))], n, trials, seed) is None

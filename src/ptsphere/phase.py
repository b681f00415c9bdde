"""Polynomial / rational-function algebra on the constrained phase space.

Variables for ambient dimension n are ordered s_1..s_n, p_1..p_n, k_1..k_n
(3n exponent slots).  Coefficients are Exact scalars, so every identity test
is a matter of exact zero checks.  Conservation-type identities are decided
by evaluation at exact rational points of the constraint variety
(s.s = 1, s.p = 0), sampled through the rational stereographic map.
Every such check, here and in reduction.py, takes its points from the one
sampling path pole_free_values: it draws sample_vals points from a seeded
stream, drops a point where the evaluation divides by zero, and raises
SamplingExhausted after MAX_RESAMPLES (100) poles in a row.

PhasePoly.eval accepts only real rational coordinates (the sampled points
and couplings are such).  It sums the terms in plain int arithmetic over the
common denominator of the coordinates and coefficients and divides once at
the end, so its value is exact and equals the term-by-term Exact sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import add
from typing import Any, Callable, Iterator, Sequence

from .exact import Exact, ONE, ZERO, rat
from .errors import DimensionMismatch, SamplingExhausted

__all__ = [
    "PhasePoly",
    "PhaseRational",
    "ConstraintPoint",
    "SignedPermutation",
    "poisson_bracket",
    "dirac_bracket",
    "poisson_bracket_at",
    "dirac_bracket_at",
    "sample_constraint_point",
    "sample_vals",
    "pole_free_values",
    "func_vanishes_on_constraint",
]

MAX_RESAMPLES = 100


class PhasePoly:
    """Multivariate polynomial over Exact coefficients, canonical sparse form."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], Exact] | None = None):
        self.n = n
        self.terms = {}
        for e, c in (terms or {}).items():
            c = Exact.coerce(c)
            if not c.is_zero():
                if len(e) != 3 * n:
                    raise DimensionMismatch("exponent tuple has wrong length")
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
        return PhasePoly(self.n, out)

    def __sub__(self, other: "PhasePoly") -> "PhasePoly":
        return self + other.scale(rat(-1))

    def __neg__(self) -> "PhasePoly":
        return self.scale(rat(-1))

    def scale(self, c) -> "PhasePoly":
        c = Exact.coerce(c)
        return PhasePoly(self.n, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "PhasePoly") -> "PhasePoly":
        self._check(other)
        out: dict[tuple[int, ...], Exact] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return PhasePoly(self.n, out)

    def __pow__(self, m: int) -> "PhasePoly":
        out = PhasePoly.const(self.n, 1)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def deriv(self, index: int) -> "PhasePoly":
        out = {}
        for e, c in self.terms.items():
            if e[index]:
                ne = list(e)
                ne[index] -= 1
                out[tuple(ne)] = c * rat(e[index])
        return PhasePoly(self.n, out)

    def conjugate(self) -> "PhasePoly":
        return PhasePoly(self.n, {e: c.conjugate() for e, c in self.terms.items()})

    def eval(self, vals: Sequence[Exact]) -> Exact:
        """Exact value at a point whose coordinates are real rationals.

        With v_i = a_i/b_i, maxe_i the largest exponent of variable i, D the
        product of b_i^maxe_i and L the lcm of the coefficient denominators,
        L*D*f(v) = sum_e (L*c_e) * prod_i a_i^e_i * b_i^(maxe_i - e_i), a sum
        of plain ints for each radical of the coefficients.  Only the final
        parts are divided by L*D, so the value is exactly the one term-by-term
        Exact arithmetic gives.  A coordinate with a radical or an imaginary
        part raises TypeError.
        """
        nv = 3 * self.n
        if len(vals) != nv:
            raise DimensionMismatch("value vector has wrong length")
        qs = [Exact.coerce(v).real_rational() for v in vals]
        maxe = [0] * nv
        for e in self.terms:
            for i, x in enumerate(e):
                if x > maxe[i]:
                    maxe[i] = x
        # mono[i][x] = a_i^x * b_i^(maxe_i - x); variables absent from f are skipped
        used = [i for i in range(nv) if maxe[i]]
        mono = {}
        D = 1
        for i in used:
            a, b, m = qs[i].numerator, qs[i].denominator, maxe[i]
            mono[i] = [a ** x * b ** (m - x) for x in range(m + 1)]
            D *= b ** m
        coeffs = [(e, *c.int_parts()) for e, c in self.terms.items()]
        L = lcm(*(den for _, _, den in coeffs))
        sums: dict[int, list[int]] = {}
        for e, parts, den in coeffs:
            t = L // den
            for i in used:
                t *= mono[i][e[i]]
            for d, (re, im) in parts:
                acc = sums.get(d)
                if acc is None:
                    acc = sums[d] = [0, 0]
                acc[0] += re * t
                acc[1] += im * t
        return Exact(sums, L * D)

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
        """PT image: conjugate coefficients, signed-permute s and p variables."""
        n = self.n
        out: dict[tuple[int, ...], Exact] = {}
        for e, c in self.terms.items():
            ne = list(e)
            sign = 1
            for mu in range(n):
                ne[mu] = 0
                ne[n + mu] = 0
            for mu in range(n):
                tgt = parity.image[mu]
                ne[tgt] += e[mu]
                ne[n + tgt] += e[n + mu]
                if parity.sign[mu] < 0 and (e[mu] + e[n + mu]) % 2:
                    sign = -sign
            key = tuple(ne)
            val = c.conjugate() if sign > 0 else -c.conjugate()
            out[key] = out.get(key, ZERO) + val
        return PhasePoly(n, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = (
            [f"s{m+1}" for m in range(self.n)]
            + [f"p{m+1}" for m in range(self.n)]
            + [f"k{m+1}" for m in range(self.n)]
        )
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
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

    @classmethod
    def from_signed_indices(cls, signed: Sequence[int]) -> "SignedPermutation":
        """E.g. [1, 2, -3] maps s1->s1, s2->s2, s3->-s3 (1-based input)."""
        image = tuple(abs(x) - 1 for x in signed)
        sign = tuple(1 if x > 0 else -1 for x in signed)
        if sorted(image) != list(range(len(signed))):
            raise ValueError("not a permutation")
        return cls(image, sign)

    def matrix(self):
        from .matrices import ExactMatrix

        n = len(self.image)
        rows = [[ZERO] * n for _ in range(n)]
        for mu in range(n):
            rows[self.image[mu]][mu] = rat(self.sign[mu])
        return ExactMatrix(rows)


class PhaseRational:
    """Ratio of PhasePolys; den never identically zero."""

    __slots__ = ("num", "den", "_dnum", "_dden")

    def __init__(self, num: PhasePoly, den: PhasePoly | None = None):
        if den is None:
            den = PhasePoly.const(num.n, 1)
        if den.is_zero():
            raise ZeroDivisionError("identically-zero denominator")
        num._check(den)
        self.num = num
        self.den = den
        self._dnum = {}
        self._dden = {}
        self._strip_content()

    def _strip_content(self):
        # best-effort normalization: divide num and den by a common scalar
        if self.num.is_zero():
            self.den = PhasePoly.const(self.n, 1)
            return
        lead = next(iter(self.den.terms.values()))
        inv = lead.inverse()
        self.num = self.num.scale(inv)
        self.den = self.den.scale(inv)

    @property
    def n(self) -> int:
        return self.num.n

    @classmethod
    def from_poly(cls, p: PhasePoly) -> "PhaseRational":
        return cls(p)

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
        return self + _as_rational(other, self.n).scale(rat(-1))

    def __neg__(self) -> "PhaseRational":
        return self.scale(rat(-1))

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
        return PhaseRational(
            self.num.deriv(index) * self.den - self.num * self.den.deriv(index),
            self.den * self.den,
        )

    def _dn(self, index: int) -> PhasePoly:
        if index not in self._dnum:
            self._dnum[index] = self.num.deriv(index)
        return self._dnum[index]

    def _dd(self, index: int) -> PhasePoly:
        if index not in self._dden:
            self._dden[index] = self.den.deriv(index)
        return self._dden[index]

    def eval(self, vals: Sequence[Exact]) -> Exact:
        d = self.den.eval(vals)
        if d.is_zero():
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(vals) / d

    def grad_at(self, vals: Sequence[Exact]) -> tuple[list[Exact], Exact, Exact]:
        """(derivatives over the 2n phase variables, num value, den value)."""
        nval = self.num.eval(vals)
        dval = self.den.eval(vals)
        if dval.is_zero():
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        inv2 = (dval * dval).inverse()
        grads = []
        for idx in range(2 * self.n):
            gn = self._dn(idx).eval(vals)
            gd = self._dd(idx).eval(vals)
            grads.append((gn * dval - nval * gd) * inv2)
        return grads, nval, dval

    def conjugate(self) -> "PhaseRational":
        return PhaseRational(self.num.conjugate(), self.den.conjugate())

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
    nf, df, ng, dg = f.num, f.den, g.num, g.den
    acc = PhasePoly(n)
    for mu in range(n):
        s_i, p_i = mu, n + mu
        fs = f._dn(s_i) * df - nf * f._dd(s_i)
        fp = f._dn(p_i) * df - nf * f._dd(p_i)
        gs = g._dn(s_i) * dg - ng * g._dd(s_i)
        gp = g._dn(p_i) * dg - ng * g._dd(p_i)
        acc = acc + fs * gp - fp * gs
    return PhaseRational(acc, df * df * dg * dg)


def _constraints(n: int) -> tuple[PhaseRational, PhaseRational]:
    ss = PhasePoly(n)
    sp = PhasePoly(n)
    for mu in range(n):
        ss = ss + PhasePoly.s(n, mu) * PhasePoly.s(n, mu)
        sp = sp + PhasePoly.s(n, mu) * PhasePoly.p(n, mu)
    c1 = PhaseRational(ss - PhasePoly.const(n, 1))
    c2 = PhaseRational(sp)
    return c1, c2


def dirac_bracket(f: PhaseRational, g: PhaseRational) -> PhaseRational:
    """Bracket consistent with the second-class constraints s.s=1, s.p=0."""
    if f.n != g.n:
        raise DimensionMismatch("ambient dimensions differ")
    n = f.n
    c1, c2 = _constraints(n)
    ss = c1.num + PhasePoly.const(n, 1)  # s.s
    two_ss = PhaseRational(ss.scale(2))
    pb = poisson_bracket
    correction = (pb(f, c1) * pb(c2, g) - pb(f, c2) * pb(c1, g)) / two_ss
    return pb(f, g) + correction


def _bracket_of_gradients(a: Sequence[Exact], b: Sequence[Exact]) -> Exact:
    """sum_mu a_s[mu] b_p[mu] - a_p[mu] b_s[mu] for two gradients over the 2n
    phase variables (s then p)."""
    n = len(a) // 2
    return sum((a[mu] * b[n + mu] - a[n + mu] * b[mu] for mu in range(n)), ZERO)


def poisson_bracket_at(f: PhaseRational, g: PhaseRational, vals: Sequence[Exact]) -> Exact:
    """Value of the canonical bracket at a point, without symbolic assembly."""
    if f.n != g.n:
        raise DimensionMismatch("ambient dimensions differ")
    return _bracket_of_gradients(f.grad_at(vals)[0], g.grad_at(vals)[0])


def dirac_bracket_at(f: PhaseRational, g: PhaseRational, vals: Sequence[Exact]) -> Exact:
    n = f.n
    gf, _, _ = f.grad_at(vals)
    gg, _, _ = g.grad_at(vals)
    sv = vals[:n]
    pv = vals[n : 2 * n]
    ss = sum((x * x for x in sv), ZERO)
    # gradients of C1 = s.s - 1 and C2 = s.p
    gc1 = [x * rat(2) for x in sv] + [ZERO] * n
    gc2 = list(pv) + list(sv)
    pb = _bracket_of_gradients
    corr = (pb(gf, gc1) * pb(gc2, gg) - pb(gf, gc2) * pb(gc1, gg)) / (ss * rat(2))
    return pb(gf, gg) + corr


# -- constraint-point sampling -------------------------------------------------


@dataclass(frozen=True)
class ConstraintPoint:
    """Exact rational point with s.s = 1 and s.p = 0."""

    s: tuple[Fraction, ...]
    p: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(x * x for x in self.s) != 1:
            raise ValueError("s is not on the unit sphere")
        if sum(x * y for x, y in zip(self.s, self.p)) != 0:
            raise ValueError("p is not tangent")


def point_from_chart(u: Sequence[Fraction], w: Sequence[Fraction]) -> ConstraintPoint:
    """Stereographic s = (2u, |u|^2-1)/(|u|^2+1); p = w - (w.s)s."""
    u = [Fraction(x) for x in u]
    w = [Fraction(x) for x in w]
    n = len(u) + 1
    if len(w) != n:
        raise DimensionMismatch("w must have length n")
    r2 = sum(x * x for x in u)
    s = tuple(2 * x / (r2 + 1) for x in u) + (Fraction(r2 - 1, 1) / (r2 + 1),)
    ws = sum(a * b for a, b in zip(w, s))
    p = tuple(a - ws * b for a, b in zip(w, s))
    return ConstraintPoint(s, p)


def _rand_fraction(rng: random.Random, span: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def sample_constraint_point(rng: random.Random | int, n: int) -> ConstraintPoint:
    """A random exact point of the constraint variety (n >= 2)."""
    if n < 2:
        raise DimensionMismatch("need ambient dimension >= 2")
    if isinstance(rng, int):
        rng = random.Random(rng)
    u = [_rand_fraction(rng) for _ in range(n - 1)]
    w = [_rand_fraction(rng) for _ in range(n)]
    return point_from_chart(u, w)


def sample_vals(rng: random.Random, n: int) -> list[Exact]:
    """Full variable assignment: constraint point plus random rational couplings."""
    pt = sample_constraint_point(rng, n)
    kv = [_rand_fraction(rng) for _ in range(n)]
    return vals_from_point(pt, kv)


def vals_from_point(pt: ConstraintPoint, kvals: Sequence) -> list[Exact]:
    return (
        [Exact.from_rational(x) for x in pt.s]
        + [Exact.from_rational(x) for x in pt.p]
        + [Exact.coerce(Fraction(x)) if not isinstance(x, Exact) else x for x in kvals]
    )


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


def func_vanishes_on_constraint(
    func: Callable[[Sequence[Exact]], Exact], n: int, trials: int, seed: int = 20230411
) -> bool:
    """Exact identity test on the constraint variety: func is zero at trials
    pole-free sampled points.

    For a rational identity trials should be at least max(20, 1 + total
    numerator degree).
    """
    return all(v.is_zero() for v in islice(pole_free_values(func, n, seed), trials))

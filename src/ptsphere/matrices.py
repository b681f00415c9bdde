"""Exact complex matrices, exact row reduction and the float matrix exponential.

ExactMatrix entries are Exact scalars; equality is entrywise and exact.
Each entry of a product, and of a commutator AB - BA, is one
exact.sum_of_products over pairs of entries, so it is reduced once.
Arithmetic results are built by the trusted constructor _matrix, which
skips the coercion of the public one.
row_reduce is the one exact elimination of the package, one path for
Gaussian-rational and radical entries alike: it serves ExactMatrix.rank,
exact_inverse, the u(n) basis expansion (through the inverse cached by
lie.build_generators) and the exact linear fits of the reduction layer.
It is fraction-free (Bareiss, Math. Comp. 22 (1968) 565): each row is
scaled to integral int parts by the lcm of its denominators, and each
step brings every row but the pivot row up by products of int parts only,
each new entry divided by the previous step's pivot.  By Sylvester's
identity every entry so formed is a minor of the scaled matrix, a
polynomial in its entries with integer coefficients, so it lies in the
ring Z[i][sqrt(d), ...] they generate and its int parts are ints: the
division, made as a product with the pivot's inverse N / D and a division
of each part by the int D, leaves no remainder, and one that does is a bug
and raises.  Entries grow like minors instead of like Gauss-Jordan's
unreduced fractions, and no gcd is taken until the result is turned back
into Exact values, once.
mat_exp_numeric exponentiates a dense complex array for the float
Jacobian checks of the reduction layer.

numpy is imported inside to_numpy and mat_exp_numeric, the only array code
here, so the exact commands (reduce, validate, verify without --appendix)
never load it: the import is most of their start-up time.  No code here
imports scipy.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Sequence

from .exact import Exact, ONE, ZERO, _add_products, _reduced, sum_of_products
from .errors import DimensionMismatch, SingularMatrix

__all__ = ["ExactMatrix", "mat_exp_numeric", "exact_inverse", "row_reduce"]


def _matrix(rows) -> "ExactMatrix":
    """An ExactMatrix from nonempty rows of Exact values, all of one length
    (no coercion, no check): the results of the arithmetic below."""
    m = object.__new__(ExactMatrix)
    m.entries = tuple(map(tuple, rows))
    m.rows, m.cols = len(m.entries), len(m.entries[0])
    return m


class ExactMatrix:
    """Immutable rectangular matrix over Exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(Exact.coerce(e) for e in row) for row in entries)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("matrix must be rectangular and nonempty")
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.entries = rows

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, r: int, c: int) -> "ExactMatrix":
        return cls([[ZERO] * c for _ in range(r)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return _matrix(
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return _matrix(
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)
        )

    def __neg__(self) -> "ExactMatrix":
        return _matrix([-a for a in row] for row in self.entries)

    def scale(self, c) -> "ExactMatrix":
        c = Exact.coerce(c)
        return _matrix([c * a for a in row] for row in self.entries)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} != {other.rows}")
        cols = list(zip(*other.entries))
        return _matrix([sum_of_products(zip(row, col)) for col in cols] for row in self.entries)

    def transpose(self) -> "ExactMatrix":
        return _matrix(zip(*self.entries))

    def conjugate(self) -> "ExactMatrix":
        return _matrix([a.conjugate() for a in row] for row in self.entries)

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def commutator(self, other: "ExactMatrix") -> "ExactMatrix":
        """AB - BA, exactly."""
        self._same_shape(other)
        if self.rows != self.cols:
            raise DimensionMismatch("commutator needs square matrices")
        # entry (i, j) is one sum of products: A_ik B_kj and -B_ik A_kj over k
        a, b = self.entries, other.entries
        minus_b = [[-x for x in row] for row in b]
        a_cols, b_cols = list(zip(*a)), list(zip(*b))
        return _matrix(
            [sum_of_products(chain(zip(ar, bc), zip(mr, ac))) for bc, ac in zip(b_cols, a_cols)]
            for ar, mr in zip(a, minus_b)
        )

    def rank(self) -> int:
        return len(row_reduce(self.entries, self.cols)[1])

    def to_numpy(self) -> np.ndarray:
        import numpy as np

        return np.array(
            [[a.to_complex() for a in row] for row in self.entries], dtype=complex
        )

    def _same_shape(self, other: "ExactMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"shape {(self.rows, self.cols)} != {(other.rows, other.cols)}"
            )

    def __repr__(self):
        body = "; ".join(", ".join(repr(a) for a in row) for row in self.entries)
        return f"ExactMatrix[{body}]"


_ONE_PARTS = ((1, (1, 0)),)  # the int parts of 1


def _quotient(num: dict, den: int):
    """The nonzero int parts of num / den, as an items view.  num is a
    multiple of den in the ring of the entries, so a remainder raises."""
    if den == 1:
        return {d: c for d, c in num.items() if c[0] or c[1]}.items()
    out = {}
    for d, (a, b) in num.items():
        qa, ra = divmod(a, den)
        qb, rb = divmod(b, den)
        if ra or rb:
            raise ArithmeticError("inexact division in fraction-free elimination")
        if qa or qb:
            out[d] = (qa, qb)
    return out.items()


def row_reduce(
    rows: Sequence[Sequence[Exact]], ncols: int
) -> tuple[list[list[Exact]], list[int]]:
    """Gauss-Jordan elimination on the first ncols columns, exactly.

    Returns (rows, pivot_cols): the rows in reduced row-echelon form, each
    pivot scaled to a leading 1 and its column cleared in every other row,
    and the pivot columns in order.  Columns past ncols are carried along,
    as the right-hand sides of an augmented system.  The pivot of a column
    is the first row at or below the earlier pivot rows nonzero there.
    """
    width = len(rows[0]) if rows else 0
    a, scale = [], []
    for row in rows:
        parts = [x.int_parts() for x in row]
        L = math.lcm(*(den for _, den in parts))
        scale.append(L)
        a.append([
            items if den == L
            else {d: (re * (L // den), im * (L // den)) for d, (re, im) in items}.items()
            for items, den in parts
        ])
    # Entries are int parts (items views, empty for 0).  p_k is the pivot
    # of step k, p_0 = 1, and inv is 1/p_k of the last step as int parts
    # over an int.  Step k + 1 brings every row but its pivot row t to
    # (p_(k+1) row - row[c] t) / p_k.
    inv = (_ONE_PARTS, 1)
    pivots: list[int] = []
    live = list(range(width))
    for c in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        for v in (a, scale):
            v[k], v[piv] = v[piv], v[k]
        t = a[k]
        live.remove(c)
        p, t[c] = t[c], ()
        parts, den = inv
        fp = _add_products({}, p, parts).items()
        for r, row in enumerate(a):
            if r == k:
                continue
            fn = _add_products({}, [(d, (-x, -y)) for d, (x, y) in row[c]], parts).items()
            for j in live:
                x, y = row[j], t[j]
                if x or y:
                    out = _add_products({}, fp, x) if x else {}
                    if y:
                        _add_products(out, fn, y)
                    row[j] = _quotient(out, den)
            row[c] = ()
        inv = _reduced(dict(p), 1).inverse().int_parts()
        pivots.append(c)
    # back to Exact, with every pivot column empty: every row over the last
    # pivot, the value each pivot entry would hold, and a row past the
    # pivots over the lcm it was scaled by too
    parts, den = inv
    reduced = []
    for r, row in enumerate(a):
        d = den if r < len(pivots) else den * scale[r]
        reduced.append([_reduced(_add_products({}, x, parts), d) if x else ZERO for x in row])
    for r, c in enumerate(pivots):
        reduced[r][c] = ONE
    return reduced, pivots


def exact_inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse: row-reduce [m | I]."""
    if m.rows != m.cols:
        raise DimensionMismatch("inverse needs a square matrix")
    n = m.rows
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m.entries)]
    a, pivots = row_reduce(aug, n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    return ExactMatrix([row[n:] for row in a])


EXP_TAYLOR_DEGREE = 18


def mat_exp_numeric(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor sum.

    m / 2^s has 1-norm below 1, where the degree-18 Taylor remainder,
    at most 1.1 / 19! < 1e-17, is below the unit roundoff; the sum is
    squared s times.  It uses numpy products only.  The matrices here are
    2x2 and 3x3: scipy's expm solves a linear system for its Pade
    approximant, which under a multi-threaded OpenBLAS can take
    milliseconds for a 3x3, and importing scipy costs more start-up than
    the whole check.
    """
    import numpy as np

    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch("exponential needs a square matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries")
    # frexp puts the 1-norm in [2^(s-1), 2^s), so |m / 2^s|_1 < 1
    s = max(0, math.frexp(float(np.abs(arr).sum(axis=0).max(initial=0.0)))[1])
    a = arr / 2.0**s
    eye = np.eye(arr.shape[0], dtype=complex)
    out = eye
    for k in range(EXP_TAYLOR_DEGREE, 0, -1):  # Horner: 1 + a (1 + a/2 (1 + ...))
        out = eye + (a @ out) / k
    for _ in range(s):
        out = out @ out
    return out

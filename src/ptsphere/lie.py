"""Matrix realizations of u(2)/u(3), structure constants, enveloping algebra.

Generators follow the index order X0 < X1 < ... used throughout: X0 is the
central u(1) element i*Identity, the rest span su(n).  Enveloping-algebra
elements are kept in PBW normal form (words with non-decreasing indices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exact import Exact, ONE, ZERO, I
from .errors import DimensionMismatch, UnsupportedOrder, UnsupportedRank, WordTooLong
from .matrices import ExactMatrix, exact_inverse

__all__ = [
    "GeneratorBasis",
    "EnvElement",
    "build_generators",
    "verify_structure_constants",
    "pbw_normal_form",
    "env_commutator",
    "casimir_element",
    "U2_TABLE",
    "U3_TABLE",
]

MAX_WORD_LEN = 6  # internal rewriting headroom; public contract is degree <= 3


def _m(rows) -> ExactMatrix:
    return ExactMatrix(rows)


def _u2_matrices() -> list[ExactMatrix]:
    i = I
    return [
        _m([[i, 0], [0, i]]),            # X0 = i*sigma_0
        _m([[0, i], [i, 0]]),            # X1 = i*sigma_1
        _m([[0, 1], [-1, 0]]),           # X2 = i*sigma_2
        _m([[i, 0], [0, -i]]),           # X3 = i*sigma_3
    ]


def _u3_matrices() -> list[ExactMatrix]:
    i = I
    return [
        _m([[i, 0, 0], [0, i, 0], [0, 0, i]]),      # X0
        _m([[i, 0, 0], [0, -i, 0], [0, 0, 0]]),     # X1
        _m([[0, 0, 0], [0, i, 0], [0, 0, -i]]),     # X2
        _m([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),     # X3
        _m([[0, i, 0], [i, 0, 0], [0, 0, 0]]),      # X4
        _m([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),     # X5
        _m([[0, 0, i], [0, 0, 0], [i, 0, 0]]),      # X6
        _m([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),     # X7
        _m([[0, 0, 0], [0, 0, i], [0, i, 0]]),      # X8
    ]


# printed commutator tables; entries map (i, j) -> {k: coefficient} meaning
# [X_i, X_j] = sum_k coeff * X_k
U2_TABLE: dict[tuple[int, int], dict[int, int]] = {
    (3, 2): {1: 2},
    (2, 1): {3: 2},
    (1, 3): {2: 2},
}

U3_TABLE: dict[tuple[int, int], dict[int, int]] = {
    (1, 3): {4: 2}, (1, 4): {3: -2}, (1, 5): {6: 1},
    (1, 6): {5: -1}, (1, 7): {8: -1}, (1, 8): {7: 1},
    (2, 3): {4: -1}, (2, 4): {3: 1}, (2, 5): {6: 1},
    (2, 6): {5: -1}, (2, 7): {8: 2}, (2, 8): {7: -2},
    (3, 4): {1: 2}, (3, 5): {7: -1}, (3, 6): {8: -1},
    (3, 7): {5: 1}, (3, 8): {6: 1}, (4, 5): {8: 1},
    (4, 6): {7: -1}, (4, 7): {6: 1}, (4, 8): {5: -1},
    (5, 6): {1: 2, 2: 2}, (5, 7): {3: -1}, (5, 8): {4: 1},
    (6, 7): {4: -1}, (6, 8): {3: -1}, (7, 8): {2: 2},
}

U2_SYMMETRIC = (True, True, False, True)
U3_SYMMETRIC = (True, True, True, False, True, False, True, False, True)


@dataclass(frozen=True)
class GeneratorBasis:
    """An ordered u(n) generator set with derived structure constants."""

    n: int
    generators: tuple[ExactMatrix, ...]
    symmetric_flags: tuple[bool, ...]
    # structure[(i, j)] for i < j: dict {k: Exact}; [X_i, X_j] = sum c_k X_k
    structure: dict[tuple[int, int], dict[int, Exact]] = field(hash=False)
    # row k holds the nonzero (j, entry) of row k of the inverse of the
    # n^2 x n^2 matrix whose columns are vec(X_0), vec(X_1), ...
    coordinate_rows: tuple[tuple[tuple[int, Exact], ...], ...] = field(hash=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.generators)

    def bracket_coeffs(self, i: int, j: int) -> dict[int, Exact]:
        if i == j:
            return {}
        if i < j:
            return self.structure[(i, j)]
        return {k: -c for k, c in self.structure[(j, i)].items()}

    def expand_in_basis(self, m: ExactMatrix) -> dict[int, Exact]:
        """Write the n x n matrix m as a combination of the generators, exactly.

        The n^2 generators span every complex n x n matrix, so the
        coefficients are the product of the inverse generator-column matrix
        (computed once per basis, nonzero entries only) with vec(m).  Only
        the nonzero coefficients are returned, in generator order.
        """
        if (m.rows, m.cols) != (self.n, self.n):
            raise DimensionMismatch(
                f"expected a {self.n}x{self.n} matrix, got {m.rows}x{m.cols}"
            )
        vec = [x for row in m.entries for x in row]
        out = {}
        for k, row in enumerate(self.coordinate_rows):
            c = sum((a * vec[j] for j, a in row), ZERO)
            if not c.is_zero():
                out[k] = c
        return out


@lru_cache(maxsize=None)
def build_generators(n: int) -> GeneratorBasis:
    """The fixed-order generator basis of u(2) or u(3)."""
    if n == 2:
        mats, flags = _u2_matrices(), U2_SYMMETRIC
    elif n == 3:
        mats, flags = _u3_matrices(), U3_SYMMETRIC
    else:
        raise UnsupportedRank(f"no generator table for u({n})")
    columns = ExactMatrix([[x for row in X.entries for x in row] for X in mats]).transpose()
    coordinate_rows = tuple(
        tuple((j, a) for j, a in enumerate(row) if not a.is_zero())
        for row in exact_inverse(columns).entries
    )
    basis = GeneratorBasis(n, tuple(mats), flags, {}, coordinate_rows)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i].commutator(mats[j])
            basis.structure[(i, j)] = (
                {} if comm.is_zero() else basis.expand_in_basis(comm)
            )
    return basis


@dataclass
class StructureReport:
    checked: int
    mismatches: list

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_structure_constants(basis: GeneratorBasis) -> StructureReport:
    """Check every printed commutator-table entry against direct recomputation."""
    table = U2_TABLE if basis.n == 2 else U3_TABLE
    mismatches = []
    for (i, j), coeffs in table.items():
        lhs = basis.generators[i].commutator(basis.generators[j])
        rhs = ExactMatrix.zero(basis.n, basis.n)
        for k, c in coeffs.items():
            rhs = rhs + basis.generators[k].scale(c)
        if lhs != rhs:
            mismatches.append((i, j))
    # central element and Cartan pairs commute even though absent from the table
    for i in range(basis.size):
        if not basis.generators[0].commutator(basis.generators[i]).is_zero():
            mismatches.append((0, i))
    return StructureReport(checked=len(table) + basis.size, mismatches=mismatches)


class EnvElement:
    """Enveloping-algebra element: map from index words to Exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], Exact] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def gen(cls, i: int, coeff=1) -> "EnvElement":
        return cls({(i,): Exact.coerce(coeff)})

    @classmethod
    def const(cls, c) -> "EnvElement":
        return cls({(): Exact.coerce(c)})

    @classmethod
    def linear(cls, coeffs: dict[int, Exact]) -> "EnvElement":
        return cls({(i,): Exact.coerce(c) for i, c in coeffs.items()})

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "EnvElement") -> "EnvElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, ZERO) + c
        return EnvElement(out)

    def __sub__(self, other: "EnvElement") -> "EnvElement":
        return self + (-other)

    def __neg__(self) -> "EnvElement":
        return EnvElement({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "EnvElement":
        c = Exact.coerce(c)
        return EnvElement({w: c * v for w, v in self.terms.items()})

    def __mul__(self, other: "EnvElement") -> "EnvElement":
        out: dict[tuple[int, ...], Exact] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, ZERO) + c1 * c2
        return EnvElement(out)

    def __eq__(self, other):
        return isinstance(other, EnvElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "EnvElement(0)"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            mon = "*".join(f"X{i}" for i in w) or "1"
            bits.append(f"({self.terms[w]})*{mon}")
        return " + ".join(bits)


def anticommutator(a: EnvElement, b: EnvElement) -> EnvElement:
    return a * b + b * a


def _rewrite_word(word: tuple[int, ...], basis: GeneratorBasis) -> dict[tuple[int, ...], Exact]:
    """PBW-order one word: X_a X_b = X_b X_a + [X_a, X_b] for each descent."""
    if len(word) > MAX_WORD_LEN:
        raise WordTooLong(f"word of length {len(word)} exceeds rewriting cap")
    # find first adjacent descent
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        if a > b:
            out: dict[tuple[int, ...], Exact] = {}
            swapped = word[:t] + (b, a) + word[t + 2 :]
            for w, c in _rewrite_word(swapped, basis).items():
                out[w] = out.get(w, ZERO) + c
            for k, coeff in basis.bracket_coeffs(a, b).items():
                reduced = word[:t] + (k,) + word[t + 2 :]
                for w, c in _rewrite_word(reduced, basis).items():
                    out[w] = out.get(w, ZERO) + coeff * c
            return out
    return {word: ONE}


def pbw_normal_form(e: EnvElement, basis: GeneratorBasis) -> EnvElement:
    """Rewrite into the canonical non-decreasing-word form."""
    out: dict[tuple[int, ...], Exact] = {}
    for word, c in e.terms.items():
        for w, f in _rewrite_word(word, basis).items():
            out[w] = out.get(w, ZERO) + c * f
    return EnvElement(out)


def env_commutator(a: EnvElement, b: EnvElement, basis: GeneratorBasis) -> EnvElement:
    """PBW normal form of ab - ba."""
    return pbw_normal_form(a * b - b * a, basis)


def casimir_element(order: int, basis: GeneratorBasis) -> EnvElement:
    """The printed quadratic/cubic Casimir elements (su(n) part)."""
    X = [EnvElement.gen(i) for i in range(basis.size)]
    if order == 2 and basis.n == 2:
        # normalization fixed so the classical reduction of C2 is exactly
        # twice the reduced Hamiltonian
        return (X[1] * X[1] + X[2] * X[2] + X[3] * X[3]).scale(2)
    if order == 2 and basis.n == 3:
        quad = (X[1] * X[1] + X[2] * X[1] + X[2] * X[2]).scale(4)
        for i in range(3, 9):
            quad = quad + (X[i] * X[i]).scale(3)
        return quad
    if order == 3 and basis.n == 3:
        c = (X[8] * X[6] + X[7] * X[5]) * X[4]
        c = c + (X[8] * X[5] - X[7] * X[6]) * X[3]
        c = c + ((X[1] - X[2]) * (X[1].scale(2) + X[2]) * (X[1] + X[2].scale(2))).scale(
            Fraction(4, 27)
        )
        c = c + anticommutator(X[1] + X[2].scale(2), X[3] * X[3] + X[4] * X[4]).scale(
            Fraction(1, 6)
        )
        c = c + anticommutator(X[1] - X[2], X[5] * X[5] + X[6] * X[6]).scale(Fraction(1, 6))
        c = c - anticommutator(X[1].scale(2) + X[2], X[7] * X[7] + X[8] * X[8]).scale(
            Fraction(1, 6)
        )
        c = c - (X[1] - X[2]).scale(Fraction(4, 3))
        return c
    raise UnsupportedOrder(f"no Casimir of order {order} for u({basis.n})")

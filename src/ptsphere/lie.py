"""Matrix realizations of u(2)/u(3), structure constants, enveloping algebra.

The basis of u(n) is generated from the matrix units E_jk, in the index order
X0 < X1 < ... used throughout: X0 = i*Identity (the central u(1) element),
then i(E_kk - E_{k+1,k+1}) for k < n - 1, then E_jk - E_kj and i(E_jk + E_kj)
for each pair j < k.  For u(3) that is the printed list; u(2) keeps its
printed Pauli order i*sigma_1, i*sigma_2, i*sigma_3 by the one permutation
(0, 3, 2, 1) of the generated list.  Which generators are symmetric is read
off the matrices.  Enveloping-algebra elements are kept in PBW normal form
(words with non-decreasing indices); the Casimirs are Gelfand invariants.
The structure constants are derived from the matrices; the paper's printed
commutator tables are the tests' reference data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exact import Exact, ONE, ZERO, I, keyed_sum_of_products, sum_of_products
from .errors import DimensionMismatch, UnsupportedOrder, UnsupportedRank, WordTooLong
from .matrices import ExactMatrix, exact_inverse

__all__ = [
    "GeneratorBasis",
    "EnvElement",
    "build_generators",
    "pbw_normal_form",
    "env_commutator",
    "casimir_element",
]

MAX_WORD_LEN = 6  # internal rewriting headroom; public contract is degree <= 3


def _matrix(n: int, entries: dict[tuple[int, int], Exact]) -> ExactMatrix:
    """The n x n matrix with the given (row, column) entries, zero elsewhere."""
    return ExactMatrix([[entries.get((r, c), ZERO) for c in range(n)] for r in range(n)])


def _generated_matrices(n: int) -> list[ExactMatrix]:
    mats = [_matrix(n, {(k, k): I for k in range(n)})]
    mats += [_matrix(n, {(k, k): I, (k + 1, k + 1): -I}) for k in range(n - 1)]
    for j in range(n):
        for k in range(j + 1, n):
            mats += [_matrix(n, {(j, k): ONE, (k, j): -ONE}), _matrix(n, {(j, k): I, (k, j): I})]
    if n == 2:  # the printed order i*sigma_1, i*sigma_2, i*sigma_3 after i*I
        mats = [mats[k] for k in (0, 3, 2, 1)]
    return mats


@dataclass(frozen=True)
class GeneratorBasis:
    """An ordered u(n) generator set with derived structure constants."""

    n: int
    generators: tuple[ExactMatrix, ...]
    symmetric_flags: tuple[bool, ...]
    # structure[(i, j)] for i < j: dict {k: Exact}; [X_i, X_j] = sum c_k X_k
    structure: dict[tuple[int, int], dict[int, Exact]] = field(hash=False)
    # row k holds (j, entry) for the nonzero entries of row k of the inverse
    # of the n^2 x n^2 matrix whose columns are vec(X_0), vec(X_1), ...
    coordinate_rows: tuple[tuple[tuple[int, Exact], ...], ...] = field(hash=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.generators)

    def __hash__(self) -> int:
        # the hashed fields' hash, computed once: it keys casimir_element's
        # and _rewrite_word's caches, and hashing the n^2 generator matrices
        # anew costs up to 0.3 ms
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, self.generators, self.symmetric_flags))
            object.__setattr__(self, "_hash", h)
            return h

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
        (computed once per basis, nonzero entries only) with
        vec(m), each one sum of products.  Only the nonzero coefficients are
        returned, in generator order.
        """
        if (m.rows, m.cols) != (self.n, self.n):
            raise DimensionMismatch(
                f"expected a {self.n}x{self.n} matrix, got {m.rows}x{m.cols}"
            )
        vec = [x for row in m.entries for x in row]
        out = {}
        for k, row in enumerate(self.coordinate_rows):
            c = sum_of_products((a, vec[j]) for j, a in row)
            if c:
                out[k] = c
        return out


@lru_cache(maxsize=None)
def build_generators(n: int) -> GeneratorBasis:
    """The fixed-order generator basis of u(2) or u(3)."""
    if n not in (2, 3):
        raise UnsupportedRank(f"u({n}) is not supported; the ranks are 2 and 3")
    mats = _generated_matrices(n)
    flags = tuple(X.is_symmetric() for X in mats)
    columns = ExactMatrix([[x for row in X.entries for x in row] for X in mats]).transpose()
    coordinate_rows = tuple(
        tuple((j, a) for j, a in enumerate(row) if a)
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


class EnvElement:
    """Enveloping-algebra element: map from index words to Exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], Exact] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def gen(cls, i: int, coeff=1) -> "EnvElement":
        return cls({(i,): Exact.coerce(coeff)})

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
        return EnvElement(keyed_sum_of_products(
            (w1 + w2, c1, c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
        ))

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


@lru_cache(maxsize=None)
def _rewrite_word(
    word: tuple[int, ...], basis: GeneratorBasis
) -> tuple[tuple[tuple[int, ...], Exact], ...]:
    """PBW-order one word, as (word, coefficient) pairs: X_a X_b = X_b X_a +
    [X_a, X_b] at each descent.  Each (word, basis) is rewritten once per
    process and kept; words are at most MAX_WORD_LEN long."""
    if len(word) > MAX_WORD_LEN:
        raise WordTooLong(f"word of length {len(word)} exceeds rewriting cap")
    # find first adjacent descent
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        if a > b:
            head, tail = word[:t], word[t + 2 :]
            terms = [(head + (b, a) + tail, ONE)]
            terms += [(head + (k,) + tail, c) for k, c in basis.bracket_coeffs(a, b).items()]
            return tuple(keyed_sum_of_products(
                (w, coeff, c) for u, coeff in terms for w, c in _rewrite_word(u, basis)
            ).items())
    return ((word, ONE),)


def pbw_normal_form(e: EnvElement, basis: GeneratorBasis) -> EnvElement:
    """Rewrite into the canonical non-decreasing-word form."""
    return EnvElement(keyed_sum_of_products(
        (w, c, f) for word, c in e.terms.items() for w, f in _rewrite_word(word, basis)
    ))


def env_commutator(a: EnvElement, b: EnvElement, basis: GeneratorBasis) -> EnvElement:
    """PBW normal form of ab - ba."""
    return pbw_normal_form(a * b - b * a, basis)


@lru_cache(maxsize=None)
def casimir_element(order: int, basis: GeneratorBasis) -> EnvElement:
    """The Gelfand invariant sum E~_{i1 i2} E~_{i2 i3} ... E~_{ik i1} (order
    k = 2 or 3) of the traceless matrix units E~_ij = E_ij - delta_ij I/n,
    each written in the basis, in PBW normal form.

    Order 2 is scaled by -2n: for u(2) that is 2(X1^2 + X2^2 + X3^2), whose
    classical reduction is exactly twice the reduced Hamiltonian.
    """
    if order not in (2, 3):
        raise UnsupportedOrder(f"no Casimir of order {order}; the orders are 2 and 3")
    n = basis.n
    centre = ExactMatrix.identity(n).scale(Fraction(1, n))

    def traceless_unit(i: int, j: int) -> EnvElement:
        e = _matrix(n, {(i, j): ONE})
        return EnvElement.linear(basis.expand_in_basis(e - centre if i == j else e))

    E = [[traceless_unit(i, j) for j in range(n)] for i in range(n)]
    power = E  # power[i][j] = sum of E~_{i i2} ... E~_{i_m j} over the inner indices
    for _ in range(order - 2):
        power = [
            [sum((power[i][m] * E[m][j] for m in range(n)), EnvElement()) for j in range(n)]
            for i in range(n)
        ]
    trace = sum((power[i][m] * E[m][i] for i in range(n) for m in range(n)), EnvElement())
    return pbw_normal_form(trace.scale(-2 * n) if order == 2 else trace, basis)

"""The per-pair loops that the sums of products replaced, one Exact product
and one Exact sum per pair of operands: the reference the tests hold
ExactMatrix products and commutators, the u(n) basis expansion, the
projection to phase space, PhasePoly products, the keyed sums of products,
EnvElement products and the PT classification against."""

from functools import reduce
from operator import add

from ptsphere import reduction
from ptsphere.errors import NotPTCompatible
from ptsphere.exact import Exact, ZERO
from ptsphere.lie import EnvElement, build_generators
from ptsphere.matrices import ExactMatrix
from ptsphere.phase import PhasePoly, PhaseRational


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    cols = list(zip(*b.entries))
    return ExactMatrix(
        [[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols] for row in a.entries]
    )


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return matmul(a, b) - matmul(b, a)


def parity_matrix(parity) -> ExactMatrix:
    """P with P[image[mu]][mu] = sign[mu], zero elsewhere."""
    n = len(parity.image)
    rows = [[ZERO] * n for _ in range(n)]
    for mu in range(n):
        rows[parity.image[mu]][mu] = Exact.coerce(parity.sign[mu])
    return ExactMatrix(rows)


def classify_pt(m, parity) -> tuple[int, ...]:
    """The sign eps with Z = eps * P conj(Z) P, from two matrix products."""
    P = parity_matrix(parity)
    eps = []
    for i, Z in enumerate(m.matrices):
        img = matmul(matmul(P, Z.conjugate()), P)
        if (Z - img).is_zero():
            eps.append(1)
        elif (Z + img).is_zero():
            eps.append(-1)
        else:
            raise NotPTCompatible(f"generator {i} is neither even nor odd")
    return tuple(eps)


def expand_in_basis(basis, m: ExactMatrix) -> dict[int, Exact]:
    vec = [x for row in m.entries for x in row]
    out = {}
    for k, row in enumerate(basis.coordinate_rows):
        c = sum((a * vec[j] for j, a in row), ZERO)
        if not c.is_zero():
            out[k] = c
    return out


def poly_products(n: int, pairs) -> PhasePoly:
    """sum f*g over PhasePoly pairs, one Exact product and sum per pair of terms."""
    out = {}
    for f, g in pairs:
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
    return PhasePoly(n, out)


def keyed_sum_of_products(triples) -> dict:
    """{key: sum x*y} over (key, x, y) triples, zero sums dropped."""
    out = {}
    for key, x, y in triples:
        out[key] = out.get(key, ZERO) + x * y
    return {key: c for key, c in out.items() if c}


def env_product(a: EnvElement, b: EnvElement) -> EnvElement:
    """a*b, one Exact product and sum per pair of words."""
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            out[w1 + w2] = out.get(w1 + w2, ZERO) + c1 * c2
    return EnvElement(out)


def project_env_element(e: EnvElement, masa) -> PhaseRational:
    """Each word scaled and multiplied out, then added to the numerator."""
    det = reduction._det_and_y(masa)[0]
    nums, L = reduction._generator_nums(masa), e.degree()
    powers = {1: det} if L else {0: PhasePoly.const(masa.n, 1)}
    for k in range(2, L + 1):
        powers[k] = poly_products(masa.n, [(powers[k - 1], det)])
    num = PhasePoly(masa.n)
    for word, c in e.terms.items():
        factors = [nums[gi] for gi in word]
        if len(word) < L or not word:
            factors.append(powers[L - len(word)])
        num = num + reduce(lambda f, g: poly_products(masa.n, [(f, g)]), factors[1:],
                           factors[0].scale(c))
    return PhaseRational(num, powers[L])


def momentum_map(X: ExactMatrix, masa) -> PhaseRational:
    coeffs = expand_in_basis(build_generators(masa.n), X)
    return project_env_element(EnvElement.linear(coeffs), masa)

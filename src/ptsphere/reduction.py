"""Symplectic reduction engine: potentials, momentum maps, integrals.

Everything algebraic is exact.  The ambient data is a MASA of u(n); the
engine produces the reduced potential V = k^T (-A^T A)^{-1} k, the momentum
map X -> Xhat on the constrained phase space, the named models' integrals
of motion, and their identity verdicts.  A model's relations are one table
in its MODELS entry, checked by verify_relation.  Every verdict returns one
RelationReport (passed, trials, detail), passed or failed: trials is the
count it was set to run (0 for a symbolic one), a failure's detail names
what failed, and the caller keys the report.  Every
sampled verdict runs through _sampled_report, which reads each point into
one phase._Point for the verdict's residuals and fails with the name of the
first nonzero one.  The one float verdict, appendix_report on the
Appendix's Jacobian block identities, runs jacobian_check, which imports
numpy in its body.

One matrix carries the reduction: A(s), with A_{mu nu} = (Z_nu s)_mu.
_cofactors gives det A and adj A by one Laplace expansion, and _det_and_y
turns them into det A and the vector y = adj(A)^T k, both divided by the
coefficient of det A's first printed term.  So det A is monic, as
PhaseRational normalises a den, and every image keeps det A itself as its
den: the n^2 images share one den object, as V, H and the projected
quadratic Casimir share det A^2 (_det_powers).  y has two readers:

- build_potential: adj(-A^T A) = (-1)^(n-1) adj(A) adj(A)^T and
  det(-A^T A) = (-1)^n det(A)^2, so V = -sum_b y_b^2 / det(A)^2;
- _generator_nums: a symmetric generator g maps to y^T g s / det A, an
  antisymmetric one to p^T g s.

Momentum maps have this one construction path: project_env_element sums an
enveloping element's words, products of generator numerators, over det A^L
for words of length at most L, as one linear combination of the word
polynomials; momentum_map is its linear case, over det A.
Every image thus has the poles of det A.  verify_homomorphism and
casimir_projection_report read only the generator images' values at each
point, and combine them into the bracket and correction images.  Each
sampled verdict reads a point once (phase._Point) and sweeps each distinct
polynomial there once, so det A once per point for all n^2 images; the
homomorphism's pair residuals and the Casimir's words at a point are each
one exact.sum_of_products over the images' values and gradients.

Each MASA is reduced once per process.  det A and y, the n^2 generator
images, det A's powers, (V, H), the catalog integrals and the two sides of
each relation are kept per MASA ((V, H), the integrals and the sides per
MASA and MODELS entry, so a replaced entry is rebuilt), the most
recent BUILD_CACHE_SIZE of each.  The kept objects are never changed, and each
PhasePoly keeps its int form, so a second verdict builds nothing before it
evaluates.  build_hamiltonian, integrals_catalog and generator_images return
new lists and a new ReducedSystem around them, which a caller may change.

The lambda family is written once, as masa.lambda_frame's rows: on s they
give the w's of the separable potential, on L the M's of the integrals.  The
degenerate models take both at lambda^2 = 1/2: the separable form there, and
T = 2 M_-; degenerate_minus is the conjugate frame.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from math import prod
from typing import Callable, Sequence

from .exact import Exact, I, ONE, rat, sum_of_products
from .errors import DegenerateMasa, FitUnderdetermined, UnknownName
from .lie import EnvElement, build_generators, casimir_element
from .masa import MasaSpec, lambda_frame
from .matrices import ExactMatrix, mat_exp_numeric, row_reduce
from .phase import (
    DEFAULT_SEED,
    PhasePoly,
    PhaseRational,
    _bracket_of_gradients,
    _Point,
    _bracket_pairs,
    _combination,
    _dirac_of_gradients,
    _leading,
    first_nonzero_residual,
    poisson_bracket,
    poisson_bracket_at,
    pole_free_values,
)

__all__ = [
    "ReducedSystem",
    "Model",
    "MODELS",
    "JacobianCheck",
    "build_A",
    "build_potential",
    "generator_images",
    "momentum_map",
    "project_env_element",
    "build_hamiltonian",
    "integrals_catalog",
    "verify_relation",
    "verify_sum_relation",
    "verify_masa_reduction",
    "verify_pt_invariance",
    "casimir_projection_report",
    "verify_conservation",
    "verify_homomorphism",
    "racah_structure_report",
    "jacobian_check",
    "appendix_report",
    "angular_momentum",
]


def angular_momentum(i: int) -> PhasePoly:
    """L_i = eps_ijk s_j p_k on the 2-sphere phase space (i in 1..3)."""
    n = 3
    j, k = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[i]
    return PhasePoly.s(n, j - 1) * PhasePoly.p(n, k - 1) - PhasePoly.s(
        n, k - 1
    ) * PhasePoly.p(n, j - 1)


# -- the reduction proper ------------------------------------------------------

# how many MASAs (for (V, H) and the integrals: MASA and MODELS entry pairs)
# keep their builds in one process
BUILD_CACHE_SIZE = 32
_kept = lru_cache(maxsize=BUILD_CACHE_SIZE)


def build_A(masa: MasaSpec):
    """A_{mu nu} = (Z_nu)_{mu sigma} s_sigma, a matrix of linear polynomials."""
    n = masa.n
    s = [PhasePoly.s(n, sg) for sg in range(n)]
    return [
        [sum((s[sg].scale(c) for sg, c in enumerate(Z.entries[mu]) if c), PhasePoly(n))
         for Z in masa.matrices]
        for mu in range(n)
    ]


def _minor(A, rows, cols) -> PhasePoly:
    """det of A on rows x cols, Laplace-expanded along the first row; zero
    entries are skipped."""
    if len(rows) == 1:
        return A[rows[0]][cols[0]]
    acc = PhasePoly(A[0][0].n)
    for t, c in enumerate(cols):
        a = A[rows[0]][c]
        if a.terms:
            m = a * _minor(A, rows[1:], cols[:t] + cols[t + 1:])
            acc = acc - m if t % 2 else acc + m
    return acc


def _cofactors(A) -> tuple[PhasePoly, list[list[PhasePoly]]]:
    """(det A, adj A): adj(A)_ij = (-1)^(i+j) times the minor without row j
    and column i, and det A = sum_t A_0t adj(A)_t0."""
    n = len(A)
    idx = tuple(range(n))
    adj = [[None] * n for _ in idx]
    for i in idx:
        for j in idx:
            m = _minor(A, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:])
            adj[i][j] = -m if (i + j) % 2 else m
    det = sum((A[0][t] * adj[t][0] for t in idx if A[0][t].terms), PhasePoly(n))
    return det, adj


@_kept
def _det_and_y(masa: MasaSpec) -> tuple[PhasePoly, tuple[PhasePoly, ...]]:
    """det A and y = adj(A)^T k, the vector both the potential and the
    symmetric generator images are read from, both divided by the
    coefficient of det A's first printed term.  So det A is monic as
    PhaseRational normalises a den, every image and power of it keeps that
    den as built, and the n^2 images share one den object."""
    n = masa.n
    det, adj = _cofactors(build_A(masa))
    if det.is_zero():
        raise DegenerateMasa("A matrix is identically singular")
    y = [
        sum((PhasePoly.k(n, a) * adj[a][b] for a in range(n) if adj[a][b].terms), PhasePoly(n))
        for b in range(n)
    ]
    lead = _leading(det)
    if lead != ONE:
        inv = lead.inverse()
        det, y = det.scale(inv), [yb.scale(inv) for yb in y]
    return det, tuple(y)


@_kept
def _det_powers(masa: MasaSpec) -> tuple[PhasePoly, PhasePoly, PhasePoly]:
    """1, det A and det A^2, one object each per MASA: V and the projected
    quadratic Casimir share det A^2, and H keeps V's den."""
    det = _det_and_y(masa)[0]
    return PhasePoly.const(masa.n, 1), det, det * det


@_kept
def build_potential(masa: MasaSpec) -> PhaseRational:
    """V(k, s) = k^T (-A^T A)^{-1} k = -sum_b y_b^2 / det(A)^2, since
    (-A^T A)^{-1} = -adj(A) adj(A)^T / det(A)^2."""
    y = _det_and_y(masa)[1]
    return PhaseRational(-sum((yb * yb for yb in y), PhasePoly(masa.n)), _det_powers(masa)[2])


@_kept
def _generator_nums(masa: MasaSpec) -> tuple[PhasePoly, ...]:
    """For each basis generator g, the numerator of its image over det A:
    p^T g s det A for antisymmetric g, y^T g s for symmetric g."""
    n = masa.n
    basis = build_generators(n)
    det, y = _det_and_y(masa)
    p = [PhasePoly.p(n, a) for a in range(n)]
    nums = []
    for g, sym in zip(basis.generators, basis.symmetric_flags):
        left = y if sym else p
        num = PhasePoly(n)
        for a in range(n):
            for b in range(n):
                e = g.entries[a][b]
                if not e.is_zero():
                    num = num + (left[a] * PhasePoly.s(n, b)).scale(e)
        nums.append(num if sym else num * det)
    return tuple(nums)


@_kept
def _images(masa: MasaSpec) -> tuple[PhaseRational, ...]:
    """The n^2 generator images, each its numerator over det A."""
    det = _det_and_y(masa)[0]
    return tuple(PhaseRational(num, det) for num in _generator_nums(masa))


def generator_images(masa: MasaSpec) -> list[PhaseRational]:
    """The images of the n^2 basis generators, all over the denominator det A."""
    return list(_images(masa))


def momentum_map(X: ExactMatrix, masa: MasaSpec) -> PhaseRational:
    """The reduced phase-space image of a u(n) generator combination: the
    projection of its basis expansion, a linear enveloping element.  The map
    is defined on the real generator basis (p^T g s for antisymmetric g,
    k^T A^{-1} g s for symmetric g) and extended complex-linearly, which
    reproduces Zhat_rho = k_rho for every MASA generator."""
    coeffs = build_generators(masa.n).expand_in_basis(X)
    return project_env_element(EnvElement.linear(coeffs), masa)


def project_env_element(e: EnvElement, masa: MasaSpec) -> PhaseRational:
    """Classical projection: substitute X_i -> generator_images(masa)[i],
    products commute.  Symmetrized pairs {A,B} therefore land on 2*Ahat*Bhat.
    Each image is its numerator over det A, so with L the longest word's
    length, c * word w adds c prod_{i in w} nums[i] det A^(L - |w|) to the
    one numerator over det A^L, one linear combination of the word
    polynomials."""
    nums, L = _generator_nums(masa), e.degree()
    powers = list(_det_powers(masa))  # det A^k
    while len(powers) <= L:
        powers.append(powers[-1] * powers[1])
    words = []
    for word, c in e.terms.items():
        factors = [nums[gi] for gi in word]
        if len(word) < L or not word:
            factors.append(powers[L - len(word)])
        words.append((c, prod(factors[1:], start=factors[0])))
    return PhaseRational(_combination(masa.n, words), powers[L])


# -- named-model scaffolding ---------------------------------------------------


@dataclass
class ReducedSystem:
    masa: MasaSpec
    potential: PhaseRational
    hamiltonian: PhaseRational
    integrals: list = field(default_factory=list)  # list of (name, PhaseRational)


def _sq(f: PhaseRational) -> PhaseRational:
    return f * f


def _kP(i: int) -> PhaseRational:
    return PhaseRational(PhasePoly.k(3, i))


def _L(i: int) -> PhaseRational:
    return PhaseRational(angular_momentum(i))


def _lambda_frame(lam2: Fraction, sign: int, fs) -> list[PhaseRational]:
    """masa.lambda_frame's rows r_-, r_+, r_3 applied to fs; on (s1, s2, s3)
    they give w_-, w_+, w_3, and on (L1, L2, L3) M_-, M_+, M_3."""
    return [
        sum((f.scale(c) for f, c in zip(fs, row)), PhaseRational.const(3, 0))
        for row in lambda_frame(lam2, sign)
    ]


def _lambda_ws(lam2: Fraction, sign: int = 1) -> list[PhaseRational]:
    return _lambda_frame(lam2, sign, [PhaseRational(PhasePoly.s(3, i)) for i in range(3)])


def _lambda_integrals(masa: MasaSpec):
    (lam2,) = masa.params
    w1, w2, w3 = _lambda_ws(lam2)
    M1, M2, M3 = _lambda_frame(lam2, 1, [_L(1), _L(2), _L(3)])
    k1, k2, k3 = _kP(0), _kP(1), _kP(2)
    # relative minus: fixed by the over-completeness relation; the opposite
    # sign differs only by the additive constant 4 k2 k3 and is equally
    # conserved
    T1 = _sq(M1) + _sq(k2 * w3 / w2 - k3 * w2 / w3)
    T2 = _sq(M2) + _sq(k1 * w3 / w1 + k3 * w1 / w3)
    T3 = _sq(M3) + _sq(k1 * w2 / w1 + k2 * w1 / w2)
    return [("T1", T1), ("T2", T2), ("T3", T3)]


def _lambda_separable_potential(lam2: Fraction, sign: int = 1) -> PhaseRational:
    """k1^2/w_-^2 + k2^2/w_+^2 + k3^2/w_3^2, the separable Poschl-Teller form
    (Levai & Znojil, J. Phys. A 33 (2000) 7165) of V_lambda on s.s = 1.  At
    lambda^2 = 1/2 it is alpha^2/(s1 - s2 +- i sqrt(2) s3)^2 with
    alpha^2 = 4 k1^2 + 4 k2^2 - 2 k3^2, the branch chosen by sign."""
    ws = _lambda_ws(lam2, sign)
    return sum((_sq(_kP(i)) / _sq(w) for i, w in enumerate(ws)), PhaseRational.const(3, 0))


def _cartan_od_integrals(masa: MasaSpec):
    a, b = masa.params
    V = build_potential(masa)
    s1, s2, s3 = (PhaseRational(PhasePoly.s(3, i)) for i in range(3))
    one = PhaseRational.const(3, 1)
    L1, L2, L3 = _L(1), _L(2), _L(3)
    k1, k2, k3 = _kP(0), _kP(1), _kP(2)
    k1s = _sq(k1) / _sq(s1)
    T1 = _sq(L2) + _sq(L3) + k1s + _sq(s1) * V + (k3 * k1 - _sq(k1)).scale(rat(2))
    T2 = _sq(L1) + (one - _sq(s1)) * (V - k1s)
    den = s2 * s3.scale(a) - (_sq(s2) - _sq(s3)).scale(I * b)
    i2b = rat(0, 2) * b
    f1 = k2 * s3 + k3 * (s3.scale(a) - s2.scale(i2b))
    f2 = (k3 * s3).scale(a * a - rat(4) * b * b) + k2 * (s3.scale(a) - s2.scale(i2b))
    # the L2 L3 coefficient is -2ib, matching the projection of the
    # enveloping form (X3 reduces to -L3); +2ib is not conserved
    T3 = (
        _sq(L3).scale(a)
        - (L2 * L3).scale(rat(0, 2) * b)
        + _sq(s1) * f1 * f2 / _sq(den).scale(rat(4))
        + k1s * s2 * (s2.scale(a) + s3.scale(i2b))
        + k1 * (k2 + k3.scale(a))
    )
    return [("T1", T1), ("T2", T2), ("T3", T3)]


def _nilpotent_potential() -> PhaseRational:
    n = 3
    s1 = PhaseRational(PhasePoly.s(n, 0))
    w = PhaseRational(PhasePoly.s(n, 1) + PhasePoly.s(n, 2).scale(I))
    k1, k2, k3 = _kP(0), _kP(1), _kP(2)
    one = PhaseRational.const(n, 1)
    return (
        ((k1 * k2).scale(rat(2)) + _sq(k3)) / _sq(w)
        - (k2 * k3 * s1).scale(rat(4)) / (w ** 3)
        + _sq(k2) * (_sq(s1).scale(rat(4)) - one) / (w ** 4)
    )


def _nilpotent_integrals(masa: MasaSpec):
    VN = _nilpotent_potential()
    s1, s2 = (PhaseRational(PhasePoly.s(3, i)) for i in range(2))
    w = PhaseRational(PhasePoly.s(3, 1) + PhasePoly.s(3, 2).scale(I))
    L1, L2, L3 = _L(1), _L(2), _L(3)
    k1, k2, k3 = _kP(0), _kP(1), _kP(2)
    third = rat(Fraction(1, 3))
    T1 = (
        _sq(L1)
        + _sq(L3).scale(rat(2))
        - (L2 * L3).scale(rat(0, 2))
        + VN
        + _sq(k2).scale(rat(4)) / _sq(w)
        - (k2 * (s1 * k3 + s2 * k2.scale(rat(2)))).scale(rat(4)) / w
        + (_sq(k1) + (k1 * k2).scale(rat(4)) + _sq(k2).scale(rat(14))).scale(third)
    )
    T2 = (
        _sq(L2 + L3.scale(I))
        - (s1 * k2).scale(rat(4)) * (k2 * s1 - k3 * w) / _sq(w)
        - (k1 * k2).scale(rat(4) * third)
    )
    T3 = (
        (L2 + L3.scale(I)) * L1
        - s1 * w * VN
        + s1 * _sq(k2) / (w ** 3)
        - k2 * k3 / _sq(w)
        + (k3 * (k1 + k2.scale(rat(3)))).scale(third)
    )
    return [("T1", T1), ("T2", T2), ("T3", T3)]


def _degenerate_integrals(masa: MasaSpec):
    """T = 2 M_- at lambda^2 = 1/2: L1 - L2 +- i sqrt(2) L3."""
    (sign,) = masa.params
    M = _lambda_frame(Fraction(1, 2), sign, [_L(1), _L(2), _L(3)])[0]
    return [("T", M.scale(rat(2)))]


@dataclass(frozen=True, eq=False)
class Model:
    """What the reduction knows of one catalog model, hashed by identity.

    integrals(masa) builds its integrals; None: its one integral is H.
    relations maps a report key to relation(masa), the two sides of an
    identity on the constraint surface: "sum_relation", the
    over-completeness relation (the projected Casimir fits {H, 1, k_i k_j}
    on exactly the models that have one), and "separable_potential", a
    separated form of the potential.  racah: T12 = -T13 = T23 holds.
    potential(*masa.params), when set, replaces build_potential.
    """

    integrals: Callable | None
    relations: dict = field(default_factory=dict)
    racah: bool = False
    potential: Callable | None = None


def _on_system(relation: Callable) -> Callable:
    """relation(masa, H, T) on masa's built system (T: the integrals by
    name) as a relation of masa alone."""
    def sides(masa):
        sysr = build_hamiltonian(masa)
        return relation(masa, sysr.hamiltonian, dict(sysr.integrals))
    return sides


# the separable form at lambda^2 = 1/2, on the branch masa.params = (sign,)
_DEGENERATE = Model(
    _degenerate_integrals, potential=partial(_lambda_separable_potential, Fraction(1, 2))
)
MODELS = {
    # the su(2) quadratic Casimir reduces to twice the Hamiltonian in the
    # normalization of casimir_element
    "su2ab": Model(None, {"sum_relation": _on_system(lambda m, H, T: (
        project_env_element(casimir_element(2, build_generators(2)), m), H.scale(rat(2))
    ))}),
    "lambda": Model(_lambda_integrals, {
        "sum_relation": _on_system(lambda m, H, T: (
            T["T1"] + T["T2"] + T["T3"],
            H.scale(rat(1 - 2 * m.params[0])) - _sq(_kP(0) - _kP(1) - _kP(2)),
        )),
        "separable_potential": lambda m: (
            build_potential(m), _lambda_separable_potential(*m.params)
        ),
    }, racah=True),
    "cartan_od": Model(_cartan_od_integrals, {"sum_relation": _on_system(lambda m, H, T: (
        T["T1"] + T["T2"], H + (_kP(0) * _kP(2)).scale(rat(2)) - _sq(_kP(0))
    ))}),
    "nilpotent": Model(_nilpotent_integrals, {"sum_relation": _on_system(lambda m, H, T: (
        T["T1"] + T["T2"],
        H + (_sq(_kP(0)) + _sq(_kP(1)).scale(rat(2))).scale(rat(Fraction(1, 3))),
    ))}),
    # no sum relation: the projected Casimir fit over {H, 1, k_i k_j} is inconsistent
    "degenerate_plus": _DEGENERATE,
    "degenerate_minus": _DEGENERATE,
}


def integrals_catalog(masa: MasaSpec):
    """The displayed phase-space integrals for a named catalog model."""
    if masa.name not in MODELS:
        raise UnknownName(f"no catalog integrals for {masa.name!r}")
    return build_hamiltonian(masa).integrals


@_kept
def _integrals(masa: MasaSpec, model: Model) -> tuple:
    """model.integrals(masa) as (name, T) pairs; the key holds the MODELS
    entry, so replacing it builds anew."""
    return tuple(model.integrals(masa))


@_kept
def _potential_of(masa: MasaSpec, model: Model | None) -> tuple[PhaseRational, PhaseRational]:
    V = model.potential(*masa.params) if model and model.potential else build_potential(masa)
    p2 = sum((PhasePoly.p(masa.n, mu) ** 2 for mu in range(masa.n)), PhasePoly(masa.n))
    return V, PhaseRational(p2 * V.den + V.num, V.den)  # H = p.p + V keeps V's den


def _potential(masa: MasaSpec) -> tuple[PhaseRational, PhaseRational]:
    """(V, H = p.p + V): the model's own potential if it has one, else
    build_potential; no integral is built."""
    return _potential_of(masa, MODELS.get(masa.name))


def build_hamiltonian(masa: MasaSpec) -> ReducedSystem:
    """A new ReducedSystem, with a new integrals list, around the kept
    (V, H) and integrals; su2ab's one integral is H itself."""
    model = MODELS.get(masa.name)
    V, H = _potential(masa)
    sys = ReducedSystem(masa, V, H)
    if model:
        sys.integrals = list(_integrals(masa, model)) if model.integrals else [("H", H)]
    return sys


# -- verification reports ------------------------------------------------------


@dataclass
class RelationReport:
    """One identity verdict, passed or failed: trials is the count the check
    was set to run, and a failure's detail names what failed."""

    passed: bool
    trials: int
    detail: str = ""


def _degree_bound(*fs: PhaseRational) -> int:
    return sum(f.num.total_degree() + f.den.total_degree() for f in fs)


def _sampled_report(residuals: Callable[[_Point], list], n: int, trials: int, seed):
    """The one runner of every sampled zero verdict: residuals(point) lists
    the verdict's (name, value) pairs at each of trials sampled points, each
    read once into a _Point.  A failure's detail is the first nonzero name."""
    failed = first_nonzero_residual(lambda vals: residuals(_Point(vals, n)), n, trials, seed)
    return RelationReport(failed is None, trials, failed or "")


@_kept
def _sides(masa: MasaSpec, model: Model, key: str) -> tuple[PhaseRational, PhaseRational]:
    """The two sides of model's relation key on masa, kept per MODELS entry."""
    return model.relations[key](masa)


def verify_relation(masa: MasaSpec, key: str, seed: int = DEFAULT_SEED) -> RelationReport:
    """The two sides of the relation key of masa's MODELS entry are equal at
    max(20, degree bound + 1) sampled points; a model without the relation
    raises UnknownName."""
    model = MODELS.get(masa.name)
    label = key.replace("_", " ")
    if key not in getattr(model, "relations", {}):
        raise UnknownName(f"no {label} for {masa.label!r}")
    lhs, rhs = _sides(masa, model, key)
    trials = max(20, _degree_bound(lhs, rhs) + 1)
    failure = f"{label} for {masa.label} fails at a sampled point"
    return _sampled_report(
        lambda point: [(failure, lhs.eval(point) - rhs.eval(point))], masa.n, trials, seed
    )


def verify_sum_relation(masa: MasaSpec, seed: int = DEFAULT_SEED) -> RelationReport:
    """The displayed over-completeness relation of the named model."""
    return verify_relation(masa, "sum_relation", seed)


def verify_masa_reduction(masa: MasaSpec) -> RelationReport:
    """Zhat_rho = k_rho as an exact rational-function identity, every rho;
    a failure names the first rho for which it does not hold."""
    bad = next((rho + 1 for rho, Z in enumerate(masa.matrices)
                if not momentum_map(Z, masa).agrees_with(PhasePoly.k(masa.n, rho))), None)
    detail = f"Zhat_{bad} != k_{bad} for {masa.label}" if bad else "rational identity"
    return RelationReport(bad is None, 0, detail)


def verify_pt_invariance(masa: MasaSpec) -> RelationReport:
    """V = PT(V) under masa's parity as an exact rational-function identity."""
    V = _potential(masa)[0]
    ok = V.agrees_with(V.apply_pt(masa.parity))
    detail = "rational identity" if ok else f"V != PT(V) for {masa.label}"
    return RelationReport(ok, 0, detail)


def casimir_projection_report(
    masa: MasaSpec, seed: int = DEFAULT_SEED, npoints: int | None = None
) -> RelationReport:
    """Exact linear fit of the projected quadratic Casimir over the span
    {H, 1, k_i k_j}: the fitted constants, or the reason the samples do not
    determine them.  The Casimir is not built: at each point, read once, the
    generator images are evaluated, their shared den det A swept once, and
    combined by the words of casimir_element(2, ...), each a pair (i, j), in
    one exact.sum_of_products over the terms (c, g_i, g_j): one reduction
    per point, and no Exact built for c * g_i."""
    n = masa.n
    _, H = _potential(masa)
    maps = generator_images(masa)
    words = casimir_element(2, build_generators(n)).terms.items()
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    names = ("H", "1") + tuple(f"k{i + 1}k{j + 1}" for i, j in pairs)
    npts = 2 * len(names) + 6 if npoints is None else npoints

    def row(vals):
        point = _Point(vals, n)
        gen = [f.eval(point) for f in maps]
        cas = sum_of_products((c, gen[i], gen[j]) for (i, j), c in words)
        k = vals[2 * n:]
        return [H.eval(point), ONE] + [k[i] * k[j] for i, j in pairs] + [cas]

    rows = list(islice(pole_free_values(row, n, seed), npts))
    try:
        coeffs = _fit_exact(rows, names)
    except FitUnderdetermined as exc:
        passed, detail = False, f"{exc} for {masa.label}"
    else:
        passed = True
        detail = " + ".join(f"({c}) {name}" for name, c in coeffs.items() if not c.is_zero())
    return RelationReport(passed, npts, detail)


def verify_conservation(
    masa: MasaSpec, trials: int | None = None, seed: int = DEFAULT_SEED
) -> RelationReport:
    """{H, T}_Dirac vanishes on the constraint surface for every catalog
    integral, tested pointwise with exact arithmetic.  A MASA outside the
    catalog has no integrals: nothing is sampled, and the detail says that
    nothing was checked."""
    sysr = build_hamiltonian(masa)
    H, integrals = sysr.hamiltonian, sysr.integrals
    if not integrals:
        return RelationReport(True, 0, "no integral checked: the MASA has no catalog integrals")
    # every integral at the same points, as many as the most demanding needs
    used = trials if trials is not None else max(
        max(20, (_degree_bound(H, T) + 1) // 2) for _, T in integrals
    )

    named = [(f"{{H, {name}}}_D nonzero for {masa.label}", T) for name, T in integrals]

    def residuals(point):
        gH = H.grad_at(point)
        return [
            (failure, _dirac_of_gradients(gH, gH if T is H else T.grad_at(point), point.vals))
            for failure, T in named
        ]

    return _sampled_report(residuals, masa.n, used, seed)


@_kept
def _corrections(masa: MasaSpec) -> tuple[tuple[dict[int, Exact], ...], ...]:
    """[X_i, Z_mu] in the basis, for every generator i and MASA element mu."""
    basis = build_generators(masa.n)
    return tuple(tuple(basis.expand_in_basis(X.commutator(Z)) for Z in masa.matrices)
                 for X in basis.generators)


def verify_homomorphism(
    masa: MasaSpec, npoints: int = 30, seed: int = DEFAULT_SEED
) -> RelationReport:
    """{Xhat_i, Xhat_j} equals the image of [X_i, X_j] at sampled points.

    The reduced maps depend on the ignorable coordinates x through the
    conjugation B(x)^{-1} X B(x); at x = 0 the full canonical bracket
    therefore adds the (x, k) conjugate pair terms

        sum_mu  hat([X_i, Z_mu]) dXhat_j/dk_mu - hat([X_j, Z_mu]) dXhat_i/dk_mu

    to the plain (s, p) Poisson bracket.  Without them the relation fails
    for pairs of symmetric generators, whose maps carry no momenta.

    Only the n^2 generator images are built.  Each point is read once, and
    grad_at sweeps each image's num, and their shared den det A, once there;
    the gradient carries dXhat/dk_mu beside the (s, p) partials.  The map is
    linear, so at each point the image of [X_i, X_j] and of [X_i, Z_mu] is
    the combination of the generator values with the coefficients of that
    matrix in the basis: the structure constants for [X_i, X_j], the
    commutator's expansion for [X_i, Z_mu].  Each pair's residual, bracket
    plus k-correction minus image, is one exact.sum_of_products over its
    pairs of values.
    """
    n = masa.n
    basis = build_generators(n)
    maps = generator_images(masa)
    size = basis.size
    corr = _corrections(masa)
    pairs = {  # per pair: the name it fails under, and minus its image's terms
        (i, j): (f"bracket image mismatch for pair ({i},{j}) in {masa.label}",
                 [(k, -c) for k, c in basis.bracket_coeffs(i, j).items()])
        for i in range(size) for j in range(i + 1, size)
    }

    def residuals(point):
        # one gradient per map per point; pairs then combine values only
        grads = [f.grad_at(point) for f in maps]
        gen = [f.eval(point) for f in maps]
        plus = [[sum_of_products((c, gen[k]) for k, c in z.items()) for z in row] for row in corr]
        minus = [[-x for x in row] for row in plus]
        out = []
        for (i, j), (failure, minus_image) in pairs.items():
            terms = list(_bracket_pairs(grads[i], grads[j]))
            terms += zip(plus[i], grads[j][2 * n:])
            terms += zip(minus[j], grads[i][2 * n:])
            terms += [(c, gen[k]) for k, c in minus_image]
            out.append((failure, sum_of_products(terms)))
        return out

    return _sampled_report(residuals, n, npoints, seed)


@dataclass
class RacahReport(RelationReport):
    """passed: T12 = -T13 = T23 at every sampled point; bracket_fits: {T12, T1}
    and {T12, T2} over products of integrals, name to coefficient, if fitted."""

    bracket_fits: dict = field(default_factory=dict)

    @property
    def antisymmetry_ok(self) -> bool:
        return self.passed


def _fit_exact(aug: list[list[Exact]], names: Sequence[str]):
    """Solve an overdetermined exact linear system given as augmented rows
    (one value per name, then the right-hand side); raise if inconsistent.
    No rows is a ValueError: a fit needs at least one sampled point."""
    if not aug:
        raise ValueError("an exact fit needs at least one sampled point")
    ncol = len(names)
    rows, piv_cols = row_reduce(aug, ncol)
    if any(not row[ncol].is_zero() for row in rows[len(piv_cols):]):
        raise FitUnderdetermined("sampled system is inconsistent with the basis")
    if len(piv_cols) < ncol:
        raise FitUnderdetermined(
            f"fit basis is rank deficient on the samples ({len(piv_cols)}/{ncol})"
        )
    return {names[c]: rows[r][ncol] for r, c in enumerate(piv_cols)}


def racah_structure_report(
    masa: MasaSpec, seed: int = DEFAULT_SEED, npoints: int = 40, with_fits: bool = True
) -> RacahReport:
    """Classical Racah-type structure of the integrals T1, T2 and T3 of a
    catalog model that has them.

    Checks T12 = -T13 = T23 on the constraint surface, then (with_fits)
    solves exactly for the expansion of {T12, T1} and {T12, T2} over
    products of integrals at fixed rational couplings.  The coefficients
    are reported as computed.
    """
    n = masa.n
    T = dict(integrals_catalog(masa))
    if not {"T1", "T2", "T3"} <= T.keys():
        raise UnknownName("Racah report needs a model with integrals T1, T2 and T3")
    T1, T2, T3 = T["T1"], T["T2"], T["T3"]

    trials = max(20, (_degree_bound(T1, T2) + _degree_bound(T3) + 1) // 2)
    pb = _bracket_of_gradients
    plus, minus = (f"T12 {op} nonzero for {masa.label}" for op in ("+ T13", "- T23"))

    def residuals(point):
        g1, g2, g3 = (T.grad_at(point) for T in (T1, T2, T3))
        t12 = pb(g1, g2)
        return [(plus, t12 + pb(g1, g3)), (minus, t12 - pb(g2, g3))]

    rep = _sampled_report(residuals, n, trials, seed)
    report = RacahReport(rep.passed, trials, rep.detail or "T12 = -T13 = T23")
    if not with_fits:
        return report

    # nested brackets at fixed couplings; T12 assembled once symbolically
    T12 = poisson_bracket(T1, T2)
    kvals = [Exact.from_rational(kv) for kv in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))]
    names = ("T1*T2", "T1*T3", "T2*T3", "T1^2", "T2^2", "T3^2", "T1", "T2", "T3", "1")

    def fit_sample(vals, target):
        vals[2 * n :] = kvals
        point = _Point(vals, n)  # read after the couplings are fixed
        t1, t2, t3 = (T.eval(point) for T in (T1, T2, T3))
        b = poisson_bracket_at(T12, target, point)
        return [t1 * t2, t1 * t3, t2 * t3, t1 * t1, t2 * t2, t3 * t3, t1, t2, t3, ONE, b]

    rng = random.Random(seed + 7)
    for target_name, target in (("[T12,T1]", T1), ("[T12,T2]", T2)):
        samples = pole_free_values(lambda vals: fit_sample(vals, target), n, rng)
        report.bracket_fits[target_name] = _fit_exact(list(islice(samples, npoints)), names)
    return report


# -- Appendix identities (float) ------------------------------------------------


@dataclass
class JacobianCheck:
    residuals: dict


def jacobian_check(masa: MasaSpec, x: Sequence[float], s: Sequence[float]) -> JacobianCheck:
    """Float residuals of the block identities behind the reduced Hamiltonian.

    Checks, at B(x) = exp(x^mu Z_mu):
      inverse      |J J^{-1} - 1|
      block        |J^{-1} I (J^{-1})^T - (1/2) diag(Vmat^{-1}, 1)|
      x_indep      |(-A^T (B^{-2}) A)(x) - Vmat(0)|
      v_def        |Vmat(0) + A(0)^T A(0)|, A(0) evaluated from the exact build_A
    """
    import numpy as np

    n = masa.n
    Zs = [Z.to_numpy() for Z in masa.matrices]
    x = np.asarray(x, dtype=float)
    sv = np.asarray(s, dtype=complex)
    B = mat_exp_numeric(sum(xi * Zi for xi, Zi in zip(x, Zs)))
    Binv = np.linalg.inv(B)
    A = np.column_stack([Z @ B @ sv for Z in Zs])
    A0 = np.column_stack([Z @ sv for Z in Zs])
    Vm = -A0.T @ A0
    Ainv = np.linalg.inv(A)
    J = np.block([[A, B], [-Binv @ Binv @ A, Binv]])
    Jinv = 0.5 * np.block([[Ainv, -Ainv @ B @ B], [Binv, B]])
    Ibig = np.block(
        [[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]]
    )
    lhs = Jinv @ Ibig @ Jinv.T
    rhs = 0.5 * np.block(
        [
            [np.linalg.inv(Vm), np.zeros((n, n))],
            [np.zeros((n, n)), np.eye(n)],
        ]
    )
    # the exact A evaluated at s for the defining-identity residual
    vals = list(sv) + [0.0] * (2 * n)
    Aex = np.array([[f.eval_complex(vals) for f in row] for row in build_A(masa)])
    res = {
        "inverse": float(np.max(np.abs(J @ Jinv - np.eye(2 * n)))),
        "block": float(np.max(np.abs(lhs - rhs))),
        "x_indep": float(np.max(np.abs(-A.T @ Binv @ Binv @ A - Vm))),
        "v_def": float(np.max(np.abs(Vm + Aex.T @ Aex))),
    }
    return JacobianCheck(res)


def appendix_report(masa: MasaSpec, seed: int = DEFAULT_SEED) -> RelationReport:
    """jacobian_check at 10 drawn x in [-0.5, 0.5]^n and s in [-1, 1]^n: no
    residual may exceed 1e-9.  The detail gives the worst and its identity."""
    rng, res = random.Random(seed), []
    for _ in range(10):
        x = [rng.uniform(-0.5, 0.5) for _ in range(masa.n)]
        s = [rng.uniform(-1.0, 1.0) for _ in range(masa.n)]
        res += jacobian_check(masa, x, s).residuals.items()
    which, worst = max(res, key=lambda item: item[1])
    detail = f"worst residual {worst:.3e} ({which}) for {masa.label}"
    return RelationReport(all(r <= 1e-9 for _, r in res), 10, detail)

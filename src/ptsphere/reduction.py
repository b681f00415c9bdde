"""Symplectic reduction engine: potentials, momentum maps, integrals.

Everything algebraic is exact.  The ambient data is a MASA of u(n); the
engine produces the reduced potential V = k^T V_mat^{-1} k, the momentum
map X -> Xhat on the constrained phase space, the named models' integrals
of motion, and the verification reports for the conservation, sum, and
Racah-type identities.  Float checks (Jacobian block identities, the
coordinate change to the separable variables) live at the end.

Momentum maps have one construction path: _generator_images builds A, det A
and adj A once and returns the numerators over det A of the basis generator
images.  The map is linear, so every other image (momentum_map of any X, the
bracket and correction images in verify_homomorphism, the factors of
project_env_element) is a fixed combination of those generator images, and
every image has the same denominator det A and hence the same poles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Sequence

import numpy as np

from .exact import Exact, I, ONE, ZERO, rat
from .errors import (
    DegenerateMasa,
    DimensionMismatch,
    FitUnderdetermined,
    ParamOutOfRange,
    RelationFailed,
    UnknownName,
)
from .lie import EnvElement, build_generators, casimir_element
from .masa import CATALOG_NAMES, MasaSpec, catalog_masa
from .matrices import ExactMatrix, mat_exp_numeric
from .phase import (
    PhasePoly,
    PhaseRational,
    _bracket_of_gradients,
    dirac_bracket_at,
    func_vanishes_on_constraint,
    poisson_bracket,
    poisson_bracket_at,
    pole_free_values,
)

__all__ = [
    "ReducedSystem",
    "JacobianCheck",
    "build_A",
    "build_V_matrix",
    "build_potential",
    "degenerate_potential",
    "generator_images",
    "momentum_map",
    "project_env_element",
    "build_hamiltonian",
    "integrals_catalog",
    "verify_sum_relation",
    "verify_masa_reduction",
    "casimir_projection_report",
    "verify_conservation",
    "verify_homomorphism",
    "racah_structure_report",
    "coordinate_map",
    "verify_coordinate_map",
    "jacobian_check",
    "angular_momentum",
]


# -- small polynomial-matrix helpers ------------------------------------------


def _pm_zero(n: int, dim: int):
    return [[PhasePoly(dim) for _ in range(n)] for _ in range(n)]


def _pm_mul(A, B, dim):
    n = len(A)
    out = _pm_zero(n, dim)
    for i in range(n):
        for j in range(n):
            acc = PhasePoly(dim)
            for t in range(n):
                acc = acc + A[i][t] * B[t][j]
            out[i][j] = acc
    return out


def _pm_transpose(A):
    return [list(col) for col in zip(*A)]


def _pm_neg(A):
    return [[-x for x in row] for row in A]


def _pm_det(A, dim) -> PhasePoly:
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if n == 3:
        return (
            A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
        )
    raise DimensionMismatch("polynomial determinants implemented for n <= 3")


def _pm_adjugate(A, dim):
    n = len(A)
    if n == 1:
        return [[PhasePoly.const(dim, 1)]]
    if n == 2:
        return [[A[1][1], -A[0][1]], [-A[1][0], A[0][0]]]
    if n == 3:
        C = _pm_zero(3, dim)
        for i in range(3):
            for j in range(3):
                r = [x for x in range(3) if x != i]
                c = [x for x in range(3) if x != j]
                minor = A[r[0]][c[0]] * A[r[1]][c[1]] - A[r[0]][c[1]] * A[r[1]][c[0]]
                sign = 1 if (i + j) % 2 == 0 else -1
                C[j][i] = minor if sign > 0 else -minor
        return C
    raise DimensionMismatch("polynomial adjugates implemented for n <= 3")


def angular_momentum(i: int) -> PhasePoly:
    """L_i = eps_ijk s_j p_k on the 2-sphere phase space (i in 1..3)."""
    n = 3
    j, k = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[i]
    return PhasePoly.s(n, j - 1) * PhasePoly.p(n, k - 1) - PhasePoly.s(
        n, k - 1
    ) * PhasePoly.p(n, j - 1)


# -- the reduction proper ------------------------------------------------------


def build_A(masa: MasaSpec):
    """A_{mu nu} = (Z_nu)_{mu sigma} s_sigma, a matrix of linear polynomials."""
    n = masa.n
    A = _pm_zero(n, n)
    for nu, Z in enumerate(masa.matrices):
        for mu in range(n):
            acc = PhasePoly(n)
            for sg in range(n):
                c = Z.entries[mu][sg]
                if not c.is_zero():
                    acc = acc + PhasePoly.s(n, sg).scale(c)
            A[mu][nu] = acc
    return A


def build_V_matrix(masa: MasaSpec):
    """The potential matrix -A^T A; also checked against its defining
    double-contraction form entry by entry."""
    n = masa.n
    A = build_A(masa)
    V = _pm_neg(_pm_mul(_pm_transpose(A), A, n))
    # independent assembly from -(Z_mu Z_nu) contracted with s twice
    for mu in range(n):
        for nu in range(n):
            prod = masa.matrices[mu] @ masa.matrices[nu]
            direct = PhasePoly(n)
            for a in range(n):
                for b in range(n):
                    c = prod.entries[a][b]
                    if not c.is_zero():
                        direct = direct + (
                            PhasePoly.s(n, a) * PhasePoly.s(n, b)
                        ).scale(c)
            if not (V[mu][nu] + direct).is_zero():
                raise DegenerateMasa(
                    f"V matrix entry ({mu},{nu}) fails the -A^T A identity"
                )
    return V


def build_potential(masa: MasaSpec) -> PhaseRational:
    """V(k, s) = k^T Vmat^{-1} k via the exact adjugate."""
    n = masa.n
    Vm = build_V_matrix(masa)
    det = _pm_det(Vm, n)
    if det.is_zero():
        raise DegenerateMasa("potential matrix has identically zero determinant")
    adj = _pm_adjugate(Vm, n)
    num = PhasePoly(n)
    for i in range(n):
        for j in range(n):
            num = num + PhasePoly.k(n, i) * adj[i][j] * PhasePoly.k(n, j)
    return PhaseRational(num, det)


def _generator_images(masa: MasaSpec, indices) -> tuple[PhasePoly, dict[int, PhasePoly]]:
    """det A and, for each requested basis generator g, the numerator of its
    image over det A: p^T g s det A for antisymmetric g, k^T adj(A) g s for
    symmetric g.  A, det A and adj A are built once."""
    n = masa.n
    basis = build_generators(n)
    A = build_A(masa)
    det = _pm_det(A, n)
    if det.is_zero():
        raise DegenerateMasa("A matrix is identically singular")
    adj = _pm_adjugate(A, n)
    nums = {}
    for gi in indices:
        g = basis.generators[gi]
        num = PhasePoly(n)
        if basis.symmetric_flags[gi]:
            for a in range(n):
                for b in range(n):
                    acc = sum(
                        (adj[a][t].scale(g.entries[t][b]) for t in range(n)
                         if not g.entries[t][b].is_zero()),
                        PhasePoly(n),
                    )
                    if not acc.is_zero():
                        num = num + PhasePoly.k(n, a) * acc * PhasePoly.s(n, b)
            nums[gi] = num
        else:
            for a in range(n):
                for b in range(n):
                    e = g.entries[a][b]
                    if not e.is_zero():
                        num = num + (PhasePoly.p(n, a) * PhasePoly.s(n, b)).scale(e)
            nums[gi] = num * det
    return det, nums


def generator_images(masa: MasaSpec) -> list[PhaseRational]:
    """The images of the n^2 basis generators, all over the denominator det A."""
    det, nums = _generator_images(masa, range(build_generators(masa.n).size))
    return [PhaseRational(num, det) for num in nums.values()]


def momentum_map(X: ExactMatrix, masa: MasaSpec) -> PhaseRational:
    """The reduced phase-space image of a u(n) generator combination.

    The map is defined on the real generator basis (p^T g s for antisymmetric
    g, k^T A^{-1} g s for symmetric g) and extended complex-linearly, which
    reproduces Zhat_rho = k_rho for every MASA generator: the numerators of
    the generators X uses are summed over the shared denominator det A.
    """
    coeffs = build_generators(masa.n).expand_in_basis(X)
    det, nums = _generator_images(masa, coeffs)
    num = PhasePoly(masa.n)
    for gi, c in coeffs.items():
        num = num + nums[gi].scale(c)
    return PhaseRational(num, det)


def project_env_element(e: EnvElement, masa: MasaSpec) -> PhaseRational:
    """Classical projection: substitute X_i -> generator_images(masa)[i],
    products commute.  Symmetrized pairs {A,B} therefore land on 2*Ahat*Bhat."""
    images = generator_images(masa)
    out = PhaseRational.const(masa.n, 0)
    for word, c in e.terms.items():
        term = PhaseRational.const(masa.n, c)
        for gi in word:
            term = term * images[gi]
        out = out + term
    return out


# -- named-model scaffolding ---------------------------------------------------


@dataclass
class ReducedSystem:
    masa: MasaSpec
    potential: PhaseRational
    hamiltonian: PhaseRational
    integrals: list = field(default_factory=list)  # list of (name, PhaseRational)

    @property
    def n(self) -> int:
        return self.masa.n


def _lambda_constants(lam2: Fraction):
    lam = Exact.sqrt_rational(lam2)
    s = Exact.sqrt_rational(1 - 2 * lam2)
    lam_m = (ONE - s) / rat(2)
    lam_p = (ONE + s) / rat(2)
    return lam, lam_m, lam_p


def _lambda_denominators(lam2: Fraction):
    n = 3
    lam, lam_m, lam_p = _lambda_constants(lam2)
    s1, s2, s3 = (PhasePoly.s(n, i) for i in range(3))
    il = I * lam
    w1 = s1.scale(lam_m) - s2.scale(lam_p) + s3.scale(il)
    w2 = s1.scale(lam_p) - s2.scale(lam_m) + s3.scale(il)
    w3 = (s1 - s2).scale(il) - s3
    return w1, w2, w3


def _sq(f: PhaseRational) -> PhaseRational:
    return f * f


def _kP(i: int) -> PhaseRational:
    return PhaseRational(PhasePoly.k(3, i))


def _L(i: int) -> PhaseRational:
    return PhaseRational(angular_momentum(i))


def _lambda_integrals(lam2: Fraction):
    lam, lam_m, lam_p = _lambda_constants(lam2)
    il = I * lam
    w1, w2, w3 = (PhaseRational(w) for w in _lambda_denominators(lam2))
    L1, L2, L3 = _L(1), _L(2), _L(3)
    k1, k2, k3 = _kP(0), _kP(1), _kP(2)
    # relative minus: fixed by the over-completeness relation; the opposite
    # sign differs only by the additive constant 4 k2 k3 and is equally
    # conserved
    T1 = _sq(L1.scale(lam_m) - L2.scale(lam_p) + L3.scale(il)) + _sq(
        k2 * w3 / w2 - k3 * w2 / w3
    )
    T2 = _sq(L1.scale(lam_p) - L2.scale(lam_m) + L3.scale(il)) + _sq(
        k1 * w3 / w1 + k3 * w1 / w3
    )
    T3 = _sq(L1.scale(il) - L2.scale(il) - L3) + _sq(
        k1 * w2 / w1 + k2 * w1 / w2
    )
    return [("T1", T1), ("T2", T2), ("T3", T3)]


def _cartan_od_potential(a: Exact, b: Exact) -> PhaseRational:
    n = 3
    s1, s2, s3 = (PhasePoly.s(n, i) for i in range(3))
    k1, k2, k3 = (PhasePoly.k(n, i) for i in range(3))
    den2 = s2 * s3.scale(a) - (s2 * s2 - s3 * s3).scale(I * b)
    num2 = (s2 * s2 + s3 * s3) * (
        k2 * k2 + (k3 * k3).scale(a * a - rat(4) * b * b)
    ) - (k2 * k3).scale(2) * (
        (s2 * s2 - s3 * s3).scale(a) + (s3 * s2).scale(rat(0, 4) * b)
    )
    term1 = PhaseRational(k1 * k1, s1 * s1)
    term2 = PhaseRational(num2, (den2 * den2).scale(4))
    return term1 + term2


def _cartan_od_integrals(a: Exact, b: Exact):
    n = 3
    V = _cartan_od_potential(a, b)
    s1 = PhaseRational(PhasePoly.s(n, 0))
    s2 = PhaseRational(PhasePoly.s(n, 1))
    s3 = PhaseRational(PhasePoly.s(n, 2))
    one = PhaseRational.const(n, 1)
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


def _nilpotent_integrals():
    n = 3
    VN = _nilpotent_potential()
    s1 = PhaseRational(PhasePoly.s(n, 0))
    s2 = PhaseRational(PhasePoly.s(n, 1))
    w = PhaseRational(PhasePoly.s(n, 1) + PhasePoly.s(n, 2).scale(I))
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


def degenerate_potential(sign: int) -> PhaseRational:
    """The lambda^2 = 1/2 potential alpha^2/(s1 - s2 +- i sqrt2 s3)^2.

    The rescaled generators at the degenerate point no longer produce this
    form through the generic k^T Vmat^{-1} k formula; the potential is the
    limit of the one-parameter family at fixed couplings, with
    alpha^2 = 4 k1^2 + 4 k2^2 - 2 k3^2.  No commuting symmetric triple can
    reproduce a constant coupling form over a single squared denominator
    exactly, so the limit form is attached here directly.
    """
    n = 3
    s1, s2, s3 = (PhasePoly.s(n, i) for i in range(3))
    k1, k2, k3 = (PhasePoly.k(n, i) for i in range(3))
    w = s1 - s2 + s3.scale(I * Exact.sqrt_rational(2) * rat(sign))
    alpha2 = (
        (k1 * k1).scale(rat(4))
        + (k2 * k2).scale(rat(4))
        - (k3 * k3).scale(rat(2))
    )
    return PhaseRational(alpha2, w * w)


def _degenerate_integrals(sign: int):
    il = I * Exact.sqrt_rational(2) * rat(sign)
    T = _L(1) - _L(2) + _L(3).scale(il)
    return [("T", T)]


def _su2ab_integrals(masa: MasaSpec):
    return [("H", build_hamiltonian(masa).hamiltonian)]


def _ambient_p_squared(n: int) -> PhaseRational:
    acc = PhasePoly(n)
    for mu in range(n):
        acc = acc + PhasePoly.p(n, mu) * PhasePoly.p(n, mu)
    return PhaseRational(acc)


def integrals_catalog(masa: MasaSpec):
    """The displayed phase-space integrals for a named catalog model."""
    name = masa.name
    if name == "su2ab":
        return _su2ab_integrals(masa)
    if name == "lambda":
        return _lambda_integrals(masa.params[0])
    if name == "cartan_od":
        return _cartan_od_integrals(masa.params[0], masa.params[1])
    if name == "nilpotent":
        return _nilpotent_integrals()
    if name in ("degenerate_plus", "degenerate_minus"):
        return _degenerate_integrals(masa.params[0])
    raise UnknownName(f"no catalog integrals for {name!r}")


def build_hamiltonian(masa: MasaSpec) -> ReducedSystem:
    if masa.name in ("degenerate_plus", "degenerate_minus"):
        V = degenerate_potential(masa.params[0])
    else:
        V = build_potential(masa)
    H = _ambient_p_squared(masa.n) + V
    sys = ReducedSystem(masa, V, H)
    if masa.name in CATALOG_NAMES:
        if masa.name == "su2ab":
            sys.integrals = [("H", H)]
        else:
            sys.integrals = integrals_catalog(masa)
    return sys


# -- verification reports ------------------------------------------------------


@dataclass
class RelationReport:
    name: str
    passed: bool
    trials: int
    detail: str = ""


def _degree_bound(*fs: PhaseRational) -> int:
    return sum(f.num.total_degree() + f.den.total_degree() for f in fs)


def verify_sum_relation(masa: MasaSpec, seed: int = 20230411) -> RelationReport:
    """The displayed over-completeness relation of the named model."""
    name = masa.name
    n = masa.n
    sysr = build_hamiltonian(masa)
    H = sysr.hamiltonian
    ks = [PhaseRational(PhasePoly.k(n, i)) for i in range(n)]
    k1, k2, k3 = (ks + [None])[:3]
    T = dict(sysr.integrals)
    if name == "lambda":
        lam2 = masa.params[0]
        lhs = T["T1"] + T["T2"] + T["T3"]
        rhs = H.scale(rat(1 - 2 * lam2)) - _sq(k1 - k2 - k3)
    elif name == "cartan_od":
        lhs = T["T1"] + T["T2"]
        rhs = H + (k1 * k3).scale(rat(2)) - _sq(k1)
    elif name == "nilpotent":
        lhs = T["T1"] + T["T2"]
        rhs = H + (_sq(k1) + _sq(k2).scale(rat(2))).scale(rat(Fraction(1, 3)))
    elif name == "su2ab":
        # su(2) quadratic Casimir reduces to twice the Hamiltonian in the
        # normalization of casimir_element
        basis = build_generators(2)
        cas = casimir_element(2, basis)
        lhs, rhs = project_env_element(cas, masa), H.scale(rat(2))
    else:
        raise UnknownName(f"no sum relation for {name!r}")
    trials = max(20, _degree_bound(lhs, rhs) + 1)
    diff = lambda vals: lhs.eval(vals) - rhs.eval(vals)
    ok = func_vanishes_on_constraint(diff, n, trials, seed)
    if not ok:
        raise RelationFailed(f"sum relation for {name} fails at a sampled point")
    return RelationReport(f"sum_relation[{name}]", True, trials)


def verify_masa_reduction(masa: MasaSpec) -> RelationReport:
    """Zhat_rho = k_rho as an exact rational-function identity, every rho."""
    n = masa.n
    for rho, Z in enumerate(masa.matrices):
        zh = momentum_map(Z, masa)
        kr = PhaseRational(PhasePoly.k(n, rho))
        if not (zh.num * kr.den - kr.num * zh.den).is_zero():
            raise RelationFailed(
                f"Zhat_{rho + 1} != k_{rho + 1} for {masa.name or 'masa'}"
            )
    return RelationReport(f"zhat_eq_k[{masa.name}]", True, 0, "rational identity")


def casimir_projection_report(
    masa: MasaSpec, seed: int = 20230411, npoints: int | None = None
) -> RelationReport:
    """Exact linear fit of the projected quadratic Casimir over the span
    {H, 1, k_i k_j}; the multiplicative and additive constants are reported,
    an inconsistent fit raises."""
    n = masa.n
    sysr = build_hamiltonian(masa)
    H = sysr.hamiltonian
    cas = project_env_element(casimir_element(2, build_generators(n)), masa)
    funcs = [("H", H), ("1", PhaseRational(PhasePoly.const(n, 1)))]
    for i in range(n):
        for j in range(i, n):
            funcs.append(
                (
                    f"k{i + 1}k{j + 1}",
                    PhaseRational(PhasePoly.k(n, i) * PhasePoly.k(n, j)),
                )
            )
    names = tuple(name for name, _ in funcs)
    npts = npoints or (2 * len(funcs) + 6)
    samples = pole_free_values(
        lambda vals: [f.eval(vals) for _, f in funcs] + [cas.eval(vals)], n, seed
    )
    coeffs = _fit_exact(list(islice(samples, npts)), names)
    detail = " + ".join(
        f"({c}) {name}" for name, c in coeffs.items() if not c.is_zero()
    )
    return RelationReport(f"casimir_projection[{masa.name}]", True, npts, detail)


def verify_conservation(
    masa: MasaSpec, trials: int | None = None, seed: int = 20230411
) -> RelationReport:
    """{H, T}_Dirac vanishes on the constraint surface for every catalog
    integral, tested pointwise with exact arithmetic."""
    sysr = build_hamiltonian(masa)
    H = sysr.hamiltonian
    n = masa.n
    used = 0
    for tname, T in sysr.integrals:
        t = trials or max(20, (_degree_bound(H, T) + 1) // 2)
        used = max(used, t)
        ok = func_vanishes_on_constraint(
            lambda vals: dirac_bracket_at(H, T, vals), n, t, seed
        )
        if not ok:
            raise RelationFailed(f"{{H, {tname}}}_D nonzero for {masa.name}")
    return RelationReport(f"conservation[{masa.name}]", True, used)


def verify_homomorphism(
    masa: MasaSpec, npoints: int = 30, seed: int = 20230411
) -> RelationReport:
    """{Xhat_i, Xhat_j} equals the image of [X_i, X_j] at sampled points.

    The reduced maps depend on the ignorable coordinates x through the
    conjugation B(x)^{-1} X B(x); at x = 0 the full canonical bracket
    therefore adds the (x, k) conjugate pair terms

        sum_mu  hat([X_i, Z_mu]) dXhat_j/dk_mu - hat([X_j, Z_mu]) dXhat_i/dk_mu

    to the plain (s, p) Poisson bracket.  Without them the relation fails
    for pairs of symmetric generators, whose maps carry no momenta.

    Only the n^2 generator images are built.  The map is linear, so at each
    point the image of [X_i, X_j] and of [X_i, Z_mu] is the combination of
    the generator values with the coefficients of that matrix in the basis.
    """
    n = masa.n
    basis = build_generators(n)
    maps = generator_images(masa)
    corr = {
        i: [basis.expand_in_basis(Xi @ Z - Z @ Xi) for Z in masa.matrices]
        for i, Xi in enumerate(basis.generators)
    }
    # every map is over det A, which has no k: dXhat/dk_mu = (dnum/dk_mu) / den
    dk_polys = {
        (i, mu): maps[i].num.deriv(2 * n + mu)
        for i in range(basis.size)
        for mu in range(n)
    }

    def check_point(vals):
        # one gradient per map per point; pairs then combine values only
        at = [f.grad_at(vals) for f in maps]
        gen_vals = [nval / dval for _, nval, dval in at]

        def image(coeffs):
            return sum((c * gen_vals[k] for k, c in coeffs.items()), ZERO)

        dk = {
            (i, mu): dnum.eval(vals) / at[i][2] for (i, mu), dnum in dk_polys.items()
        }
        corr_vals = {
            (i, mu): image(corr[i][mu]) for i in range(basis.size) for mu in range(n)
        }
        for i in range(basis.size):
            for j in range(i + 1, basis.size):
                lhs = _bracket_of_gradients(at[i][0], at[j][0])
                for mu in range(n):
                    lhs = lhs + corr_vals[(i, mu)] * dk[(j, mu)]
                    lhs = lhs - corr_vals[(j, mu)] * dk[(i, mu)]
                if not (lhs - image(basis.bracket_coeffs(i, j))).is_zero():
                    raise RelationFailed(
                        f"bracket image mismatch for pair ({i},{j}) in {masa.name}"
                    )

    for _ in islice(pole_free_values(check_point, n, seed), npoints):
        pass
    return RelationReport(f"homomorphism[{masa.name}]", True, npoints)


@dataclass
class RacahReport:
    antisymmetry_ok: bool
    trials: int
    bracket_fits: dict
    k_values: tuple
    basis_names: tuple


def _fit_exact(aug: list[list[Exact]], names: Sequence[str]):
    """Solve an overdetermined exact linear system given as augmented rows
    (one value per name, then the right-hand side); raise if inconsistent."""
    m, ncol = len(aug), len(names)
    rr = 0
    piv_cols = []
    for c in range(ncol):
        piv = next((r for r in range(rr, m) if not aug[r][c].is_zero()), None)
        if piv is None:
            continue
        aug[rr], aug[piv] = aug[piv], aug[rr]
        inv = aug[rr][c].inverse()
        aug[rr] = [x * inv for x in aug[rr]]
        for r in range(m):
            if r != rr and not aug[r][c].is_zero():
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rr])]
        piv_cols.append(c)
        rr += 1
    for r in range(rr, m):
        if not aug[r][ncol].is_zero():
            raise FitUnderdetermined("sampled system is inconsistent with the basis")
    if len(piv_cols) < ncol:
        raise FitUnderdetermined(
            f"fit basis is rank deficient on the samples ({len(piv_cols)}/{ncol})"
        )
    sol = [ZERO] * ncol
    for r, c in enumerate(piv_cols):
        sol[c] = aug[r][ncol]
    return {nm: sol[i] for i, nm in enumerate(names)}


def racah_structure_report(
    masa: MasaSpec, seed: int = 20230411, npoints: int = 40, with_fits: bool = True
) -> RacahReport:
    """Classical Racah-type structure of the three quadratic integrals.

    Checks T12 = -T13 = T23 on the constraint surface, then (with_fits)
    solves exactly for the expansion of {T12, T1} and {T12, T2} over
    products of integrals at fixed rational couplings.  The coefficients
    are reported as computed.
    """
    if masa.name not in ("lambda", "cartan_od", "nilpotent"):
        raise UnknownName("Racah report needs a model with three integrals")
    n = masa.n
    T = dict(integrals_catalog(masa))
    T1, T2, T3 = T["T1"], T["T2"], T["T3"]

    trials = max(20, (_degree_bound(T1, T2) + _degree_bound(T3) + 1) // 2)

    pb = _bracket_of_gradients

    def anti1(vals):
        g1, g2, g3 = (T.grad_at(vals)[0] for T in (T1, T2, T3))
        return pb(g1, g2) + pb(g1, g3)

    def anti2(vals):
        g1, g2, g3 = (T.grad_at(vals)[0] for T in (T1, T2, T3))
        return pb(g1, g2) - pb(g2, g3)

    ok = func_vanishes_on_constraint(anti1, n, trials, seed) and (
        func_vanishes_on_constraint(anti2, n, trials, seed + 1)
    )

    kfix = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    names = (
        "T1*T2", "T1*T3", "T2*T3", "T1^2", "T2^2", "T3^2", "T1", "T2", "T3", "1",
    )
    if not with_fits:
        return RacahReport(ok, trials, {}, kfix, names)

    # nested brackets at fixed couplings; T12 assembled once symbolically
    T12 = poisson_bracket(T1, T2)
    kvals = [Exact.from_rational(kv) for kv in kfix]

    def fit_sample(vals, target):
        vals[2 * n :] = kvals
        t1 = T1.eval(vals)
        t2 = T2.eval(vals)
        t3 = T3.eval(vals)
        b = poisson_bracket_at(T12, target, vals)
        return [t1 * t2, t1 * t3, t2 * t3, t1 * t1, t2 * t2, t3 * t3, t1, t2, t3, ONE, b]

    rng = random.Random(seed + 7)
    fits = {}
    for target_name, target in (("[T12,T1]", T1), ("[T12,T2]", T2)):
        samples = pole_free_values(lambda vals: fit_sample(vals, target), n, rng)
        fits[target_name] = _fit_exact(list(islice(samples, npoints)), names)
    return RacahReport(ok, trials, fits, kfix, names)


# -- coordinate map and Appendix identities (float) ----------------------------


def coordinate_map(lam2, s: Sequence[float]):
    """(cos 2 xi, cos chi) for the one-parameter sphere model at a point."""
    lam2 = float(lam2)
    if not 0 <= lam2 < 0.5:
        raise ParamOutOfRange("lambda2 must lie in [0, 1/2)")
    lam = lam2 ** 0.5
    root = (1 - 2 * lam2) ** 0.5
    lm, lp = (1 - root) / 2, (1 + root) / 2
    s1, s2, s3 = (complex(x) for x in s)
    w1 = lm * s1 - lp * s2 + 1j * lam * s3
    w2 = lp * s1 - lm * s2 + 1j * lam * s3
    cos2xi = (w1 ** 2 - w2 ** 2) / (w1 ** 2 + w2 ** 2)
    coschi = (1j * lam * (s1 - s2) - s3) / root
    return cos2xi, coschi


@dataclass
class MapReport:
    max_residual: float
    points: int


def verify_coordinate_map(
    lam2, kvals=(0.3, 0.7, 0.4), trials: int = 20, seed: int = 5, tol: float = 1e-10
) -> MapReport:
    """Compare V_lambda(s) with the separable-coordinate potential."""
    lam2 = Fraction(lam2)
    masa = catalog_masa("lambda", lambda2=lam2)
    V = build_potential(masa)
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    while done < trials:
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        v /= np.linalg.norm(v)
        try:
            rhs = _potential_float(V, list(v), kvals)
            lhs = _separable_float(lam2, list(v), kvals)
        except (ZeroDivisionError, FloatingPointError):
            continue
        worst = max(worst, abs(lhs - rhs))
        done += 1
    return MapReport(worst, done)


def _potential_float(V: PhaseRational, s, kvals):
    vals = list(s) + [0.0, 0.0, 0.0] + list(kvals)
    return V.num.eval_complex(vals) / V.den.eval_complex(vals)


def _separable_float(lam2, s, kvals):
    c2xi, cchi = coordinate_map(lam2, s)
    s2chi = 1 - cchi ** 2
    c2 = (1 + c2xi) / 2
    s2 = (1 - c2xi) / 2
    k1, k2, k3 = kvals
    return ((k1 ** 2 / c2 + k2 ** 2 / s2) / s2chi + k3 ** 2 / cchi ** 2) / float(
        1 - 2 * Fraction(lam2)
    )


@dataclass
class JacobianCheck:
    masa_name: str
    x: tuple
    s: tuple
    residuals: dict


def jacobian_check(masa: MasaSpec, x: Sequence[float], s: Sequence[float]) -> JacobianCheck:
    """Float residuals of the block identities behind the reduced Hamiltonian.

    Checks, at B(x) = exp(x^mu Z_mu):
      inverse      |J J^{-1} - 1|
      block        |J^{-1} I (J^{-1})^T - (1/2) diag(Vmat^{-1}, 1)|
      x_indep      |(-A^T (B^{-2}) A)(x) - Vmat(0)|
      v_def        |Vmat(0) + A(0)^T A(0)|, A(0) evaluated from the exact build
    """
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
    # exact V matrix evaluated at s for the defining-identity residual
    vals = list(sv) + [0.0] * (2 * n)
    Vex = np.array([[f.eval_complex(vals) for f in row] for row in build_V_matrix(masa)])
    res = {
        "inverse": float(np.max(np.abs(J @ Jinv - np.eye(2 * n)))),
        "block": float(np.max(np.abs(lhs - rhs))),
        "x_indep": float(np.max(np.abs(-A.T @ Binv @ Binv @ A - Vm))),
        "v_def": float(np.max(np.abs(Vm - Vex))),
    }
    return JacobianCheck(masa.name or "custom", tuple(x), tuple(map(complex, sv)), res)

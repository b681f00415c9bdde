"""Spectral verification of the reduced models.

The circle, the sphere xi equation and the chi equation are each, on
(0, pi/2), the Poschl-Teller operator -d^2 + g_-(g_- - 1)/sin^2 +
g_+(g_+ - 1)/cos^2: xi at (g_-, g_+) = (l2, l1), chi at (M + 1/2, l3) less
1/4 after its (sin chi)^(-1/2) similarity, M = l1 + l2 + 2m (Levai & Znojil,
J. Phys. A 33 (2000) 7165).  One level list, one Dirichlet finite-difference
solver and one eigenfunction formula serve all three.  The solver finds the
lowest K levels by shift-invert Lanczos, certified by a Sturm count, where
that measured cheaper than LAPACK bisection, and by bisection elsewhere;
either way each level is within eps * |T|_1 of an eigenvalue of its matrix
T.  Beside them: the periodic circle spectrum read off its triangular
momentum matrix (the dense matrix, its reference, is test code:
tests/circle_reference.py), coupling reparametrizations, PT-parity checks,
the phase scan over the deformation parameter, Bessel-series solutions of
the degenerate model, its one level (degenerate_level, shared by `spectrum
--model degenerate` and the scan's lambda^2 = 1/2 point) and the two
coupling-constant-metamorphosis identities, each a report that passes or
fails.  Every SpectrumReport carries the tol its solver's error model gives
the matches' deviations.

Inputs a routine cannot take raise ParamOutOfRange, a configuration error
(exit 2) on the command line; e.g. a Bessel order with q + terms > 170, or
a degenerate level whose residual floats cannot decide.

numpy and scipy are imported only inside the array routines: the
finite-difference solver (_dirichlet_pt and its _lanczos_lowest) and
_cauchy_derivative.  The periodic circle spectrum, the closed forms, the
eigenfunctions and the coupling maps are scalar code, so `spectrum --model
s1` and the reduction layer, which imports this module, start without paying
for that import; a float solve pays it once, on its first call.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BadCouplings,
    ComplexCouplings,
    MultiValuedConfiguration,
    NoDefiniteParity,
    ParamOutOfRange,
    PoleInC,
    SingularPotential,
    UnknownName,
)

__all__ = [
    "SpectrumReport",
    "MetamorphosisReport",
    "circle_couplings",
    "sphere_couplings",
    "invert_circle_couplings",
    "closed_form_energies",
    "solve_periodic_s1",
    "solve_poschl_teller",
    "solve_chi_equation",
    "degenerate_level",
    "hyp2f1_terminating",
    "eigenfunction_eval",
    "pt_parity_check",
    "bessel_series_psi",
    "bessel_ode_residual",
    "pt_phase_scan",
    "metamorphosis_check",
]

REAL_TOL = 1e-12
LOWEST_K = 8
# pt_parity_check: sample points, and relative bound on |ratio -+ 1|
PARITY_POINTS, PARITY_TOL = 12, 1e-10
# the tol of each solver's reports, by its error model: s1 levels are exact
# squares, finite-difference levels (poschl_teller, chi, the scan's sphere
# points) carry an O(h^2) error, and the degenerate level's one deviation is
# its Bessel ODE residual; and the largest passing metamorphosis residual
EXACT_LEVEL_TOL, FD_LEVEL_TOL, BESSEL_RESIDUAL_TOL, METAMORPHOSIS_TOL = 1e-6, 1e-3, 1e-10, 1e-9
# _cauchy_derivative's contour radius and node count; every Bessel series' terms
CAUCHY_RADIUS, CAUCHY_NODES, BESSEL_TERMS = 0.2, 64, 30
# _lanczos_pays: where Lanczos took less CPU than bisection in every
# measured (N, K, g_- + g_+) cell, N up to 65536 (BENCH_fd_lanczos.json)
LANCZOS_MIN_N, LANCZOS_MIN_NK, LANCZOS_MAX_K, LANCZOS_G_OVER_K = 512, 2048, 16, 8


# -- coupling reparametrizations ------------------------------------------------


def _is_real(*vals) -> bool:
    return all(abs(complex(v).imag) <= REAL_TOL for v in vals)


def _root_convention(G: complex) -> complex:
    # g(g-1) = G solved with the principal branch, g = (1 + sqrt(1+4G))/2
    return (1 + cmath.sqrt(1 + 4 * G)) / 2


def circle_couplings(a, b, k1, k2) -> tuple[complex, complex]:
    """(g_-, g_+) of the circle: g_pm(g_pm - 1) = (sqrt(a^2-b^2) k1 pm k2)^2 / (4(a^2-b^2)).

    Complex values are returned as they are.
    """
    a, b, k1, k2 = complex(a), complex(b), complex(k1), complex(k2)
    c2 = a * a - b * b
    if abs(c2) < REAL_TOL:
        raise ParamOutOfRange("a^2 = b^2 has no Poschl-Teller form (Morse case)")
    c = cmath.sqrt(c2)
    gm = _root_convention((c * k1 - k2) ** 2 / (4 * c2))
    gp = _root_convention((c * k1 + k2) ** 2 / (4 * c2))
    return gm, gp


def sphere_couplings(lambda2, *ks) -> tuple[complex, ...]:
    """ell_mu = (1 + sqrt(1 + 4 k_mu^2/(1-2 lambda^2)))/2, one per k given.

    Complex values are returned as they are.
    """
    disc = 1 - 2 * complex(lambda2)
    if abs(disc) < REAL_TOL:
        raise ParamOutOfRange("lambda^2 = 1/2 is the degenerate model")
    return tuple(_root_convention(complex(k) ** 2 / disc) for k in ks)


def invert_circle_couplings(a, b, g_minus, g_plus) -> tuple[complex, complex]:
    """Solve the two circle relations for (k1, k2) given target g couplings."""
    a, b = complex(a), complex(b)
    c2 = a * a - b * b
    if abs(c2) < REAL_TOL:
        raise ParamOutOfRange("needs a^2 != b^2")
    c = cmath.sqrt(c2)
    rm = cmath.sqrt(complex(g_minus) * (complex(g_minus) - 1))
    rp = cmath.sqrt(complex(g_plus) * (complex(g_plus) - 1))
    # c k1 - k2 = 2 c rm,  c k1 + k2 = 2 c rp
    k1 = rp + rm
    k2 = c * (rp - rm)
    return k1, k2


# -- closed-form energies -------------------------------------------------------


def _require_real(vals):
    for v in vals:
        if abs(complex(v).imag) > 1e-10:
            raise ComplexCouplings(f"coupling {v} is not real")
    return [complex(v).real for v in vals]


def closed_form_energies(
    g_minus, g_plus, *, count: int = 8, branches=(1, 2, 3), half_integer: bool = False
) -> list[float]:
    """Sorted Poschl-Teller levels of -d^2 + g_-(g_- - 1)/sin^2 + g_+(g_+ - 1)/cos^2.

    Branch 1 gives (2n + g_- + g_+)^2 with integer n >= 0; branch 2 is the
    (cos)^(1-g_+) solution, reached at half-integer n, giving
    (2j + g_- - g_+ + 1)^2 with integer j >= 0; branch 3 is its mirror, the
    (sin)^(1-g_-) solution, giving (2j + g_+ - g_- + 1)^2, which is the
    lower tower when g_- > g_+.  The sphere xi levels are branch 1 at
    (l2, l1); the chi levels are branch 1 at (M + 1/2, l3), less 1/4.
    """
    gm, gp = _require_real([g_minus, g_plus])
    # half-integer n reaches the other single-valued branch of each family
    step = 1 if half_integer else 2
    out: set[float] = set()
    if 1 in branches:
        out.update((j + gm + gp) ** 2 for j in range(0, 2 * count, step))
    if 2 in branches:
        out.update((j + gm + 1 - gp) ** 2 for j in range(0, 2 * count, step))
    if 3 in branches:
        out.update((j + gp + 1 - gm) ** 2 for j in range(0, 2 * count, step))
    return sorted(out)


# -- reports --------------------------------------------------------------------


@dataclass
class SpectrumReport:
    """The levels a solver judges, lowest first; matches is empty or holds
    (closed form, deviation, relative deviation) of the eigenvalue at its index."""

    model: str
    tol: float  # the largest relative deviation a match passes with
    eigenvalues: list = field(default_factory=list)
    # every solver here returns real levels, so no report is labelled broken
    phase: str = "exact"
    matches: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def max_imag(self) -> float:
        return max((abs(z.imag) for z in self.eigenvalues), default=0.0)


def _nearest(candidates, x: float) -> float:
    """The sorted candidate closest to x, the lower one on a tie."""
    i = bisect.bisect_left(candidates, x)
    return min(candidates[max(i - 1, 0) : i + 1], key=lambda e: abs(x - e))


def _finish_report(rep: SpectrumReport, eig, closed_form=None):
    # eig: the levels rep judges, lowest first; closed_form(n, z) is the
    # closed form of level n, of value z; None matches none
    rep.eigenvalues = [complex(z) for z in eig]
    if closed_form:
        for n, z in enumerate(rep.eigenvalues):
            cand = closed_form(n, z)
            dev = abs(z - cand)
            rep.matches.append((cand, dev, dev / max(abs(cand), 1.0)))
    return rep


# -- circle solver --------------------------------------------------------------


def _require_regular_circle(a: complex, b: complex):
    # b cos 2phi - i a sin 2phi vanishes at a real phi exactly when
    # Re(a conj(b)) = 0, i.e. when |b - a| = |b + a|
    if (
        abs(a) < REAL_TOL
        or abs(b) < REAL_TOL
        or abs((a * b.conjugate()).real) <= REAL_TOL * abs(a) * abs(b)
    ):
        raise SingularPotential("the denominator vanishes on the real circle")


def solve_periodic_s1(a, b, k1, k2, N: int, K: int = LOWEST_K) -> SpectrumReport:
    """Periodic spectrum of the circle Hamiltonian, read off its structure.

    The denominator of V is b cos 2phi - i a sin 2phi =
    ((b - a) e^{2i phi} + (b + a) e^{-2i phi}) / 2.  Off the singular set
    Re(a conj(b)) = 0 one term dominates on the whole circle, so V has Fourier
    modes of one sign only and no constant mode.  Its momentum matrix is
    then triangular with diagonal m^2, and the periodic
    spectrum is exactly {m^2 : |m| <= N // 2}, each m != 0 a double
    eigenvalue (Gasymov, Funct. Anal. Appl. 14 (1980) 11).  The report holds
    its lowest min(K, 2M + 1) levels 0, 1, 1, 4, 4, ..., built directly.  The
    closed-form matches refer to this periodic operator; for a^2 = b^2
    (Morse) the candidates are the squares themselves.
    """
    a, b = complex(a), complex(b)
    _require_regular_circle(a, b)
    M = N // 2
    eig = [complex(((i + 1) // 2) ** 2) for i in range(min(K, 2 * M + 1))]
    rep = SpectrumReport("s1", EXACT_LEVEL_TOL)
    rep.notes.append(
        "one-sided potential: triangular momentum matrix, periodic spectrum"
        f" {{m^2 : |m| <= {M}}}, each m != 0 a double eigenvalue"
    )
    rep.notes.append(
        "closed-form matches refer to the periodic operator:"
        " only branch energies that are integer squares can match"
    )
    if abs(a * a - b * b) < REAL_TOL:
        candidates = [z.real for z in eig]
        rep.notes.append("Morse case a^2 = b^2: the candidates are {m^2}")
    else:
        gm, gp = circle_couplings(a, b, k1, k2)
        if not _is_real(gm, gp):
            rep.phase = "complex-coupling"
            rep.notes.append(f"g_- = {gm}, g_+ = {gp}")
            return _finish_report(rep, eig)
        candidates = closed_form_energies(gm.real, gp.real, count=2 * K, half_integer=True)
    return _finish_report(rep, eig, lambda n, z: _nearest(candidates, z.real))


# -- finite-difference solvers on (0, pi/2) -------------------------------------


def _dirichlet_pt(gm: float, gp: float, N: int, K: int, shift: float) -> np.ndarray:
    """Lowest min(K, N) eigenvalues of the Poschl-Teller operator plus shift,
    Dirichlet finite differences on N interior points of (0, pi/2), ascending.

    Every caller reads the lowest K levels only, and each is found to within
    eps * |T|_1 of an eigenvalue of the matrix T.  Where _lanczos_pays, by
    _lanczos_lowest; elsewhere, or where Lanczos certifies no list, by
    LAPACK bisection for those levels only.  T is positive definite for
    every caller: _fd_report's guard gives g_-, g_+ >= 1, so V >= shift, and
    the discrete Laplacian's lowest eigenvalue, above 3.6 for every N >= 2,
    exceeds the shifts' 1/4.
    """
    import numpy as np
    import scipy.linalg

    h = (np.pi / 2) / (N + 1)
    x = h * np.arange(1, N + 1)
    V = gm * (gm - 1) / np.sin(x) ** 2 + gp * (gp - 1) / np.cos(x) ** 2 + shift
    d, e = 2.0 / h**2 + V, np.full(N - 1, -1.0 / h**2)
    count = min(K, N)
    vals = _lanczos_lowest(d, e, count) if _lanczos_pays(N, count, gm + gp) else None
    if vals is None:
        # index selection bisects for each eigenvalue, quadratic when all N
        # are asked for; the full-spectrum driver returns the same sorted
        # list, equal to about 1e-12 relative
        select = ({"select": "a"} if count == N
                  else {"select": "i", "select_range": (0, count - 1)})
        vals = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, **select)
    return vals.astype(complex)


def _lanczos_pays(N: int, K: int, G: float) -> bool:
    """Whether _lanczos_lowest takes less CPU than bisection for the lowest K
    of N levels at couplings g_- + g_+ = G.  Bisection costs about 52 O(N)
    Sturm sweeps per level.  Lanczos takes about 2K + 12 steps while the
    levels (2n + G)^2 spread fast, each one O(N) solve, a fixed overhead
    that small N does not repay, and an orthogonalisation against the basis
    so far, O(N K) a step, which no longer pays above K = 16 at N = 65536;
    as G grows past K their ratios near 1, and the steps grow like sqrt(G)."""
    return (N >= LANCZOS_MIN_N and N * K >= LANCZOS_MIN_NK and K <= LANCZOS_MAX_K
            and G <= K + LANCZOS_G_OVER_K)


def _lanczos_lowest(d, e, K: int):
    """The lowest K eigenvalues of the positive definite tridiagonal T with
    diagonal d and off-diagonal e, ascending, by shift-invert Lanczos on T^-1
    (Ericsson & Ruhe, Math. Comp. 35 (1980) 1251); None where no list is
    certified within min(N, 4K + 32) steps.

    T is factored once (dpttrf: T not positive definite raises); each step
    is one dpttrs solve, orthogonalised twice against the whole basis.  The
    Ritz values are checked first at 2K + 12 steps, where the measured
    solves _lanczos_pays admits had converged, then every 4 steps.  A Ritz
    value theta of T^-1 with residual r = beta |s_m| lies within r of an
    eigenvalue of T^-1, so 1/theta lies within r / (theta (theta - r)) of
    one of T.  The lowest K are accepted
    when each such bound is at most eps * |T|_1, the bounds keep them apart,
    and one Sturm count (dstebz by value, with a huge tolerance: one count at
    each end) finds exactly K eigenvalues of T in (0, cut], cut = the highest
    level plus 4 eps * |T|_1 (its bound and the count's rounding).  A level
    the Krylov space missed makes that count exceed K, and the space grows.
    Rounding in the steps moves a level by about eps lambda_K^2 / lambda_1
    times a small constant; where _lanczos_pays, the measured errors against
    bisection run to tol 1e-300 were at most 0.14 eps * |T|_1, bisection's
    own up to 0.38.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal, lapack

    N, eps = len(d), np.finfo(float).eps
    floor = eps * np.max(np.abs(d) + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]))  # eps |T|_1
    df, ef, info = lapack.dpttrf(d, e)
    if info:
        raise ArithmeticError(f"dpttrf info {info}: the matrix is not positive definite")
    cap, check = min(N, 4 * K + 32), min(N, 2 * K + 12)
    Q = np.empty((check, N))  # the basis, one row a step, grown as steps are added
    q = np.linspace(1.0, 2.0, N)  # even and odd parts, should T be persymmetric
    q /= math.sqrt(q @ q)
    alpha, beta = [], []
    for m in range(1, cap + 1):
        if m > len(Q):
            Q = np.concatenate([Q, np.empty((min(cap, 2 * len(Q)) - len(Q), N))])
        Q[m - 1] = q
        basis = Q[:m]
        w = lapack.dpttrs(df, ef, q)[0]
        norm = math.sqrt(w @ w)
        # twice is enough: one pass cancels over half of w's norm, and
        # leaves it far from orthogonal to the basis
        c = basis @ w
        w -= c @ basis
        c2 = basis @ w
        w -= c2 @ basis
        b = math.sqrt(w @ w)
        alpha.append(c[-1] + c2[-1])
        exhausted = b <= eps * norm  # the basis spans an invariant subspace
        if m >= K and (m >= check or m == cap or exhausted):
            theta, S = eigh_tridiagonal(alpha, beta)
            theta, r = theta[::-1][:K], np.abs(b * S[-1, ::-1][:K])
            lam, bound = 1 / theta, r / (theta * (theta - r))
            if (np.all((theta > r) & (bound <= floor))
                    and np.all(np.diff(lam) > bound[1:] + bound[:-1])
                    and lapack.dstebz(d, e, 1, 0.0, lam[-1] + 4 * floor, 0, 0,
                                      np.finfo(float).max, b"E")[0] == K):
                return lam
            check = m + 4
        if exhausted:
            return None
        beta.append(b)
        q = w / b
    return None


def _fd_report(model: str, gm: float, gp: float, shift: float, N: int, K: int) -> SpectrumReport:
    """The Poschl-Teller operator at (g_-, g_+) plus shift, level n matched with
    (2n + g_- + g_+)^2 + shift; below g = 1 levels converge slower than h^2."""
    if gm < 1 or gp < 1:
        raise BadCouplings(f"Dirichlet selection needs g_-, g_+ >= 1, got {gm:.6g}, {gp:.6g}")
    eig = _dirichlet_pt(gm, gp, N, K, shift)  # ascending
    levels = closed_form_energies(gm, gp, count=K, branches=(1,))
    return _finish_report(SpectrumReport(model, FD_LEVEL_TOL), eig,
                          lambda n, z: levels[n] + shift)


def solve_poschl_teller(gm, gp, N: int, K: int = LOWEST_K) -> SpectrumReport:
    """Dirichlet finite differences for g_-(g_- - 1)/sin^2 + g_+(g_+ - 1)/cos^2
    on (0, pi/2); Dirichlet ends select the xi^g branch, which needs g >= 1."""
    return _fd_report("poschl_teller", float(gm), float(gp), 0.0, N, K)


def solve_chi_equation(ell3, composite, N: int, K: int = LOWEST_K) -> SpectrumReport:
    """Second separated equation after removing the first-order cot term.

    The similarity Psi = (sin chi)^(-1/2) PsiTilde turns
    -Psi'' - cot(chi) Psi' + [l3(l3-1)/cos^2 + M^2/sin^2] Psi = E Psi into
    -PsiTilde'' + [l3(l3-1)/cos^2 + (M^2 - 1/4)/sin^2 - 1/4] PsiTilde
    = E PsiTilde, the Poschl-Teller operator at (g_-, g_+) = (M + 1/2, l3)
    shifted by -1/4, discretized with Dirichlet ends on (0, pi/2); the
    interior cos^2 singularity at pi/2 bounds the domain.
    """
    return _fd_report("chi", float(composite) + 0.5, float(ell3), -0.25, N, K)


# -- eigenfunctions -------------------------------------------------------------


def _as_nonpos_int(x) -> int | None:
    xc = complex(x)
    if abs(xc.imag) > REAL_TOL:
        return None
    r = round(xc.real)
    if abs(xc.real - r) > 1e-9 or r > 0:
        return None
    return int(r)


def hyp2f1_terminating(a, b, c, x):
    """2F1(a, b; c; x) as a finite sum, requiring a to be a non-positive
    integer; exact when the inputs are ints and Fractions, else summed in
    complex floats, each input converted once."""
    na = _as_nonpos_int(a)
    if na is None:
        raise ParamOutOfRange("first parameter must be a non-positive integer")
    nc = _as_nonpos_int(c)
    if nc is not None and -nc <= -na - 1:
        raise PoleInC(f"c = {c} hits a pole before the series terminates")
    exact = all(isinstance(v, (int, Fraction)) for v in (a, b, c, x))
    if not exact:
        a, b, c, x = map(complex, (a, b, c, x))
    term = Fraction(1) if exact else 1.0 + 0j
    total = term * 0
    for j in range(-na + 1):
        total = total + term
        if j < -na:
            term = term * (a + j) * (b + j) * x / ((c + j) * (j + 1))
    return total


# (g_-, g_+, e) of each model's Poschl-Teller form; its solution carries
# sin^(g_- + e), and e = -1/2 undoes the (sin chi)^(-1/2) similarity of chi
_PT_FORMS = {
    "s1": lambda p: (p["g_minus"], p["g_plus"], 0),
    "sphere_xi": lambda p: (p["ell"][1], p["ell"][0], 0),
    "sphere_chi": lambda p: (
        Fraction(1, 2) - p["ell"][0] - p["ell"][1] - 2 * p["m"],
        p["ell"][2],
        Fraction(-1, 2),
    ),
}


def eigenfunction_eval(model: str, branch: int, qn, point, **params) -> complex:
    """Displayed product-of-powers times terminating-hypergeometric solutions.

    The evaluation point is the angle itself, xi (or chi), with
    u = cos^2(point).  s1: qn = n with couplings g_minus, g_plus.  sphere_xi:
    qn = m with ell.  sphere_chi: qn = n with ell and the separation index m.
    Branch 1 is sin^(g_- + e) cos^(g_+) 2F1(-n, g_- + g_+ + n; 1/2 + g_+; u);
    branch 2 is sin^(g_- + e) cos^(1 - g_+)
    2F1(1/2 - n - g_+, 1/2 + n + g_-; 3/2 - g_+; u), in the couplings of
    _PT_FORMS.
    """
    if model not in _PT_FORMS:
        raise UnknownName(f"unknown eigenfunction model {model!r}")
    gm, gp, e = _PT_FORMS[model](params)
    half = Fraction(1, 2)
    if branch == 1:
        cos_exp, a, b, c = gp, -qn, gm + gp + qn, half + gp
    else:
        cos_exp, a, b, c = 1 - gp, half - qn - gp, half + qn + gm, Fraction(3, 2) - gp
    sin_exp = gm + e
    for p in (sin_exp, cos_exp):
        pc = complex(p)
        if abs(pc.imag) > 1e-9 or abs(pc.real - round(pc.real)) > 1e-9:
            raise MultiValuedConfiguration(f"exponent {p} is not an integer")
    u = cmath.cos(complex(point)) ** 2
    su, cu = (1 - u) ** 0.5, u**0.5  # principal branches of sin, cos powers
    return su**sin_exp * cu**cos_exp * complex(hyp2f1_terminating(a, b, c, u))


# -- PT parity ------------------------------------------------------------------


def _xi_chi_from_sphere(lam2: complex, s):
    lam = cmath.sqrt(lam2)
    disc = cmath.sqrt(1 - 2 * lam2)
    lm, lp = (1 - disc) / 2, (1 + disc) / 2
    s1, s2, s3 = s
    wm = lm * s1 - lp * s2 + 1j * lam * s3
    wp = lp * s1 - lm * s2 + 1j * lam * s3
    cos2xi = (wm * wm - wp * wp) / (wm * wm + wp * wp)
    coschi = (1j * lam * (s1 - s2) - s3) / disc
    return cos2xi, coschi


def pt_parity_check(model: str, branch: int = 1, qn=0, **params) -> int:
    """Ratio of the conjugated PT-image value to the value itself.

    Returns +1 or -1 when the ratio is the same definite sign at every sample
    point; raises NoDefiniteParity otherwise (e.g. lambda^2 > 1/2).
    """
    if model == "s1":
        a, b = complex(params["a"]), complex(params["b"])
        c = cmath.sqrt(a**2 - b**2)

        def angle(phi):  # xi at the circle point phi
            return cmath.acos((a * math.cos(2 * phi) + 1j * b * math.sin(2 * phi)) / c) / 2

        phis = [0.17 + 2.9 * j / PARITY_POINTS for j in range(PARITY_POINTS)]
        pairs = [(angle(phi), angle(-phi)) for phi in phis]
    elif model in ("sphere_xi", "sphere_chi"):
        lam2 = complex(params["lambda2"])
        params.setdefault("m", 0)

        def angle(s):
            cos2xi, coschi = _xi_chi_from_sphere(lam2, s)
            return cmath.acos(cos2xi) / 2 if model == "sphere_xi" else cmath.acos(coschi)

        pairs = []
        for j in range(PARITY_POINTS):
            th = 0.4 + 2.2 * j / PARITY_POINTS
            ph = 0.3 + 5.5 * j / PARITY_POINTS
            s = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
            pairs.append((angle(s), angle((s[0], s[1], -s[2]))))
    else:
        raise UnknownName(f"unknown parity model {model!r}")
    ratios = []
    for ang, ang_pt in pairs:
        val = eigenfunction_eval(model, branch, qn, ang, **params)
        if abs(val) < 1e-12:
            continue
        ratios.append(eigenfunction_eval(model, branch, qn, ang_pt, **params).conjugate() / val)
    if not ratios:
        raise NoDefiniteParity("no usable sample points")
    for sign in (1, -1):
        if all(abs(r - sign) <= PARITY_TOL * max(1.0, abs(r)) for r in ratios):
            return sign
    raise NoDefiniteParity(f"ratios {ratios[:3]}... are not a definite sign")


# -- Bessel-series solutions of the degenerate model ----------------------------


@functools.lru_cache(maxsize=256)
def _bessel_coefficients(q: int) -> tuple[tuple[float, ...], float]:
    """(-1)^j / (j! Gamma(j+q+3/2)) for j < T = BESSEL_TERMS, and the tail
    denominator T! Gamma(T+q+3/2); bessel_series_psi checks q + T <= 170."""
    coeffs = tuple(
        (-1) ** j / (math.factorial(j) * math.gamma(j + q + 1.5)) for j in range(BESSEL_TERMS)
    )
    return coeffs, math.factorial(BESSEL_TERMS) * math.gamma(BESSEL_TERMS + q + 1.5)


def bessel_series_psi(alpha, q: int, z):
    """Truncated series sum_j (-1)^j / (j! Gamma(j+q+3/2)) (alpha z / 2)^(2j+q+1).

    Returns (value, tail_bound) where the bound is the first dropped term
    estimated through the ratio test.  math.gamma overflows past
    q + BESSEL_TERMS = 170.  The coefficients are built once per q.
    """
    if q < 0 or q != int(q):
        raise ParamOutOfRange("q must be a non-negative integer")
    if q + BESSEL_TERMS > 170:
        raise ParamOutOfRange(f"q + terms = {q + BESSEL_TERMS} > 170 overflows math.gamma")
    coeffs, tail_den = _bessel_coefficients(int(q))
    w = complex(alpha) * complex(z) / 2
    total = 0j
    term_pow = w ** (q + 1)
    for c in coeffs:
        total += c * term_pow
        term_pow = term_pow * w * w
    return total, abs(term_pow) / tail_den


def _cauchy_derivative(f, t0, order: int):
    """order-th derivative of an analytic function by contour quadrature."""
    import numpy as np

    ks = np.arange(CAUCHY_NODES)
    ts = t0 + CAUCHY_RADIUS * np.exp(2j * np.pi * ks / CAUCHY_NODES)
    vals = np.array([f(t) for t in ts])
    coeff = np.mean(vals * np.exp(-2j * np.pi * ks * order / CAUCHY_NODES))
    return coeff * math.factorial(order) / CAUCHY_RADIUS**order


def bessel_ode_residual(alpha, q: int, z) -> float:
    """Residual of -psi'' + (E/z^2) psi - alpha^2 psi with E = q(q+1)."""
    E = q * (q + 1)
    f = lambda t: bessel_series_psi(alpha, q, t)[0]
    d2 = _cauchy_derivative(f, complex(z), 2)
    val = f(complex(z))
    return float(abs(-d2 + E / complex(z) ** 2 * val - complex(alpha) ** 2 * val))


def degenerate_level(alpha, q: int) -> SpectrumReport:
    """The level E = q(q+1) of the degenerate model, matched by itself: the
    match's deviation is the Bessel ODE residual at z = 1/2.

    ParamOutOfRange where floats cannot decide that residual against
    BESSEL_RESIDUAL_TOL.  If the series vanishes (alpha = 0, or
    (alpha z/2)^(q+1) underflows), every residual is 0 and checks nothing.
    Otherwise the residual's error is bounded by the sum of three terms:

    - rounding: each series value the residual reads, on the contour of
      radius r about z, is off by up to eps * S(z + r), where S(t) is the
      sum of the terms' moduli at |t|: the terms alternate and cancel.  The
      series at i|alpha| has every term in phase, so S is its modulus, and
      the residual's rounding is at most eps * S(z + r) * (2/r^2 + E/z^2 +
      |alpha|^2);
    - truncation: alpha^2 times the series' tail estimate;
    - aliasing: the contour's n-node sum adds the Taylor coefficients
      n + 2, 2n + 2, ... of psi about z to its second, each bounded by
      Cauchy's estimate on the circle of radius z about z.

    A bound above the tolerance, or one that overflows, is refused.  At
    q = 1 this refuses from alpha ~ 12.9; the residual itself stays below
    the tolerance up to alpha ~ 20, and more terms do not lower it.
    """
    E = q * (q + 1)
    z, r, a = 0.5, CAUCHY_RADIUS, abs(complex(alpha))
    value, tail = bessel_series_psi(1j * a, q, z + r)
    if value == 0:
        raise ParamOutOfRange(f"the Bessel series vanishes at |alpha| = {a:.6g}:"
                              " its residual checks nothing")
    rho = (r / z) ** CAUCHY_NODES
    far = abs(bessel_series_psi(1j * a, q, 2 * z)[0])
    bound = (sys.float_info.epsilon * abs(value) * (2 / r**2 + E / z**2 + a * a)
             + a * a * tail + 2 * far * rho / ((1 - rho) * (r * z) ** 2))
    if not bound <= BESSEL_RESIDUAL_TOL:
        reach = (f"{bound:.1e} exceeds {BESSEL_RESIDUAL_TOL}" if math.isfinite(bound)
                 else "overflows")
        raise ParamOutOfRange(f"floats cannot decide the Bessel ODE residual at |alpha| ="
                              f" {a:.6g}: its error bound {reach}")
    resid = bessel_ode_residual(alpha, q, z)
    return SpectrumReport(
        "degenerate", BESSEL_RESIDUAL_TOL, [complex(E)], phase="degenerate",
        matches=[(float(E), resid, resid)],
        notes=[f"bessel_ode_residual={resid:.3e}"],
    )


# -- phase scan -----------------------------------------------------------------


def pt_phase_scan(lambda2_grid, ks, N: int = 1024, K: int = LOWEST_K) -> list[SpectrumReport]:
    """Label each lambda^2 grid point exact / complex-coupling / degenerate
    from its sphere couplings; an exact point carries its K xi and K chi levels
    together, lowest first, each beside its match, and their largest relative
    deviation, the degenerate point degenerate_level(alpha, 1)."""
    k1, k2, k3 = ks
    out = []
    for lam2 in lambda2_grid:
        lam2f = float(lam2)
        if abs(lam2f - 0.5) <= 1e-12:
            alpha2 = 4 * complex(k1) ** 2 + 4 * complex(k2) ** 2 - 2 * complex(k3) ** 2
            out.append(degenerate_level(cmath.sqrt(alpha2), 1))
            continue
        ell = sphere_couplings(lam2f, k1, k2, k3)
        if not _is_real(*ell):
            out.append(SpectrumReport("sphere", FD_LEVEL_TOL, phase="complex-coupling"))
            continue
        l1, l2, l3 = (v.real for v in ell)
        rep_xi = solve_poschl_teller(min(l1, l2), max(l1, l2), N, K)
        comp = l1 + l2  # separation index m = 0
        rep_chi = solve_chi_equation(l3, comp, N, K)
        levels = sorted(zip(rep_xi.eigenvalues + rep_chi.eigenvalues,
                            rep_xi.matches + rep_chi.matches), key=lambda p: p[0].real)
        matches = [m for _, m in levels]
        worst = max(rel for *_, rel in matches)
        out.append(SpectrumReport(
            "sphere", FD_LEVEL_TOL, [z for z, _ in levels], matches=matches,
            notes=[f"max_rel_deviation={worst:.3e}"],
        ))
    return out


# -- coupling constant metamorphosis --------------------------------------------


@dataclass
class MetamorphosisReport:
    residual: float
    ok: bool


def _morse_residual(a, k1, k2, E, phi0, G, Gpp):
    # psi(phi) = r^(-1/2) f(r), f(r) = r G(1/r), r = i e^(i phi); the
    # fractional power is fixed as exp(-(1/2)(i pi/2 + i phi)), entire in phi
    a, k1, k2, E = complex(a), complex(k1), complex(k2), complex(E)

    def psi(phi):
        r = 1j * cmath.exp(1j * phi)
        half = cmath.exp(-0.5 * (1j * cmath.pi / 2 + 1j * phi))
        return half * r * G(1 / r)

    d2 = _cauchy_derivative(psi, phi0, 2)
    V = (k2 / a**2) * (
        2 * a * k1 * cmath.exp(-2j * phi0) - k2 * cmath.exp(-4j * phi0)
    )
    lhs = -d2 + (V - E) * psi(phi0)
    r0 = 1j * cmath.exp(1j * phi0)
    rho = 1 / r0
    # oscillator side: g = E - 1/4, omega^2 = k2^2/a^2, eigenvalue 2 k1 k2 / a
    # (the displayed sign convention corresponds to the shifted origin
    # phi -> phi + pi/2, which flips the k1 term of the Morse potential)
    osc = (
        -Gpp(rho)
        + (E - 0.25) / rho**2 * G(rho)
        + (k2 / a) ** 2 * rho**2 * G(rho)
        + (2 * k1 * k2 / a) * G(rho)
    )
    mult = cmath.exp(-1.5 * (1j * cmath.pi / 2 + 1j * phi0))
    return float(abs(lhs + mult * osc))


def _degenerate_residual(sign, alpha, q, th, ph):
    # psi(s) = F(z), z = 1/(s1 - s2 + sign i sqrt2 s3); the isotropy of the
    # direction vector makes -Laplacian_{S^2} F(z) = z^2 F''(z), so the
    # Schrodinger equation collapses to -F'' + (E/z^2) F = alpha^2 F
    E = q * (q + 1)

    def psi(theta, phi):
        s1 = cmath.sin(theta) * cmath.cos(phi)
        s2 = cmath.sin(theta) * cmath.sin(phi)
        s3 = cmath.cos(theta)
        w = s1 - s2 + sign * 1j * math.sqrt(2) * s3
        return bessel_series_psi(alpha, q, 1 / w)[0]

    d2th = _cauchy_derivative(lambda t: psi(t, ph), th, 2)
    dth = _cauchy_derivative(lambda t: psi(t, ph), th, 1)
    d2ph = _cauchy_derivative(lambda p: psi(th, p), ph, 2)
    val = psi(th, ph)
    lap = d2th + dth / cmath.tan(th) + d2ph / cmath.sin(th) ** 2
    s1 = math.sin(th) * math.cos(ph)
    s2 = math.sin(th) * math.sin(ph)
    s3 = math.cos(th)
    w = s1 - s2 + sign * 1j * math.sqrt(2) * s3
    z = 1 / w
    return float(abs(-lap + complex(alpha) ** 2 * z * z * val - E * val))


def metamorphosis_check(case: str, **params) -> MetamorphosisReport:
    """Check the two displayed energy/coupling exchanges at sample points;
    the report's ok is False when the worst residual exceeds METAMORPHOSIS_TOL.

    morse(a, k1, k2, E): the a = b circle Hamiltonian maps to the radial
    oscillator with swapped roles g = E - 1/4 and script-E = 2 k1 k2 / a.
    degenerate(sign, alpha, q): the lambda^2 = 1/2 sphere equation maps to
    -psi'' + (E/z^2) psi = alpha^2 psi in z = (s1 - s2 +- i sqrt2 s3)^{-1}.
    """
    if case == "morse":
        a = params["a"]
        if complex(a) == 0:
            raise ParamOutOfRange("Morse case needs a != 0")
        k1, k2 = params["k1"], params["k2"]
        E = params.get("E", 2.3)
        G = lambda rho: rho**3 + cmath.exp(rho / 2)
        Gpp = lambda rho: 6 * rho + cmath.exp(rho / 2) / 4
        phis = [0.2, 0.9, 1.7, 2.6, 4.1, 5.3]
        worst = max(_morse_residual(a, k1, k2, E, p, G, Gpp) for p in phis)
        return MetamorphosisReport(worst, worst <= METAMORPHOSIS_TOL)
    if case == "degenerate":
        sign = params.get("sign", 1)
        alpha = params["alpha"]
        q = params["q"]
        pts = [(1.2, 2.2), (1.5, 2.5), (1.8, 2.1), (1.35, 2.7)]
        worst = max(_degenerate_residual(sign, alpha, q, th, ph) for th, ph in pts)
        return MetamorphosisReport(worst, worst <= METAMORPHOSIS_TOL)
    raise UnknownName(f"unknown metamorphosis case {case!r}")

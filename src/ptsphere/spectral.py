"""Spectral verification of the reduced models.

The circle, the sphere xi equation and the chi equation are each, on
(0, pi/2), the Poschl-Teller operator -d^2 + g_-(g_- - 1)/sin^2 +
g_+(g_+ - 1)/cos^2: xi at (g_-, g_+) = (l2, l1), chi at (M + 1/2, l3) less
1/4 after its (sin chi)^(-1/2) similarity, M = l1 + l2 + 2m (Levai & Znojil,
J. Phys. A 33 (2000) 7165).  One level list, one Dirichlet finite-difference
solver and one eigenfunction formula serve all three.  Beside them: the
periodic circle spectrum read off its triangular momentum matrix (the dense
matrix, its reference, is test code: tests/circle_reference.py), coupling
reparametrizations, PT-parity checks, the phase scan over the deformation
parameter, Bessel-series solutions of the degenerate model, its one level
(degenerate_level, shared by `spectrum --model degenerate` and the scan's
lambda^2 = 1/2 point) and the two coupling-constant-metamorphosis
identities, each a report that passes or fails.  Every SpectrumReport
carries the tol its solver's error model gives the matches' deviations.

Inputs a routine cannot take raise ParamOutOfRange, a configuration error
(exit 2) on the command line; e.g. a Bessel order with q + terms > 170, or
a degenerate level whose residual floats cannot decide.

numpy and scipy are imported only inside the array routines: the
finite-difference solver _dirichlet_pt and _cauchy_derivative.  The periodic
circle spectrum, the closed forms, the eigenfunctions and the coupling maps
are scalar code, so `spectrum --model s1` and the reduction layer, which
imports this module, start without paying for that import; a float solve
pays it once, on its first call.
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
# the contour radius and node count of _cauchy_derivative
CAUCHY_RADIUS, CAUCHY_NODES = 0.2, 64


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
    model: str
    tol: float  # the largest relative deviation a match passes with
    eigenvalues: list = field(default_factory=list)
    max_imag: float = 0.0
    # every solver here returns real levels, so no report is labelled broken
    phase: str = "exact"
    matches: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _nearest(candidates, x: float) -> float:
    """The sorted candidate closest to x, the lower one on a tie."""
    i = bisect.bisect_left(candidates, x)
    return min(candidates[max(i - 1, 0) : i + 1], key=lambda e: abs(x - e))


def _finish_report(rep: SpectrumReport, eig, K: int, candidates):
    eig = sorted(eig, key=lambda z: (complex(z).real, complex(z).imag))
    rep.eigenvalues = [complex(z) for z in eig]
    low = rep.eigenvalues[: min(K, len(rep.eigenvalues))]
    rep.max_imag = max((abs(z.imag) for z in low), default=0.0)
    if candidates:
        for z in low:
            cand = _nearest(candidates, z.real)
            dev = abs(z - cand)
            rel = dev / max(abs(cand), 1.0)
            rep.matches.append((z, cand, dev, rel))
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
    eigenvalue (Gasymov, Funct. Anal. Appl. 14 (1980) 11).  The closed-form
    matches therefore refer to this periodic operator; for a^2 = b^2 (Morse)
    the candidates are the squares themselves.
    """
    a, b = complex(a), complex(b)
    _require_regular_circle(a, b)
    M = N // 2
    eig = [complex(m * m) for m in range(-M, M + 1)]
    rep = SpectrumReport("s1", EXACT_LEVEL_TOL)
    rep.notes.append(
        "one-sided potential: triangular momentum matrix, periodic spectrum"
        f" {{m^2 : |m| <= {M}}}, each m != 0 a double eigenvalue"
    )
    rep.notes.append(
        "closed-form matches refer to the periodic operator:"
        " only branch energies that are integer squares can match"
    )
    candidates = []
    if abs(a * a - b * b) < REAL_TOL:
        candidates = sorted({float(m * m) for m in range(M + 1)})
        rep.notes.append("Morse case a^2 = b^2: the candidates are {m^2}")
    else:
        gm, gp = circle_couplings(a, b, k1, k2)
        if _is_real(gm, gp):
            candidates = closed_form_energies(gm.real, gp.real, count=2 * K, half_integer=True)
        else:
            rep.phase = "complex-coupling"
            rep.notes.append(f"g_- = {gm}, g_+ = {gp}")
    return _finish_report(rep, eig, K, candidates)


# -- finite-difference solvers on (0, pi/2) -------------------------------------


def _dirichlet_pt(gm: float, gp: float, N: int, K: int, shift: float) -> np.ndarray:
    """Lowest min(K, N) eigenvalues of the Poschl-Teller operator plus shift,
    Dirichlet finite differences on N interior points of (0, pi/2).

    Every caller reads the lowest K levels only, so no more are bisected for;
    each is found to stebz's absolute tolerance eps * |T|_1.
    """
    import numpy as np
    import scipy.linalg

    h = (np.pi / 2) / (N + 1)
    x = h * np.arange(1, N + 1)
    V = gm * (gm - 1) / np.sin(x) ** 2 + gp * (gp - 1) / np.cos(x) ** 2 + shift
    count = min(K, N)
    # index selection bisects for each eigenvalue, quadratic when all N are
    # asked for; the full-spectrum driver returns the same sorted list, equal
    # to about 1e-12 relative
    select = {"select": "a"} if count == N else {"select": "i", "select_range": (0, count - 1)}
    vals = scipy.linalg.eigh_tridiagonal(
        2.0 / h**2 + V, np.full(N - 1, -1.0 / h**2), eigvals_only=True, **select
    )
    return vals.astype(complex)


def solve_poschl_teller(gm, gp, N: int, K: int = LOWEST_K) -> SpectrumReport:
    """Dirichlet finite differences for g_-(g_- - 1)/sin^2 + g_+(g_+ - 1)/cos^2
    on (0, pi/2); Dirichlet ends select the xi^g branch, which needs g >= 1."""
    gm, gp = float(gm), float(gp)
    if gm < 1 or gp < 1:
        raise BadCouplings("Dirichlet selection needs g_-, g_+ >= 1")
    eig = _dirichlet_pt(gm, gp, N, K, 0.0)
    rep = SpectrumReport("poschl_teller", FD_LEVEL_TOL)
    candidates = closed_form_energies(gm, gp, count=4 * K, branches=(1,))
    return _finish_report(rep, eig, K, candidates)


def solve_chi_equation(ell3, composite, N: int, K: int = LOWEST_K) -> SpectrumReport:
    """Second separated equation after removing the first-order cot term.

    The similarity Psi = (sin chi)^(-1/2) PsiTilde turns
    -Psi'' - cot(chi) Psi' + [l3(l3-1)/cos^2 + M^2/sin^2] Psi = E Psi into
    -PsiTilde'' + [l3(l3-1)/cos^2 + (M^2 - 1/4)/sin^2 - 1/4] PsiTilde
    = E PsiTilde, the Poschl-Teller operator at (g_-, g_+) = (M + 1/2, l3)
    shifted by -1/4, discretized with Dirichlet ends on (0, pi/2); the
    interior cos^2 singularity at pi/2 bounds the domain.  M < 1/2 is allowed.
    """
    l3, comp = float(ell3), float(composite)
    if l3 < 1:
        raise BadCouplings("Dirichlet selection needs ell3 >= 1")
    eig = _dirichlet_pt(comp + 0.5, l3, N, K, -0.25)
    rep = SpectrumReport("chi", FD_LEVEL_TOL)
    levels = closed_form_energies(comp + 0.5, l3, count=4 * K, branches=(1,))
    return _finish_report(rep, eig, K, [e - 0.25 for e in levels])


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
def _bessel_coefficients(q: int, terms: int) -> tuple[tuple[float, ...], float]:
    """(-1)^j / (j! Gamma(j+q+3/2)) for j < terms, and the tail denominator
    terms! Gamma(terms+q+3/2); bessel_series_psi checks q + terms <= 170."""
    coeffs = tuple(
        (-1) ** j / (math.factorial(j) * math.gamma(j + q + 1.5)) for j in range(terms)
    )
    return coeffs, math.factorial(terms) * math.gamma(terms + q + 1.5)


def bessel_series_psi(alpha, q: int, z, terms: int = 30):
    """Truncated series sum_j (-1)^j / (j! Gamma(j+q+3/2)) (alpha z / 2)^(2j+q+1).

    Returns (value, tail_bound) where the bound is the first dropped term
    estimated through the ratio test.  math.gamma overflows past
    q + terms = 170.  The coefficients are built once per (q, terms).
    """
    if terms < 1:
        raise ParamOutOfRange("terms must be >= 1")
    if q < 0 or q != int(q):
        raise ParamOutOfRange("q must be a non-negative integer")
    if q + terms > 170:
        raise ParamOutOfRange(f"q + terms = {q + terms} > 170 overflows math.gamma")
    coeffs, tail_den = _bessel_coefficients(int(q), terms)
    w = complex(alpha) * complex(z) / 2
    total = 0j
    term_pow = w ** (q + 1)
    for c in coeffs:
        total += c * term_pow
        term_pow = term_pow * w * w
    return total, abs(term_pow) / tail_den


def _cauchy_derivative(f, t0, order: int, radius: float = CAUCHY_RADIUS,
                       nodes: int = CAUCHY_NODES):
    """order-th derivative of an analytic function by contour quadrature."""
    import numpy as np

    ks = np.arange(nodes)
    ts = t0 + radius * np.exp(2j * np.pi * ks / nodes)
    vals = np.array([f(t) for t in ts])
    coeff = np.mean(vals * np.exp(-2j * np.pi * ks * order / nodes))
    return coeff * math.factorial(order) / radius**order


def bessel_ode_residual(alpha, q: int, z, terms: int = 30) -> float:
    """Residual of -psi'' + (E/z^2) psi - alpha^2 psi with E = q(q+1)."""
    E = q * (q + 1)
    f = lambda t: bessel_series_psi(alpha, q, t, terms)[0]
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
        matches=[(complex(E), float(E), resid, resid)],
        notes=[f"bessel_ode_residual={resid:.3e}"],
    )


# -- phase scan -----------------------------------------------------------------


def pt_phase_scan(lambda2_grid, ks, N: int = 1024, K: int = LOWEST_K) -> list[SpectrumReport]:
    """Label each lambda^2 grid point exact / complex-coupling / degenerate
    from its sphere couplings; an exact point carries its K xi and K chi levels,
    their matches and their largest relative deviation, the degenerate point
    degenerate_level(alpha, 1)."""
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
        matches = rep_xi.matches + rep_chi.matches
        worst = max(rel for *_, rel in matches)
        out.append(SpectrumReport(
            "sphere", FD_LEVEL_TOL, rep_xi.eigenvalues + rep_chi.eigenvalues,
            max_imag=max(rep_xi.max_imag, rep_chi.max_imag), matches=matches,
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


def _degenerate_residual(sign, alpha, q, th, ph, terms=30):
    # psi(s) = F(z), z = 1/(s1 - s2 + sign i sqrt2 s3); the isotropy of the
    # direction vector makes -Laplacian_{S^2} F(z) = z^2 F''(z), so the
    # Schrodinger equation collapses to -F'' + (E/z^2) F = alpha^2 F
    E = q * (q + 1)

    def psi(theta, phi):
        s1 = cmath.sin(theta) * cmath.cos(phi)
        s2 = cmath.sin(theta) * cmath.sin(phi)
        s3 = cmath.cos(theta)
        w = s1 - s2 + sign * 1j * math.sqrt(2) * s3
        return bessel_series_psi(alpha, q, 1 / w, terms)[0]

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

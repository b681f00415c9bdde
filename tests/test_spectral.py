import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from ptsphere import spectral

from ptsphere.errors import (
    BadCouplings,
    ComplexCouplings,
    NoDefiniteParity,
    ParamOutOfRange,
    PoleInC,
    SingularPotential,
    UnknownName,
)
from ptsphere.spectral import (
    _cauchy_derivative,
    _dirichlet_pt,
    _nearest,
    bessel_ode_residual,
    bessel_series_psi,
    circle_couplings,
    closed_form_energies,
    eigenfunction_eval,
    hyp2f1_terminating,
    invert_circle_couplings,
    metamorphosis_check,
    pt_parity_check,
    pt_phase_scan,
    solve_chi_equation,
    solve_periodic_s1,
    solve_poschl_teller,
)

from circle_reference import circle_potential_phi, fourier_matrix


def test_coupling_map_roundtrip():
    k1, k2 = invert_circle_couplings(2, 1, *circle_couplings(2, 1, 3.0, 1.5))
    assert abs(k1 - 3.0) < 1e-12
    assert abs(k2 - 1.5) < 1e-12


def test_coupling_map_criterion_point():
    # g- = 2, g+ = 3 at a=2, b=1 comes from k1 = sqrt6 + sqrt2, k2 = 3 sqrt2 - sqrt6
    k1, k2 = invert_circle_couplings(2, 1, 2, 3)
    assert abs(k1 - (math.sqrt(6) + math.sqrt(2))) < 1e-12
    assert abs(k2 - (3 * math.sqrt(2) - math.sqrt(6))) < 1e-12
    gm, gp = circle_couplings(2, 1, k1.real, k2.real)
    assert abs(gm - 2) < 1e-10 and abs(gp - 3) < 1e-10


def test_closed_form_families_are_sorted_and_real():
    es = closed_form_energies(2, 3, count=6)
    assert all(e.imag == 0 for e in es)
    assert list(es) == sorted(es, key=lambda z: z.real)


def test_fourier_matrix_morse_triangular():
    m, modes = fourier_matrix(1, 1, 1, 1, 32)
    assert modes[0] > modes[-1]
    lower = np.tril(m, -1)
    assert np.max(np.abs(lower)) == 0.0
    # diagonal carries the free spectrum n^2
    diag = np.sort(np.real(np.diag(m)))
    assert diag[0] == 0.0 and 1.0 in diag and 4.0 in diag


@pytest.mark.parametrize(
    "a, b, k1, k2, N",
    [(1, 1, 1, 1, 2), (1, 1, 1, 1, 4), (1, 1, 1, 1, 32), (2, 2, 1.3, 0.7, 64)],
)
def test_morse_matrix_matches_the_fft_construction(a, b, k1, k2, N):
    # reference: the FFT construction fourier_matrix uses for a != b, applied
    # to the same potential; it puts c_{+2} and c_{+4} in the upper triangle
    M = N // 2
    dim, Ns = 2 * M + 1, 8 * M
    phis = 2 * np.pi * np.arange(Ns) / Ns
    fc = np.fft.fft(circle_potential_phi(a, b, k1, k2, phis)) / Ns
    d = np.arange(dim)
    ref = scipy.linalg.toeplitz(fc[-d % Ns], fc[d])
    np.fill_diagonal(ref, np.arange(M, -M - 1, -1).astype(float) ** 2)
    H, _ = fourier_matrix(a, b, k1, k2, N)
    assert np.abs(H - ref).max() <= 1e-14


def test_solve_periodic_morse_spectrum():
    rep = solve_periodic_s1(1, 1, 1, 1, 128)
    for z, cand, dev, rel in rep.matches[:6]:
        assert rel < 1e-10
        assert abs(round(math.sqrt(abs(cand))) ** 2 - cand) < 1e-9


def test_solve_periodic_rejects_singular():
    with pytest.raises(SingularPotential):
        solve_periodic_s1(0, 1, 1, 1, 64)


@pytest.mark.parametrize("a, b", [(2, 0.5j), (1j, 3), (1 + 1j, 1 - 1j)])
def test_singular_circle_rejected(a, b):
    # Re(a conj(b)) = 0: b cos 2phi - i a sin 2phi has a zero on the real circle
    with pytest.raises(SingularPotential):
        fourier_matrix(a, b, 1.0, 0.7, 64)
    with pytest.raises(SingularPotential):
        solve_periodic_s1(a, b, 1.0, 0.7, 64)


@pytest.mark.parametrize(
    "a, b", [(2, 1), (1, 2), (1, -2), (-2, 1), (1 + 0.5j, 2 - 0.3j), (1, 1), (1, -1)]
)
def test_periodic_spectrum_is_the_triangular_diagonal(a, b):
    # the dense momentum matrix is the reference: one triangle vanishes, so
    # its diagonal is the whole spectrum, m^2 twice for every m != 0
    H, _ = fourier_matrix(a, b, 1.3, 0.7, 64)
    scale = np.abs(H).max()
    assert min(np.abs(np.triu(H, 1)).max(), np.abs(np.tril(H, -1)).max()) <= 1e-12 * scale
    rep = solve_periodic_s1(a, b, 1.3, 0.7, 64)
    assert rep.eigenvalues == sorted(np.diag(H).real)
    # the couplings g_-, g_+ of these circles are real exactly when |a| >= |b|
    assert rep.max_imag == 0.0
    assert rep.phase == ("exact" if abs(a) >= abs(b) else "complex-coupling")
    assert any("triangular" in n for n in rep.notes)


def test_s1_mirror_branch():
    # branch 3, (2j + g_+ - g_- + 1)^2, is the lower tower when g_- > g_+;
    # branch 1 is (2n + g_- + g_+)^2
    for gm, gp, branch, tower in ((3, 2, 3, [0.0, 4.0]), (2, 3, 1, [25.0, 49.0])):
        assert closed_form_energies(gm, gp, branches=(branch,), count=2) == tower
    assert 1.0 in closed_form_energies(3, 2, half_integer=True)


def test_nearest_candidate_matches_the_linear_minimum():
    # integer candidates with repeats and half-integer points make exact ties,
    # where the lower candidate wins, as the first minimum of a linear scan
    rng = np.random.default_rng(7)
    for _ in range(300):
        cands = sorted(int(v) for v in rng.integers(-20, 20, size=rng.integers(1, 12)))
        for x in rng.integers(-50, 50, size=8) / 2:
            assert _nearest(cands, x) == min(cands, key=lambda e: abs(x - e))


def test_solve_periodic_complex_coupling_phase():
    # b > a makes the inverse coupling map complex; the report must say so
    rep = solve_periodic_s1(1, 2, 1.0, 0.5, 128)
    assert rep.phase == "complex-coupling"


def test_poschl_teller_fd():
    rep = solve_poschl_teller(2, 3, 1024)
    for z, cand, dev, rel in rep.matches[:4]:
        assert rel < 1e-3
    assert rep.matches[0][1] == 25.0


def _pt_tridiagonal(gm, gp, N, shift):
    """Diagonal and off-diagonal of the Dirichlet Poschl-Teller matrix."""
    h = (np.pi / 2) / (N + 1)
    x = h * np.arange(1, N + 1)
    diag = 2.0 / h**2 + gm * (gm - 1) / np.sin(x) ** 2 + gp * (gp - 1) / np.cos(x) ** 2 + shift
    return diag, np.full(N - 1, -1.0 / h**2)


def test_full_spectrum_driver_matches_index_bisection():
    # N = K = 64 asks for every eigenvalue, which _dirichlet_pt takes from
    # the full-spectrum driver instead of bisection; a larger K asks for no more
    N = K = 64
    got = _dirichlet_pt(2.0, 3.0, N, K, 0.0)
    assert np.array_equal(_dirichlet_pt(2.0, 3.0, N, 3 * K, 0.0), got)
    diag, off = _pt_tridiagonal(2.0, 3.0, N, 0.0)
    ref = scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, N - 1), eigvals_only=True
    )
    assert len(got) == N
    assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref))


@pytest.mark.parametrize(
    "gm, gp, N, K, shift",
    [(2.0, 3.0, 4096, 8, 0.0), (5.5, 2.0, 4096, 8, -0.25), (2.0, 3.0, 1024, 8, 0.0),
     (1.0, 1.5, 512, 3, 0.0), (3.5, 2.3, 1024, 1, -0.25), (2.0, 3.0, 48, 40, 0.0)],
)
def test_dirichlet_pt_bisects_for_the_lowest_K_levels_only(gm, gp, N, K, shift):
    # bisection for K levels and for 2K each stop on an interval narrower
    # than stebz's tolerance around the same eigenvalue: eps * |T|_1 (scipy's
    # default for tol = 0), or 2 eps |E| where that is larger, near the top
    got = _dirichlet_pt(gm, gp, N, K, shift)
    assert len(got) == K
    diag, off = _pt_tridiagonal(gm, gp, N, shift)
    ref = scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, min(2 * K, N) - 1), eigvals_only=True
    )[:K]
    eps = np.finfo(float).eps
    norm1 = np.max(np.abs(diag) + np.abs(np.r_[0.0, off]) + np.abs(np.r_[off, 0.0]))
    assert np.all(np.abs(got - ref) <= np.maximum(eps * norm1, 2 * eps * np.abs(ref)))


def test_poschl_teller_bad_couplings():
    with pytest.raises(BadCouplings):
        solve_poschl_teller(0.5, 3, 256)


def test_chi_equation_fd():
    rep = solve_chi_equation(2, 5, 2048)
    expected = [(7 + 2 * j) * (8 + 2 * j) for j in range(4)]
    got = [m[1] for m in rep.matches[: len(expected)]]
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-9


@pytest.mark.parametrize("ell3, composite", [(2, 5), (1.5, 3.5), (2.3, 4.7), (1, 0.5)])
def test_chi_equation_is_the_shifted_poschl_teller_equation(ell3, composite):
    # chi is the Poschl-Teller operator at (M + 1/2, l3), shifted by -1/4
    chi = solve_chi_equation(ell3, composite, 1024, K=16).eigenvalues
    pt = solve_poschl_teller(composite + 0.5, ell3, 1024, K=16).eigenvalues
    assert len(chi) == len(pt) == 16
    for z, w in zip(chi, pt):
        assert abs(z - (w - 0.25)) <= 1e-12 * abs(z)


def test_fd_second_order_convergence():
    coarse = solve_poschl_teller(2, 3, 512)
    fine = solve_poschl_teller(2, 3, 1024)
    e0 = 25.0
    err_c = abs(coarse.eigenvalues[0].real - e0)
    err_f = abs(fine.eigenvalues[0].real - e0)
    assert 3.5 < err_c / err_f < 4.5


def test_hyp2f1_terminating_exact():
    from fractions import Fraction

    # 2F1(-1, b; c; x) = 1 - b x / c
    v = hyp2f1_terminating(-1, Fraction(3), Fraction(2), Fraction(1, 4))
    assert v == 1 - Fraction(3) * Fraction(1, 4) / Fraction(2)
    # the pole case: c a nonpositive integer reached before the series stops
    with pytest.raises(PoleInC):
        hyp2f1_terminating(-3, Fraction(1), Fraction(-1), Fraction(1, 2))


def test_hyp2f1_second_term():
    from fractions import Fraction

    # explicit 3-term check of the terminating series
    a, b, c, x = -2, Fraction(1, 2), Fraction(5, 2), Fraction(1, 3)
    t0 = Fraction(1)
    t1 = Fraction(a) * b / c * x
    t2 = (
        Fraction(a) * (a + 1) * b * (b + Fraction(1)) / (c * (c + 1)) / 2 * x * x
    )
    assert hyp2f1_terminating(a, b, c, x) == t0 + t1 + t2


def _hyp2f1_float_reference(a, b, c, x):
    """The float series written out, each step's two products and one
    division as separate statements on complex() of each input."""
    total, term = 0j, 1.0 + 0j
    for j in range(-int(a) + 1):
        total = total + term
        if j < -int(a):
            term = term * (complex(a) + j) * (complex(b) + j) * complex(x)
            term = term / ((complex(c) + j) * (j + 1))
    return total


@pytest.mark.parametrize("a, b, c, x", [
    (-3, 0.5, 2.5, 0.3),
    (-4, Fraction(1, 3), 1.75, -0.9),
    (-5, 2.25 + 0.5j, 0.5 - 1j, 0.25 + 0.5j),
    (-6.0, -2.5, 3, 0.999),
    # rounds differently if the update's products or divisions are regrouped
    (-8, 1.674, 2.37, 0.297),
])
def test_hyp2f1_terminating_float_matches_the_reference_loop(a, b, c, x):
    # float inputs go through complex() once, then the one update: the same
    # operations in the same order, so the value is equal bit for bit
    value = hyp2f1_terminating(a, b, c, x)
    assert isinstance(value, complex)
    assert value == _hyp2f1_float_reference(a, b, c, x)


def _pt(gm, gp):
    """The Poschl-Teller potential at (g_-, g_+)."""
    return lambda x: gm * (gm - 1) / cmath.sin(x) ** 2 + gp * (gp - 1) / cmath.cos(x) ** 2


@pytest.mark.parametrize(
    "model, branch, qn, params, potential, energy, cot",
    [
        # s1 at its branch-1 level and, at half-integer n, its branch-2 level
        ("s1", 1, 1, dict(g_minus=2, g_plus=3), _pt(2, 3), 49, False),
        ("s1", 2, Fraction(1, 2), dict(g_minus=2, g_plus=3), _pt(2, 3), 36, False),
        ("s1", 1, 2, dict(g_minus=3, g_plus=2), _pt(3, 2), 81, False),
        # sphere xi: Poschl-Teller in (l2, l1) at (l1 + l2 + 2m)^2
        ("sphere_xi", 1, 1, dict(ell=(2, 3)), _pt(3, 2), 49, False),
        ("sphere_xi", 2, Fraction(1, 2), dict(ell=(2, 3)), _pt(3, 2), 36, False),
        # sphere chi with its cot term: l3(l3-1)/cos^2 + M^2/sin^2, M = 5, at
        # the g_- = 1/2 - M level (2n + l3 + 1/2 - M)^2 - 1/4
        ("sphere_chi", 1, 2, dict(ell=(2, 3, 2), m=0),
         lambda x: 2 / cmath.cos(x) ** 2 + 25 / cmath.sin(x) ** 2, 2, True),
        ("sphere_chi", 2, Fraction(1, 2), dict(ell=(2, 3, 2), m=0),
         lambda x: 2 / cmath.cos(x) ** 2 + 25 / cmath.sin(x) ** 2, 2, True),
        ("sphere_chi", 1, 1, dict(ell=(1, 2, 3), m=1),
         lambda x: 6 / cmath.cos(x) ** 2 + 25 / cmath.sin(x) ** 2, 0, True),
    ],
    ids=["s1-1", "s1-2", "s1-1-mirror", "xi-1", "xi-2", "chi-1", "chi-2", "chi-1-m1"],
)
def test_eigenfunction_solves_its_separated_equation(
    model, branch, qn, params, potential, energy, cot
):
    f = lambda x: eigenfunction_eval(model, branch, qn, x, **params)
    for x in (0.7, 0.9, 1.1):
        d2 = _cauchy_derivative(f, x, 2)
        d1 = _cauchy_derivative(f, x, 1) / math.tan(x) if cot else 0
        resid = -d2 - d1 + (potential(x) - energy) * f(x)
        assert abs(resid) <= 1e-10


def test_eigenfunction_single_valued():
    # branch 1 at n = 0 is sin^g- cos^g+ with 2F1 = 1
    val = eigenfunction_eval("s1", 1, 0, 0.7, a=2, b=1, g_minus=2, g_plus=3)
    want = math.sin(0.7) ** 2 * math.cos(0.7) ** 3
    assert abs(val - want) <= 1e-15 * want


def test_pt_parity_real_couplings():
    # every return value is +1 or -1; these eigenfunctions are PT-even
    for qn in range(4):
        assert pt_parity_check("s1", branch=1, qn=qn, a=2, b=1, g_minus=2, g_plus=3) == 1
        assert pt_parity_check("sphere_xi", branch=1, qn=qn, lambda2=0.25, ell=(2, 3)) == 1
        assert pt_parity_check("sphere_chi", branch=1, qn=qn, lambda2=0.25, ell=(2, 3, 2)) == 1


def test_pt_parity_broken_regime():
    with pytest.raises(NoDefiniteParity):
        pt_parity_check("sphere_xi", branch=1, qn=1, lambda2=0.6, ell=(2, 3))


def test_bessel_series_converges():
    val, tail = bessel_series_psi(2.0, 1.0, 0.8)
    assert tail < 1e-12 * max(1.0, abs(val))
    resid = bessel_ode_residual(2.0, 1.0, 0.8)
    assert resid < 1e-10


def _bessel_series_per_term(alpha, q, z, terms):
    # the series with every coefficient built in the loop, as a reference
    w = complex(alpha) * complex(z) / 2
    total = 0j
    term_pow = w ** (q + 1)
    for j in range(terms):
        gamma = math.gamma(j + q + 1.5)
        total += (-1) ** j / (math.factorial(j) * gamma) * term_pow
        term_pow = term_pow * w * w
    tail = abs(term_pow) / (math.factorial(terms) * math.gamma(terms + q + 1.5))
    return total, tail


@pytest.mark.parametrize(
    "alpha, q, z, terms",
    [(1.3, 1, 0.5, 30), (2.0, 1.0, 0.8, 30), (1.3 + 0.4j, 0, 0.3 - 0.2j, 1),
     (2.7, 4, 1.1, 30), (1.0, 140, 0.5, 30), (1.0, 165, 0.5, 5), (0.9, 0, 0.7, 170)],
)
def test_bessel_series_is_bit_identical_to_the_per_term_formula(alpha, q, z, terms):
    # the cached coefficients go through the same float operations in the
    # same order, up to q + terms = 170; a second call reads the cache
    ref = _bessel_series_per_term(alpha, q, z, terms)
    assert bessel_series_psi(alpha, q, z, terms) == ref
    assert bessel_series_psi(alpha, q, z, terms) == ref
    for zz in (z + 0.25, 1j * z):
        assert bessel_series_psi(alpha, q, zz, terms) == _bessel_series_per_term(alpha, q, zz, terms)


def test_bessel_series_refuses_gamma_overflow():
    # math.gamma(j + q + 3/2) overflows past q + terms = 170
    assert math.isfinite(abs(bessel_series_psi(1.0, 140, 0.5)[0]))
    assert math.isfinite(abs(bessel_series_psi(1.0, 165, 0.5, terms=5)[0]))
    with pytest.raises(ParamOutOfRange):
        bessel_series_psi(1.0, 141, 0.5)
    with pytest.raises(ParamOutOfRange):
        bessel_ode_residual(1.0, 166, 0.5, terms=5)


def test_degenerate_level_is_matched_by_itself():
    rep = spectral.degenerate_level(2, 1)
    resid = bessel_ode_residual(2, 1, 0.5)
    assert (rep.model, rep.phase, rep.eigenvalues) == ("degenerate", "degenerate", [2])
    assert rep.matches == [(2, 2.0, resid, resid)]
    assert rep.notes == [f"bessel_ode_residual={resid:.3e}"]


@pytest.mark.parametrize("q", [0, 1, 5, 126])
def test_degenerate_level_passes_or_is_refused(q):
    # the error bound stays above the measured residual: each level up to
    # alpha = 120 either passes or is refused, none fails.  The refusals are
    # needed: at (40, 1) the alternating series cancels, and at (115, 126)
    # the contour sum aliases, past the tolerance
    assert bessel_ode_residual(40, 1, 0.5) > spectral.BESSEL_RESIDUAL_TOL
    assert bessel_ode_residual(115, 126, 0.5) > spectral.BESSEL_RESIDUAL_TOL
    passed = 0
    for i in range(1, 81):
        try:
            rep = spectral.degenerate_level(1.5 * i, q)
        except ParamOutOfRange:
            continue
        assert rep.matches[0][3] <= spectral.BESSEL_RESIDUAL_TOL, 1.5 * i
        passed += 1
    assert passed >= 8  # alpha = 1.5 ... 12 passes at every q here


def test_phase_scan_labels():
    reps = pt_phase_scan([0.1, 0.5, 0.6], (1.0, 1.5, 0.5), N=256)
    assert reps[0].phase == "exact"
    assert reps[1].phase == "degenerate"
    assert any("bessel" in n.lower() for n in reps[1].notes)
    assert reps[2].phase == "complex-coupling"


def test_metamorphosis_morse():
    rep = metamorphosis_check("morse", a=1, k1=1, k2=1)
    assert rep.ok
    assert rep.residual < 1e-9


def test_metamorphosis_degenerate():
    rep = metamorphosis_check("degenerate", sign=1, alpha=2, q=1)
    assert rep.ok
    assert rep.residual < 1e-9


_METAMORPHOSES = [("morse", dict(a=1, k1=1, k2=1)), ("degenerate", dict(sign=1, alpha=2, q=1))]


@pytest.mark.parametrize("case, params", _METAMORPHOSES, ids=["morse", "degenerate"])
def test_metamorphosis_reports_hold_python_scalars(case, params):
    rep = metamorphosis_check(case, **params)
    assert rep.ok is True and type(rep.residual) is float
    assert type(bessel_ode_residual(1.3, 1, 0.5)) is float


def test_metamorphosis_fails_on_a_wrong_bessel_order(monkeypatch):
    # psi of order q + 1 against the equation of order q
    real = spectral.bessel_series_psi
    monkeypatch.setattr(spectral, "bessel_series_psi",
                        lambda alpha, q, z, terms=30: real(alpha, q + 1, z, terms))
    rep = metamorphosis_check("degenerate", sign=1, alpha=2, q=1)
    assert rep.ok is False and rep.residual > spectral.METAMORPHOSIS_TOL


@pytest.mark.parametrize("case, params", _METAMORPHOSES, ids=["morse", "degenerate"])
def test_metamorphosis_fails_on_a_scaled_derivative(monkeypatch, case, params):
    # every contour derivative 0.1% too large breaks both identities
    real = spectral._cauchy_derivative
    monkeypatch.setattr(spectral, "_cauchy_derivative", lambda *a, **kw: 1.001 * real(*a, **kw))
    rep = metamorphosis_check(case, **params)
    assert rep.ok is False and rep.residual > spectral.METAMORPHOSIS_TOL


def test_metamorphosis_bad_case():
    with pytest.raises(UnknownName):
        metamorphosis_check("no-such-case")

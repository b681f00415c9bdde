"""End-to-end acceptance checks, one test per headline criterion.

Each test prints a single pass/fail line with its wall time so the suite
doubles as a runnable report; tolerances and budgets are stated inline.
"""

import math
import time

import numpy as np
import pytest

from ptsphere.errors import NoDefiniteParity
from ptsphere.lie import build_generators
from ptsphere.reduction import (
    casimir_projection_report,
    jacobian_check,
    racah_structure_report,
    verify_conservation,
    verify_homomorphism,
    verify_masa_reduction,
    verify_sum_relation,
)
from ptsphere.spectral import (
    invert_circle_couplings,
    pt_parity_check,
    pt_phase_scan,
    solve_chi_equation,
    solve_periodic_s1,
    solve_poschl_teller,
)

from catalog_models import PARAMS, RACAH_MODELS, SUM_RELATION_MODELS, build_masa
from circle_reference import fourier_matrix
from structure_reference import mismatches


def _report(label, ok, t0, budget):
    dt = time.perf_counter() - t0
    print(f"\n[{label}] {'PASS' if ok else 'FAIL'} ({dt:.1f}s, budget {budget:.0f}s)")
    assert ok, label
    assert dt < budget, f"{label} exceeded its {budget:.0f}s budget ({dt:.1f}s)"


def _models():
    return [(name, build_masa(name)) for name in PARAMS]


def test_criterion_01_structure_constants():
    t0 = time.perf_counter()
    # the derived constants against the printed tables, and X0 central
    ok = not any(mismatches(build_generators(n)) for n in (2, 3))
    _report("criterion 01 structure constants", ok, t0, 1)


def test_criterion_02_bracket_homomorphism():
    t0 = time.perf_counter()
    ok = all(
        verify_homomorphism(m, npoints=30).passed for _, m in _models()
    )
    _report("criterion 02 bracket homomorphism, 30 points", ok, t0, 30)


def test_criterion_03_generators_reduce_to_couplings():
    t0 = time.perf_counter()
    ok = all(verify_masa_reduction(m).passed for _, m in _models())
    _report("criterion 03 exact Zhat = k", ok, t0, 5)


def test_criterion_04_conservation():
    t0 = time.perf_counter()
    ok = all(verify_conservation(m).passed for _, m in _models())
    _report("criterion 04 integrals conserved", ok, t0, 120)


def test_criterion_05_sum_relations_and_casimir():
    t0 = time.perf_counter()
    ok = True
    details = {}
    for name in SUM_RELATION_MODELS:
        m = build_masa(name)
        rep = casimir_projection_report(m)
        ok = ok and verify_sum_relation(m).passed and rep.passed
        details[name] = rep.detail
    ok = ok and details["su2ab"] == "(2) H"
    _report("criterion 05 sum relations and Casimir projections", ok, t0, 60)


def test_criterion_06_racah_antisymmetry():
    t0 = time.perf_counter()
    # the T12 = -T13 = T23 relation is a property of the lambda family
    ok = bool(RACAH_MODELS) and all(
        racah_structure_report(build_masa(name), with_fits=False).antisymmetry_ok
        for name in RACAH_MODELS
    )
    _report("criterion 06 Racah antisymmetry", ok, t0, 60)


def test_criterion_07_block_identity_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20230411)
    worst = 0.0
    for _, m in _models():
        for _ in range(10):
            x = rng.normal(scale=0.4, size=m.size)
            v = rng.normal(size=m.n)
            v /= np.linalg.norm(v)
            jc = jacobian_check(m, list(x), list(v))
            worst = max(worst, max(jc.residuals.values()))
    _report(
        f"criterion 07 block identities, max residual {worst:.1e} <= 1e-9",
        worst <= 1e-9,
        t0,
        10,
    )


def test_criterion_08_circle_spectrum():
    t0 = time.perf_counter()
    k1, k2 = invert_circle_couplings(2, 1, 2, 3)
    rep = solve_periodic_s1(2, 1, k1, k2, 512)
    ok = rep.max_imag == 0.0
    for cand, dev, rel in rep.matches:
        ok = ok and rel <= 1e-6
    _report(
        f"criterion 08 circle spectrum N=512, max|Im| {rep.max_imag:.1e}",
        ok,
        t0,
        10,
    )


def test_criterion_09_morse_triangular_tower():
    t0 = time.perf_counter()
    H, _ = fourier_matrix(1, 1, 1, 1, 512)
    triangular = np.max(np.abs(np.tril(H, -1))) == 0.0
    rep = solve_periodic_s1(1, 1, 1, 1, 512)
    ok = triangular
    for cand, dev, rel in rep.matches[:8]:
        n = round(math.sqrt(abs(cand)))
        ok = ok and abs(cand - n * n) < 1e-9 and rel <= 1e-8
    _report("criterion 09 Morse case triangular with squares tower", ok, t0, 5)


def test_criterion_10_sphere_finite_differences():
    t0 = time.perf_counter()
    ok = True
    # separated xi equation at l1=2, l2=3: (2m+5)^2
    rep = solve_poschl_teller(2, 3, 4096)
    for j, (cand, dev, rel) in enumerate(rep.matches[:6]):
        ok = ok and abs(cand - (2 * j + 5) ** 2) < 1e-9 and rel <= 1e-3
    # chi equation tower at the same quantum numbers
    repc = solve_chi_equation(2, 5, 4096)
    for cand, dev, rel in repc.matches[:6]:
        ok = ok and rel <= 1e-3
    # O(h^2): halving the step divides the ground level error by about 4
    e0 = 25.0
    err_c = abs(solve_poschl_teller(2, 3, 2048).eigenvalues[0].real - e0)
    err_f = abs(rep.eigenvalues[0].real - e0)
    ratio = err_c / err_f
    ok = ok and 3.5 < ratio < 4.5
    _report(
        f"criterion 10 sphere FD towers, h^2 ratio {ratio:.2f}", ok, t0, 60
    )


def test_criterion_11_phase_scan():
    t0 = time.perf_counter()
    grid = [round(0.05 * j, 10) for j in range(1, 14)]
    reps = pt_phase_scan(grid, (1.0, 1.5, 0.5), N=1024)
    ok = True
    resid = None
    for lam2, rep in zip(grid, reps):
        if lam2 < 0.5:
            ok = ok and rep.phase == "exact"
        elif lam2 == 0.5:
            ok = ok and rep.phase == "degenerate"
            note = next(n for n in rep.notes if "residual" in n)
            resid = float(note.split("=")[-1])
            ok = ok and resid <= 1e-10
        else:
            ok = ok and rep.phase == "complex-coupling"
    _report(
        f"criterion 11 phase scan, boundary residual {resid:.1e}", ok, t0, 120
    )


def test_criterion_12_pt_parity():
    t0 = time.perf_counter()
    ok = True
    eps = pt_parity_check("s1", branch=1, qn=1, a=2, b=1, g_minus=2, g_plus=3)
    ok = ok and eps == 1
    eps = pt_parity_check("sphere_xi", branch=1, qn=1, lambda2=0.25, ell=(2, 3))
    ok = ok and eps == 1
    eps = pt_parity_check(
        "sphere_chi", branch=1, qn=1, lambda2=0.25, ell=(2, 3, 2)
    )
    ok = ok and eps == 1
    try:
        pt_parity_check("sphere_xi", branch=1, qn=1, lambda2=0.6, ell=(2, 3))
        ok = False
    except NoDefiniteParity:
        pass
    _report("criterion 12 PT parity of separated states", ok, t0, 10)

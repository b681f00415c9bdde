"""The three benchmark workloads: their inputs and their expected verdicts.

`setup(workload, seed)` builds a workload's catalog models and returns its
operations.  One operation is one verdict: a check on one model, or one
solve, whose expected outcome the operation itself tests.  An operation
returns True when the outcome is the expected one; returning False or
raising counts as a failed operation.

Every call into ptsphere goes through a module attribute (`reduction.x`,
`spectral.x`, ...), so the traced run sees it once the tracer has patched
that attribute.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ptsphere import cli, lie, masa, phase, reduction, spectral
from ptsphere.errors import NoDefiniteParity

WORKLOADS = ("exact-eval", "symbolic-build", "float-spectra")

CATALOG_PARAMS = {
    "su2ab": dict(a=Fraction(2), b=Fraction(1)),
    "lambda": dict(lambda2=Fraction(1, 4)),
    "cartan_od": dict(a=Fraction(1), b=Fraction(1, 2)),
    "nilpotent": {},
    "degenerate_plus": {},
    "degenerate_minus": {},
}

# exact Casimir fits over {H, 1, k_i k_j} that casimir_projection_report
# must return
CASIMIR_FITS = {
    "su2ab": "(2) H",
    "cartan_od": "(3) H + (1) k1k1 + (2) k1k3 + (1) k3k3",
}

# jacobian_check points per catalog model (`ptsphere verify --appendix` uses
# 10; each call rebuilds the exact V matrix, so fewer keep exact arithmetic a
# small share of this float workload)
JACOBIAN_POINTS = 3

EXPECTED_INTEGRALS = {
    "su2ab": ["H"],
    "lambda": ["T1", "T2", "T3"],
    "cartan_od": ["T1", "T2", "T3"],
    "nilpotent": ["T1", "T2", "T3"],
    "degenerate_plus": ["T"],
    "degenerate_minus": ["T"],
}

# g_- > g_+ on s1: branch 2 of closed_form_energies, (j + g_- + 1 - g_+)^2,
# is not symmetric under swapping g_- and g_+ (cause unverified).  The
# operation stays in the workload and counts as failed while this holds.
GSWAP_DEFECT = "s1 with g_- > g_+ misses the closed form (relative deviation 1.0)"

SEED_IGNORED = (
    "verify_conservation and verify_sum_relation take no seed, so their "
    "points and cost do not change with --seed"
)


@dataclass
class Op:
    name: str
    run: Callable[[], bool]
    known_defect: str | None = None


def build_models(names):
    return {name: masa.catalog_masa(name, **CATALOG_PARAMS[name]) for name in names}


def setup(workload: str, seed: int) -> list[Op]:
    """Build the workload's inputs from the seed and return its operations."""
    if workload == "exact-eval":
        return _exact_eval(seed)
    if workload == "symbolic-build":
        return _symbolic_build(seed)
    if workload == "float-spectra":
        return _float_spectra(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def run_cli(argv) -> tuple[int, dict | None]:
    """Call cli.main in-process; return its exit code and parsed JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    text = out.getvalue()
    return rc, (json.loads(text) if text.strip() else None)


# -- exact-eval -----------------------------------------------------------------


def _exact_eval(seed: int) -> list[Op]:
    # Every call draws its sample seed afresh, so the passes of one run
    # evaluate at many point sets.  The height of a point sets the cost of
    # exact evaluation (a control at small coordinates runs several times
    # faster), so one point set per run made the run's median depend on the
    # seed.  The same seed still gives the same sequence of points.
    rng = random.Random(seed)

    def draw():
        return rng.randrange(2**31)

    models = build_models(
        ("lambda", "nilpotent", "cartan_od", "degenerate_plus", "su2ab")
    )
    # negative controls: {H, T1 + s_1}_D is not zero on the constraint
    # surface, so the identity test must reject it
    controls = {}
    for name in ("lambda", "nilpotent", "cartan_od", "degenerate_plus"):
        sysr = reduction.build_hamiltonian(models[name])
        n = sysr.masa.n
        bad = sysr.integrals[0][1] + phase.PhaseRational(phase.PhasePoly.s(n, 0))
        controls[name] = (sysr.hamiltonian, bad, n)
    cod, su2 = models["cartan_od"], models["su2ab"]

    def casimir(name, npoints=None):
        rep = reduction.casimir_projection_report(
            models[name], seed=draw(), npoints=npoints
        )
        return rep.passed and rep.detail == CASIMIR_FITS[name]

    def negative_control(name):
        H, bad, n = controls[name]
        return not phase.func_vanishes_on_constraint(
            lambda vals: phase.dirac_bracket_at(H, bad, vals), n, 5, draw()
        )

    ops = [
        Op("homomorphism[cartan_od]", lambda: reduction.verify_homomorphism(
            cod, npoints=1, seed=draw()).passed),
        Op("conservation[degenerate_plus]", lambda: reduction.verify_conservation(
            models["degenerate_plus"], trials=1).passed),
        Op("sum_relation[su2ab]", lambda: reduction.verify_sum_relation(su2).passed),
        Op("casimir[su2ab]", lambda: casimir("su2ab")),
        Op("casimir[cartan_od]", lambda: casimir("cartan_od", npoints=8)),
        # T12 = -T13 = T23 is a property of the lambda family only, so on
        # cartan_od the antisymmetry test must come out False
        Op("racah_antisymmetry[cartan_od]", lambda: not reduction.racah_structure_report(
            cod, seed=draw(), with_fits=False).antisymmetry_ok),
    ]
    for name in ("lambda", "nilpotent", "cartan_od", "degenerate_plus"):
        ops.append(Op(f"negative_control[{name}]", lambda name=name: negative_control(name)))
    return ops


# -- symbolic-build -----------------------------------------------------------------


def _symbolic_build(seed: int) -> list[Op]:
    # nothing here samples points; the seed only has to be accepted
    models = build_models(CATALOG_PARAMS)
    ops = []

    def catalog_checks(name):
        m = masa.catalog_masa(name, **CATALOG_PARAMS[name])
        eps = masa.classify_pt(m, m.parity)
        return masa.validate_masa(m).passed and len(set(eps)) == 1

    def hamiltonian(name):
        # one built system per model, as `ptsphere verify` uses it for the
        # PT zero test on the potential
        m = models[name]
        sysr = reduction.build_hamiltonian(m)
        names = [t for t, _ in sysr.integrals]
        V = sysr.potential
        img = V.apply_pt(m.parity)
        return (
            names == EXPECTED_INTEGRALS[name]
            and sysr.hamiltonian.p_degree() == 2
            and (V.num * img.den - img.num * V.den).is_zero()
        )

    def momentum_maps(name):
        # every map verify_homomorphism builds; the commutator images must
        # be the same linear combinations of the generator images
        m = models[name]
        basis = lie.build_generators(m.n)
        gens = basis.generators
        maps = [reduction.momentum_map(g, m) for g in gens]
        corr = [reduction.momentum_map(X @ Z - Z @ X, m) for X in gens for Z in m.matrices]
        ok = len(corr) == basis.size * m.n
        for i in range(basis.size):
            for j in range(i + 1, basis.size):
                img = reduction.momentum_map(gens[i] @ gens[j] - gens[j] @ gens[i], m)
                lin = phase.PhaseRational.const(m.n, 0)
                for k, c in basis.bracket_coeffs(i, j).items():
                    lin = lin + maps[k].scale(c)
                ok = ok and (img - lin).is_zero()
        return ok

    def casimir_projection(name):
        # the fit to H holds only on the constraint surface, which is point
        # evaluation (exact-eval); here the projection must be quadratic in p
        m = models[name]
        cas = lie.casimir_element(2, lie.build_generators(m.n))
        proj = reduction.project_env_element(cas, m)
        return not proj.is_zero() and proj.p_degree() == 2

    def casimir_central(n):
        # C2 commutes with every generator in the enveloping algebra
        basis = lie.build_generators(n)
        c2 = lie.casimir_element(2, basis)
        return all(
            lie.env_commutator(c2, lie.EnvElement.gen(i), basis).is_zero()
            for i in range(basis.size)
        )

    def bracket(name):
        T = dict(reduction.integrals_catalog(models[name]))
        T12 = phase.poisson_bracket(T["T1"], T["T2"])
        return not T12.is_zero() and T12.p_degree() <= 3

    for name in CATALOG_PARAMS:
        ops += [
            Op(f"catalog[{name}]", lambda name=name: catalog_checks(name)),
            Op(f"hamiltonian_pt[{name}]", lambda name=name: hamiltonian(name)),
            Op(f"cli_validate[{name}]", lambda name=name: run_cli(
                ["validate", "--model", name])[0] == cli.EXIT_OK),
        ]
    # verify_masa_reduction on lambda and nilpotent would add 0.25 s a pass
    for name in ("su2ab", "cartan_od", "degenerate_plus", "degenerate_minus"):
        ops.append(Op(f"masa_reduction[{name}]", lambda name=name: reduction.verify_masa_reduction(
            models[name]).passed))
    ops += [
        Op("momentum_maps[cartan_od]", lambda: momentum_maps("cartan_od")),
        Op("casimir_projection[su2ab]", lambda: casimir_projection("su2ab")),
        Op("casimir_central[u(2)]", lambda: casimir_central(2)),
        Op("casimir_central[u(3)]", lambda: casimir_central(3)),
        Op("poisson_bracket[cartan_od]", lambda: bracket("cartan_od")),
    ]
    return ops


# -- float-spectra ------------------------------------------------------------------


def _well_conditioned(s, margin=0.15):
    """s keeps `margin` away from the planes s_i = 0 and s_i = +-s_j.

    The catalog potentials are singular on some of these planes, and there
    the block residual of jacobian_check grows past its absolute 1e-9
    tolerance (2e-8 for degenerate_plus at s = (-0.709, -0.703, -0.062)).
    """
    if min(abs(c) for c in s) < margin:
        return False
    return all(
        abs(a - b) >= margin and abs(a + b) >= margin
        for a, b in itertools.combinations(s, 2)
    )


def _float_spectra(seed: int) -> list[Op]:
    rng = random.Random(seed)
    g = rng.choice((2, 3))
    pair = (g, g + 1)
    jac_points = {}
    models = build_models(CATALOG_PARAMS)
    for name, m in models.items():
        pts = []
        while len(pts) < JACOBIAN_POINTS:
            x = [rng.gauss(0, 0.4) for _ in range(m.size)]
            v = [rng.gauss(0, 1) for _ in range(m.n)]
            norm = sum(c * c for c in v) ** 0.5
            s = [c / norm for c in v]
            if _well_conditioned(s):
                pts.append((x, s))
        jac_points[name] = pts

    def spectrum(*argv):
        rc, doc = run_cli(["spectrum", *argv])
        return rc == cli.EXIT_OK and doc["phase"] == "exact"

    def s1(gm, gp, N):
        return spectrum("--model", "s1", "--a", "2", "--b", "1", "--gminus", str(gm),
                        "--gplus", str(gp), "--N", str(N))

    def scan():
        rc, doc = run_cli(["scan", "--model", "lambda", "--lambda2", "0.05:0.65:0.05",
                           "--N", "1024"])
        ok = rc == cli.EXIT_OK and len(doc["rows"]) == 13
        for lam2, label, _, note in doc["rows"]:
            if lam2 < 0.5:
                ok = ok and label == "exact"
            elif lam2 == 0.5:
                resid = float(note.split("=")[-1])
                ok = ok and label == "degenerate" and resid <= 1e-10
            else:
                ok = ok and label in ("broken", "complex-coupling")
        return ok

    def jacobian(name):
        m = models[name]
        worst = max(
            max(reduction.jacobian_check(m, x, s).residuals.values())
            for x, s in jac_points[name]
        )
        return worst <= 1e-9

    def parity():
        signs = [
            spectral.pt_parity_check("s1", branch=1, qn=1, a=2, b=1, g_minus=2, g_plus=3),
            spectral.pt_parity_check("sphere_xi", branch=1, qn=1, lambda2=0.25, ell=(2, 3)),
            spectral.pt_parity_check("sphere_chi", branch=1, qn=1, lambda2=0.25,
                                     ell=(2, 3, 2)),
        ]
        try:
            spectral.pt_parity_check("sphere_xi", branch=1, qn=1, lambda2=0.6, ell=(2, 3))
            return False
        except NoDefiniteParity:
            return all(s in (1, -1) for s in signs)

    ops = [
        Op("spectrum_s1[2,3,N=512]", lambda: s1(2, 3, 512)),
        Op(f"spectrum_s1[{pair[0]},{pair[1]},N=256]", lambda: s1(*pair, 256)),
        Op(f"spectrum_s1[{pair[1]},{pair[0]},N=256]", lambda: s1(pair[1], pair[0], 256),
           known_defect=GSWAP_DEFECT),
        Op("spectrum_morse[N=256]", lambda: spectrum(
            "--model", "s1", "--a", "1", "--b", "1", "--k1", "1", "--k2", "1", "--N", "256")),
        Op("spectrum_poschl_teller[N=4096]", lambda: spectrum(
            "--model", "poschl_teller", "--gminus", "2", "--gplus", "3", "--N", "4096")),
        Op("spectrum_chi[N=4096]", lambda: spectrum(
            "--model", "chi", "--ell3", "2", "--composite", "5", "--N", "4096")),
        Op("scan[lambda2 x13]", scan),
        Op("metamorphosis[morse]", lambda: spectral.metamorphosis_check(
            "morse", a=1, k1=1, k2=1).ok),
        Op("metamorphosis[degenerate]", lambda: spectral.metamorphosis_check(
            "degenerate", sign=1, alpha=1.3, q=1).ok),
        Op("bessel_ode_residual", lambda: spectral.bessel_ode_residual(1.3, 1, 0.5) <= 1e-10),
        Op("pt_parity", parity),
    ]
    for name in CATALOG_PARAMS:
        ops.append(Op(f"jacobian[{name}]", lambda name=name: jacobian(name)))
    return ops


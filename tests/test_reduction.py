import random
from fractions import Fraction

import pytest

from ptsphere import reduction
from ptsphere.errors import FitUnderdetermined, RelationFailed, UnknownName
from ptsphere.exact import Exact, I, ONE, rat
from ptsphere.lie import build_generators
from ptsphere.masa import CATALOG_NAMES, catalog_masa
from ptsphere.phase import (
    PhasePoly,
    PhaseRational,
    dirac_bracket,
    func_vanishes_on_constraint,
    sample_vals,
)
from ptsphere.reduction import (
    build_hamiltonian,
    build_potential,
    casimir_projection_report,
    coordinate_map,
    degenerate_potential,
    generator_images,
    jacobian_check,
    momentum_map,
    racah_structure_report,
    verify_conservation,
    verify_coordinate_map,
    verify_masa_reduction,
    verify_sum_relation,
)

from catalog_models import PARAMS, SUM_RELATION_MODELS, build_masa, models

FAST_MODELS = models("su2ab", "cartan_od", "degenerate_plus")


def test_model_table_covers_the_catalog():
    assert tuple(reduction.MODELS) == CATALOG_NAMES
    assert tuple(PARAMS) == CATALOG_NAMES


@pytest.mark.parametrize("name,kw", FAST_MODELS)
def test_masa_generators_reduce_to_couplings(name, kw):
    rep = verify_masa_reduction(catalog_masa(name, **kw))
    assert rep.passed, rep.detail


@pytest.mark.parametrize("name,kw", FAST_MODELS)
def test_integrals_commute_with_hamiltonian(name, kw):
    rep = verify_conservation(catalog_masa(name, **kw))
    assert rep.passed, rep.detail


def test_conservation_reports_trials_used():
    masa = build_masa("su2ab")
    assert verify_conservation(masa).trials == 20
    assert verify_conservation(masa, trials=7).trials == 7


IMAGE_MODELS = models("su2ab", "cartan_od", "nilpotent", "degenerate_plus")


@pytest.mark.parametrize("name,kw", IMAGE_MODELS)
def test_generator_images_match_momentum_map(name, kw):
    masa = catalog_masa(name, **kw)
    basis = build_generators(masa.n)
    images = generator_images(masa)
    assert len(images) == basis.size
    for g, img in zip(basis.generators, images):
        assert img.agrees_with(momentum_map(g, masa))


@pytest.mark.parametrize("name,kw", IMAGE_MODELS)
def test_bracket_images_are_combinations_of_generator_images(name, kw):
    masa = catalog_masa(name, **kw)
    basis = build_generators(masa.n)
    gens = basis.generators
    images = generator_images(masa)
    for i in range(basis.size):
        for j in range(i + 1, basis.size):
            lin = PhaseRational.const(masa.n, 0)
            for k, c in basis.bracket_coeffs(i, j).items():
                lin = lin + images[k].scale(c)
            assert momentum_map(gens[i] @ gens[j] - gens[j] @ gens[i], masa).agrees_with(lin)


@pytest.mark.parametrize("name,kw", IMAGE_MODELS[:2])
def test_homomorphism_rejects_a_perturbed_generator_image(name, kw, monkeypatch):
    # adding s_1 to one generator image breaks {Xhat_i, Xhat_j} = hat([X_i, X_j])
    masa = catalog_masa(name, **kw)
    original = reduction.generator_images

    def perturbed(m):
        images = original(m)
        images[1] = images[1] + PhaseRational(PhasePoly.s(m.n, 0))
        return images

    monkeypatch.setattr(reduction, "generator_images", perturbed)
    with pytest.raises(RelationFailed):
        reduction.verify_homomorphism(masa, npoints=3)


# lambda's relation (0.4 s) runs in acceptance criterion 05
@pytest.mark.parametrize("name,kw", models("su2ab", "cartan_od", "nilpotent"))
def test_sum_relation(name, kw):
    rep = verify_sum_relation(catalog_masa(name, **kw))
    assert rep.passed, rep.detail


def test_casimir_projection_nilpotent():
    rep = casimir_projection_report(catalog_masa("nilpotent"))
    assert rep.passed
    assert "(3) H" in rep.detail and "k1k1" in rep.detail


@pytest.mark.parametrize("name", [n for n in PARAMS if n not in SUM_RELATION_MODELS])
def test_casimir_projection_inconsistent_on_degenerate_models(name):
    # the models the table gives no sum relation: the projected Casimir is
    # not a combination of H, 1 and k_i k_j there
    with pytest.raises(FitUnderdetermined, match="inconsistent"):
        casimir_projection_report(build_masa(name))
    with pytest.raises(UnknownName, match="no sum relation"):
        verify_sum_relation(build_masa(name))


def test_fit_exact_rejects_a_rank_deficient_basis():
    # the second column is twice the first on every sample: consistent, but
    # the two coefficients are not determined
    aug = [[rat(t), rat(2 * t), rat(3 * t)] for t in (1, 2, 5)]
    with pytest.raises(FitUnderdetermined, match=r"rank deficient on the samples \(1/2\)"):
        reduction._fit_exact(aug, ("a", "b"))


def test_racah_fits_cartan_od():
    rep = racah_structure_report(build_masa("cartan_od"), with_fits=True, npoints=12)
    assert set(rep.bracket_fits) == {"[T12,T1]", "[T12,T2]"}
    for fit in rep.bracket_fits.values():
        assert set(fit) == set(rep.basis_names)
        assert all(c.is_zero() for c in fit.values()), fit


def test_su2ab_potential_on_circle():
    # restriction to s = (cos phi, sin phi) must agree with the angular
    # closed form used by the periodic solver
    from math import atan2

    from ptsphere.spectral import _circle_potential_phi

    V = build_potential(build_masa("su2ab"))
    for t in (Fraction(1, 3), Fraction(2, 5), Fraction(-3, 4)):
        den = 1 + t * t
        s1, s2 = rat((1 - t * t) / den), rat(2 * t / den)
        vals = [s1, s2, rat(0), rat(0), rat(Fraction(1, 2)), rat(Fraction(1, 3))]
        v = V.eval(vals).to_complex()
        phi = 2 * atan2(float(t), 1.0)
        expect = _circle_potential_phi(2.0, 1.0, 0.5, 1 / 3, phi)
        assert abs(v - expect) < 1e-12 * max(1.0, abs(expect))


def test_degenerate_potential_closed_form():
    # V = alpha^2 / w^2 with w = s1 - s2 + i sqrt(2) s3 and
    # alpha^2 = 4 k1^2 + 4 k2^2 - 2 k3^2
    V = degenerate_potential(+1)
    irt2 = I * Exact.sqrt_rational(2)
    for seed in (3, 17):
        rng = random.Random(seed)
        vals = sample_vals(rng, 3)
        s1, s2, s3 = vals[0], vals[1], vals[2]
        k1, k2, k3 = vals[6], vals[7], vals[8]
        w = s1 - s2 + irt2 * s3
        alpha2 = rat(4) * (k1 * k1 + k2 * k2) - rat(2) * k3 * k3
        assert V.eval(vals) == alpha2 / (w * w)


def test_momentum_map_closes_brackets_with_constraints():
    masa = build_masa("cartan_od")
    f = momentum_map(masa.matrices[0], masa)
    g = momentum_map(masa.matrices[1], masa)
    # commuting generators must have weakly vanishing Dirac bracket
    db = dirac_bracket(f, g)
    assert func_vanishes_on_constraint(db.eval, 3, 8, 2)


def test_build_hamiltonian_structure():
    sys = build_hamiltonian(catalog_masa("nilpotent"))
    names = [nm for nm, _ in sys.integrals]
    assert len(names) >= 3
    assert sys.potential.p_degree() == 0
    assert sys.hamiltonian.p_degree() == 2
    # H - V must be the ambient kinetic term at every constraint point
    rng = random.Random(9)
    checked = 0
    while checked < 3:
        vals = sample_vals(rng, 3)
        try:
            h = sys.hamiltonian.eval(vals)
            v = sys.potential.eval(vals)
        except ZeroDivisionError:
            continue
        kin = sum((p * p for p in vals[3:6]), rat(0))
        assert h - v == kin
        checked += 1


def test_coordinate_map_matches_potential():
    rep = verify_coordinate_map(Fraction(1, 4))
    assert rep.max_residual < 1e-10
    assert rep.points == 20


def test_coordinate_map_returns_finite_values():
    # the separable coordinates are complex in general; they just have to be
    # finite away from the singular directions
    c2xi, cchi = coordinate_map(Fraction(1, 4), [0.6, 0.64, 0.48])
    assert abs(complex(c2xi)) < 1e6
    assert abs(complex(cchi)) < 1e6


def test_jacobian_residuals_small():
    jc = jacobian_check(build_masa("su2ab"), [0.21, -0.35], [0.6, 0.8])
    for key, val in jc.residuals.items():
        assert val < 1e-9, (key, val)

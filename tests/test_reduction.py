import contextlib
import dataclasses
import hashlib
import random
import re
from fractions import Fraction
from functools import partial
from itertools import islice
from math import prod

import pytest

from ptsphere import phase, reduction
from ptsphere.errors import DegenerateMasa, FitUnderdetermined, UnknownName
from ptsphere.exact import ZERO, Exact, I, ONE, rat
from ptsphere.lie import EnvElement, build_generators, casimir_element
from ptsphere.masa import CATALOG_NAMES, catalog_masa, masa_from_coeffs
from ptsphere.matrices import ExactMatrix, exact_inverse
from ptsphere.phase import (
    PhasePoly,
    PhaseRational,
    dirac_bracket_at,
    func_vanishes_on_constraint,
    pole_free_values,
    sample_vals,
)
from ptsphere.reduction import (
    angular_momentum,
    build_hamiltonian,
    build_potential,
    casimir_projection_report,
    generator_images,
    jacobian_check,
    momentum_map,
    racah_structure_report,
    verify_conservation,
    verify_masa_reduction,
    verify_relation,
    verify_sum_relation,
)

from catalog_models import (
    BUILT_POTENTIAL_MODELS,
    PARAMS,
    SUM_RELATION_MODELS,
    build_masa,
    models,
)
from dirac_reference import dirac_bracket

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


def test_zero_points_is_an_error_not_a_default():
    masa = build_masa("su2ab")
    with pytest.raises(ValueError):
        reduction.verify_homomorphism(masa, npoints=0)
    with pytest.raises(ValueError):
        verify_conservation(masa, trials=0)
    with pytest.raises(ValueError):
        casimir_projection_report(masa, npoints=0)


def test_conservation_without_integrals_samples_nothing(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a MASA with no integrals was sampled")

    monkeypatch.setattr(reduction, "first_nonzero_residual", no_sampling)
    custom = dataclasses.replace(build_masa("su2ab"), name=None)
    rep = verify_conservation(custom)
    assert (rep.passed, rep.trials) == (True, 0)
    assert rep.detail == "no integral checked: the MASA has no catalog integrals"


def test_an_unnamed_masa_is_labelled_masa():
    # every report detail gives an unnamed MASA one label, "masa"
    custom = dataclasses.replace(build_masa("su2ab"), name=None)
    assert reduction.appendix_report(custom).detail.endswith(" for masa")
    # e1, e2, e4 of u(3) do not commute: the first failing pair names it so
    rows = [[ONE if k == j else ZERO for k in range(6)] for j in (0, 1, 3)]
    failing = reduction.verify_homomorphism(masa_from_coeffs(3, rows), npoints=2)
    assert not failing.passed
    assert failing.detail == "bracket image mismatch for pair (1,2) in masa"


def test_a_missing_relation_labels_an_unnamed_masa():
    custom = dataclasses.replace(build_masa("su2ab"), name=None)
    with pytest.raises(UnknownName, match="^no sum relation for 'masa'$"):
        verify_relation(custom, "sum_relation")


@pytest.mark.parametrize("name", list(PARAMS))
def test_correction_coefficients_match_commutator_expansion(name):
    # [X_i, Z_mu] in the basis, as verify_homomorphism reads it (the
    # expansion of the commutator matrix), equals Z_mu's expansion times the
    # structure constants of [X_i, X_k]
    masa = build_masa(name)
    basis = build_generators(masa.n)
    corrections = reduction._corrections(masa)
    for mu, Z in enumerate(masa.matrices):
        z = basis.expand_in_basis(Z)
        for i in range(basis.size):
            ref = {}
            for k, zk in z.items():
                for l, c in basis.bracket_coeffs(i, k).items():
                    ref[l] = ref.get(l, ZERO) + zk * c
            assert corrections[i][mu] == {l: c for l, c in ref.items() if not c.is_zero()}


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


def _perturb_generator_image(monkeypatch):
    # adds s_1 to the image of generator 1, which both Casimirs contain
    original = reduction.generator_images

    def perturbed(m):
        images = original(m)
        images[1] = images[1] + PhaseRational(PhasePoly.s(m.n, 0))
        return images

    monkeypatch.setattr(reduction, "generator_images", perturbed)


@pytest.mark.parametrize("name,kw", IMAGE_MODELS[:2])
def test_homomorphism_rejects_a_perturbed_generator_image(name, kw, monkeypatch):
    # {Xhat_i, Xhat_j} = hat([X_i, X_j]) no longer holds
    _perturb_generator_image(monkeypatch)
    rep = reduction.verify_homomorphism(catalog_masa(name, **kw), npoints=3)
    assert not rep.passed and rep.trials == 3
    assert re.search(r"for pair \(\d+,\d+\) in ", rep.detail)


@pytest.mark.parametrize("name,kw", IMAGE_MODELS[:2])
def test_masa_reduction_names_a_perturbed_generator_image(name, kw, monkeypatch):
    # s_1 is added, with weights, to the images of generators the last MASA
    # generator Z_n uses; the weights cancel in the expansions of
    # Z_1..Z_{n-1}, so Zhat_n = k_n alone fails and the failure names it
    masa = catalog_masa(name, **kw)
    weights = {"su2ab": {1: 1}, "cartan_od": {0: 2, 1: -1}}[name]
    real = reduction._generator_nums

    def perturbed(m):
        det = reduction._det_and_y(m)[0]
        nums = list(real(m))
        for gi, w in weights.items():
            nums[gi] = nums[gi] + (PhasePoly.s(m.n, 0) * det).scale(w)
        return tuple(nums)

    monkeypatch.setattr(reduction, "_generator_nums", perturbed)
    n = masa.n
    rep = verify_masa_reduction(masa)
    assert not rep.passed and rep.trials == 0
    assert re.search(rf"^Zhat_{n} != k_{n} for {name}$", rep.detail)


@pytest.mark.parametrize("name,kw", IMAGE_MODELS[:2])
def test_casimir_fit_rejects_a_perturbed_generator_image(name, kw, monkeypatch):
    # the projected Casimir gains 2 s_1 Xhat_1 + s_1^2, outside {H, 1, k_i k_j}:
    # the fit fails, and its record gives the reason and the point count
    _perturb_generator_image(monkeypatch)
    rep = casimir_projection_report(catalog_masa(name, **kw))
    assert not rep.passed and rep.trials == {"su2ab": 16, "cartan_od": 22}[name]
    assert rep.detail == f"sampled system is inconsistent with the basis for {name}"


@pytest.mark.parametrize("name,kw", models())
def test_casimir_values_equal_the_projected_casimir(name, kw, monkeypatch):
    # the last entry of each fit row is the Casimir read off the generator
    # images; it must be the symbolic projection's value at that point
    masa = catalog_masa(name, **kw)
    rows = []
    real = reduction.pole_free_values

    def recording(func, n, seed):
        return real(lambda vals: rows.append((vals, func(vals))) or rows[-1][1], n, seed)

    monkeypatch.setattr(reduction, "pole_free_values", recording)
    # five rows fit u(2) and are too few for u(3); only the rows are read
    with contextlib.suppress(FitUnderdetermined):
        casimir_projection_report(masa, npoints=5)
    cas = reduction.project_env_element(casimir_element(2, build_generators(masa.n)), masa)
    assert len(rows) == 5
    for vals, row in rows:
        assert row[-1] == cas.eval(vals)


@pytest.mark.parametrize("name,kw", models("cartan_od", "lambda"))
def test_mixed_degree_projection_has_one_denominator(name, kw):
    # the quadratic Casimir plus two linear words: each linear word is
    # brought over det A^2 by one more factor det A, so the projection's
    # denominator is det A^2 and no higher power
    masa = catalog_masa(name, **kw)
    basis = build_generators(masa.n)
    e = casimir_element(2, basis) + EnvElement.linear({0: rat(3), basis.size - 1: I})
    proj = reduction.project_env_element(e, masa)
    assert proj.den.total_degree() == 2 * reduction._det_and_y(masa)[0].total_degree()
    images = generator_images(masa)
    points = pole_free_values(lambda vals: (vals, [f.eval(vals) for f in images]), masa.n, 11)
    for vals, gen in islice(points, 4):
        expected = sum((prod((gen[i] for i in w), start=c) for w, c in e.terms.items()), ZERO)
        assert proj.eval(vals) == expected


def test_casimir_fit_and_separable_form_build_only_the_potential(monkeypatch):
    # no symbolic Casimir and no integral: project_env_element is never
    # called, and a model whose integrals raise still passes both
    projected = []
    real = reduction.project_env_element
    monkeypatch.setattr(
        reduction, "project_env_element", lambda e, m: projected.append(m) or real(e, m)
    )

    def no_integrals(masa):
        raise AssertionError(f"integrals of {masa.name} built")

    for name, model in list(reduction.MODELS.items()):
        monkeypatch.setitem(
            reduction.MODELS, name, dataclasses.replace(model, integrals=no_integrals)
        )
    for name in ("su2ab", "cartan_od"):
        assert casimir_projection_report(build_masa(name)).passed
    assert verify_relation(build_masa("lambda"), "separable_potential").passed
    assert projected == []


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
    rep = casimir_projection_report(build_masa(name))
    assert not rep.passed and rep.trials == 22
    assert rep.detail == f"sampled system is inconsistent with the basis for {name}"
    with pytest.raises(UnknownName, match="no sum relation"):
        verify_sum_relation(build_masa(name))


def test_fit_exact_rejects_a_rank_deficient_basis():
    # the second column is twice the first on every sample: consistent, but
    # the two coefficients are not determined
    aug = [[rat(t), rat(2 * t), rat(3 * t)] for t in (1, 2, 5)]
    with pytest.raises(FitUnderdetermined, match=r"rank deficient on the samples \(1/2\)"):
        reduction._fit_exact(aug, ("a", "b"))


# the products of integrals each Racah bracket is fitted over
RACAH_BASIS = ("T1*T2", "T1*T3", "T2*T3", "T1^2", "T2^2", "T3^2", "T1", "T2", "T3", "1")


def test_racah_fits_cartan_od():
    rep = racah_structure_report(build_masa("cartan_od"), with_fits=True, npoints=12)
    assert set(rep.bracket_fits) == {"[T12,T1]", "[T12,T2]"}
    for fit in rep.bracket_fits.values():
        assert set(fit) == set(RACAH_BASIS)
        assert all(c.is_zero() for c in fit.values()), fit


def test_racah_fits_lambda():
    # lambda^2 = 1/4 at the fixed couplings k = (1/2, 1/3, 1/5); every
    # basis term not listed has coefficient 0
    rep = racah_structure_report(build_masa("lambda"), with_fits=True, npoints=12)
    want = {
        "[T12,T1]": {"T1*T2": 4, "T1*T3": -4, "T1": Fraction(8, 15), "T2": Fraction(64, 45),
                     "T3": Fraction(-64, 75)},
        "[T12,T2]": {"T1*T2": -4, "T2*T3": 4, "T1": Fraction(-6, 5), "T2": Fraction(-28, 15),
                     "T3": Fraction(-12, 25)},
    }
    assert rep.bracket_fits == {
        key: {name: rat(fit.get(name, 0)) for name in RACAH_BASIS}
        for key, fit in want.items()
    }


def test_racah_fit_rows_are_read_at_the_fixed_couplings(monkeypatch):
    # fit_sample fixes k in the drawn list, then reads the point: every row's
    # T1, T2, T3 are the integrals at the fixed couplings, not the drawn ones
    rows = []
    real = reduction.pole_free_values

    def recording(func, n, seed):
        return real(lambda vals: rows.append((vals, func(vals))) or rows[-1][1], n, seed)

    monkeypatch.setattr(reduction, "pole_free_values", recording)
    masa = build_masa("cartan_od")
    # four rows are too few for the ten-term fit; only the rows are read
    with pytest.raises(FitUnderdetermined):
        racah_structure_report(masa, with_fits=True, npoints=4)
    T = dict(reduction.integrals_catalog(masa))
    kfix = [Exact.from_rational(k) for k in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))]
    assert len(rows) == 4
    for vals, row in rows:
        assert vals[6:] == kfix
        assert row[6:9] == [T[name].eval(vals) for name in ("T1", "T2", "T3")]


def test_su2ab_potential_on_circle():
    # restriction to s = (cos phi, sin phi) must agree with the angular
    # closed form used by the periodic solver
    from math import atan2

    from circle_reference import circle_potential_phi

    V = build_potential(build_masa("su2ab"))
    for t in (Fraction(1, 3), Fraction(2, 5), Fraction(-3, 4)):
        den = 1 + t * t
        s1, s2 = rat((1 - t * t) / den), rat(2 * t / den)
        vals = [s1, s2, rat(0), rat(0), rat(Fraction(1, 2)), rat(Fraction(1, 3))]
        v = V.eval(vals).to_complex()
        phi = 2 * atan2(float(t), 1.0)
        expect = circle_potential_phi(2.0, 1.0, 0.5, 1 / 3, phi)
        assert abs(v - expect) < 1e-12 * max(1.0, abs(expect))


def test_degenerate_potential_closed_form():
    # on both branches: V = alpha^2 / w^2 with w = s1 - s2 +- i sqrt(2) s3
    # and alpha^2 = 4 k1^2 + 4 k2^2 - 2 k3^2, and T = L1 - L2 +- i sqrt(2) L3
    L1, L2, L3 = (angular_momentum(i) for i in (1, 2, 3))
    for name, sign in (("degenerate_plus", 1), ("degenerate_minus", -1)):
        irt2 = I * Exact.sqrt_rational(2) * rat(sign)
        sysr = build_hamiltonian(build_masa(name))
        assert [n for n, _ in sysr.integrals] == ["T"]
        assert sysr.integrals[0][1].agrees_with(L1 - L2 + L3.scale(irt2))
        for seed in (3, 17):
            rng = random.Random(seed)
            vals = sample_vals(rng, 3)
            s1, s2, s3 = vals[0], vals[1], vals[2]
            k1, k2, k3 = vals[6], vals[7], vals[8]
            w = s1 - s2 + irt2 * s3
            alpha2 = rat(4) * (k1 * k1 + k2 * k2) - rat(2) * k3 * k3
            assert sysr.potential.eval(vals) == alpha2 / (w * w)


def _reference_potential(masa, vals):
    """k^T (-A^T A)^{-1} k at a point, with A(s)_{mu nu} = (Z_nu s)_mu built
    and inverted as an ExactMatrix."""
    n = masa.n
    s = ExactMatrix([[v] for v in vals[:n]])
    k = ExactMatrix([[v] for v in vals[2 * n:]])
    cols = [Z @ s for Z in masa.matrices]
    A = ExactMatrix([[col[mu, 0] for col in cols] for mu in range(n)])
    return (k.transpose() @ exact_inverse(-(A.transpose() @ A)) @ k)[0, 0]


def test_potential_matches_exact_matrix_reference():
    def matches_reference(masa, V):
        # V.eval raises at a pole of V first; elsewhere A(s) is invertible
        agree = lambda vals: V.eval(vals) == _reference_potential(masa, vals)
        return all(islice(pole_free_values(agree, masa.n, 11), 5))

    for name in BUILT_POTENTIAL_MODELS:
        masa = build_masa(name)
        V = build_potential(masa)
        assert matches_reference(masa, V), name
        assert not matches_reference(masa, -V), name
    # the hand-written nilpotent potential its integrals are built from
    # agrees with build_potential on the sphere s.s = 1 only
    s1, s2, s3 = (PhasePoly.s(3, i) for i in range(3))
    k2 = PhasePoly.k(3, 1)
    off_sphere = PhaseRational(
        k2 * k2 * (PhasePoly.const(3, 1) - s1 * s1 - s2 * s2 - s3 * s3),
        (s2 + s3.scale(I)) ** 4,
    )
    diff = build_potential(catalog_masa("nilpotent")) - reduction._nilpotent_potential()
    assert diff.agrees_with(off_sphere)


@pytest.mark.parametrize("name", BUILT_POTENTIAL_MODELS)
def test_cofactors_give_det_times_identity(name):
    A = reduction.build_A(build_masa(name))
    n = len(A)
    det, adj = reduction._cofactors(A)
    assert not det.is_zero()
    zero = PhasePoly(n)
    for i in range(n):
        for j in range(n):
            want = det if i == j else zero
            assert sum((A[i][t] * adj[t][j] for t in range(n)), zero) == want, (i, j)
            assert sum((adj[i][t] * A[t][j] for t in range(n)), zero) == want, (i, j)


def test_identically_singular_masa_is_degenerate():
    # Z_1 = Z_2, so the columns of A are equal and det A vanishes identically
    masa = masa_from_coeffs(2, [[1, 0, 0], [1, 0, 0]])
    for build in (
        build_potential,
        generator_images,
        lambda m: momentum_map(m.matrices[0], m),
    ):
        with pytest.raises(DegenerateMasa, match="identically singular"):
            build(masa)


# sha256 of repr(potential) and repr(hamiltonian) from build_hamiltonian: the
# printed forms (and so the reduce JSON) must not change with how they are built
PRINTED_FORM_SHA256 = {
    "su2ab": (
        "52ff2cac6030741169c3672d3c5c04f26f86922ffb1fe77b9cff30f89e96a6c8",
        "2f162560a07c5be0b1794782e086a2de497777af3252026eba534621f16c2abc",
    ),
    "lambda": (
        "1a44a2c355e968c5c159e8eef79393e583b0395d9b3e9032a8612ff764f1f55f",
        "8efa713bf5c9eba8150f48d91229df567564eaec6b3bf8d6108eeddacf6228d7",
    ),
    "cartan_od": (
        "b6e9aa7d16203eab32216e3e7ee6579ab528c7dccf31631db5126d1db51ca1d3",
        "cf8dac327c755c58095f0cf62d644fb14dff4ec8a6f97ce6c53a0d3acf3eab49",
    ),
    "nilpotent": (
        "6f0260865cdeac0a803204875bc56cbfa7ca719214e4e97fcfef85fd5f743ce4",
        "aec3542abcdbc7def5d8ade3d4683c24f067b068d446c16dac9d4c470154b1e8",
    ),
    "degenerate_plus": (
        "f77d333b7d6e82add47b517b302ba3d7766a45bf1e29f931edee29d3a25994d9",
        "fe9bfb702577ecdad78ff3a03d7ef016b5a9a8952cf0adfbed042775dff3e76c",
    ),
    "degenerate_minus": (
        "f3c6d191409e8c3e0452a57dbcaa288c5ca6355da7af67c2e7533efb81de55da",
        "5f5ae71597054725178bde0113b8eada770c336ccd6bf2550be38a736ff80e9c",
    ),
}


@pytest.mark.parametrize("name", PARAMS)
def test_printed_forms_are_pinned(name):
    sysr = build_hamiltonian(build_masa(name))
    digests = tuple(
        hashlib.sha256(repr(f).encode()).hexdigest()
        for f in (sysr.potential, sysr.hamiltonian)
    )
    assert digests == PRINTED_FORM_SHA256[name]


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


def _s1(n=3):
    return PhaseRational(PhasePoly.s(n, 0))


def _count_grad_at(monkeypatch):
    calls = []
    real = PhaseRational.grad_at

    def counting(self, vals):
        calls.append(1)
        return real(self, vals)

    monkeypatch.setattr(PhaseRational, "grad_at", counting)
    return calls


def test_sum_relation_rejects_a_perturbed_right_hand_side(monkeypatch):
    model = reduction.MODELS["su2ab"]
    relation = model.relations["sum_relation"]

    def perturbed(m):
        lhs, rhs = relation(m)
        return lhs, rhs + _s1(m.n)

    monkeypatch.setitem(
        reduction.MODELS, "su2ab",
        dataclasses.replace(model, relations={"sum_relation": perturbed}),
    )
    rep = verify_sum_relation(build_masa("su2ab"))
    assert not rep.passed
    assert re.search("sum relation for su2ab fails", rep.detail)


def test_conservation_names_the_perturbed_integral(monkeypatch):
    # T1 and T3 stay conserved; the failure must name T2
    real = reduction.build_hamiltonian

    def perturbed(masa):
        sysr = real(masa)
        name, T = sysr.integrals[1]
        sysr.integrals[1] = (name, T + _s1())
        return sysr

    monkeypatch.setattr(reduction, "build_hamiltonian", perturbed)
    rep = verify_conservation(build_masa("cartan_od"))
    assert not rep.passed
    assert re.search(r"^\{H, T2\}_D nonzero for cartan_od$", rep.detail)


def test_exact_verdicts_build_no_derivative_polynomial(monkeypatch):
    # every gradient comes from one sweep over num and den at the point
    calls = []
    real = PhasePoly.deriv

    def spy(self, index):
        calls.append(index)
        return real(self, index)

    monkeypatch.setattr(PhasePoly, "deriv", spy)
    masa = build_masa("cartan_od")
    assert verify_conservation(masa).passed
    assert reduction.verify_homomorphism(masa, npoints=3).passed
    assert not racah_structure_report(masa, with_fits=False).antisymmetry_ok
    assert calls == []


def test_conservation_takes_each_gradient_once_per_point(monkeypatch):
    # 20 points, one gradient of H and one of each of T1, T2, T3: 80, where
    # a separate point stream per integral took 120
    calls = _count_grad_at(monkeypatch)
    rep = verify_conservation(build_masa("lambda"))
    assert (rep.passed, rep.trials, len(calls)) == (True, 20, 80)


def test_racah_antisymmetry_takes_both_relations_at_one_point_stream(monkeypatch):
    # 20 points, the gradients of T1, T2, T3 once each: 60, where one stream
    # per relation took 120
    calls = _count_grad_at(monkeypatch)
    rep = racah_structure_report(build_masa("lambda"), with_fits=False)
    assert (rep.antisymmetry_ok, rep.trials, len(calls)) == (True, 20, 60)


def _count_point_reads(monkeypatch):
    """(points drawn, coordinate reads) lists that grow as a verdict runs."""
    drawn, reads = [], []
    real_sample, real_read = phase.sample_vals, phase._coordinates
    monkeypatch.setattr(phase, "sample_vals",
                        lambda rng, n: drawn.append(1) or real_sample(rng, n))
    monkeypatch.setattr(phase, "_coordinates",
                        lambda vals, n: reads.append(1) or real_read(vals, n))
    return drawn, reads


def _negative_control(masa):
    sysr = build_hamiltonian(masa)
    H, bad = sysr.hamiltonian, sysr.integrals[0][1] + _s1()
    return not func_vanishes_on_constraint(lambda vals: dirac_bracket_at(H, bad, vals), 3, 5)


@pytest.mark.parametrize("verdict", [
    lambda: reduction.verify_homomorphism(build_masa("cartan_od"), npoints=3).passed,
    lambda: verify_conservation(build_masa("cartan_od")).passed,
    lambda: verify_sum_relation(build_masa("su2ab")).passed,
    lambda: verify_relation(build_masa("lambda"), "separable_potential").passed,
    lambda: casimir_projection_report(build_masa("su2ab")).passed,
    lambda: not racah_structure_report(build_masa("cartan_od"), with_fits=False).antisymmetry_ok,
    lambda: _negative_control(build_masa("cartan_od")),
], ids=["homomorphism", "conservation", "sum_relation", "separable", "casimir", "racah",
        "negative_control"])
def test_a_verdict_reads_each_point_once(verdict, monkeypatch):
    # every function a verdict evaluates at a point shares one read of its
    # coordinates: reads equal points drawn, poles included
    verdict()  # builds what the verdict needs; building reads no point
    drawn, reads = _count_point_reads(monkeypatch)
    assert verdict()
    assert drawn and len(reads) == len(drawn)


@pytest.mark.parametrize("name, kw", FAST_MODELS)
def test_homomorphism_sweeps_det_A_once_per_point(name, kw, monkeypatch):
    # the n^2 generator images share det A as one den object, so each point
    # sweeps it once, not once per image
    masa = catalog_masa(name, **kw)
    det = reduction._det_and_y(masa)[0]
    assert reduction._leading(det) == ONE
    assert all(f.den is det for f in generator_images(masa) if not f.is_zero())
    drawn, _ = _count_point_reads(monkeypatch)
    swept = []
    real = phase._Sweep.__init__
    monkeypatch.setattr(phase._Sweep, "__init__",
                        lambda self, f, point: swept.append(f) or real(self, f, point))
    assert reduction.verify_homomorphism(masa, npoints=4).passed
    assert sum(f is det for f in swept) == len(drawn) >= 4


def test_su2ab_sum_relation_sweeps_det_A_squared_once_per_point(monkeypatch):
    # the projected Casimir, V and H = p.p + V all keep det A's one kept
    # square as their den, so the two sides share it at every point
    masa = build_masa("su2ab")
    det2 = reduction._det_powers(masa)[2]
    lhs, rhs = reduction._sides(masa, reduction.MODELS["su2ab"], "sum_relation")
    assert lhs.den is rhs.den is det2 is build_potential(masa).den
    drawn, _ = _count_point_reads(monkeypatch)
    swept = []
    real = phase._Sweep.__init__
    monkeypatch.setattr(phase._Sweep, "__init__",
                        lambda self, f, point: swept.append(f) or real(self, f, point))
    assert verify_sum_relation(masa).passed
    assert sum(f is det2 for f in swept) == len(drawn) >= 20


def test_racah_antisymmetry_fails_for_a_perturbed_T3(monkeypatch):
    real = reduction.integrals_catalog

    def perturbed(masa):
        return [(name, T + _s1() if name == "T3" else T) for name, T in real(masa)]

    monkeypatch.setattr(reduction, "integrals_catalog", perturbed)
    assert racah_structure_report(build_masa("lambda"), with_fits=False).antisymmetry_ok is False


@pytest.mark.parametrize("lam2", [Fraction(0), Fraction(1, 4), Fraction(9, 20)])
def test_lambda_potential_is_separable(lam2):
    rep = verify_relation(catalog_masa("lambda", lambda2=lam2), "separable_potential")
    assert rep.passed and rep.trials == 25


@pytest.mark.parametrize("lam2", [Fraction(0), Fraction(1, 4)])
def test_separable_potential_rejects_swapped_couplings(lam2, monkeypatch):
    # k1 <-> k2: k2^2/w_-^2 + k1^2/w_+^2 + k3^2/w_3^2
    def swapped(lam2):
        w1, w2, w3 = reduction._lambda_ws(lam2)
        k1, k2, k3 = (reduction._kP(i) for i in range(3))
        return k2 * k2 / (w1 * w1) + k1 * k1 / (w2 * w2) + k3 * k3 / (w3 * w3)

    model = reduction.MODELS["lambda"]
    relations = {
        **model.relations,
        "separable_potential": lambda m: (build_potential(m), swapped(*m.params)),
    }
    monkeypatch.setitem(reduction.MODELS, "lambda", dataclasses.replace(model, relations=relations))
    rep = verify_relation(catalog_masa("lambda", lambda2=lam2), "separable_potential")
    assert not rep.passed
    assert re.search("separable potential for lambda fails", rep.detail)


def test_only_lambda_has_a_separable_form():
    with pytest.raises(UnknownName, match="no separable potential"):
        verify_relation(build_masa("cartan_od"), "separable_potential")


def test_jacobian_residuals_small():
    jc = jacobian_check(build_masa("su2ab"), [0.21, -0.35], [0.6, 0.8])
    for key, val in jc.residuals.items():
        assert val < 1e-9, (key, val)


# -- one build per MASA ---------------------------------------------------------


@pytest.fixture
def cold_builds():
    """Forget every kept reduction build, so a test sees each one built."""
    for f in vars(reduction).values():
        if hasattr(f, "cache_clear") and f.__module__ == reduction.__name__:
            f.cache_clear()


def _count_integral_builds(monkeypatch):
    built = {}
    for name, model in list(reduction.MODELS.items()):
        if model.integrals:
            def counting(masa, real=model.integrals):
                built[masa.name] = built.get(masa.name, 0) + 1
                return real(masa)

            monkeypatch.setitem(
                reduction.MODELS, name, dataclasses.replace(model, integrals=counting)
            )
    return built


def _builds():
    return (reduction._det_and_y.cache_info().misses, reduction._potential_of.cache_info().misses)


@pytest.mark.parametrize("argv,model", [
    (["reduce", "--model", "cartan_od", "--seed", "5"], "cartan_od"),
    (["verify", "--model", "lambda", "--seed", "7"], "lambda"),
])
def test_a_command_builds_each_piece_once(argv, model, cold_builds, monkeypatch, capsys):
    # det A and y, (V, H) and the integrals: 9/3/2 and 3/2/2 builds before
    # they were kept
    from ptsphere.cli import main

    built = _count_integral_builds(monkeypatch)
    assert main(argv) == 0
    assert (_builds(), built) == ((1, 1), {model: 1})


def test_a_second_conservation_verdict_builds_nothing(cold_builds, monkeypatch):
    built = _count_integral_builds(monkeypatch)
    masa = build_masa("cartan_od")
    assert verify_conservation(masa, trials=1).passed
    assert (_builds(), built) == ((1, 1), {"cartan_od": 1})
    assert verify_conservation(build_masa("cartan_od"), trials=1).passed
    assert (_builds(), built) == ((1, 1), {"cartan_od": 1})


def test_equal_masas_share_a_build_and_other_parameters_miss(cold_builds):
    first, again = build_masa("cartan_od"), build_masa("cartan_od")
    assert first is not again and first == again and hash(first) == hash(again)
    assert dataclasses.replace(first, name=None) != first
    kept = reduction._det_and_y(first)
    assert reduction._det_and_y(again) is kept
    other = catalog_masa("cartan_od", a=Fraction(3), b=Fraction(2, 7))
    assert other != first and reduction._det_and_y(other) is not kept
    assert reduction._det_and_y.cache_info()[:2] == (1, 2)  # hits, misses


def test_a_changed_models_entry_is_rebuilt(monkeypatch):
    # the kept integrals are keyed on the MODELS entry too, so a T2 with s_1
    # added after a first verdict is the one the second verdict checks
    masa = build_masa("cartan_od")
    assert verify_conservation(masa).passed
    model = reduction.MODELS["cartan_od"]

    def perturbed(m):
        return [(name, T + _s1() if name == "T2" else T) for name, T in model.integrals(m)]

    monkeypatch.setitem(
        reduction.MODELS, "cartan_od", dataclasses.replace(model, integrals=perturbed)
    )
    rep = verify_conservation(masa)
    assert not rep.passed
    assert re.search(r"^\{H, T2\}_D nonzero for cartan_od$", rep.detail)


def test_callers_cannot_change_the_kept_builds():
    masa = build_masa("cartan_od")
    images = generator_images(masa)
    kept = list(images)
    images[1] = images[1] + _s1()
    images.pop()
    assert generator_images(masa) == kept is not images
    assert all(a is b for a, b in zip(generator_images(masa), kept))

    lam = build_masa("lambda")
    integrals = reduction.integrals_catalog(lam)
    kept = list(integrals)
    integrals[2] = ("T3", integrals[2][1] + _s1())
    assert reduction.integrals_catalog(lam) == kept

    sysr = build_hamiltonian(masa)
    name, T = sysr.integrals[1]
    sysr.integrals[1] = (name, T + _s1())
    again = build_hamiltonian(masa)
    assert again is not sysr and again.integrals[1] == (name, T)
    assert verify_conservation(masa).passed


def test_su2ab_integral_is_its_hamiltonian():
    # verify_conservation takes one gradient for T is H
    masa = build_masa("su2ab")
    sysr = build_hamiltonian(masa)
    assert [T for _, T in sysr.integrals] == [sysr.hamiltonian]
    assert sysr.integrals[0][1] is sysr.hamiltonian
    assert reduction.integrals_catalog(masa)[0][1] is build_hamiltonian(masa).hamiltonian


def _counting(monkeypatch, name, key):
    """Replace MODELS[name].relations[key] by a counting wrapper; return the
    count."""
    model, built = reduction.MODELS[name], []
    real = model.relations[key]

    def counting(*args):
        built.append(1)
        return real(*args)

    relations = {**model.relations, key: counting}
    monkeypatch.setitem(reduction.MODELS, name, dataclasses.replace(model, relations=relations))
    return built


@pytest.mark.parametrize("name,key,verify", [
    ("su2ab", "sum_relation", verify_sum_relation),
    ("cartan_od", "sum_relation", verify_sum_relation),
    pytest.param("lambda", "separable_potential",
                 partial(verify_relation, key="separable_potential"),
                 id="lambda-separable-verify_separable_potential"),
])
def test_a_second_relation_verdict_builds_nothing(name, key, verify, monkeypatch):
    # su2ab's sum relation projects the Casimir; a kept pair of sides does not
    masa = build_masa(name)
    built = _counting(monkeypatch, name, key)
    projections = []
    real = reduction.project_env_element
    monkeypatch.setattr(reduction, "project_env_element",
                        lambda e, m: projections.append(1) or real(e, m))
    first = verify(masa)
    assert (len(built), len(projections)) == (1, 1 if name == "su2ab" else 0)
    assert verify(build_masa(name)) == first
    assert (len(built), len(projections)) == (1, 1 if name == "su2ab" else 0)
    # a replaced entry is a new key: its sides are built anew
    rebuilt = _counting(monkeypatch, name, key)
    assert verify(masa) == first and (len(built), len(rebuilt)) == (2, 1)

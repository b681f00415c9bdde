import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from ptsphere.errors import DimensionMismatch, SamplingExhausted
from ptsphere.exact import ONE, ZERO, Exact, rat
from ptsphere.phase import (
    MAX_RESAMPLES,
    PhasePoly,
    PhaseRational,
    SignedPermutation,
    dirac_bracket_at,
    first_nonzero_residual,
    func_vanishes_on_constraint,
    poisson_bracket,
    poisson_bracket_at,
    pole_free_values,
    sample_vals,
)
from ptsphere.phase import _Point
from ptsphere.reduction import _det_and_y, build_hamiltonian

from dirac_reference import dirac_bracket
import jet_reference
from catalog_models import PARAMS, build_masa, models

N = 3


def _s(mu):
    return PhaseRational(PhasePoly.s(N, mu))


def _p(mu):
    return PhaseRational(PhasePoly.p(N, mu))


def _k(mu):
    return PhaseRational(PhasePoly.k(N, mu))


def test_canonical_pairs():
    assert poisson_bracket(_s(0), _p(0)).agrees_with(PhaseRational.const(N, 1))
    assert poisson_bracket(_s(0), _p(1)).is_zero()
    assert poisson_bracket(_s(0), _s(1)).is_zero()
    assert poisson_bracket(_k(0), _k(1)).is_zero()


def test_poly_eval_and_deriv():
    f = PhasePoly.s(N, 0) * PhasePoly.p(N, 0) + PhasePoly.const(N, Fraction(1, 2))
    d = f.deriv(0)
    assert d == PhasePoly.p(N, 0)
    vals = [rat(i + 1) for i in range(3 * N)]
    assert f.eval(vals) == rat(1) * rat(4) + rat(Fraction(1, 2))


def _reference_eval(f, vals):
    # sum_e c_e * prod_i v_i^e_i, term by term in Exact arithmetic
    acc = ZERO
    for e, c in f.terms.items():
        t = c
        for v, x in zip(vals, e):
            t = t * v ** x
        acc = acc + t
    return acc


def _random_poly(rng, nterms):
    rt2 = Exact.sqrt_rational(2)
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(3 * N))
        c = rat(q(), q())
        if rng.random() < 0.5:
            c = c + rat(q(), q()) * rt2
        terms[e] = c
    return PhasePoly(N, terms)


def test_poly_eval_matches_exact_reference():
    rng = random.Random(20230411)
    polys = [PhasePoly(N), PhasePoly.const(N, rat(Fraction(-3, 7), 2))]
    polys += [_random_poly(rng, k) for k in (1, 5, 30, 60)]
    # zero, negative and unit values with distinct denominators
    points = [
        [Fraction(x) for x in ("0", "-3/7", "5/2", "1", "-1/9", "11/4", "-2", "3/5", "1/11")],
        [Fraction(rng.randint(-20, 20), rng.randint(1, 30)) for _ in range(3 * N)],
        [Fraction(0)] * (3 * N),
    ]
    for pt in points:
        vals = [rat(x) for x in pt]
        for f in polys:
            assert f.eval(vals) == _reference_eval(f, vals)
    assert polys[0].eval(vals) == ZERO
    assert polys[1].eval(vals) == rat(Fraction(-3, 7), 2)


def _reference_mul(f, g):
    # term by term in Exact arithmetic, zero coefficients dropped at the end
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _reference_add(f, g):
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = out.get(e, ZERO) + c
    return {e: c for e, c in out.items() if c}


def _reference_pow(f, m):
    # the square-and-multiply order of PhasePoly.__pow__
    out, base = {(0,) * (3 * N): rat(1)}, f.terms
    while m:
        if m & 1:
            out = _reference_mul(PhasePoly(N, out), PhasePoly(N, base))
        base = _reference_mul(PhasePoly(N, base), PhasePoly(N, base))
        m >>= 1
    return out


def _same_terms(result, reference):
    # equal values in the same insertion order
    assert list(result.terms) == list(reference)
    assert all(result.terms[e] == c for e, c in reference.items())


def test_poly_arithmetic_matches_exact_reference():
    rng = random.Random(31)
    r2, r3, r6 = (Exact.sqrt_rational(d) for d in (2, 3, 6))
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    def poly(nterms, radicals):
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.choice((0, 0, 1, 2)) for _ in range(3 * N))
            terms[e] = sum((rat(q(), q()) * r for r in radicals), rat(q(), q()))
        return PhasePoly(N, terms)

    x, y = PhasePoly.s(N, 0), PhasePoly.p(N, 1)
    polys = [
        poly(6, [r2]), poly(5, [r3]), poly(4, [r6]), poly(7, [r2, r3, r6]),
        PhasePoly.const(N, r2 + r3), PhasePoly.const(N, r2 - r3),
        x + y.scale(r2), x - y.scale(r2), x.scale(r6) + y, PhasePoly(N),
    ]
    for f in polys:
        _same_terms(-f, {e: -c for e, c in f.terms.items()})
        for c in (r6, rat(Fraction(-2, 3), 5), ZERO):
            _same_terms(f.scale(c), {e: c * v for e, v in f.terms.items() if c})
        for i in (0, N + 1):
            ref = {}
            for e, c in f.terms.items():
                if e[i]:
                    ref[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * rat(e[i])
            _same_terms(f.deriv(i), ref)
        _same_terms(f ** 3, _reference_pow(f, 3))
        for g in polys:
            _same_terms(f * g, _reference_mul(f, g))
            _same_terms(f + g, _reference_add(f, g))
            _same_terms(f - g, _reference_add(f, PhasePoly(N, {e: -c for e, c in g.terms.items()})))
    # products whose coefficients or monomials cancel
    assert (polys[4] * polys[5]).terms == {(0,) * (3 * N): rat(-1)}
    assert polys[6] * polys[7] == x * x - (y * y).scale(2)
    assert (polys[0] * polys[-1]).is_zero() and (polys[0] - polys[0]).is_zero()


@pytest.mark.parametrize("m", range(6))
def test_power_is_the_repeated_product_with_no_square_past_the_last_bit(m, monkeypatch):
    f = _det_and_y(build_masa("cartan_od"))[0]
    repeated = PhasePoly.const(N, 1)
    for _ in range(m):
        repeated = repeated * f
    real, calls = PhasePoly.__mul__, []
    monkeypatch.setattr(PhasePoly, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    power = f ** m
    monkeypatch.undo()
    assert power == repeated
    # one product per set bit of m and one square between consecutive bits
    assert len(calls) == (m.bit_count() + m.bit_length() - 1 if m else 0)


def test_poly_product_obeys_the_radical_rule():
    # sqrt(2)sqrt(3) = sqrt(6), sqrt(6)sqrt(6) = 6, sqrt(2)sqrt(6) = 2 sqrt(3),
    # checked against float values, which do not use the rule
    rng = random.Random(5)
    r2, r3, r6 = (Exact.sqrt_rational(d) for d in (2, 3, 6))
    f = PhasePoly.s(N, 0).scale(r2 + rat(Fraction(1, 3), 2)) + PhasePoly.k(N, 2).scale(r6)
    g = PhasePoly.p(N, 0).scale(r3 - r6) + PhasePoly.s(N, 0).scale(r6 + rat(Fraction(-5, 4)))
    for a, b in ((f, g), (g, g), (f, f)):
        prod = a * b
        for _ in range(3):
            v = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3 * N)]
            assert prod.eval_complex(v) == pytest.approx(a.eval_complex(v) * b.eval_complex(v), rel=1e-12)
    c = PhasePoly.const
    assert c(N, r2) * c(N, r3) == c(N, Exact.sqrt_rational(6))
    assert c(N, r6) * c(N, r6) == c(N, 6)
    assert c(N, r2) * c(N, r6) == c(N, Exact.sqrt_rational(12))


def test_poly_constructor_checks_exponent_length_before_zero_test():
    for c in (0, 1):
        with pytest.raises(DimensionMismatch, match="wrong length"):
            PhasePoly(3, {(1, 0): c})


def test_poly_constructor_rejects_negative_exponents():
    # eval and eval_complex would disagree on k1^-1
    with pytest.raises(DimensionMismatch, match="negative"):
        PhasePoly(1, {(0, 0, -1): 1})


def test_rational_normalisation_does_not_depend_on_term_order():
    num = PhasePoly.s(N, 0) * PhasePoly.k(N, 1)
    s1, s2, k3 = (PhasePoly.var(N, i) for i in (0, 1, 8))
    den_terms = [(s1 * s1).scale(5), (s1 * s2).scale(rat(0, 2)), k3.scale(-7), PhasePoly.const(N, 3)]
    forward = sum(den_terms, PhasePoly(N))
    backward = sum(reversed(den_terms), PhasePoly(N))
    assert list(forward.terms) != list(backward.terms)
    three_i = rat(0, 3)
    forms = [
        PhaseRational(num, forward),
        PhaseRational(num, backward),
        PhaseRational(num.scale(three_i), forward.scale(three_i)),
    ]
    assert len({repr(f) for f in forms}) == 1
    assert repr(forms[0].den).startswith("(1)*s1^2 + ")


def test_poly_eval_rejects_radical_coordinates():
    # f reads s1 and p2 only; a bad coordinate raises in any slot, k1 and k3
    # included, and for a constant or zero too, in eval and in grad_at.  int
    # and Fraction coordinates are accepted.
    vals = [Fraction(2, 3), 1, 0, 5, Fraction(-3, 4), 1, 2, 3, 4]
    f = PhasePoly.s(N, 0) * PhasePoly.p(N, 1)
    assert f.eval(vals) == rat(Fraction(-1, 2))
    grads = PhaseRational(f).grad_at(vals)
    assert PhaseRational(f).eval(vals) == rat(Fraction(-1, 2))
    assert grads == [rat(Fraction(-3, 4))] + [ZERO] * 3 + [rat(Fraction(2, 3))] + [ZERO] * 4
    for g in (f, PhasePoly.const(N, 3), PhasePoly(N)):
        for slot in (0, N + 1, 2 * N, 3 * N - 1):
            for bad in (Exact.sqrt_rational(2), rat(1, 1)):
                bad_vals = vals[:slot] + [bad] + vals[slot + 1:]
                with pytest.raises(TypeError, match="real rational"):
                    g.eval(bad_vals)
                with pytest.raises(TypeError, match="real rational"):
                    PhaseRational(g).grad_at(bad_vals)


def test_grad_at_raises_at_a_pole():
    # den = s1 - 2/3 vanishes at vals; num is not read there
    vals = [Fraction(2, 3), 1, 0, 5, Fraction(-3, 4), 1, 2, 3, 4]
    den = PhasePoly.s(N, 0) - PhasePoly.const(N, Fraction(2, 3))
    f = PhaseRational(PhasePoly.k(N, 0), den)
    with pytest.raises(ZeroDivisionError, match="vanishes"):
        f.grad_at(vals)
    with pytest.raises(ZeroDivisionError, match="vanishes"):
        f.eval(vals)


@pytest.mark.parametrize("name,kw", models())
def test_grad_at_matches_the_symbolic_derivatives(name, kw):
    # H, every catalog integral and the n^2 generator images: all 3n
    # partials and, at the same _Point, the value against f.deriv(i).eval
    # and f.eval at 5 pole-free points
    from ptsphere.reduction import build_hamiltonian, generator_images

    masa = build_masa(name)
    n = masa.n
    sysr = build_hamiltonian(masa)
    funcs = [sysr.hamiltonian] + [T for _, T in sysr.integrals] + generator_images(masa)

    def at(vals):
        point = _Point(vals, n)
        return vals, [(f.grad_at(point), f.eval(point)) for f in funcs]

    points = list(islice(pole_free_values(at, n, 5), 5))
    derivs_of = [[f.deriv(i) for i in range(3 * n)] for f in funcs]
    for k, (f, derivs) in enumerate(zip(funcs, derivs_of)):
        for vals, at in points:
            grads, value = at[k]
            assert value == f.eval(vals)
            assert grads[: 2 * n] == [d.eval(vals) for d in derivs[: 2 * n]]
            assert grads[2 * n :] == [d.eval(vals) for d in derivs[2 * n :]]
    # hand-built points with each of the 3n coordinates 0 in turn, where the
    # Euler weights would divide by that coordinate: the sampled points above
    # with one coordinate set to 0.  Each function is checked at the first
    # such point that is not one of its poles.  The dens depend on s alone,
    # so every p and k coordinate is checked; an s coordinate may be a pole
    # of every function (s1 = 0 divides det A on cartan_od).
    covered = set()
    for i in range(3 * n):
        for k, f in enumerate(funcs):
            for vals, _ in points:
                vals = list(vals)
                vals[i] = ZERO
                try:
                    grads = f.grad_at(vals)
                except ZeroDivisionError:
                    continue
                assert grads == [d.eval(vals) for d in derivs_of[k]], (i, k)
                covered.add(i)
                break
    assert covered >= set(range(n, 3 * n)) and covered & set(range(n))


def _catalog_functions(name):
    from ptsphere.reduction import build_hamiltonian, generator_images

    masa = build_masa(name)
    sysr = build_hamiltonian(masa)
    return masa.n, [sysr.hamiltonian, sysr.potential] + [
        T for _, T in sysr.integrals] + generator_images(masa)


@pytest.mark.parametrize("name", list(PARAMS))
def test_point_sweep_matches_the_prefix_suffix_jet(name):
    # value and all 3n partials of num and den, and the rational gradient,
    # equal the prefix/suffix products of jet_reference int for int: at
    # sampled points and at the same points with one or two coordinates 0
    n, funcs = _catalog_functions(name)
    rng = random.Random(11)
    sampled = [sample_vals(rng, n) for _ in range(4)]
    points = list(sampled)
    for i in range(3 * n):
        vals = list(sampled[i % 4])
        vals[i] = ZERO
        points.append(vals)
        vals = list(vals)
        vals[(i + 1) % (3 * n)] = ZERO
        points.append(vals)
    checked = 0
    for vals in points:
        point = _Point(vals, n)
        for f in funcs:
            for poly in (f.num, f.den):
                value, grad, q = jet_reference.jet(poly, point.qs)
                sweep = point.sweep(poly)
                assert sweep.LD == q and sweep.value() == Exact(value, q)
                assert {i: Exact(g, q) for i, g in sweep.grad(point.qs).items()} == {
                    i: Exact(g, q) for i, g in grad.items()}
            try:
                want = jet_reference.grad_at(f, vals)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    f.grad_at(vals)
                continue
            assert f.grad_at(vals) == want
            assert f.grad_at(point) == want
            assert f.eval(point) == (jet_reference.value(f.num, vals)
                                     / jet_reference.value(f.den, vals))
            checked += 1
    assert checked >= len(points) * len(funcs) // 2


def test_a_point_sweeps_each_polynomial_once():
    # two functions over one den: the den is swept once, each num once, and
    # a second evaluation sweeps nothing
    x, y = PhasePoly.s(N, 0), PhasePoly.p(N, 1)
    den = x * x + PhasePoly.const(N, 1)
    f, g = PhaseRational(x * y, den), PhaseRational(y, den)
    point = _Point(sample_vals(random.Random(3), N), N)
    first = (f.grad_at(point), g.grad_at(point), f.eval(point))
    swept = dict(point._sweeps)
    assert {id(p) for p in (den, f.num, g.num)} == swept.keys()
    assert (f.grad_at(point), g.grad_at(point), f.eval(point)) == first
    assert point._sweeps == swept


def test_a_point_of_another_dimension_is_refused():
    point = _Point(sample_vals(random.Random(3), 2), 2)
    with pytest.raises(DimensionMismatch):
        _s(0).eval(point)


def test_poly_eval_keeps_non_vanishing_identity_nonzero():
    # {H, T1 + s_1}_D is not zero on the constraint surface for cartan_od
    from ptsphere.masa import catalog_masa
    from ptsphere.reduction import build_hamiltonian

    rs = build_hamiltonian(catalog_masa("cartan_od", a=Fraction(1), b=Fraction(1, 2)))
    bad = rs.integrals[0][1] + _s(0)
    assert not func_vanishes_on_constraint(
        lambda vals: dirac_bracket_at(rs.hamiltonian, bad, vals), N, trials=3, seed=7
    )


@pytest.mark.parametrize("trials", [0, -1])
def test_a_sampled_verdict_needs_a_point(trials):
    # zero points would pass any function, the nonzero ones too
    with pytest.raises(ValueError, match="at least one point"):
        func_vanishes_on_constraint(lambda vals: ONE, N, trials)
    with pytest.raises(ValueError, match="at least one point"):
        first_nonzero_residual(lambda vals: [("one", ONE)], N, trials, 7)


def test_sample_vals_satisfy_constraints(seed=11):
    rng = random.Random(seed)
    for _ in range(5):
        vals = sample_vals(rng, N)
        s, p = vals[:N], vals[N : 2 * N]
        ss = sum((a * a for a in s), ZERO)
        sp = sum((a * b for a, b in zip(s, p)), ZERO)
        assert ss == rat(1)
        assert sp == ZERO


def test_sample_vals_needs_two_dimensions():
    with pytest.raises(DimensionMismatch):
        sample_vals(random.Random(0), 1)


def test_sample_vals_golden_stream():
    # the points every seeded verdict reads: a change to the draws, their
    # order or the chart changes them
    q = lambda *xs: [rat(Fraction(x)) for x in xs]
    assert sample_vals(random.Random(20230411), 2) == q(
        "-4/5", "3/5", "-12/5", "-16/5", "5", "1/3"
    )
    assert sample_vals(random.Random(20230411), 3) == q(
        "-36/61", "24/61", "43/61", "-9714/3721", "10197/3721", "-13824/3721",
        "3/4", "-1/3", "-4/3",
    )


def test_pole_free_values_gives_up_after_max_resamples():
    draws = []

    def always_pole(vals):
        draws.append(vals)
        raise ZeroDivisionError

    with pytest.raises(SamplingExhausted):
        next(pole_free_values(always_pole, N, 1))
    assert len(draws) == MAX_RESAMPLES


def test_pole_free_values_skips_a_pole():
    draws = []

    def first_is_pole(vals):
        draws.append(vals)
        if len(draws) == 1:
            raise ZeroDivisionError
        return vals

    rng = random.Random(4)
    sample_vals(rng, N)
    second = sample_vals(rng, N)
    assert next(pole_free_values(first_is_pole, N, 4)) == second
    assert len(draws) == 2


def test_pole_free_values_counts_poles_in_a_row():
    # every other point is a pole: more poles than MAX_RESAMPLES in total,
    # never two in a row
    draws = []

    def alternate(vals):
        draws.append(vals)
        if len(draws) % 2:
            raise ZeroDivisionError
        return ZERO

    vals = list(islice(pole_free_values(alternate, 2, random.Random(6)), MAX_RESAMPLES))
    assert len(vals) == MAX_RESAMPLES
    assert len(draws) == 2 * MAX_RESAMPLES


def test_constraints_are_dirac_casimirs():
    # both constraint functions must commute (in the Dirac bracket) with
    # arbitrary phase space functions on the constraint surface
    c1 = sum((_s(m) * _s(m) for m in range(N)), PhaseRational.const(N, 0)) \
        - PhaseRational.const(N, 1)
    c2 = sum((_s(m) * _p(m) for m in range(N)), PhaseRational.const(N, 0))
    test_funcs = [_p(0) * _p(0), _s(1) * _p(2), _k(0)]
    for c in (c1, c2):
        for f in test_funcs:
            db = dirac_bracket(c, f)
            assert func_vanishes_on_constraint(db.eval, N, 8, 3)


def test_dirac_vs_poisson_at_points():
    rng = random.Random(5)
    f = _s(0) * _p(1)
    g = _p(0) * _p(0) + _k(2) * _s(2)
    for _ in range(4):
        vals = sample_vals(rng, N)
        full = dirac_bracket(f, g).eval(vals)
        fast = dirac_bracket_at(f, g, vals)
        assert full == fast


def test_apply_pt_signed_permutation():
    # swap s1,s2 with a sign flip on s3; momenta follow, couplings fixed
    parity = SignedPermutation.from_signed_indices([2, 1, -3])
    f = _s(0) - _s(1)
    assert f.apply_pt(parity).agrees_with(-f)
    g = _s(2) * _p(2)
    assert g.apply_pt(parity).agrees_with(g)
    # an odd power of s3 or p3 flips the sign; coefficients are conjugated
    h = _s(2) * _p(0) * PhaseRational.const(N, rat(1, 2))
    assert h.apply_pt(parity).agrees_with(-(_s(2) * _p(1) * PhaseRational.const(N, rat(1, -2))))


@pytest.mark.parametrize("name,kw", models())
def test_apply_pt_maps_terms_one_to_one(name, kw):
    # a signed permutation of the s and p slots permutes the exponent
    # tuples, so no two terms land on one, and the catalog parities are
    # involutions
    m = build_masa(name)
    V = build_hamiltonian(m).potential
    img = V.apply_pt(m.parity)
    assert (len(img.num.terms), len(img.den.terms)) == (len(V.num.terms), len(V.den.terms))
    again = img.apply_pt(m.parity)
    assert (again.num.terms, again.den.terms) == (V.num.terms, V.den.terms)


def test_signed_permutation_refuses_a_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        SignedPermutation((0, 0), (1, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        SignedPermutation.from_signed_indices([1, -1])
    # one sign per image, each +1 or -1: apply_pt would index past a short
    # sign tuple, and it reads any positive sign as +1
    with pytest.raises(ValueError, match="one sign of \\+1 or -1 per image"):
        SignedPermutation((0, 1), (1,))
    with pytest.raises(ValueError, match="one sign of \\+1 or -1 per image"):
        SignedPermutation((0, 1), (1, 5))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry_and_leibniz(seed):
    rng = random.Random(seed)
    vals = sample_vals(rng, N)
    f = _s(0) * _p(1) + _k(0)
    g = _p(2) * _p(2)
    h = _s(1) * _k(1)
    assert poisson_bracket_at(f, g, vals) == -poisson_bracket_at(g, f, vals)
    lhs = poisson_bracket_at(f, g * h, vals)
    rhs = (
        poisson_bracket_at(f, g, vals) * h.eval(vals)
        + g.eval(vals) * poisson_bracket_at(f, h, vals)
    )
    assert lhs == rhs
    assert dirac_bracket_at(f, g, vals) == -dirac_bracket_at(g, f, vals)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_sampled_points_on_surface(seed, n):
    vals = sample_vals(random.Random(seed), n)
    assert len(vals) == 3 * n
    s, p = vals[:n], vals[n : 2 * n]
    assert sum((x * x for x in s), ZERO) == rat(1)
    assert sum((x * y for x, y in zip(s, p)), ZERO) == ZERO
    assert all(x.is_rational() and x == x.conjugate() for x in vals)


@pytest.mark.parametrize("f", [PhasePoly.const(N, 3), PhasePoly.s(N, 0) + PhasePoly.k(N, 1)])
def test_a_negative_power_of_a_polynomial_raises_at_once(f):
    with pytest.raises(ValueError, match="no negative power, got -1"):
        f ** -1
    with pytest.raises(ValueError, match="no negative power, got -3"):
        f ** -3
    # a rational function still inverts first
    r = PhaseRational(f) ** -2
    assert r.agrees_with(PhaseRational(PhasePoly.const(N, 1), f * f))


def test_omitted_and_zero_numerator_denominators_share_one_constant():
    zero_a = PhaseRational(PhasePoly(N), PhasePoly.s(N, 0))
    zero_b = PhaseRational(PhasePoly.s(N, 1) - PhasePoly.s(N, 1), PhasePoly.p(N, 2))
    assert zero_a.den is zero_b.den == PhasePoly.const(N, 1)
    assert PhaseRational(PhasePoly.k(N, 0)).den is zero_a.den
    two = PhaseRational(PhasePoly(2)).den
    assert two is not zero_a.den and two == PhasePoly.const(2, 1)

"""The sums of products (exact.sum_of_products, exact.keyed_sum_of_products
and phase._poly_products) against the per-pair loops they replaced, kept in
exact_products_reference.py: the same Exact entries and equal terms dicts."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ptsphere import phase, reduction
from ptsphere.exact import ONE, ZERO, Exact, keyed_sum_of_products, rat, sum_of_products
from ptsphere.lie import EnvElement, build_generators, casimir_element
from ptsphere.masa import catalog_masa
from ptsphere.matrices import ExactMatrix
from ptsphere.phase import PhasePoly, PhaseRational, poisson_bracket
from ptsphere.reduction import momentum_map, project_env_element

from catalog_models import PARAMS, build_masa
import exact_products_reference as ref

SQRT2 = Exact.sqrt_rational(2)


def _matrices(n: int) -> list[ExactMatrix]:
    """The u(n) generators, every catalog MASA matrix of rank n and its
    conjugate, and the catalog parities of rank n, without repeats.  Lambda
    is taken at lambda^2 = 1/8 too, whose frame holds sqrt(2) and sqrt(3)."""
    out = list(build_generators(n).generators)
    masas = [build_masa(name) for name in PARAMS]
    for m in masas + [catalog_masa("lambda", lambda2=Fraction(1, 8))]:
        if m.n == n:
            out += [Z for Z in m.matrices] + [Z.conjugate() for Z in m.matrices]
            out.append(ref.parity_matrix(m.parity))
    return list(dict.fromkeys(out))


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_products_and_commutators_match_the_per_pair_loops(n):
    mats = _matrices(n)
    assert len(mats) == {2: 8, 3: 39}[n]  # 64 + 1,521 ordered pairs
    for a, b in product(mats, repeat=2):
        assert (a @ b).entries == ref.matmul(a, b).entries
        assert a.commutator(b).entries == ref.commutator(a, b).entries


def _terms(f: PhaseRational):
    return f.num.terms, f.den.terms


@pytest.mark.parametrize("name", list(PARAMS))
def test_expansions_and_momentum_maps_of_commutators_match(name):
    # every ordered pair of the n^2 generators and n MASA matrices: 144
    # commutators on each u(3) model and 36 on su2ab, 756 in all
    masa = build_masa(name)
    basis = build_generators(masa.n)
    mats = list(basis.generators) + list(masa.matrices)
    for a, b in product(mats, repeat=2):
        c = a.commutator(b)
        assert basis.expand_in_basis(c) == ref.expand_in_basis(basis, c)
        assert _terms(momentum_map(c, masa)) == _terms(ref.momentum_map(c, masa))


@pytest.mark.parametrize("name,order", [("su2ab", 2), ("lambda", 2), ("cartan_od", 3)])
def test_projected_casimirs_match(name, order):
    # words of length 2 (and 3) beside shorter ones, over det A^L
    masa = build_masa(name)
    e = casimir_element(order, build_generators(masa.n))
    assert _terms(project_env_element(e, masa)) == _terms(ref.project_env_element(e, masa))


@pytest.fixture
def recorded_products(monkeypatch):
    """Every PhasePoly product and sum of products, with its result, made
    while the integrals, the symbolic {T1, T2} and the PT check of the
    potential are built on cartan_od, lambda and nilpotent from cold.
    Lambda's {T1, T2} is left out: its 427,536 pairs of terms take the
    per-pair loop about 4 s, and criterion 06 fits it exactly."""
    for f in vars(reduction).values():
        if hasattr(f, "cache_clear") and f.__module__ == reduction.__name__:
            f.cache_clear()
    calls = []
    kernel, mul = phase._poly_products, PhasePoly.__mul__

    def recording_kernel(n, pairs):
        pairs = list(pairs)
        out = kernel(n, pairs)
        calls.append((n, pairs, out))
        return out

    def recording_mul(f, g):
        out = mul(f, g)
        calls.append((f.n, [(f, g)], out))
        return out

    monkeypatch.setattr(phase, "_poly_products", recording_kernel)
    monkeypatch.setattr(PhasePoly, "__mul__", recording_mul)
    for name in ("cartan_od", "lambda", "nilpotent"):
        m = build_masa(name)
        T = dict(reduction.integrals_catalog(m))
        if name != "lambda":
            poisson_bracket(T["T1"], T["T2"])
        V = reduction.build_hamiltonian(m).potential
        img = V.apply_pt(m.parity)
        assert (V.num * img.den - img.num * V.den).is_zero()
    monkeypatch.undo()
    return calls


def test_phase_poly_products_match_the_per_pair_loop(recorded_products):
    assert len(recorded_products) > 400
    assert max(len(pairs) for _, pairs, _ in recorded_products) == 6  # {T1, T2}: 2n pairs
    for n, pairs, out in recorded_products:
        assert out.terms == ref.poly_products(n, pairs).terms


def _poly(n, terms):
    return PhasePoly(n, {tuple(e): c for e, c in terms.items()})


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (3, 4), (7, 8), (127, 129), (2**70, 5)])
def test_packed_exponents_of_every_width(a, b):
    # largest exponent sums 0, 1, 7, 15, 256 and past 2^70: one to 71 bits a slot
    f = _poly(2, {(a, 0, 1, 0, 0, 0): rat(2, 1), (0, a, 0, 0, 0, 1): SQRT2, (0,) * 6: ONE})
    g = _poly(2, {(b, 1, 0, 0, 0, 0): rat(Fraction(1, 3)), (0, b, 0, 0, 1, 0): -SQRT2})
    for x, y in ((f, g), (g, f), (f, f)):
        assert (x * y).terms == ref.poly_products(2, [(x, y)]).terms
    assert phase._poly_products(2, [(f, g), (-g, f)]).is_zero()


def test_a_cancelling_sum_of_poly_products_drops_its_terms():
    s, p = PhasePoly.s(2, 0), PhasePoly.p(2, 1)
    f, g = s + p, s - p
    assert phase._poly_products(2, [(f, g), (p, p), (-s, s)]).terms == {}
    assert phase._poly_products(2, [(f, PhasePoly(2))]).terms == {}


# -- random Exact matrices with sqrt(2) ----------------------------------------

small = st.integers(-6, 6)
scalars = st.one_of(
    st.just(ZERO),
    st.builds(
        lambda a, b, c, d, den: (rat(a, b) + rat(c, d) * SQRT2) * rat(Fraction(1, den)),
        small, small, small, small, st.integers(1, 5),
    ),
)


def _matrix(draw, r, c):
    return ExactMatrix([[draw(scalars) for _ in range(c)] for _ in range(r)])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_products_of_random_matrices_with_sqrt2(data, r, k, c):
    a, b, sq = _matrix(data.draw, r, k), _matrix(data.draw, k, c), _matrix(data.draw, r, r)
    assert (a @ b).entries == ref.matmul(a, b).entries
    assert (sq @ a).entries == ref.matmul(sq, a).entries
    sq2 = _matrix(data.draw, r, r)
    assert sq.commutator(sq2).entries == ref.commutator(sq, sq2).entries
    pairs = list(zip(a.entries[0], b.transpose().entries[0]))
    assert sum_of_products(pairs) == sum((x * y for x, y in pairs), ZERO)
    assert sum_of_products((x, y, x) for x, y in pairs) == sum((x * y * x for x, y in pairs), ZERO)
    triples = [(j % 2, x, y) for j, (x, y) in enumerate(pairs)]
    assert keyed_sum_of_products(triples) == ref.keyed_sum_of_products(triples)


def test_sum_of_products_over_several_denominators():
    xs = [rat(Fraction(1, 6)), SQRT2 * rat(Fraction(1, 4)), rat(0, Fraction(2, 9)), ZERO]
    ys = [rat(Fraction(3, 10)), SQRT2, rat(Fraction(5, 7), 1), Exact.sqrt_rational(3)]
    got = sum_of_products(zip(xs, ys))
    assert got == sum((x * y for x, y in zip(xs, ys)), ZERO)
    assert sum_of_products([]) is ZERO
    assert sum_of_products([(SQRT2, SQRT2), (rat(-2), ONE)]) == ZERO


# Q(i), sqrt(2) and sqrt(3) operands over several denominators
_MIXED = [
    rat(Fraction(1, 6), Fraction(-2, 5)),
    SQRT2 * rat(Fraction(3, 4)),
    Exact.sqrt_rational(3) * rat(0, Fraction(2, 9)) + rat(Fraction(5, 7)),
    SQRT2 * rat(Fraction(-1, 10), 1) + Exact.sqrt_rational(6),
    rat(7),
]


def test_three_factor_terms_equal_the_per_term_products():
    terms = list(product(_MIXED, repeat=3))
    assert sum_of_products(terms) == sum((x * z * y for x, z, y in terms), ZERO)
    # two- and three-factor terms in one sum, over several denominators
    mixed = [t[:2] if k % 2 else t for k, t in enumerate(terms[::7])]
    assert sum_of_products(mixed) == sum(
        (t[0] * t[1] * (t[2] if len(t) == 3 else ONE) for t in mixed), ZERO)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_a_zero_factor_in_any_position_is_skipped(slot):
    x, z, y = _MIXED[:3]
    zeroed = [x, z, y]
    zeroed[slot] = ZERO
    assert sum_of_products([tuple(zeroed)]) is ZERO
    assert sum_of_products([tuple(zeroed), (x, z, y)]) == x * z * y
    if slot != 1:
        pair = [x, y]
        pair[slot // 2] = ZERO
        assert sum_of_products([tuple(pair), (z, y)]) == z * y


def test_keyed_sum_of_products_matches_the_per_pair_loop():
    r3 = Exact.sqrt_rational(3)
    triples = [
        ("y", rat(Fraction(1, 6)), SQRT2),
        ("a", SQRT2, SQRT2),
        ("c", r3, rat(Fraction(2, 9), 1)),
        ("a", rat(-2), ONE),  # key a cancels: 2 - 2
        ("y", rat(0, Fraction(3, 10)), r3 * rat(Fraction(1, 4))),  # a second denominator
        ("d", ZERO, SQRT2),  # key d has only a zero product
        ("c", SQRT2, r3 * rat(Fraction(5, 7))),  # sqrt(6), over a third denominator
    ]
    got = keyed_sum_of_products(triples)
    assert got == ref.keyed_sum_of_products(triples)
    assert list(got) == ["y", "c"]  # first-seen order, cancelled and zero keys dropped
    assert got["y"] == SQRT2 * rat(Fraction(1, 6)) + r3 * rat(0, Fraction(3, 40))
    assert keyed_sum_of_products([]) == {}


@pytest.mark.parametrize("n", [2, 3])
def test_env_element_products_match_the_per_pair_loop(n):
    # the Casimirs of order 2 and 3 times every generator, and times words
    # scaled by sqrt(2), on both sides
    basis = build_generators(n)
    gens = [EnvElement.gen(i) for i in range(basis.size)]
    scaled = [(g * h).scale(SQRT2) + h for g, h in zip(gens, gens[1:])]
    for order in (2, 3):
        cas = casimir_element(order, basis)
        for e in gens + scaled:
            for a, b in ((cas, e), (e, cas)):
                assert list((a * b).terms.items()) == list(ref.env_product(a, b).terms.items())

"""Value and first partials of a PhasePoly at a point by prefix and suffix
products of each term's factors: the reference the tests hold the Euler-
weighted sweep of phase._Sweep against."""

from itertools import accumulate
from math import prod
from operator import getitem, mul

from ptsphere.exact import ZERO, _add_products, _reduced
from ptsphere.phase import _coordinates, _int_terms


def _accumulate(sums: dict, comps, t: int):
    """Add t times each coefficient component (slot, c) into sums."""
    for slot, c in comps:
        sums[slot] = sums.get(slot, 0) + c * t


def _parts(sums: dict) -> dict:
    """{d: (re, im)} from sums over the slots 2d (re) and 2d + 1 (im)."""
    out = {}
    for slot, x in sums.items():
        d, im = divmod(slot, 2)
        re_im = out.get(d, (0, 0))
        out[d] = (re_im[0], x) if im else (x, re_im[1])
    return out


def jet(f, qs):
    """(value, {variable: partial}, L*D): f and its first partials at the
    int pairs qs, as {d: (re, im)} int parts over the denominator L*D of the
    value.  With the term's factors mono[l][e_l] = a_l^e_l * b_l^(m_l - e_l),
    the partial in the j-th used variable is
    sum_e (L*c_e) * e_j * mono[j][e_j - 1] * prod_{l != j} mono[l][e_l],
    the product over l != j read off prefix and suffix products."""
    terms, L = _int_terms(f)
    maxe = list(map(max, zip(*f.terms)))
    used = [i for i, m in enumerate(maxe) if m]
    mono = []
    for i in used:
        a, b = qs[i]
        m = maxe[i]
        mono.append([a ** x * b ** (m - x) for x in range(m + 1)])
        L *= b ** m
    dmono = [[x * row[x - 1] for x in range(len(row))] for row in mono]
    k = len(used)
    val = {}
    grad = [{} for _ in used]
    for e, parts in terms:
        ex = tuple(e[i] for i in used)
        comps = [(2 * d + c, x) for d, pair in parts for c, x in enumerate(pair) if x]
        fs = list(map(getitem, mono, ex))
        pre = list(accumulate(fs, mul, initial=1))
        suf = list(accumulate(reversed(fs), mul, initial=1))
        _accumulate(val, comps, pre[k])
        for j in range(k):
            if ex[j]:
                _accumulate(grad[j], comps, dmono[j][ex[j]] * pre[j] * suf[k - 1 - j])
    return _parts(val), {i: _parts(g) for i, g in zip(used, grad) if g}, L


def value(f, vals):
    """f at the point vals, through jet."""
    v, _, q = jet(f, _coordinates(vals, f.n))
    return _reduced(v, q)


def grad_at(F, vals):
    """The derivatives over the 3n variables of the PhaseRational F at
    vals: (num_i * den - num * den_i) / den^2 from the jets of den and num."""
    qs = _coordinates(vals, F.n)
    dv, dgrad, dq = jet(F.den, qs)
    dval = _reduced(dv, dq)
    if not dval:
        raise ZeroDivisionError("denominator vanishes at evaluation point")
    nv, ngrad, nq = jet(F.num, qs)
    inv2 = (dval * dval).inverse()
    den_parts = list(dv.items())
    minus_num = [(d, (-re, -im)) for d, (re, im) in nv.items()]
    grads = []
    for i in range(3 * F.n):
        acc = {}
        if i in ngrad:
            _add_products(acc, ngrad[i].items(), den_parts)
        if i in dgrad:
            _add_products(acc, minus_num, dgrad[i].items())
        grads.append(_reduced(acc, nq * dq) * inv2 if acc else ZERO)
    return grads

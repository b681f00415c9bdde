"""Complex maximal Abelian subalgebras (MASAs) of u(2) and u(3).

A MASA here is an ordered set of n mutually commuting, symmetric, linearly
independent complex matrices spanned by the symmetric generators of u(n).
The module provides the named families used by the reduction engine, a
validator, the PT-parity classifier, and the reader of the JSON file format
used by the command line tool.  A MASA is its matrices: coefficient rows,
as the catalog and the file format write them, are read into matrices and
not kept.

The lambda family and its lambda^2 = 1/2 limits come from one frame,
lambda_frame: the orthogonal rows r_-, r_+, r_3, each of square
e^2 = 1 - 2 lambda^2.  Below lambda^2 = 1/2, Z_mu = sigma_mu (i/e) r_mu r_mu^T
with sigma = (+1, +1, -1), a complex rotation of the Cartan MASA, so
-A^T A = diag(w_mu^2) with w_mu = r_mu . s and the potential separates.  At
e = 0, r_-+ = a -+ (e/2) b with a isotropic and b = (1, 1, 0), and the
degenerate models are the limits Z1 = lim (Z1 - Z2)/2 = -(i/2)(a b^T + b a^T),
the nilpotent Z2 = lim e Z1 = 4i a a^T and the central
Z3 = lim (Z1 + Z2 - Z3)/e = i I (sum_mu r_mu r_mu^T = e^2 I).  The sign of
i lambda = +-i/sqrt(2) picks degenerate_plus or its conjugate frame,
degenerate_minus.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .exact import Exact, I, ONE, ZERO, rat
from .errors import (
    BadBasisIndex,
    DimensionMismatch,
    NotPTCompatible,
    ParamOutOfRange,
    UnknownName,
    UnsupportedRank,
)
from .lie import build_generators
from .matrices import ExactMatrix
from .phase import SignedPermutation

__all__ = [
    "MasaSpec",
    "MasaReport",
    "symmetric_basis_indices",
    "masa_from_coeffs",
    "validate_masa",
    "classify_pt",
    "catalog_masa",
    "lambda_frame",
    "load_masa_file",
    "CATALOG_NAMES",
    "MAX_PARAM_INT",
    "bounded_rational",
]

# the keyword parameters catalog_masa takes for each catalog model, with
# their defaults
_CATALOG_PARAMS = {
    "su2ab": {"a": Fraction(1), "b": Fraction(0)},
    "lambda": {"lambda2": Fraction(1, 4)},
    "cartan_od": {"a": Fraction(1), "b": Fraction(1, 2)},
    "nilpotent": {},
    "degenerate_plus": {},
    "degenerate_minus": {},
}
CATALOG_NAMES = tuple(_CATALOG_PARAMS)
# largest |numerator| and denominator of a rational catalog parameter:
# radicals of the parameters are factored by trial division, so larger ones
# can run for minutes before any check starts
MAX_PARAM_INT = 10**6
# digits of a numerator and a denominator within MAX_PARAM_INT
_MAX_DIGITS = 2 * len(str(MAX_PARAM_INT))
# s3 -> -s3: the parity of every u(3) catalog model
_U3_PARITY = SignedPermutation.from_signed_indices([1, 2, -3])


def symmetric_basis_indices(n: int) -> tuple[int, ...]:
    """Basis indices of the symmetric generators of u(n): a coefficient row's columns."""
    return tuple(i for i, sym in enumerate(build_generators(n).symmetric_flags) if sym)


@dataclass(frozen=True)
class MasaSpec:
    """n commuting symmetric generators plus optional parity data."""

    n: int
    matrices: tuple[ExactMatrix, ...]
    name: str | None = None
    params: tuple = ()
    parity: SignedPermutation | None = None

    @property
    def size(self) -> int:
        return len(self.matrices)

    @property
    def label(self) -> str:  # the MASA's name in reports
        return self.name or "masa"

    def __hash__(self) -> int:
        # the fields' hash, computed once: it keys the reduction's build
        # cache, and hashing every Exact entry anew costs up to 0.1 ms
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, self.matrices, self.name, self.params, self.parity))
            object.__setattr__(self, "_hash", h)
            return h


@dataclass
class MasaReport:
    symmetric_ok: bool
    commuting_ok: bool
    independent_ok: bool
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.symmetric_ok and self.commuting_ok and self.independent_ok


def masa_from_coeffs(
    n: int,
    coeffs: Sequence[Sequence],
    name: str | None = None,
    params: tuple = (),
    parity: SignedPermutation | None = None,
) -> MasaSpec:
    """Assemble Z matrices from coefficient rows over the symmetric basis.

    Entry k of a row multiplies the k-th symmetric generator
    (symmetric_basis_indices); no validation is implied (call validate_masa
    separately); only the matrices are kept.  A row count other than n
    raises DimensionMismatch: fewer elements than n cannot be maximal, and
    more cannot be independent.  So does a parity that does not permute n
    coordinates.
    """
    idx = symmetric_basis_indices(n)
    if len(coeffs) != n:
        raise DimensionMismatch(f"a MASA of u({n}) has {n} generators, got {len(coeffs)}")
    if parity is not None and len(parity.image) != n:
        raise DimensionMismatch(f"a parity of u({n}) has {n} entries, got {len(parity.image)}")
    gens = build_generators(n).generators
    mats = []
    for row in coeffs:
        row = tuple(Exact.coerce(c) for c in row)
        if len(row) != len(idx):
            raise BadBasisIndex(
                f"coefficient row needs {len(idx)} entries, got {len(row)}"
            )
        m = ExactMatrix.zero(n, n)
        for c, gi in zip(row, idx):
            if not c.is_zero():
                m = m + gens[gi].scale(c)
        mats.append(m)
    return MasaSpec(n, tuple(mats), name, params, parity)


def validate_masa(m: MasaSpec) -> MasaReport:
    """Symmetry, pairwise commutativity, and linear independence, exactly."""
    failures = []
    sym = True
    for i, Z in enumerate(m.matrices):
        if not Z.is_symmetric():
            sym = False
            failures.append(("symmetry", i))
    comm = True
    for i in range(m.size):
        for j in range(i + 1, m.size):
            if not m.matrices[i].commutator(m.matrices[j]).is_zero():
                comm = False
                failures.append(("commutativity", (i, j)))
    # flatten each Z to a vector; independence = full row rank
    flat = ExactMatrix(
        [[Z.entries[r][c] for r in range(m.n) for c in range(m.n)] for Z in m.matrices]
    )
    indep = flat.rank() == m.size
    if not indep:
        failures.append(("independence", None))
    return MasaReport(sym, comm, indep, failures)


def classify_pt(m: MasaSpec, parity: SignedPermutation) -> tuple[int, ...]:
    """Per-generator sign eps with Z = eps * P conj(Z) P.

    Potential-level PT invariance additionally needs all signs equal; that
    check is left to the caller.  Raises NotPTCompatible when no sign works
    for some generator.  P has the entries P[image[mu]][mu] = sign[mu], so
    (P conj(Z) P)[a][b] = sign[pre[a]] sign[b] conj(Z[pre[a]][image[b]]),
    pre the inverse of image: read off Z without a matrix product.
    """
    image, sign = parity.image, parity.sign
    if len(image) != m.n:
        raise DimensionMismatch(f"{len(image)} != {m.n}")
    pre = sorted(range(m.n), key=image.__getitem__)  # image[pre[a]] = a
    eps = []
    for i, Z in enumerate(m.matrices):
        flat = [x for row in Z.entries for x in row]
        img = []  # P conj(Z) P, row by row
        for r in pre:
            for b in range(m.n):
                c = Z.entries[r][image[b]].conjugate()
                img.append(c if sign[r] == sign[b] else -c)
        if flat == img:
            eps.append(1)
        elif flat == [-c for c in img]:
            eps.append(-1)
        else:
            raise NotPTCompatible(f"generator {i} is neither even nor odd")
    return tuple(eps)


def lambda_frame(lam2: Fraction, sign: int) -> tuple[tuple[Exact, ...], ...]:
    """The lambda family's frame: r_- = (lambda_-, -lambda_+, i lambda),
    r_+ = (lambda_+, -lambda_-, i lambda) and r_3 = (i lambda, -i lambda, -1),
    lambda_-+ = (1 -+ e)/2; sign picks the branch of i lambda."""
    il = I * Exact.sqrt_rational(lam2) * rat(sign)
    e = Exact.sqrt_rational(1 - 2 * lam2)
    lam_m, lam_p = (ONE - e) / rat(2), (ONE + e) / rat(2)
    return ((lam_m, -lam_p, il), (lam_p, -lam_m, il), (il, -il, -ONE))


def _lambda_masa(name: str, lam2: Fraction, sign: int, params: tuple) -> MasaSpec:
    """The lambda family's MASA at (lam2, sign), its matrices built from the
    frame as the module docstring says."""

    def outer(u, v, c):  # c u v^T
        return ExactMatrix([[c * x * y for y in v] for x in u])

    rows = lambda_frame(lam2, sign)
    e = rows[1][0] - rows[0][0]
    if e.is_zero():
        a, b, c = rows[0], (ONE, ONE, ZERO), rat(0, Fraction(-1, 2))
        mats = [outer(a, b, c) + outer(b, a, c), outer(a, a, rat(0, 4)),
                ExactMatrix.identity(3).scale(I)]
    else:
        mats = [outer(r, r, I / e * rat(s)) for r, s in zip(rows, (1, 1, -1))]
    return MasaSpec(3, tuple(mats), name, params, _U3_PARITY)


def _out_of_range(what: str) -> ParamOutOfRange:
    return ParamOutOfRange(
        f"{what}: numerator and denominator must be at most {MAX_PARAM_INT} in absolute value"
    )


def _bounded(key: str, value):
    """value, unless it is a rational past MAX_PARAM_INT (ParamOutOfRange)."""
    if isinstance(value, Rational) and max(abs(value.numerator), value.denominator) > MAX_PARAM_INT:
        raise _out_of_range(f"{key} = {value}")
    return value


def bounded_rational(text) -> Fraction:
    """text (a str, or a number read from JSON) as a Fraction within
    MAX_PARAM_INT.  Text that could exceed the bound is refused before Fraction
    reads it, since Fraction("1e100000000") builds a 10^8-digit int first:
    exponent notation (ValueError), and more digits than a numerator and a
    denominator within the bound have (ParamOutOfRange).  A malformed text or
    a zero denominator raises ValueError."""
    text = str(text)
    shown = reprlib.repr(text)
    if sum(ch.isdigit() for ch in text) > _MAX_DIGITS:
        raise _out_of_range(shown)
    if "e" in text or "E" in text:
        raise ValueError(f"not an exact rational: {shown} (exponent notation is not accepted)")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {shown}") from exc
    if max(abs(q.numerator), q.denominator) > MAX_PARAM_INT:
        raise _out_of_range(shown)
    return q


def catalog_masa(name: str, **params) -> MasaSpec:
    """Named MASA families with exact parameters.

    su2ab(a, b): u(2), Z1 = X0, Z2 = a X3 - i b X1.
    lambda(lambda2): u(3) one-parameter family, 0 <= lambda2 < 1/2 exact.
    cartan_od(a, b): u(3) two-parameter family.
    nilpotent(): u(3) family with nilpotent Z2, Z3.
    degenerate_plus/minus(): the lambda family's lambda2 = 1/2 limit, on the
      branch i lambda = +i/sqrt(2) or its conjugate.

    A parameter the named model does not take raises UnknownName; a
    rational one past MAX_PARAM_INT raises ParamOutOfRange, and so does
    a = b = 0 on su2ab and cartan_od, where Z2 = 0.
    """
    if name not in _CATALOG_PARAMS:
        raise UnknownName(f"unknown catalog MASA {name!r}")
    extra = sorted(set(params) - set(_CATALOG_PARAMS[name]))
    if extra:
        takes = ", ".join(_CATALOG_PARAMS[name]) or "none"
        raise UnknownName(
            f"model {name!r} takes no parameter {', '.join(map(repr, extra))}"
            f" (it takes: {takes})"
        )
    params = {**_CATALOG_PARAMS[name], **params}
    if name in ("su2ab", "cartan_od"):
        a, b = (Exact.coerce(_bounded(k, params[k])) for k in "ab")
        if a.is_zero() and b.is_zero():
            raise ParamOutOfRange("a and b cannot both vanish")
    if name == "su2ab":
        rows = [[ONE, ZERO, ZERO], [ZERO, -I * b, a]]
        par = SignedPermutation.from_signed_indices([1, -2])
        return masa_from_coeffs(2, rows, name, (a, b), par)
    if name == "lambda":
        lam2 = _bounded("lambda2", Fraction(params["lambda2"]))
        if not (0 <= lam2 < Fraction(1, 2)):
            raise ParamOutOfRange("lambda2 must satisfy 0 <= lambda2 < 1/2")
        return _lambda_masa(name, lam2, 1, (lam2,))
    if name in ("degenerate_plus", "degenerate_minus"):
        sign = 1 if name.endswith("plus") else -1
        return _lambda_masa(name, Fraction(1, 2), sign, (sign,))
    if name == "cartan_od":
        third = rat(Fraction(1, 3))
        rows = [
            [third, third * rat(2), third, ZERO, ZERO, ZERO],
            [ZERO, ZERO, a, ZERO, ZERO, rat(0, 2) * b],
            [third * rat(2), -third * rat(2), -third, ZERO, ZERO, ZERO],
        ]
        values = (a, b)
    else:  # nilpotent
        rows = [
            [ONE, ZERO, ZERO, ZERO, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO, ZERO, I],
            [ZERO, ZERO, ZERO, ONE, I, ZERO],
        ]
        values = ()
    return masa_from_coeffs(3, rows, name, values, _U3_PARITY)


# -- JSON file format -----------------------------------------------------------


def load_masa_file(path: str) -> MasaSpec:
    """Read a MASA from a JSON file: n, the integer 2 or 3; an optional
    basis "u<n>"; generators, n coefficient rows of {"re": "p/q", "im":
    "p/q"} entries (masa_from_coeffs); an optional parity, n signed 1-based
    integers (SignedPermutation.from_signed_indices); an optional name.  An
    n that is not a JSON integer raises UnsupportedRank, as one other than
    2 or 3 does; a catalog model's name is refused, because the catalog
    models carry parameters a file does not."""
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["n"]
    if type(n) is not int:  # bool is an int subclass, and JSON true is not a rank
        raise UnsupportedRank(f"n must be the integer 2 or 3, got {n!r}")
    if doc.get("name") in CATALOG_NAMES:
        raise ValueError(
            f"name {doc['name']!r} belongs to a catalog model; use --model {doc['name']}"
        )
    if doc.get("basis") not in (None, f"u{n}"):
        raise BadBasisIndex(f"basis {doc['basis']!r} inconsistent with n={n}")
    rows = [
        [Exact.from_rational(bounded_rational(c["re"]), bounded_rational(c.get("im", 0)))
         for c in row]
        for row in doc["generators"]
    ]
    parity = None
    if "parity" in doc:
        # 1.0 would index a tuple, and true be read as 1
        if any(type(x) is not int for x in doc["parity"]):
            raise ValueError(f"parity entries must be JSON integers, got {doc['parity']!r}")
        parity = SignedPermutation.from_signed_indices(doc["parity"])
    return masa_from_coeffs(n, rows, doc.get("name"), (), parity)

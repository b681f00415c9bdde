"""Complex maximal Abelian subalgebras (MASAs) of u(2) and u(3).

A MASA here is an ordered set of n mutually commuting, symmetric, linearly
independent complex matrices spanned by the symmetric generators of u(n).
The module provides the named families used by the reduction engine, a
validator, the PT-parity classifier, and the JSON file format used by the
command line tool.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exact import Exact, I, ONE, ZERO, rat
from .errors import (
    BadBasisIndex,
    NotPTCompatible,
    ParamOutOfRange,
    UnknownName,
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
    "load_masa_file",
    "save_masa_file",
    "CATALOG_NAMES",
]

# symmetric generators, in the fixed basis order used by coefficient rows
SYM_INDICES = {2: (0, 1, 3), 3: (0, 1, 2, 4, 6, 8)}

# the keyword parameters catalog_masa takes for each catalog model
_CATALOG_PARAMS = {
    "su2ab": ("a", "b"),
    "lambda": ("lambda2",),
    "cartan_od": ("a", "b"),
    "nilpotent": (),
    "degenerate_plus": (),
    "degenerate_minus": (),
}
CATALOG_NAMES = tuple(_CATALOG_PARAMS)


def symmetric_basis_indices(n: int) -> tuple[int, ...]:
    if n not in SYM_INDICES:
        raise BadBasisIndex(f"no symmetric basis table for u({n})")
    return SYM_INDICES[n]


@dataclass(frozen=True)
class MasaSpec:
    """n commuting symmetric generators plus optional parity data."""

    n: int
    coeffs: tuple[tuple[Exact, ...], ...]
    matrices: tuple[ExactMatrix, ...]
    name: str | None = None
    params: tuple = ()
    parity: SignedPermutation | None = None

    @property
    def size(self) -> int:
        return len(self.matrices)


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

    Row order matches SYM_INDICES; no validation is implied (call
    validate_masa separately).
    """
    idx = symmetric_basis_indices(n)
    gens = build_generators(n).generators
    rows = []
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
        rows.append(row)
        mats.append(m)
    return MasaSpec(n, tuple(rows), tuple(mats), name, params, parity)


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
    for some generator.
    """
    P = parity.matrix()
    eps = []
    for i, Z in enumerate(m.matrices):
        img = P @ Z.conjugate() @ P
        if (Z - img).is_zero():
            eps.append(1)
        elif (Z + img).is_zero():
            eps.append(-1)
        else:
            raise NotPTCompatible(f"generator {i} is neither even nor odd")
    return tuple(eps)


def _sqrt(q) -> Exact:
    return Exact.sqrt_rational(q)


def _lambda_rows(lam2: Fraction) -> list[list[Exact]]:
    disc = 1 - 2 * lam2
    if not (0 <= lam2 < Fraction(1, 2)):
        raise ParamOutOfRange("lambda2 must satisfy 0 <= lambda2 < 1/2")
    s = _sqrt(disc)  # sqrt(1 - 2 lambda^2), real in range
    lam = _sqrt(lam2)
    pref = (rat(3) * s).inverse()
    lam_m = (ONE - s) / rat(2)
    lam_p = (ONE + s) / rat(2)
    gam_m = (rat(1 + lam2) - rat(3) * s) / rat(2)
    gam_p = (rat(1 + lam2) + rat(3) * s) / rat(2)
    il3 = rat(0, 3) * lam  # 3 i lambda
    common = [rat(disc), None, rat(1 + lam2), rat(Fraction(-3, 2) * lam2), None, None]
    z1 = list(common)
    z1[1] = gam_m
    z1[4] = il3 * lam_m
    z1[5] = -il3 * lam_p
    z2 = list(common)
    z2[1] = gam_p
    z2[4] = il3 * lam_p
    z2[5] = -il3 * lam_m
    z3 = [
        rat(-disc),
        rat(1 + lam2),
        rat(2 * (1 + lam2)),
        rat(-3 * lam2),
        il3,
        -il3,
    ]
    return [[pref * c for c in row] for row in (z1, z2, z3)]


def _degenerate_rows(sign: int) -> list[list[Exact]]:
    # rescaled lambda-family basis at lambda^2 = 1/2.  With
    # e = sqrt(1 - 2 lambda^2) -> 0 the raw generators diverge like S/e; the
    # surviving directions are Z1 = lim (Z1 - Z2)/2, the nilpotent
    # Z2 = lim e*Z1 (Z2^2 = 0), and Z3 = lim (Z1 + Z2 - Z3)/e which is
    # central.  The triple commutes, is symmetric and independent, and its
    # A-matrix is invertible away from the singular locus.
    isq2 = I * _sqrt(2) * rat(sign)  # sign * i * sqrt(2)
    z1 = [
        ZERO,
        rat(Fraction(-1, 2)),
        ZERO,
        ZERO,
        -isq2 / rat(4),
        -isq2 / rat(4),
    ]
    z2 = [ZERO, ONE, rat(2), rat(-1), isq2, -isq2]
    z3 = [ONE, ZERO, ZERO, ZERO, ZERO, ZERO]
    return [z1, z2, z3]


def catalog_masa(name: str, **params) -> MasaSpec:
    """Named MASA families with exact parameters.

    su2ab(a, b): u(2), Z1 = X0, Z2 = a X3 - i b X1.
    lambda(lambda2): u(3) one-parameter family, 0 <= lambda2 < 1/2 exact.
    cartan_od(a, b): u(3) two-parameter family.
    nilpotent(): u(3) family with nilpotent Z2, Z3.
    degenerate_plus/minus(): rescaled lambda2 = 1/2 limit.

    A parameter the named model does not take raises UnknownName.
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
    if name == "su2ab":
        a = Exact.coerce(params.get("a", Fraction(1)))
        b = Exact.coerce(params.get("b", Fraction(0)))
        if a.is_zero() and b.is_zero():
            raise ParamOutOfRange("a and b cannot both vanish")
        rows = [[ONE, ZERO, ZERO], [ZERO, -I * b, a]]
        par = SignedPermutation.from_signed_indices([1, -2])
        return masa_from_coeffs(2, rows, name, (a, b), par)
    if name == "lambda":
        lam2 = Fraction(params.get("lambda2", Fraction(1, 4)))
        rows = _lambda_rows(lam2)
        par = SignedPermutation.from_signed_indices([1, 2, -3])
        return masa_from_coeffs(3, rows, name, (lam2,), par)
    if name == "cartan_od":
        a = Exact.coerce(params.get("a", Fraction(1)))
        b = Exact.coerce(params.get("b", Fraction(1, 2)))
        third = rat(Fraction(1, 3))
        rows = [
            [third, third * rat(2), third, ZERO, ZERO, ZERO],
            [ZERO, ZERO, a, ZERO, ZERO, rat(0, 2) * b],
            [third * rat(2), -third * rat(2), -third, ZERO, ZERO, ZERO],
        ]
        par = SignedPermutation.from_signed_indices([1, 2, -3])
        return masa_from_coeffs(3, rows, name, (a, b), par)
    if name == "nilpotent":
        rows = [
            [ONE, ZERO, ZERO, ZERO, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO, ZERO, I],
            [ZERO, ZERO, ZERO, ONE, I, ZERO],
        ]
        par = SignedPermutation.from_signed_indices([1, 2, -3])
        return masa_from_coeffs(3, rows, name, (), par)
    # degenerate_plus or degenerate_minus
    sign = 1 if name.endswith("plus") else -1
    rows = _degenerate_rows(sign)
    par = SignedPermutation.from_signed_indices([1, 2, -3])
    return masa_from_coeffs(3, rows, name, (sign,), par)


# -- JSON file format -----------------------------------------------------------


def _frac_to_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _coeff_to_json(c: Exact) -> dict:
    if not c.is_rational():
        raise ValueError("file format stores rational coefficients only")
    return {"re": _frac_to_text(c.re), "im": _frac_to_text(c.im)}


def save_masa_file(m: MasaSpec, path: str) -> None:
    doc = {
        "n": m.n,
        "basis": f"u{m.n}",
        "generators": [[_coeff_to_json(c) for c in row] for row in m.coeffs],
    }
    if m.parity is not None:
        doc["parity"] = [
            (i + 1) * s for i, s in zip(m.parity.image, m.parity.sign)
        ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_masa_file(path: str) -> MasaSpec:
    """Read a MASA written by save_masa_file; a catalog model's name is
    refused, because the catalog models carry parameters a file does not."""
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    if doc.get("name") in CATALOG_NAMES:
        raise ValueError(
            f"name {doc['name']!r} belongs to a catalog model; use --model {doc['name']}"
        )
    if doc.get("basis") not in (None, f"u{n}"):
        raise BadBasisIndex(f"basis {doc['basis']!r} inconsistent with n={n}")
    rows = [
        [Exact.from_rational(Fraction(c["re"]), Fraction(c.get("im", 0))) for c in row]
        for row in doc["generators"]
    ]
    parity = None
    if "parity" in doc:
        parity = SignedPermutation.from_signed_indices(doc["parity"])
    return masa_from_coeffs(n, rows, doc.get("name"), (), parity)

"""The lambda family's MASA coefficients as printed, row by row over the
symmetric basis of u(3), and the rescaled rows of its lambda^2 = 1/2 limit:
the reference the tests hold masa.catalog_masa's frame-built matrices
against."""

from fractions import Fraction

from ptsphere.exact import Exact, I, ONE, ZERO, rat


def lambda_rows(lam2: Fraction) -> list[list[Exact]]:
    """Z1, Z2, Z3 of the lambda family, 0 <= lam2 < 1/2."""
    disc = 1 - 2 * lam2
    s = Exact.sqrt_rational(disc)  # sqrt(1 - 2 lambda^2), real in range
    lam = Exact.sqrt_rational(lam2)
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


def degenerate_rows(sign: int) -> list[list[Exact]]:
    """The rescaled lambda-family basis at lambda^2 = 1/2.  With
    e = sqrt(1 - 2 lambda^2) -> 0 the raw generators diverge like S/e; the
    surviving directions are Z1 = lim (Z1 - Z2)/2, the nilpotent
    Z2 = lim e*Z1 (Z2^2 = 0), and Z3 = lim (Z1 + Z2 - Z3)/e, which is
    central."""
    isq2 = I * Exact.sqrt_rational(2) * rat(sign)  # sign * i * sqrt(2)
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

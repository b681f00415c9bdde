"""The symbolic Dirac bracket, built as a PhaseRational: the reference the
tests hold phase.dirac_bracket_at, which evaluates it from two gradients
at a point, against."""

from ptsphere.errors import DimensionMismatch
from ptsphere.phase import PhasePoly, PhaseRational, poisson_bracket


def _constraints(n: int) -> tuple[PhaseRational, PhaseRational]:
    ss = PhasePoly(n)
    sp = PhasePoly(n)
    for mu in range(n):
        ss = ss + PhasePoly.s(n, mu) * PhasePoly.s(n, mu)
        sp = sp + PhasePoly.s(n, mu) * PhasePoly.p(n, mu)
    c1 = PhaseRational(ss - PhasePoly.const(n, 1))
    c2 = PhaseRational(sp)
    return c1, c2


def dirac_bracket(f: PhaseRational, g: PhaseRational) -> PhaseRational:
    """Bracket consistent with the second-class constraints s.s=1, s.p=0."""
    if f.n != g.n:
        raise DimensionMismatch("ambient dimensions differ")
    n = f.n
    c1, c2 = _constraints(n)
    ss = c1.num + PhasePoly.const(n, 1)  # s.s
    two_ss = PhaseRational(ss.scale(2))
    pb = poisson_bracket
    correction = (pb(f, c1) * pb(c2, g) - pb(f, c2) * pb(c1, g)) / two_ss
    return pb(f, g) + correction

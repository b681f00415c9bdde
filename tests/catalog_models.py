"""The catalog models the tests run on, with their parameters.  Subsets by
property come from the reduction's model table, not from name lists."""

from fractions import Fraction

from ptsphere.masa import catalog_masa
from ptsphere.reduction import MODELS

PARAMS = {
    "su2ab": dict(a=Fraction(2), b=Fraction(1)),
    "lambda": dict(lambda2=Fraction(1, 4)),
    "cartan_od": dict(a=Fraction(1), b=Fraction(1, 2)),
    "nilpotent": {},
    "degenerate_plus": {},
    "degenerate_minus": {},
}
SUM_RELATION_MODELS = [name for name, model in MODELS.items() if "sum_relation" in model.relations]
RACAH_MODELS = [name for name, model in MODELS.items() if model.racah]
# the models whose potential is build_potential's k^T (-A^T A)^{-1} k
BUILT_POTENTIAL_MODELS = [name for name, model in MODELS.items() if not model.potential]


def models(*names):
    """(name, parameters) pairs to parametrize over; every model by default."""
    return [(name, PARAMS[name]) for name in names or PARAMS]


def build_masa(name):
    return catalog_masa(name, **PARAMS[name])

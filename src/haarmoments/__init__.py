"""Exact monomial moments of Haar-random unitary matrices.

The package computes expectations of products of matrix entries (and their
conjugates) over the unitary group with Haar measure, exactly — as rational
numbers at fixed dimension or as rational functions of the dimension n.  Two
independent routes are implemented: a character-sum engine over symmetrized
stabilizer pairs, and a catalog of closed forms derived from invariance
arguments.  A counter-based Monte Carlo sampler provides statistical
cross-checks, and the same machinery covers monomial moments of uniformly
random points on the real unit hypersphere.

The sampler's names are loaded on first use (PEP 562), so that importing the
package for an exact answer does not import numpy.
"""
from .invariants import (degree3, degree3_query, exchange_e2, e2_query, fan,
                         fan_query, match_closed_form, moment, x_integral,
                         x_query, x_special, z_integral, z_query)
from .partitions import (character, class_size, dim_symmetric, dim_unitary,
                         partitions_of)
from .queries import CanonicalMoment, MomentQuery, canonicalize
from .ratfun import Poly, RationalFunction
from .sphere import s_multi, s_single, s_single_symbolic, sphere_moment
from .weingarten import (class_counts, evaluate, moment_at, moment_symbolic,
                         xi_at, xi_symbolic)

__version__ = "0.1.0"

__all__ = [
    "CanonicalMoment", "Estimate", "MomentQuery", "Poly", "RationalFunction",
    "SamplerConfig", "canonicalize", "character", "class_counts",
    "class_size", "degree3", "degree3_query", "dim_symmetric", "dim_unitary",
    "e2_query", "estimate_moment", "estimate_sphere_moment", "evaluate",
    "exchange_e2", "fan", "fan_query", "haar_batch", "match_closed_form",
    "mc_tolerance", "moment", "moment_at", "moment_symbolic", "partitions_of",
    "s_multi", "s_single", "s_single_symbolic", "sphere_batch",
    "sphere_moment", "x_integral", "x_query", "x_special", "xi_at",
    "xi_symbolic", "z_integral", "z_query",
]

_SAMPLER = frozenset({"Estimate", "SamplerConfig", "estimate_moment",
                      "estimate_sphere_moment", "haar_batch", "mc_tolerance",
                      "sphere_batch"})


def __getattr__(name: str):
    if name in _SAMPLER:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SAMPLER)

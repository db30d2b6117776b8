"""Exact arithmetic for weighted binomial power-sum ratio sequences.

The package constructs, entirely in integer/rational arithmetic, the
sequences

    s(r) = sum_{i<=r} (C(m,i) a^i)^l / sum_{i<=r} (C(r,i) a^i)^l,
    r = 0..m,

decides their structural properties (unimodality, log-concavity, peak
location versus the conjectured window), builds the integer-polynomial
certificates behind those properties for the central l=2, a=1 case, takes
asymptotic measurements in log space, and sweeps parameter grids.
"""

from . import asymptotics, exact_core, poly_certificates, property_checks, sweep_harness
from .asymptotics import *  # noqa: F403
from .exact_core import *  # noqa: F403
from .poly_certificates import *  # noqa: F403
from .property_checks import *  # noqa: F403
from .sweep_harness import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (exact_core, property_checks, poly_certificates, asymptotics, sweep_harness)
    for name in module.__all__
]

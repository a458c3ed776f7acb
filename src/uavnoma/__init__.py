"""Coverage probability of NOMA aerial-base-station cellular networks.

Closed-form analytics (interference Laplace transforms of a Poisson UAV
field, Nakagami fading sums over Taylor coefficients) cross-validated
against seeded Monte Carlo simulation, for two association strategies:
user-centric (nearest-UAV attachment with one pre-attached partner) and
UAV-centric (cell-interior user pairing around the serving UAV).

The independent references and the ``uavnoma validate`` suite live in
``uavnoma.validation``, which this package does not import. Importing the
package loads no scipy: the closed forms load ``scipy.special`` at their
first value (``laplace``), and the Monte Carlo engine needs numpy alone.
"""

from .analytic_uav_centric import coverage_cond_pair, coverage_pair
from .analytic_user_centric import (
    coverage_cond,
    coverage_fixed,
    coverage_typical,
    laplace_exponent_uc,
)
from .errors import DomainError, NumericalError
from .montecarlo import (
    CoverageEstimate,
    estimate,
    geometry_key,
    run,
    simulate,
    wilson_interval,
)
from .scenario import (
    INFEASIBLE,
    NOMA,
    OMA,
    ROLES,
    UAV_CENTRIC,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    ThresholdSet,
    dbm_to_watts,
    noise_from_bandwidth,
    sinr_threshold,
    thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageEstimate",
    "DomainError",
    "INFEASIBLE",
    "NOMA",
    "NetworkConfig",
    "NomaLink",
    "NumericalError",
    "OMA",
    "ROLES",
    "ThresholdSet",
    "UAV_CENTRIC",
    "USER_CENTRIC",
    "coverage_cond",
    "coverage_cond_pair",
    "coverage_fixed",
    "coverage_pair",
    "coverage_typical",
    "dbm_to_watts",
    "estimate",
    "geometry_key",
    "laplace_exponent_uc",
    "noise_from_bandwidth",
    "run",
    "simulate",
    "sinr_threshold",
    "thresholds",
    "wilson_interval",
]

"""RSSI range estimation with a fluid antenna receiver.

Simulates spatially correlated shadow fading across the selectable ports of
a fluid antenna, recovers the transmitter distance with correlated-noise
weighted-ML and least-squares estimators, and benchmarks them against
conventional multipoint and single-antenna baselines via deterministic
Monte Carlo sweeps.
"""

__version__ = "0.1.0"

from .channel import (CorrelationModel, CovarianceMatrix, FasLayout,
                      ModelValidityError, average_mu_squared, build_covariance,
                      lag_correlations)
from .estimators import (EstimatorConfig, kappa_constant, solve_ls, solve_mle,
                         solve_single_antenna)
from .forward_model import (RssiProfile, Scene, read_measurements,
                            simulate_measurements, snr_to_sigma2,
                            write_measurements)
from .specfun import bessel_j0

__all__ = [
    "CorrelationModel", "CovarianceMatrix", "FasLayout", "ModelValidityError",
    "average_mu_squared", "build_covariance", "lag_correlations",
    "EstimatorConfig", "kappa_constant", "solve_ls", "solve_mle",
    "solve_single_antenna",
    "RssiProfile", "Scene", "read_measurements",
    "simulate_measurements", "snr_to_sigma2", "write_measurements",
    "bessel_j0",
    "__version__",
]

"""Node isolation probability of Poisson ad hoc networks.

Closed forms, quadrature oracles and a Monte Carlo simulator for the
probability that a randomly chosen node of a planar Poisson network has no
direct link to any other node, under path loss, lognormal shadowing and
Nakagami-m fading with optional MRC/SC receive diversity.
"""

from .analytic import (
    expected_r2,
    expected_r2_mrc,
    expected_r2_sc,
    expected_r2_shadow_only,
    isolation_probability,
    min_density_for_isolation,
)
from .channel import (
    BetaTable,
    ChannelParams,
    DiversityScheme,
    build_beta_table,
    db_to_linear,
    sigma_from_db,
    success_prob_mrc,
    success_prob_sc,
)
from .quadrature import (
    QuadratureError,
    expected_r2_numeric_fading,
    expected_r2_numeric_fading_shadow,
    expected_r2_numeric_nofade,
    shadow_averaged_success,
)
from .simulator import (
    MonteCarloEstimate,
    SimConfig,
    Topology,
    isolation_count,
    run_monte_carlo,
    sample_topology,
)
from .specialfn import log_factorial

__version__ = "0.1.0"

"""Learned power allocation for latency-optimal HARQ over correlated fading."""

from .analytics import (analytic_chain, correlation_factor, evaluate,
                        rate_factors)
from .gcn import (GcnWeights, forward, init_weights, load_checkpoint,
                  save_checkpoint)
from .graph import batch_adjacency, normalize_adjacency, session_adjacency
from .montecarlo import (McEstimate, estimate_outage_conditional,
                         estimate_profile, outage_event, sample_channel_coeffs)
from .oracle import (ComplexityGuard, GridInfeasible, GridSpec, OracleResult,
                     default_grid, grid_search)
from .training import (TrainConfig, TrainResult, TrainingDiverged,
                       evaluate_policy, train, train_stack)
from .types import (OUTAGE_CAP, P_MIN_WATTS, ChannelParams, LinkConfig,
                    PerformanceReport, PowerPolicy, Scheme, dbw_to_watts)

__version__ = "0.1.0"

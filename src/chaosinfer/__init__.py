"""Instrument design and Bayesian Markov-chain inference for noisy chaotic maps.

Two-step workflow: pick the binary measurement partition of the unit interval
that maximizes the information rate of the symbol stream, then infer the most
compact Markov chain that explains that stream.  Building blocks: noisy map
simulation with a Lyapunov benchmark, threshold symbolization, transition
counts, closed-form Dirichlet-multinomial evidence, order selection under a
model-size penalty, and digamma-based entropy-rate estimates.
"""

from .counts import (
    CountTable,
    grid_transition_counts,
    transition_counts,
)
from .dynamics import (
    MapSpec,
    NoiseSpec,
    Trajectory,
    generate_trajectory,
    lyapunov_exponent,
    map_derivative,
)
from .entropy import (
    EntropyEstimate,
    digamma,
    expected_info,
)
from .inference import (
    DirichletPrior,
    LogEvidence,
    log_evidence,
    uniform_prior,
)
from .order_select import (
    OrderPosterior,
    OrderRange,
    model_size,
    order_log_evidences,
    order_log_prior,
    order_posterior,
    posterior_over_orders,
    rank_orders,
)
from .symbolize import PartitionSpec, SymbolSequence, decision_grid, symbolize
from .sweep import (
    ConfigError,
    DetailRow,
    SweepConfig,
    SweepResult,
    SweepRow,
    emit,
    emit_detail,
    load_sweep_json,
    run_sweep,
)

__version__ = "0.1.0"

"""Desk-scale simulator for communication-compressed decentralized SGD.

Builds gossip topologies, unbiased stochastic compressors and synthetic
objectives, simulates five training algorithms over them (uncompressed and
centralized baselines, naive model compression, difference compression,
extrapolation compression), evaluates the matching rate theory, and models
communication time analytically.
"""

from .compression import (
    Compressor, bits_transmitted, compress, effective_alpha, identity,
    random_sparsify, stochastic_quantize, synthetic_noise,
)
from .config import RunConfig, parse_config, serialize_config
from .costmodel import NetworkSpec, epoch_time_allreduce, epoch_time_decentralized
from .engine import (
    RunResult, TraceRecord, WorldState, estimate_error_trace, init_state, metrics, round_step, run,
)
from .errors import (
    ConfigError, DivergedError, InfeasibleError, InputError, TopologyError,
)
from .problems import Problem, make_logistic, make_quadratic
from .theory import RateConstants, constants, dcd_feasible, gamma_dcd, gamma_ecd, rate_envelope
from .topology import MixingMatrix, build_custom, build_fully_connected, build_ring, spectral_stats

__version__ = "0.1.0"

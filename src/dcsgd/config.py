"""Run configuration: parsing, validation, defaulting, and object builders.

Configs are JSON documents with the sections below; unknown keys are
rejected by name so typos fail loudly.  ``gamma`` may be an explicit
positive number or the string "theory", which resolves through the rate
theory for the configured algorithm and is echoed into output metadata.

    {
      "algorithm":  "dpsgd" | "naive" | "dcd" | "ecd" | "centralized",
      "topology":   {"kind": "ring" | "complete" | "custom", "n": 8,
                     "edges": [[0,1], ...], "self_weights": [...]},
      "problem":    {"kind": "quadratic", "dim": 16, "heterogeneity": 0.0, "noise": 0.0}
                 or {"kind": "logistic", "dim": 8, "samples_per_node": 32,
                     "separation": 1.0, "reg": 0.1},
      "compressor": {"kind": "identity"}
                 or {"kind": "quantize", "levels": 127}
                 or {"kind": "sparsify", "keep_prob": 0.25}
                 or {"kind": "synthetic", "noise_bound": 1.0},
      "gamma": "theory", "T": 1000, "seed": 0, "trace_every": 10,
      "grad_threshold": 1e-6, "z_norm_cap": 1e9,
      "network": {"model_dim": 270000, "steps_per_epoch": 98, "compute_s": 0.15,
                  "degree": 2, "bandwidths": [...], "latencies": [...]}
    }

A ``RunConfig`` is valid by construction: however it was made, it runs
``validate_config``, the one home of the field rules.  A ``TopologySpec``
builds its mixing matrix once and keeps it; validation builds a custom
graph (a disconnected one fails there) and only counts a ring's nodes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cached_property

import numpy as np

from . import compression, costmodel, problems, theory, topology
from .compression import Compressor, effective_alpha
from .engine import ALGORITHMS
from .errors import ConfigError, TopologyError


@dataclass(frozen=True)
class TopologySpec:
    kind: str = "ring"
    n: int = 8
    edges: tuple = ()
    self_weights: tuple = ()

    @cached_property
    def matrix(self) -> topology.MixingMatrix:
        """The spec's mixing matrix, built on first use and kept with the spec."""
        if self.kind == "ring":
            return topology.build_ring(self.n)
        if self.kind == "complete":
            return topology.build_fully_connected(self.n)
        if self.kind == "custom":
            if not self.edges:
                raise ConfigError("custom topology needs a nonempty 'edges' list")
            return topology.build_custom(self.n, list(self.edges), self.self_weights or None)
        raise ConfigError(f"topology kind must be ring, complete or custom, got {self.kind!r}")


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "quadratic"
    dim: int = 16
    heterogeneity: float = 0.0
    noise: float = 0.0
    samples_per_node: int = 32
    separation: float = 1.0
    reg: float = 0.1


@dataclass(frozen=True)
class CompressorSpec:
    kind: str = "identity"
    levels: int = 127
    keep_prob: float = 0.25
    noise_bound: float = 1.0  # variance bound b^2 of the synthetic operator


@dataclass(frozen=True)
class NetworkConfig:
    model_dim: int = 270_000
    steps_per_epoch: int = 98
    compute_s: float = 0.15
    degree: int = 2
    bandwidths: tuple = costmodel.DEFAULT_BANDWIDTHS
    latencies: tuple = costmodel.DEFAULT_LATENCIES


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    topology: TopologySpec = field(default_factory=TopologySpec)  # keeps its matrix: not shared
    problem: ProblemSpec = ProblemSpec()
    compressor: CompressorSpec = CompressorSpec()
    gamma: float | str = "theory"
    T: int = 1000
    seed: int = 0
    trace_every: int = 10
    grad_threshold: float = 1e-6
    z_norm_cap: float = 1e9
    network: NetworkConfig = NetworkConfig()

    def __post_init__(self) -> None:
        validate_config(self)


def config_from_dict(doc: dict) -> RunConfig:
    """Build and validate a RunConfig from a plain dict.

    Its keys are RunConfig's fields; a field whose default is a dataclass is
    a section, an object of that dataclass's fields."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    kwargs = {"algorithm": ""}  # validate_config names a missing algorithm
    for f in fields(RunConfig):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if not is_dataclass(default):
            if f.name in doc:
                kwargs[f.name] = doc[f.name]
            continue
        sub = doc.get(f.name, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"section {f.name!r} must be an object")
        bad = sorted(set(sub) - {g.name for g in fields(default)})
        if bad:
            raise ConfigError(f"unknown key(s) in {f.name!r}: {', '.join(bad)}")
        # lists become tuples, an edge list a tuple of tuples; validate_config
        # checks their shapes and types
        sub = {k: tuple(tuple(e) if k == "edges" and isinstance(e, list) else e for e in v)
               if isinstance(v, list) else v for k, v in sub.items()}
        kwargs[f.name] = type(default)(**sub)
    return RunConfig(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document into a validated RunConfig."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON form (tuples become lists); parse(serialize(cfg)) == cfg."""
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)


def validate_config(cfg: RunConfig) -> None:
    """Raise ConfigError on anything a run could not execute; every RunConfig runs it."""
    if not cfg.algorithm:
        raise ConfigError("missing required key 'algorithm'")
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {cfg.algorithm!r}")
    _check_int("T", cfg.T, 0)
    _check_int("seed", cfg.seed, 0)
    _check_int("trace_every", cfg.trace_every, 1)
    if cfg.gamma != "theory" and not (_is_finite(cfg.gamma) and cfg.gamma > 0):
        raise ConfigError(f"gamma must be a finite number > 0 or 'theory', got {cfg.gamma!r}")
    _check_real("grad_threshold", cfg.grad_threshold, 0.0)
    _check_positive("z_norm_cap", cfg.z_norm_cap)

    _check_int("topology n", cfg.topology.n, 2)
    for name in ("edges", "self_weights"):
        value = getattr(cfg.topology, name)
        if not isinstance(value, tuple):
            raise ConfigError(f"topology {name} must be a list")
        if value and cfg.topology.kind in ("ring", "complete"):
            raise ConfigError(f"topology {name} applies to kind 'custom' only, "
                              f"not {cfg.topology.kind!r}")
    for edge in cfg.topology.edges:
        if not (isinstance(edge, tuple) and len(edge) == 2):
            raise ConfigError(f"each topology edge must be a pair [i, j], got {edge!r}")
        for end in edge:
            _check_int("topology edge end", end, 0)
    for weight in cfg.topology.self_weights:
        _check_real("topology self_weights entry", weight)
    try:
        if cfg.topology.kind in ("ring", "complete"):
            topology.check_nodes(cfg.topology.kind, cfg.topology.n)  # valid by construction
        else:
            build_topology(cfg.topology)  # validates structure and connectivity
    except TopologyError as exc:
        raise ConfigError(f"topology: {exc}") from exc
    _check_int("levels", cfg.compressor.levels, 1)
    _check_real("keep_prob", cfg.compressor.keep_prob)
    _check_real("noise_bound", cfg.compressor.noise_bound, 0.0)
    c = build_compressor(cfg.compressor)
    net = cfg.network
    for name in ("model_dim", "steps_per_epoch", "degree"):
        _check_int(name, getattr(net, name), 1)
    _check_real("compute_s", net.compute_s, 0.0)
    for name in ("bandwidths", "latencies"):
        values = getattr(net, name)
        if not (isinstance(values, tuple) and values):
            raise ConfigError(f"network {name} must be a nonempty list of numbers, got {values!r}")
    for value in net.bandwidths:
        _check_positive("network bandwidths entry", value)
    for value in net.latencies:
        _check_real("network latencies entry", value, 0.0)
    if cfg.problem.kind not in ("quadratic", "logistic"):
        raise ConfigError(f"problem kind must be quadratic or logistic, got {cfg.problem.kind!r}")
    _check_int("problem dim", cfg.problem.dim, 1)
    _check_int("samples_per_node", cfg.problem.samples_per_node, 1)
    for name in ("heterogeneity", "noise", "reg"):
        _check_real(name, getattr(cfg.problem, name), 0.0)
    _check_real("separation", cfg.problem.separation)
    if cfg.algorithm == "dcd" and not math.isfinite(effective_alpha(c, cfg.problem.dim)):
        raise ConfigError(
            f"algorithm 'dcd' needs a compressor with a finite noise-to-signal "
            f"bound; {cfg.compressor.kind!r} has none"
        )


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless value is an integer >= minimum that fits a float."""
    # bool is an int subclass, but "T": true is a typo, not a count
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    # every count meets float arithmetic somewhere (alpha = sqrt(dim) / levels)
    if value > sys.float_info.max:
        raise ConfigError(
            f"{name} must fit in a float, got an integer of {len(str(value))} digits")


def _check_positive(name: str, value) -> None:
    if not (_is_finite(value) and value > 0):
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")


def _check_real(name: str, value, minimum: float | None = None) -> None:
    if not _is_finite(value) or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be a finite number{floor}, got {value!r}")


def _is_finite(value) -> bool:
    # NaN, infinities and integers beyond the float range fail the abs test
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_run(cfg: RunConfig, W: topology.MixingMatrix | None = None):
    """Topology, problem, compressor and per-node stream seed of one run.

    The master seed spawns the problem stream and the simulation seed, so
    every caller that builds a run here sees the same problem.  A batch of
    trials on one topology passes the topology built for its first trial.
    """
    problem_ss, state_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    W = build_topology(cfg.topology) if W is None else W
    problem = build_problem(cfg.problem, W.n, np.random.Generator(np.random.Philox(problem_ss)))
    c = build_compressor(cfg.compressor)
    return W, problem, c, state_ss


def build_topology(spec: TopologySpec) -> topology.MixingMatrix:
    """The spec's mixing matrix: built on the first call, the same object after."""
    return spec.matrix


# The config fields that can push each family's constants out of the float
# range (a quadratic's L is at most 2 by construction).
_CONSTANT_FIELDS = {
    "quadratic": {"sigma2": "noise", "zeta2": "heterogeneity", "f_star": "heterogeneity"},
    "logistic": dict.fromkeys(("L", "sigma2", "zeta2"), "separation or reg"),
}


def build_problem(spec: ProblemSpec, n: int, rng: np.random.Generator) -> problems.Problem:
    """The configured problem; ConfigError when one of its constants is not finite."""
    # an overflow shows up as a non-finite constant, checked below
    with np.errstate(all="ignore"):
        if spec.kind == "quadratic":
            problem = problems.make_quadratic(
                spec.dim, n, heterogeneity=spec.heterogeneity, noise=spec.noise, rng=rng
            )
        else:
            problem = problems.make_logistic(
                spec.dim, n, spec.samples_per_node, separation=spec.separation,
                rng=rng, reg=spec.reg,
            )
    for name, field_name in _CONSTANT_FIELDS[spec.kind].items():
        value = getattr(problem, name)
        if not math.isfinite(value):
            raise ConfigError(
                f"problem constant {name} is not finite ({value!r}); "
                f"the problem's {field_name} is too large")
    return problem


def build_compressor(spec: CompressorSpec) -> Compressor:
    if spec.kind == "identity":
        return compression.identity()
    if spec.kind == "quantize":
        return compression.stochastic_quantize(spec.levels)
    if spec.kind == "sparsify":
        return compression.random_sparsify(spec.keep_prob)
    if spec.kind == "synthetic":
        return compression.synthetic_noise(spec.noise_bound)
    raise ConfigError(
        f"compressor kind must be identity, quantize, sparsify or synthetic, got {spec.kind!r}"
    )


def resolve_gamma(cfg: RunConfig, problem, W, c: Compressor) -> float:
    """Explicit gamma, or the algorithm's theoretical step size.

    ecd takes the extrapolation-family rule; every other algorithm takes the
    difference-family rule at its own (rho, alpha): alpha is the
    compressor's bound for dcd and 0 otherwise, rho is 0 for the
    centralized baseline.
    """
    if not isinstance(cfg.gamma, str):
        return float(cfg.gamma)
    rho = 0.0 if cfg.algorithm == "centralized" else W.rho
    alpha = effective_alpha(c, problem.dim) if cfg.algorithm == "dcd" else 0.0
    consts = theory.constants(rho, W.mu, alpha, problem.L, gamma=0.0)
    args = (problem.L, math.sqrt(problem.sigma2), math.sqrt(problem.zeta2), W.n, max(cfg.T, 1))
    if cfg.algorithm == "ecd":
        gamma = theory.gamma_ecd(*args, C1=consts.C1)
    else:
        gamma = theory.gamma_dcd(*args, D1=consts.D1, D2=consts.D2)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ConfigError(
            f"theory step size gamma resolved to {gamma!r}, not a finite number > 0; "
            "the problem's constants are too large")
    return gamma

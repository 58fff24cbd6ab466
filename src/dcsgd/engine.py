"""Synchronous-round simulation of the five training algorithms.

State layout follows the matrix view of decentralized optimization: the
(dim, n) matrix X holds one local model per column, and one synchronous
round maps X to X W - gamma G(X) plus an algorithm-specific compression
term.  The four gossip algorithms share one kernel, :func:`gossip_step`:

    delta = S @ W - gamma * G - X,   X_new = X + delta

where S is what each node sees of its neighbors (true models, compressed
models, replicas, or estimates); the ``*_step`` functions wrap it.  The
difference form makes the collapse exact: with the identity compressor
naive, dcd and ecd reproduce dpsgd bit for bit from identical streams,
because their compression terms vanish exactly.

Randomness: every (node, purpose) pair owns an independent counter-based
stream (Philox) derived from the master seed, so node-parallel evaluation
could never change results.  Compression runs once per round, over the
whole (dim, n) message matrix, with column i drawing from node i's stream.
Rounds are synchronous by construction; each step reads the frozen
previous round and writes disjoint columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import compression, theory
from .compression import Compressor, bits_transmitted, compress
from .errors import ConfigError, DivergedError, InputError
from .problems import Problem
from .topology import MixingMatrix

LOSS_CAP = 1e12  # a run whose loss passes this is declared diverged


@dataclass
class StepStats:
    """Per-transition quantities recorded by every step function.

    q_norm2 / q_bar describe the effective compression noise Q_t in the
    common update form X_{t+1} = X_t W - gamma G + Q_t; g_norm2 / g_bar
    describe the stochastic gradient matrix.  bits is the total traffic of
    the round over all links.
    """

    q_norm2: float
    g_norm2: float
    bits: int
    q_bar: np.ndarray
    g_bar: np.ndarray


@dataclass
class WorldState:
    """Mutable simulation state: models plus per-algorithm auxiliaries.

    X holds column-per-node models.  For difference compression,
    ``replicas`` mirrors each node's publicly known copy; both advance by
    the same compressed messages, so they stay exactly equal.  For
    extrapolation compression, estimates are tracked in error form:
    the estimate matrix is X + estimate_err, which keeps the error exactly
    zero under lossless compression.
    """

    algorithm: str
    n: int
    t: int
    X: np.ndarray
    sample_rngs: list
    compress_rngs: list
    replicas: np.ndarray | None = None
    estimate_err: np.ndarray | None = None
    bits_total: int = 0
    status: str = "running"
    last_step: StepStats | None = field(default=None, repr=False)

    @property
    def estimates(self) -> np.ndarray | None:
        """Neighbor-estimate matrix (extrapolation compression only)."""
        if self.estimate_err is None:
            return None
        return self.X + self.estimate_err


@dataclass
class TraceRecord:
    t: int
    loss: float
    grad_norm2: float
    consensus: float
    q_norm2: float
    g_norm2: float
    bits: int  # cumulative

    FIELDS = ("t", "loss", "grad_norm2", "consensus", "q_norm2", "g_norm2", "bits")


@dataclass
class RunSummary:
    status: str
    iterations: int
    gamma: float
    seed: int
    final_loss: float
    final_grad_norm2: float
    final_consensus: float
    min_grad_norm2: float
    time_to_threshold: int | None
    total_bits: int


@dataclass
class RunResult:
    records: list
    summary: RunSummary


ALGORITHMS = ("dpsgd", "naive", "dcd", "ecd", "centralized")


def init_state(problem: Problem, n: int, algorithm: str, seed) -> WorldState:
    """Fresh state at the common zero initial point with per-node streams."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if n != problem.n:
        raise ConfigError(f"problem has {problem.n} nodes but topology has {n}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(2 * n)
    sample_rngs = [np.random.Generator(np.random.Philox(c)) for c in children[:n]]
    compress_rngs = [np.random.Generator(np.random.Philox(c)) for c in children[n:]]
    cols = 1 if algorithm == "centralized" else n
    X = np.zeros((problem.dim, cols))
    state = WorldState(
        algorithm=algorithm, n=n, t=1, X=X,
        sample_rngs=sample_rngs, compress_rngs=compress_rngs,
    )
    if algorithm == "dcd":
        state.replicas = X.copy()
    if algorithm == "ecd":
        state.estimate_err = np.zeros_like(X)
    return state


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


def gossip_step(
    algorithm: str, state: WorldState, W: MixingMatrix, c: Compressor, problem: Problem,
    gamma: float, z_norm_cap: float = math.inf,
) -> WorldState:
    """One synchronous round of dpsgd, naive, dcd or ecd.

    The algorithms differ only in what neighbors see and the noise Q_t they
    record: dpsgd sees X and sends full precision whatever ``c`` is; naive
    sees C(X); dcd sees the replicas and advances models and replicas by
    C(delta); ecd sees X + E and folds the compressed extrapolated model
    into E with weight 2/s.  A round whose broadcast is non-finite, or for
    ecd exceeds ``z_norm_cap`` in norm, commits X + delta and marks the
    state diverged.
    """
    if W.n != state.n:
        raise ConfigError(f"topology has {W.n} nodes but state has {state.n}")
    if gamma < 0.0:
        raise InputError(f"gamma must be >= 0, got {gamma}")
    if state.status == "diverged":
        raise DivergedError("state has already diverged")
    X = state.X
    if algorithm == "dpsgd":
        c = compression.identity()
        seen, Q = X, np.zeros_like(X)
    elif algorithm == "naive":
        seen = compress(c, X, state.compress_rngs)
        Q = seen - X
    elif algorithm == "dcd":
        if not math.isfinite(c.alpha_bound(problem.dim)):
            raise ConfigError(
                f"difference compression needs a finite noise-to-signal bound; "
                f"{c.kind!r} has none"
            )
        # Q stays zero only if the round diverges before the exchange
        seen, Q = state.replicas, np.zeros_like(X)
    elif algorithm == "ecd":
        seen, Q = X + state.estimate_err, state.estimate_err @ W.entries
    else:
        raise ConfigError(f"{algorithm!r} is not a gossip algorithm")
    G = problem.stochastic_gradients(X, state.sample_rngs)
    delta = seen @ W.entries - gamma * G - X
    X_new = X + delta
    bits = 2 * W.num_edges * bits_transmitted(c, problem.dim)  # one message per edge end
    if algorithm in ("dpsgd", "naive"):
        return _commit(state, X_new, Q, G, bits)

    s = state.t + 1
    Z = delta if algorithm == "dcd" else _extrapolate(X, X_new, s)
    if not np.all(np.isfinite(Z)) or (
        algorithm == "ecd" and np.max(np.sum(Z * Z, axis=0)) > z_norm_cap * z_norm_cap
    ):
        # nothing sane to broadcast: overflowed or past the input-norm guard
        _commit(state, X_new, Q, G, bits)
        state.status = "diverged"
        return state
    CZ = compress(c, Z, state.compress_rngs)
    if algorithm == "ecd":
        state.estimate_err = _fold(state.estimate_err, CZ - Z, s)
        return _commit(state, X_new, Q, G, bits)
    state.replicas = state.replicas + CZ
    _commit(state, X + CZ, CZ - Z, G, bits)
    if state.status != "diverged":
        drift = np.max(np.abs(state.replicas - state.X))
        if drift != 0.0:
            raise AssertionError(f"replica drifted from its owner by {drift}")
    return state


def dpsgd_step(state: WorldState, W: MixingMatrix, problem: Problem, gamma: float) -> WorldState:
    """One uncompressed gossip round: X <- X W - gamma G(X)."""
    return gossip_step("dpsgd", state, W, compression.identity(), problem, gamma)


def naive_step(
    state: WorldState, W: MixingMatrix, c: Compressor, problem: Problem, gamma: float
) -> WorldState:
    """Gossip over directly compressed models: X <- C(X) W - gamma G(X).

    The recorded noise Q = C(X) - X scales with the models themselves, so it
    never diminishes; this step exists as the divergence counterexample.
    """
    return gossip_step("naive", state, W, c, problem, gamma)


def dcd_step(
    state: WorldState, W: MixingMatrix, c: Compressor, problem: Problem, gamma: float
) -> WorldState:
    """Difference-compression round.

    Each node averages its neighbor replicas, takes the gradient step,
    compresses the difference z to its previous model, and applies C(z) to
    both its model and every replica of it.  Owner and replicas advance by
    the same message, so they remain exactly equal; the recorded noise is
    Q = C(Z) - Z with Z = X(W - I) - gamma G.
    """
    return gossip_step("dcd", state, W, c, problem, gamma)


def ecd_step(
    state: WorldState,
    W: MixingMatrix,
    c: Compressor,
    problem: Problem,
    gamma: float,
    z_norm_cap: float = math.inf,
) -> WorldState:
    """Extrapolation-compression round.

    Nodes average their current neighbor estimates, take the gradient step
    at the local model, then broadcast one compressed extrapolated value
    z_s = (1 - s/2) x_{s-1} + (s/2) x_s for s = t + 1; receivers fold it
    into the estimate with weight 2/s.  Estimates start exact (x~_1 = x_1)
    and their mean squared error decays like 1/t under bounded compression
    noise.  The recorded effective noise is (X~ - X) W.

    ``z_norm_cap`` guards compressors whose noise grows with the input (the
    sparsifier): the run is declared diverged when any broadcast z exceeds
    it in norm.
    """
    return gossip_step("ecd", state, W, c, problem, gamma, z_norm_cap)


def centralized_step(state: WorldState, problem: Problem, gamma: float) -> WorldState:
    """Fully synchronized baseline: one shared model, allreduce-averaged gradients."""
    if gamma < 0.0:
        raise InputError(f"gamma must be >= 0, got {gamma}")
    x = state.X[:, 0]
    X_rep = np.repeat(x[:, None], state.n, axis=1)
    G = problem.stochastic_gradients(X_rep, state.sample_rngs)
    x_new = x - gamma * G.mean(axis=1)
    bits = 2 * (state.n - 1) * compression.FULL_PRECISION_BITS * problem.dim
    Q = np.zeros((problem.dim, state.n))
    return _commit(state, x_new[:, None], Q, G, bits)


def _commit(state: WorldState, X_new, Q, G, bits: int) -> WorldState:
    state.last_step = StepStats(
        q_norm2=float(np.sum(Q * Q)),
        g_norm2=float(np.sum(G * G)),
        bits=bits,
        q_bar=Q.mean(axis=1),
        g_bar=G.mean(axis=1),
    )
    state.X = X_new
    state.t += 1
    state.bits_total += bits
    if not np.all(np.isfinite(X_new)):
        state.status = "diverged"
    return state


def _extrapolate(x_prev: np.ndarray, x: np.ndarray, s: int) -> np.ndarray:
    """Extrapolated value z_s = (1 - s/2) x_{s-1} + (s/2) x_s."""
    return (1.0 - 0.5 * s) * x_prev + (0.5 * s) * x


def _fold(estimate: np.ndarray, message: np.ndarray, s: int) -> np.ndarray:
    """Estimate update (1 - 2/s) estimate + (2/s) message."""
    return (1.0 - 2.0 / s) * estimate + (2.0 / s) * message


# ---------------------------------------------------------------------------
# metrics and the driver loop
# ---------------------------------------------------------------------------


def metrics(state: WorldState, problem: Problem) -> tuple[float, float, float]:
    """(loss, squared gradient norm, consensus error) at the current average model."""
    x_bar = state.X.mean(axis=1)
    loss = problem.loss(x_bar)
    g = problem.grad_mean(x_bar)
    consensus = float(np.sum((state.X - x_bar[:, None]) ** 2))
    return loss, float(g @ g), consensus


def run(config) -> RunResult:
    """Execute one configured run; deterministic given the master seed.

    The master seed spawns the problem-construction stream and the per-node
    simulation streams, so identical configs give bit-identical traces.
    Divergence (non-finite iterates or loss above 1e12) stops the loop with
    the partial trace retained.
    """
    from .config import build_run, resolve_gamma

    W, problem, c, state_ss = build_run(config)
    gamma = resolve_gamma(config, problem, W, c)

    if config.algorithm == "dcd":
        alpha = c.alpha_bound(problem.dim)
        if math.isfinite(alpha) and not theory.dcd_feasible(W.rho, W.mu, alpha):
            warnings.warn(
                f"difference compression budget violated: alpha = {alpha:.4g} "
                f">= (1-rho)/(2 mu) = {(1 - W.rho) / (2 * W.mu):.4g}; "
                "proceeding to demonstrate divergence",
                stacklevel=2,
            )
    z_norm_cap = float(config.z_norm_cap) if c.kind == "sparsify" else math.inf

    state = init_state(problem, W.n, config.algorithm, state_ss)
    records: list[TraceRecord] = []
    min_grad_norm2 = math.inf
    time_to_threshold = None
    status = "completed"
    iterations = 0

    # blow-up is detected from the values, so numpy's overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.T + 1):
            loss, grad_norm2, consensus = metrics(state, problem)
            if not math.isfinite(loss) or loss > LOSS_CAP:
                status = "diverged"
                break
            min_grad_norm2 = min(min_grad_norm2, grad_norm2)
            if time_to_threshold is None and grad_norm2 <= config.grad_threshold:
                time_to_threshold = t
            if config.algorithm == "centralized":
                centralized_step(state, problem, gamma)
            else:
                gossip_step(config.algorithm, state, W, c, problem, gamma, z_norm_cap)
            iterations = t
            if (t - 1) % config.trace_every == 0 or t == config.T:
                records.append(TraceRecord(
                    t=t, loss=loss, grad_norm2=grad_norm2, consensus=consensus,
                    q_norm2=state.last_step.q_norm2, g_norm2=state.last_step.g_norm2,
                    bits=state.bits_total,
                ))
            if state.status == "diverged":
                status = "diverged"
                break

        if status == "completed":
            final_loss, final_grad_norm2, final_consensus = metrics(state, problem)
            if not math.isfinite(final_loss) or final_loss > LOSS_CAP:
                status = "diverged"
            else:
                min_grad_norm2 = min(min_grad_norm2, final_grad_norm2)
                if time_to_threshold is None and final_grad_norm2 <= config.grad_threshold:
                    time_to_threshold = config.T + 1
    if status == "diverged":
        final_loss = final_grad_norm2 = final_consensus = math.inf

    summary = RunSummary(
        status=status,
        iterations=iterations,
        gamma=gamma,
        seed=config.seed,
        final_loss=final_loss,
        final_grad_norm2=final_grad_norm2,
        final_consensus=final_consensus,
        min_grad_norm2=min_grad_norm2 if math.isfinite(min_grad_norm2) else math.inf,
        time_to_threshold=time_to_threshold,
        total_bits=state.bits_total,
    )
    return RunResult(records=records, summary=summary)


# ---------------------------------------------------------------------------
# extrapolation estimate harness
# ---------------------------------------------------------------------------


def estimate_error_trace(
    x_seq: np.ndarray, c: Compressor, T: int, rng: np.random.Generator
) -> np.ndarray:
    """Squared estimate error over time for a given model sequence.

    Runs only the estimate machinery against externally supplied models
    x_1..x_T (a single vector means a frozen model), starting from the exact
    estimate x~_1 = x_1:

        z_t  = (1 - t/2) x_{t-1} + (t/2) x_t
        x~_t = (1 - 2/t) x~_{t-1} + (2/t) C(z_t)

    Returns err2[t-1] = ||x~_t - x_t||^2 for t = 1..T.  Under compression
    noise of variance at most v per call, the mean of err2[t-1] is bounded
    by 2 v / t.
    """
    x_seq = np.asarray(x_seq, dtype=float)
    if x_seq.ndim == 1:
        x_seq = np.repeat(x_seq[None, :], T, axis=0)
    if x_seq.shape[0] < T:
        raise InputError(f"need at least T={T} models, got {x_seq.shape[0]}")
    estimate = x_seq[0].copy()
    err2 = np.empty(T)
    err2[0] = 0.0
    for t in range(2, T + 1):
        z = _extrapolate(x_seq[t - 2], x_seq[t - 1], t)
        estimate = _fold(estimate, compress(c, z, rng), t)
        diff = estimate - x_seq[t - 1]
        err2[t - 1] = float(diff @ diff)
    return err2

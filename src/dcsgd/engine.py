"""Synchronous-round simulation of the five training algorithms.

State layout follows the matrix view of decentralized optimization: the
(dim, n) matrix X holds one local model per column, and one synchronous
round maps X to X W - gamma G(X) plus an algorithm-specific compression
term.  One function, :func:`round_step`, advances a state of any of the
five by a round, reading the algorithm from the state.  The four gossip
algorithms share one kernel:

    delta = S @ W - gamma * G - X,   X_new = X + delta

where S is what each node sees of its neighbors (true models, compressed
models, replicas, or estimates); the centralized baseline keeps one model
and averages the nodes' gradients.  dcd's replicas equal the models by
construction, so dcd mixes X (a reference test with explicit replicas pins
this).  The difference form makes the collapse exact: with the identity
compressor naive, dcd and ecd reproduce dpsgd bit for bit from identical
streams, because their compression terms vanish exactly.

Trial axis: :func:`run` takes one config or a batch of configs that differ
only in ``seed`` and ``gamma``, and runs the batch as one stacked state, X
of shape (S, dim, n) over a stacked problem (``problems.stack_problems``)
with one gamma per trial.  Each round is one ``round_step``: one
``W.mix(seen)`` over the (S, dim, n) stack, one oracle call and one
compression call; after round T, one last pass of the loop measures the
trials still running and completes them.  ``MixingMatrix.mix`` applies a
W with few nonzero diagonals against n (a ring of n >= 192) as a sum over
those diagonals, elementwise, and any other W as the stacked dense
product ``seen @ W`` (the BLAS call a solo run makes, once per trial);
either way each trial gets the bits of its solo run.  Every reduction is
taken per trial, so each trial's records and summary are bit for bit
those of its solo run; a trial that diverges is summarized and dropped,
so its streams are never drawn again.  A single config is the S = 1 case
of the same loop.  ``dcsgd sweep`` runs its seed and gamma axes
as such batches; its n and levels axes change shapes and run one by one.

Randomness: every (trial, node, purpose) triple owns an independent
counter-based stream (Philox) derived from the trial's master seed, so
node- or trial-parallel evaluation could never change results.  The
streams of one purpose, the oracle or compression, form a
``streams.StreamSet``: each refill draws every stream's next K rounds with
one call into a (S * n, K, width) block, and each round reads one
(S * n, width) slab of it.  A Philox stream gives the same values in one
call of K * width as in K calls of width, so a run's draws are bit for bit
those of per-round drawing; ``run`` sizes K from its remaining rounds and
a fixed value budget, while a state from ``init_state`` alone draws one
round at a time.  A set whose rounds are so wide that the budget sets K (a
ring of 1024 at dim 64) draws its next block on a background thread while
the current rounds compute.  Each stream still draws its values in order,
so no value changes; the thread is joined at the next refill, when a trial
retires, or when the state is dropped.  A purpose that never draws
(identity compression, a noise-free quadratic oracle) never builds its
Generators, and a retiring trial's rows are sliced out of the blocks.
Compression runs once per round, over the whole message matrix, with each
column reading its node's row of the slab.  Rounds are synchronous by
construction; each step reads the frozen previous round and writes
disjoint columns.

Non-finite values: on ``run``'s path they are caught inside
``round_step``, at two sites.  For dcd and ecd the broadcast Z is scanned
before it is compressed (ecd also caps its norm), and ``_commit`` scans the
new X; either marks the trial diverged, and ``run`` retires it at its next
pass before it steps again.  So the oracle (``Problem._samples``) and the
compressor (``compression._compress``) only see inputs already known to be
finite, or zeroed for a bad trial, and do not scan them again.  The library
entry points keep their own checks: ``Problem.stochastic_gradients`` raises
DivergedError and ``compress`` raises InputError on non-finite input, and
``round_step`` raises DivergedError on a state already marked diverged.  A
state whose X a caller made non-finite by hand is marked diverged by that
round's ``_commit``, and the next ``round_step`` raises.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import compression, theory
from .compression import Compressor, bits_transmitted, compress, effective_alpha
from .errors import ConfigError, DivergedError, InputError
from .problems import Problem, _dot, _mean, stack_problems, take_trials
from .streams import StreamSet
from .topology import MixingMatrix

LOSS_CAP = 1e12  # a run whose loss passes this is declared diverged


@dataclass
class StepStats:
    """Per-round quantities that ``round_step`` records.

    q_norm2 / q_bar describe the effective compression noise Q_t in the
    common update form X_{t+1} = X_t W - gamma G + Q_t; g_norm2 / g_bar
    describe the stochastic gradient matrix.  bits is the total traffic of
    the round over all links.  For a stacked state each statistic holds one
    entry per trial.  Q is None when Q_t = 0.
    """

    q_norm2: float
    g_norm2: float
    bits: int
    Q: np.ndarray | None = field(repr=False)
    G: np.ndarray = field(repr=False)

    @property
    def q_bar(self) -> np.ndarray:
        return np.zeros(self.G.shape[:-1]) if self.Q is None else self.Q.mean(axis=-1)

    @property
    def g_bar(self) -> np.ndarray:
        return self.G.mean(axis=-1)


@dataclass
class WorldState:
    """Mutable simulation state: models plus per-algorithm auxiliaries.

    X holds column-per-node models.  dcd stores no replicas, which equal X
    by construction (a reference test with explicit replicas pins this).  For
    extrapolation compression, estimates are tracked in error form:
    the estimate matrix is X + estimate_err, which keeps the error exactly
    zero under lossless compression.  ``sample_streams`` feed the gradient
    oracle and ``compress_streams`` the compressor, one stream per node.
    A stacked state puts a leading trial axis on X, estimate_err and
    ``diverged``, and its stream sets list each trial's n streams one
    trial after another.
    """

    algorithm: str
    n: int
    t: int
    X: np.ndarray
    sample_streams: StreamSet
    compress_streams: StreamSet
    estimate_err: np.ndarray | None = None
    bits_total: int = 0
    diverged: np.ndarray = field(default_factory=lambda: np.array(False))
    last_step: StepStats | None = field(default=None, repr=False)

    @property
    def status(self) -> str:
        return "diverged" if np.count_nonzero(self.diverged) else "running"

    @property
    def estimates(self) -> np.ndarray | None:
        """Neighbor-estimate matrix (extrapolation compression only)."""
        return None if self.estimate_err is None else self.X + self.estimate_err


@dataclass(slots=True)
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


class RunResult:
    """Summary and per-round trace records of one run (one trial of a batch).

    ``records`` is built from the trace arrays on first use, so a caller
    that reads only summaries, as a sweep does, never builds it.
    """

    def __init__(self, summary: RunSummary, rounds: list, bits: list, values: np.ndarray):
        self.summary = summary
        # the trial's recorded rounds: t and cumulative bits, and a
        # (rows, 5) array of loss, grad_norm2, consensus, q_norm2, g_norm2
        self._rounds, self._bits, self._values = rounds, bits, values

    @functools.cached_property
    def records(self) -> list:
        """TraceRecords of the trial's recorded rounds."""
        return [TraceRecord(t, *row, bits)
                for t, bits, row in zip(self._rounds, self._bits, self._values.tolist())]


ALGORITHMS = ("dpsgd", "naive", "dcd", "ecd", "centralized")


def init_state(problem: Problem, n: int, algorithm: str, seed, rounds: int = 1) -> WorldState:
    """Fresh state at the common zero initial point with per-node streams.

    ``seed`` is an int or a SeedSequence; a list of them gives a stacked
    state for a stacked problem, trial s drawing from the streams of
    ``seed[s]``.  Node i's oracle stream is child i of ``seed.spawn(2 * n)``
    and its compression stream child n + i, so a SeedSequence passed in is
    advanced by 2 * n children; a child's Generator is built on its first
    draw.  ``rounds`` is how many rounds the state is expected to run: the
    streams draw up to that many rounds ahead in blocks (``dcsgd.streams``),
    which changes no value drawn.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if n != problem.n:
        raise ConfigError(f"problem has {problem.n} nodes but topology has {n}")
    seeds = seed if isinstance(seed, list) else [seed]
    trials = (len(seeds),) if isinstance(seed, list) else ()
    seqs = [s if isinstance(s, np.random.SeedSequence) else np.random.SeedSequence(s)
            for s in seeds]
    children = [ss.spawn(2 * n) for ss in seqs]
    sample = [c for cs in children for c in cs[:n]]
    comp = [c for cs in children for c in cs[n:]]
    cols = 1 if algorithm == "centralized" else n
    X = np.zeros(trials + (problem.dim, cols))
    return WorldState(
        algorithm=algorithm, n=n, t=1, X=X, sample_streams=StreamSet(sample, rounds),
        compress_streams=StreamSet(comp, rounds), diverged=np.zeros(trials, bool),
        estimate_err=np.zeros_like(X) if algorithm == "ecd" else None,
    )


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


def round_step(
    state: WorldState, W: MixingMatrix, c: Compressor, problem: Problem,
    gamma: float, z_norm_cap: float = math.inf,
) -> WorldState:
    """One synchronous round of the state's algorithm, ``state.algorithm``.

    Every algorithm is X <- X W - gamma G(X) + Q_t; they differ only in what
    neighbors see and in the noise Q_t they record:

    * dpsgd sees X, sent at full precision whatever ``c`` is.
    * naive sees C(X); Q = C(X) - X scales with the models and never
      diminishes, which makes naive the divergence counterexample.
    * dcd sees the replicas, which equal X by construction (a reference test
      with explicit replicas pins this), so it mixes X.  Each node compresses
      Z = X(W - I) - gamma G and applies C(Z) to its model and to every
      replica of it; Q = C(Z) - Z.  ``c`` needs a finite noise-to-signal bound.
    * ecd sees the estimates X + E.  Each node broadcasts one compressed
      extrapolated value z_s = (1 - s/2) x_{s-1} + (s/2) x_s, s = t + 1,
      which receivers fold into E with weight 2/s, so the estimate error
      decays like 1/t under bounded compression noise; Q = E W.
    * centralized keeps one model and averages the nodes' gradients; it
      reads only ``W.n`` and ignores ``c``.

    A trial whose broadcast is non-finite, or for ecd past ``z_norm_cap`` in
    norm (the sparsifier's noise grows with its input), commits X + delta,
    draws nothing for the exchange and is marked diverged; so is a trial
    whose new X is not finite.  These are the round's only scans for
    non-finite values (module docstring).  On a stacked
    state ``gamma`` broadcasts against X, one value per trial; unless each
    is finite and >= 0 the round raises InputError before drawing anything.
    """
    if W.n != state.n:
        raise ConfigError(f"topology has {W.n} nodes but state has {state.n}")
    gammas = np.asarray(gamma)
    if np.count_nonzero((gammas >= 0.0) & (gammas < math.inf)) < gammas.size:  # NaN fails both
        raise InputError(f"gamma must be finite and >= 0, got {gamma}")
    if state.status == "diverged":
        raise DivergedError("state has already diverged")
    algorithm = state.algorithm
    if algorithm == "dcd" and not math.isfinite(effective_alpha(c, problem.dim)):
        raise ConfigError(f"difference compression needs a finite noise-to-signal "
                          f"bound; {c.kind!r} has none")
    # the previous round's Q and G are two state-sized arrays; free them
    # before this round allocates its own
    state.last_step = None
    X = state.X
    if algorithm == "centralized":  # X is (..., dim, 1)
        G = problem._samples(np.repeat(X, state.n, axis=-1), state.sample_streams)
        bits = 2 * (state.n - 1) * compression.FULL_PRECISION_BITS * problem.dim
        return _commit(state, X - gamma * G.mean(axis=-1, keepdims=True), None, G, bits)
    # dpsgd and dcd see X (dcd's replicas equal it); dcd's Q_t stays zero for
    # a trial that diverges before the exchange
    seen, Q = X, None
    if algorithm == "dpsgd":
        c = compression.identity()
    elif algorithm == "naive":
        seen = compression._compress(c, X, state.compress_streams)
        Q = seen - X
    elif algorithm == "ecd":
        seen, Q = X + state.estimate_err, W.mix(state.estimate_err)
    elif algorithm != "dcd":
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    G = problem._samples(X, state.sample_streams)
    # seen W - gamma * G - X, left to right, in one buffer
    delta = W.mix(seen)
    delta -= gamma * G
    delta -= X
    X_new = X + delta
    bits = 2 * W.num_edges * bits_transmitted(c, problem.dim)  # one message per edge end
    if algorithm in ("dpsgd", "naive"):
        return _commit(state, X_new, Q, G, bits)

    s = state.t + 1
    Z = delta if algorithm == "dcd" else _extrapolate(X, X_new, s)
    # nothing sane to broadcast: overflowed or past the input-norm guard
    bad = ~np.logical_and.reduce(_per_trial(np.isfinite(Z)), axis=-1)
    if algorithm == "ecd":
        bad |= np.maximum.reduce(np.add.reduce(Z * Z, axis=-2), axis=-1) > z_norm_cap * z_norm_cap
    n_bad = np.count_nonzero(bad)
    if n_bad == bad.size:
        return _commit(state, X_new, Q, G, bits, bad)
    # the other trials exchange; a bad trial compresses zeros (its draws are
    # discarded with it) and Z stands in for its message, so dcd commits it
    # X + delta like the path above
    CZ = compression._compress(c, np.where(bad[..., None, None], 0.0, Z) if n_bad else Z,
                               state.compress_streams)
    if n_bad:
        CZ[bad] = Z[bad]
    if algorithm == "ecd":
        state.estimate_err = _fold(state.estimate_err, CZ - Z, s)
        return _commit(state, X_new, Q, G, bits, bad)
    Q = CZ - Z
    if n_bad:
        Q[bad] = 0.0
    return _commit(state, X + CZ, Q, G, bits, bad)


def _commit(state: WorldState, X_new, Q, G, bits: int, diverged=False) -> WorldState:
    # Q None is Q_t = 0: q_norm2 is +0.0 per trial (a scalar for a solo state)
    # np.add.reduce and np.logical_and.reduce are what .sum() and .all() call
    q_norm2 = (np.zeros(G.shape[:-2])[()] if Q is None
               else np.add.reduce(_per_trial(Q * Q), axis=-1))
    state.last_step = StepStats(q_norm2, np.add.reduce(_per_trial(G * G), axis=-1), bits, Q, G)
    state.X = X_new
    state.t += 1
    state.bits_total += bits
    state.diverged = diverged | ~np.logical_and.reduce(_per_trial(np.isfinite(X_new)), axis=-1)
    return state


def _per_trial(a: np.ndarray) -> np.ndarray:
    """(..., dim, k) as (..., dim * k): a reduction over the last axis is one
    per trial, adding in the order a whole-matrix reduction of a solo run does."""
    return a.reshape(a.shape[:-2] + (-1,))


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
    """(loss, squared gradient norm, consensus error) at the current average model.

    For a stacked state and problem each is an array with one entry per trial.
    """
    x_bar = _mean(state.X)
    loss = problem.loss(x_bar)
    g = problem.grad_mean(x_bar)
    dev = state.X - x_bar[..., None]
    dev *= dev
    return loss, _dot(g, g), np.add.reduce(_per_trial(dev), axis=-1)


def run(config):
    """Execute one configured run, or a batch of trials in one stacked pass.

    ``config`` is a RunConfig, or a list of RunConfigs that differ only in
    ``seed`` and ``gamma``; the batch shares the topology, compressor and
    horizon, and runs as one stacked state (module docstring).  Returns a
    RunResult, or a list of them in the order of the batch, each trial's
    records and summary bit for bit those of its solo run.  A batch holds
    S times one trial's arrays (problem, state, trace), so a caller sizes
    it to fit memory, as ``dcsgd sweep`` does (``cli._batch_size``).

    Each trial's master seed spawns its problem-construction stream and
    its per-node simulation streams, so identical configs give
    bit-identical traces.  Divergence (non-finite iterates or loss above
    1e12) stops that trial with its partial trace retained.
    """
    from .config import build_run, resolve_gamma

    batch = config if isinstance(config, list) else [config]
    if not batch:
        return []
    cfg = batch[0]
    if any(dataclasses.replace(b, seed=cfg.seed, gamma=cfg.gamma) != cfg for b in batch):
        raise ConfigError("the trials of a batch may differ only in seed and gamma")
    W, problems, seeds, gammas = None, [], [], []
    for trial in batch:
        W, problem, c, state_ss = build_run(trial, W)
        problems.append(problem)
        seeds.append(state_ss)
        gammas.append(resolve_gamma(trial, problem, W, c))
    problem = stack_problems(problems)
    del problems  # the stacked copy is the only one a batch keeps

    if cfg.algorithm == "dcd":
        alpha = effective_alpha(c, problem.dim)
        if not theory.dcd_feasible(W.rho, W.mu, alpha):
            warnings.warn(
                f"difference compression budget violated: alpha = {alpha:.4g} "
                f">= (1-rho)/(2 mu) = {(1 - W.rho) / (2 * W.mu):.4g}; "
                "proceeding to demonstrate divergence",
                stacklevel=2,
            )
    z_norm_cap = float(cfg.z_norm_cap) if c.kind == "sparsify" else math.inf

    # batch indices of the running trials, in state order, and per running
    # trial its least gradient norm so far and first round under the threshold
    S = len(batch)
    trials = np.arange(S)
    slots = slice(None)  # trials' columns of the trace buffer: all, until one retires
    gamma = np.array(gammas)[:, None, None]
    state = init_state(problem, W.n, cfg.algorithm, seeds, cfg.T)
    min_grad_norm2 = np.full(S, math.inf)
    time_to_threshold = np.full(S, -1)
    # recorded rounds: t and cumulative bits (shared by the batch), and per
    # trial one row of loss, grad_norm2, consensus, q_norm2, g_norm2; a
    # trial records every round from the first until it stops
    rounds, round_bits = [], []
    values = np.empty((min(cfg.T, 64), S, 5))
    rows = np.zeros(S, int)  # recorded rounds per trial, set when it stops
    summaries = [None] * S

    def retire(done, status, iterations, finals=None):
        """Summarize the running trials flagged in ``done`` and drop them from the state."""
        nonlocal trials, slots, gamma, problem, min_grad_norm2, time_to_threshold
        for k in np.flatnonzero(done):
            i, ttt = trials[k], int(time_to_threshold[k])
            summaries[i] = RunSummary(
                status, iterations, gammas[i], batch[i].seed,
                *((float(f[k]) for f in finals) if finals else (math.inf,) * 3),
                min_grad_norm2=float(min_grad_norm2[k]),
                time_to_threshold=None if ttt < 0 else ttt, total_bits=state.bits_total,
            )
        rows[trials[done]] = len(rounds)
        keep = ~done
        trials = trials[keep]
        if trials.size:
            slots = trials
            problem = take_trials(problem, keep)
            gamma = gamma[keep]
            min_grad_norm2, time_to_threshold = min_grad_norm2[keep], time_to_threshold[keep]
            _keep_trials(state, keep)

    # numpy's overflow warnings are noise: blow-up is detected from the values.
    # Pass t stops trials that diverged in round t - 1 or passed the loss cap.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.T + 2):
            losses, grads, cons = metrics(state, problem)
            stop = state.diverged | ~(losses <= LOSS_CAP)  # a NaN loss stops too
            if np.count_nonzero(stop):
                retire(stop, "diverged", t - 1)
                if not trials.size:
                    break
                losses, grads, cons = losses[~stop], grads[~stop], cons[~stop]
            np.fmin(min_grad_norm2, grads, out=min_grad_norm2)  # a NaN never counts
            under = grads <= cfg.grad_threshold
            if np.count_nonzero(under):
                np.putmask(time_to_threshold, under & (time_to_threshold < 0), t)
            if t > cfg.T:
                retire(np.ones(trials.size, bool), "completed", cfg.T, (losses, grads, cons))
                break
            round_step(state, W, c, problem, gamma, z_norm_cap)
            if (t - 1) % cfg.trace_every == 0 or t == cfg.T:
                if len(rounds) == len(values):
                    values = np.concatenate([values, np.empty_like(values)])
                # no local keeps last_step, whose G round_step frees before the next
                row = values[len(rounds)].T  # (5, S)
                for j, v in enumerate((losses, grads, cons, state.last_step.q_norm2,
                                       state.last_step.g_norm2)):
                    row[j, slots] = v
                rounds.append(t)
                round_bits.append(state.bits_total)

    results = [RunResult(summaries[i], rounds, round_bits, values[:rows[i], i]) for i in range(S)]
    return results if isinstance(config, list) else results[0]


def _keep_trials(state: WorldState, keep: np.ndarray) -> None:
    """Drop the trials not flagged in ``keep`` from a stacked state."""
    state.X = state.X[keep]
    if state.estimate_err is not None:
        state.estimate_err = state.estimate_err[keep]
    state.sample_streams.keep(keep)
    state.compress_streams.keep(keep)
    state.diverged = state.diverged[keep]


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
    if isinstance(T, bool) or not isinstance(T, (int, np.integer)) or T < 1:
        raise InputError(f"T must be an integer >= 1, got {T!r}")
    x_seq = np.asarray(x_seq, dtype=float)
    if x_seq.ndim == 1:
        x_seq = np.repeat(x_seq[None, :], T, axis=0)
    if x_seq.shape[0] < T:
        raise InputError(f"need at least T={T} models, got {x_seq.shape[0]}")
    estimate = x_seq[0].copy()
    err2 = np.zeros(T)
    for t in range(2, T + 1):
        z = _extrapolate(x_seq[t - 2], x_seq[t - 1], t)
        estimate = _fold(estimate, compress(c, z, rng), t)
        diff = estimate - x_seq[t - 1]
        err2[t - 1] = float(diff @ diff)
    return err2

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
with one gamma per trial.  Each round is one step of the kernel behind
``round_step``, without its checks and bookkeeping: one ``W.mix(seen)``
over the (S, dim, n) stack, one oracle call and one compression call.
``run`` measures the rounds in blocks: a block steps K rounds, or the
rounds left, keeping the models each round starts from, its Q and G, and
the trials its broadcast guard marks.  One ``metrics`` call then measures
those models as a (P, S, dim, n) stack, and one reduction each gives the
rounds' squared norms; every slice gives the bits of a one-pass
computation.  The models after the block's last round start the next
block, and the block that reaches pass T + 1 measures them too, which
completes the trials still running.  K is ``METRIC_BLOCK_VALUES`` over
what one pass holds and allocates, at most ``MAX_METRIC_PASSES``.  Every
stop (the broadcast guard, the loss cap, non-finite models),
``min_grad_norm2``, ``time_to_threshold`` and the trace rows are settled
per block, each trial from the passes before its stop; a stopped trial
steps on to the block's last round, and what those rounds draw is
dropped with it.  Every round sends the same bits, so round r has sent r
rounds' bits.  ``MixingMatrix.mix``
applies a W with few nonzero diagonals against n (a ring of n >= 192) as
a sum over those diagonals, elementwise, and any other W as the stacked
dense product ``seen @ W`` (the BLAS call a solo run makes, once per
trial); either way each trial
gets the bits of its solo run.  Every reduction is taken per trial, so
each trial's records and summary are bit for bit those of its solo run; a
trial that stops is summarized and dropped when its block ends, and its
streams are not drawn after that.  A single config is the S = 1 case of
the same loop.  ``dcsgd sweep`` runs its seed and gamma axes as such
batches; its n axis changes shapes and its levels axis the compressor,
which a batch shares, so they run one by one.

Randomness: every (trial, node, purpose) triple owns an independent
counter-based stream (Philox) derived from the trial's master seed, so
node- or trial-parallel evaluation could never change results.  A trial's
streams are seeded as the children of ``spawn(2 * n)`` on its stream seed
would be, oracle streams first, then compression; their Philox keys are
derived for every trial at once (``streams.spawn_keys``), with no
SeedSequence made per stream, and ``run`` spawns no children.  The
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
retires, or when the state is dropped.  A set holds its keys until its
first draw builds their Generators, so a purpose that never draws (identity
compression, a noise-free quadratic oracle) builds none; a retiring
trial's rows are sliced out of the keys or the blocks.
Compression runs once per round, over the whole message matrix, with each
column reading its node's row of the slab.  Rounds are synchronous by
construction; each step reads the frozen previous round and writes
disjoint columns.

Non-finite values are caught at two sites.  Each round the kernel scans
dcd's and ecd's broadcast Z before it is compressed (ecd also caps its
norm): a bad trial's message is zeroed and the kernel returns the trial
marked.  Then ``round_step`` marks the state diverged there and where the
new X is not finite, so a library caller sees ``state.diverged`` at once.
``run`` instead settles the rounds' marks and the scan of the models of
a block's passes once, when the block ends: a trial stops at the pass
after its guard's round or at its first non-finite pass, whichever comes
first, where ``round_step`` would have stopped it.  The guard stays per
round because a compressed non-finite Z could give dcd a finite
X + C(Z).  So the oracle (``Problem._samples``) and the compressor
(``compression._compress``) see finite inputs, zeroed messages, or a
stopped trial's models, whose outputs are dropped, and do not scan them.
The library entry points keep their own checks:
``Problem.stochastic_gradients`` raises DivergedError and ``compress``
raises InputError on non-finite input, and ``round_step`` raises
DivergedError on a state already marked diverged.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import compression, theory
from .compression import Compressor, bits_transmitted, compress, effective_alpha
from .errors import ConfigError, DivergedError, InputError
from .problems import Problem, _dot, _mean, stack_problems, take_trials
from .streams import StreamSet, spawn_keys
from .topology import MixingMatrix

LOSS_CAP = 1e12  # a run whose loss passes this is declared diverged

# Values one metric block holds and allocates (``_pass_values`` per trial
# and pass), and the most passes it covers: ``run`` measures up to K passes
# in one ``metrics`` call, whose interpreter cost no longer grows with K.
# small_sweep (3 trials of ring 8 x dim 8) takes 56-pass blocks,
# logistic_ring16 19-pass ones, and wide_ring1024 one-pass ones, reduced as
# views.  Paired benchmark runs: BENCH_lean_rounds.json.
METRIC_BLOCK_VALUES = 2**16
MAX_METRIC_PASSES = 64

FULL_PRECISION = compression.identity()  # how dpsgd's messages are priced


@dataclass
class StepStats:
    """Per-round quantities that ``round_step`` records.

    q_norm2 / q_bar describe the effective compression noise Q_t in the
    common update form X_{t+1} = X_t W - gamma G + Q_t; g_norm2 / g_bar
    describe the stochastic gradient matrix.  bits is the total traffic of
    the round over all links.  For a stacked state each statistic holds one
    entry per trial.  Q is None when Q_t = 0.  The norms are reduced on
    first use.  ``run`` keeps none: it reduces the Q and G of a block's
    recorded rounds at once, with the same bits.
    """

    bits: int
    Q: np.ndarray | None = field(repr=False)
    G: np.ndarray = field(repr=False)

    @functools.cached_property
    def q_norm2(self) -> np.ndarray:
        # Q_t = 0 is +0.0 per trial (a scalar for a solo state)
        return np.zeros(self.G.shape[:-2])[()] if self.Q is None else _norm2(self.Q)

    @functools.cached_property
    def g_norm2(self) -> np.ndarray:
        return _norm2(self.G)

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


@dataclass
class RunSummary:
    """A trial's outcome; its fields, in order, are the ``run`` JSON keys and
    the sweep columns after ``axis,value``."""

    seed: int
    status: str
    gamma: float
    iterations: int
    final_loss: float
    final_grad_norm2: float
    min_grad_norm2: float
    final_consensus: float
    time_to_threshold: int | None
    total_bits: int


class RunResult:
    """Summary and per-round trace records of one run (one trial of a batch).

    ``records`` is built from the trace arrays on first use, so a caller
    that reads only summaries, as a sweep does, never builds it.
    """

    def __init__(self, summary: RunSummary, rounds: list, step_bits: int, values: np.ndarray):
        self.summary = summary
        # the trial's recorded rounds, the bits every round sends, and a
        # (rows, 5) array of loss, grad_norm2, consensus, q_norm2, g_norm2
        self._rounds, self._step_bits, self._values = rounds, step_bits, values

    @functools.cached_property
    def records(self) -> list:
        """TraceRecords of the trial's recorded rounds; round t has sent
        t rounds' bits."""
        return [TraceRecord(t, *row, t * self._step_bits)
                for t, row in zip(self._rounds, self._values.tolist())]


ALGORITHMS = ("dpsgd", "naive", "dcd", "ecd", "centralized")


def init_state(problem: Problem, n: int, algorithm: str, seed, rounds: int = 1) -> WorldState:
    """Fresh state at the common zero initial point with per-node streams.

    ``seed`` is an int or a SeedSequence; a list of them, empty too, gives a
    stacked state for a stacked problem, trial s drawing from the streams of
    ``seed[s]``.  Node i's oracle stream is seeded as child i of
    ``seed.spawn(2 * n)`` would be, and its compression stream as child
    n + i: their Philox keys are read from the sequence (``streams.spawn_keys``),
    and only then is a SeedSequence passed in advanced by ``spawn(2 * n)``.  So
    a sequence listed twice seeds its second trial from children 2n..4n-1, a
    later spawn hands out none of the children the state draws from, and one
    whose child count would reach 2**32 raises InputError unadvanced.
    ``rounds`` is how many rounds the state is expected to run: the streams
    draw up to that many rounds ahead in blocks (``dcsgd.streams``), which
    changes no value drawn.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if n != problem.n:
        raise ConfigError(f"problem has {problem.n} nodes but topology has {n}")
    listed = seed if isinstance(seed, list) else [seed]
    keys = np.empty((len(listed), 2 * n, 2), np.uint64)
    for s, ss in enumerate(listed):
        caller = isinstance(ss, np.random.SeedSequence)
        keys[s] = spawn_keys([ss if caller else np.random.SeedSequence(ss)], 2 * n)
        if caller:  # advanced after the read, which checks the counter's end
            ss.spawn(2 * n)
    return _new_state(problem, n, algorithm, keys, isinstance(seed, list), rounds)


def _new_state(problem: Problem, n: int, algorithm: str, keys: np.ndarray, stacked: bool,
               rounds: int) -> WorldState:
    """:func:`init_state` from the stream keys (``streams.spawn_keys``),
    2n per trial, trial by trial; ``stacked`` gives X its trial axis.
    ``run`` builds its state here from seeds that no caller sees, for an
    algorithm and a problem its config has checked."""
    keys = keys.reshape(-1, 2, n, 2)  # per trial, n oracle keys, then n compression keys
    trials = (len(keys),) if stacked else ()
    cols = 1 if algorithm == "centralized" else n
    X = np.zeros(trials + (problem.dim, cols))
    return WorldState(
        algorithm=algorithm, n=n, t=1, X=X,
        sample_streams=StreamSet(keys[:, 0].reshape(-1, 2), rounds),
        compress_streams=StreamSet(keys[:, 1].reshape(-1, 2), rounds),
        diverged=np.zeros(trials, bool),
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

    These checks and dcd's finite-alpha check come before a private round
    kernel, which ``run`` steps directly (module docstring); then
    ``round_step`` writes the round's X, t, ``bits_total``, ``last_step``
    and ``diverged``.
    """
    if W.n != state.n:
        raise ConfigError(f"topology has {W.n} nodes but state has {state.n}")
    gammas = np.asarray(gamma)
    if np.count_nonzero((gammas >= 0.0) & (gammas < math.inf)) < gammas.size:  # NaN fails both
        raise InputError(f"gamma must be finite and >= 0, got {gamma}")
    if state.status == "diverged":
        raise DivergedError("state has already diverged")
    if state.algorithm == "dcd" and not math.isfinite(effective_alpha(c, problem.dim)):
        raise ConfigError(f"difference compression needs a finite noise-to-signal "
                          f"bound; {c.kind!r} has none")
    # the previous round's Q and G are two state-sized arrays; free them
    # before this round allocates its own
    state.last_step = None
    X, Q, G, bad = _advance(state, W, c, problem, gamma, z_norm_cap)
    bits = _round_bits(state.algorithm, W, c, problem)
    state.X, state.t = X, state.t + 1
    state.bits_total += bits
    state.last_step = StepStats(bits, Q, G)
    state.diverged = _non_finite(X) if bad is None else bad | _non_finite(X)
    return state


def _round_bits(algorithm: str, W: MixingMatrix, c: Compressor, problem: Problem) -> int:
    """Traffic of one round over all links: one message per edge end, or
    the centralized baseline's gather and broadcast at full precision."""
    if algorithm == "centralized":
        return 2 * (W.n - 1) * compression.FULL_PRECISION_BITS * problem.dim
    return 2 * W.num_edges * bits_transmitted(FULL_PRECISION if algorithm == "dpsgd" else c,
                                              problem.dim)


def _advance(state: WorldState, W: MixingMatrix, c: Compressor, problem: Problem,
             gamma, z_norm_cap: float) -> tuple:
    """One round of :func:`round_step` without its checks or bookkeeping:
    returns the new models, Q (None when Q_t = 0), G, and the trials that
    dcd's and ecd's broadcast guard marks (None for the other algorithms).
    It writes only ecd's estimate error, and draws from the state's streams."""
    algorithm, X = state.algorithm, state.X
    if algorithm == "centralized":  # X is (..., dim, 1)
        G = problem._samples(np.repeat(X, state.n, axis=-1), state.sample_streams)
        return X - gamma * G.mean(axis=-1, keepdims=True), None, G, None
    # dpsgd and dcd see X (dcd's replicas equal it); dcd's Q_t stays zero for
    # a trial that diverges before the exchange
    seen, Q = X, None
    if algorithm == "naive":
        seen = compression._compress(c, X, state.compress_streams)
        Q = seen - X
    elif algorithm == "ecd":
        seen, Q = X + state.estimate_err, W.mix(state.estimate_err)
    elif algorithm not in ("dpsgd", "dcd"):
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    G = problem._samples(X, state.sample_streams)
    # seen W - gamma * G - X, left to right, in one buffer
    delta = W.mix(seen)
    delta -= gamma * G
    delta -= X
    X_new = X + delta
    if algorithm in ("dpsgd", "naive"):
        return X_new, Q, G, None

    s = state.t + 1
    Z = delta if algorithm == "dcd" else _extrapolate(X, X_new, s)
    # nothing sane to broadcast: overflowed or past the input-norm guard
    bad = _non_finite(Z)
    if algorithm == "ecd" and z_norm_cap < math.inf:  # nothing is past an infinite cap
        bad |= np.maximum.reduce(np.add.reduce(Z * Z, axis=-2), axis=-1) > z_norm_cap * z_norm_cap
    n_bad = np.count_nonzero(bad)
    if n_bad == bad.size:
        return X_new, Q, G, bad
    # the other trials exchange; a bad trial compresses zeros (its draws are
    # discarded with it) and Z stands in for its message, so dcd commits it
    # X + delta like the path above
    CZ = compression._compress(c, np.where(bad[..., None, None], 0.0, Z) if n_bad else Z,
                               state.compress_streams)
    if n_bad:
        CZ[bad] = Z[bad]
    if algorithm == "ecd":
        state.estimate_err = _fold(state.estimate_err, CZ - Z, s)
        return X_new, Q, G, bad
    Q = CZ - Z
    if n_bad:
        Q[bad] = 0.0
    return X + CZ, Q, G, bad


def _per_trial(a: np.ndarray) -> np.ndarray:
    """(..., dim, k) as (..., dim * k): a reduction over the last axis is one
    per trial, adding in the order a whole-matrix reduction of a solo run does."""
    return a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def _norm2(a: np.ndarray) -> np.ndarray:
    """Squared norm per trial of a (..., dim, k) array; np.add.reduce and
    np.logical_and.reduce (below) are what .sum() and .all() call."""
    return np.add.reduce(_per_trial(a * a), axis=-1)


def _non_finite(a: np.ndarray) -> np.ndarray:
    """Per trial of a (..., dim, k) array: is any entry not finite?"""
    return ~np.logical_and.reduce(_per_trial(np.isfinite(a)), axis=-1)


def _stack(arrays: list) -> np.ndarray:
    """The arrays stacked on a new first axis; one array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


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
    Only ``state.X`` is read, and any axis before the trial axis broadcasts:
    ``run`` measures a block of P passes as one (P, S, dim, n) stack and gets
    (P, S) arrays, each entry bit for bit that pass's own measurement.
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

    Rounds are stepped in blocks of K, or the rounds left, through the
    kernel behind ``round_step``, without its checks or bookkeeping:
    ``RunConfig`` validates gamma and dcd's compressor, and
    ``resolve_gamma`` returns a finite gamma > 0.  A block's models, squared
    norms, guard marks and non-finite scan are each reduced in one call, and
    every stop is settled when the block ends (module docstring): a stopped
    trial steps on to its block's last round, and those rounds draw only
    from its own streams and are dropped with it.
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
                f">= (1-rho)/(2 mu) = {theory.alpha_budget(W.rho, W.mu):.4g}; "
                "proceeding to demonstrate divergence",
                stacklevel=2,
            )
    z_norm_cap = float(cfg.z_norm_cap) if c.kind == "sparsify" else math.inf

    # batch indices of the running trials, in state order, and per running
    # trial its least gradient norm so far and first pass under the threshold
    S = len(batch)
    trials = np.arange(S)
    gamma = np.array(gammas)[:, None, None]
    state = _new_state(problem, W.n, cfg.algorithm, spawn_keys(seeds, 2 * W.n), True, cfg.T)
    min_grad_norm2 = np.full(S, math.inf)
    time_to_threshold = np.full(S, -1)
    # recorded rounds (shared by the batch), and per trial one row of loss,
    # grad_norm2, consensus, q_norm2, g_norm2; a trial records every round
    # from the first until it stops
    rounds = []
    values = np.empty((min(cfg.T, 64), S, 5))
    ends = [0] * S  # each trial's stop pass: it records the rounds before it
    summaries = [None] * S

    # numpy's overflow warnings are noise: blow-up is detected from the values.
    # Pass t measures the models round t starts from (after round t - 1).  A
    # block steps rounds t, t + 1, ..., keeping each round's starting models,
    # its Q and G by reference (the kernel never writes them in place) and
    # its guard's marks.  One metrics call measures the passes of the stepped
    # rounds, and pass T + 1 too in the block that reaches it; the models
    # after the block's last round are the next block's first pass.
    step_bits = _round_bits(cfg.algorithm, W, c, problem)
    pass_values = _pass_values(problem, W.n)
    t = 1  # the block's first round
    with np.errstate(over="ignore", invalid="ignore"):
        while trials.size:
            K = max(1, min(MAX_METRIC_PASSES, METRIC_BLOCK_VALUES // (trials.size * pass_values)))
            P = min(K, cfg.T + 1 - t)  # the block's rounds, t .. t + P - 1
            models, steps = [], []  # steps[j]: round t + j's (X_new, Q, G, bad)
            for j in range(P):
                models.append(state.X)
                steps.append(_advance(state, W, c, problem, gamma, z_norm_cap))
                state.X, state.t = steps[j][0], state.t + 1
            qs, gs = [step[1] for step in steps], [step[2] for step in steps]
            # the trials each round's broadcast guard marked, if it has one
            guarded = [step[3] for step in steps if step[3] is not None]
            del steps
            final = t + P > cfg.T  # the block reaches pass T + 1
            if final:
                models.append(state.X)
            # the recorded rounds' squared norms; Q_t = 0 reads +0.0
            recorded = [j for j in range(P)
                        if (t + j - 1) % cfg.trace_every == 0 or t + j == cfg.T]
            if recorded:
                g_norm2 = _norm2(_stack([gs[j] for j in recorded]))
                q_norm2 = (_norm2(_stack([np.zeros_like(gs[j]) if qs[j] is None else qs[j]
                                          for j in recorded]))
                           if any(qs[j] is not None for j in recorded) else np.zeros_like(g_norm2))
            del qs, gs
            # (passes, S) arrays, one row per pass; one pass is measured as a view
            stacked = _stack(models)
            del models  # the passes' models go before metrics allocates
            losses, grads, cons = metrics(SimpleNamespace(X=stacked), problem)

            # a trial stops at its first pass over the loss cap (a NaN loss
            # stops too), with non-finite models (passes t + 1 .. t + P: rows
            # of the stack, then the state), or after a round whose broadcast
            # guard marked it; only the passes before it count
            over = np.zeros((P + 1, trials.size), bool)
            over[:len(losses)] = ~(losses <= LOSS_CAP)
            over[1:P] |= _non_finite(stacked[1:P])
            over[P] |= _non_finite(state.X)
            if guarded:
                over[1:] |= np.stack(guarded)
            del stacked
            stopped = np.logical_or.reduce(over, axis=0)
            counted = grads
            if np.count_nonzero(stopped):
                stop = np.argmax(over, axis=0)
                counted = np.where(np.arange(len(grads))[:, None] < np.where(stopped, stop, P + 1),
                                   grads, math.nan)
            # a NaN never counts towards either
            np.fmin(min_grad_norm2, np.fmin.reduce(counted, axis=0), out=min_grad_norm2)
            under = counted <= cfg.grad_threshold
            if np.count_nonzero(under):
                np.putmask(time_to_threshold,
                           np.logical_or.reduce(under, axis=0) & (time_to_threshold < 0),
                           t + np.argmax(under, axis=0))
            # the block's recorded rounds, in the columns of its trials
            if recorded:
                end = len(rounds) + len(recorded)
                if end > len(values):
                    values = np.concatenate(
                        [values, np.empty((max(len(values), end - len(values)), S, 5))])
                values[len(rounds):end, trials] = np.stack(
                    (losses[recorded], grads[recorded], cons[recorded], q_norm2, g_norm2), axis=-1)
                rounds.extend(t + j for j in recorded)
            # summarize the stopped trials, and after round T every trial, and
            # drop them from the batch
            done = np.ones(trials.size, bool) if final else stopped
            for k in np.flatnonzero(done):
                j = int(stop[k]) if stopped[k] else P  # the trial's stop pass, t + j
                i, ttt, iterations = trials[k], int(time_to_threshold[k]), t + j - 1
                final = [math.inf if stopped[k] else float(a[j, k]) for a in (losses, grads, cons)]
                summaries[i] = RunSummary(
                    seed=batch[i].seed, status="diverged" if stopped[k] else "completed",
                    gamma=gammas[i], iterations=iterations, final_loss=final[0],
                    final_grad_norm2=final[1], min_grad_norm2=float(min_grad_norm2[k]),
                    final_consensus=final[2], time_to_threshold=None if ttt < 0 else ttt,
                    total_bits=iterations * step_bits)
                ends[i] = t + j
            if np.count_nonzero(done):
                keep = ~done
                trials = trials[keep]
                if trials.size:
                    problem = take_trials(problem, keep)
                    gamma = gamma[keep]
                    min_grad_norm2 = min_grad_norm2[keep]
                    time_to_threshold = time_to_threshold[keep]
                    _keep_trials(state, keep)
            t += P

    results = [RunResult(summaries[i], rounds, step_bits,
                         values[:bisect.bisect_left(rounds, ends[i]), i]) for i in range(S)]
    return results if isinstance(config, list) else results[0]


def _pass_values(problem: Problem, n: int) -> int:
    """Values one pass of a metric block holds and allocates per trial: its
    models, its round's Q and G, and what measuring it allocates."""
    return 3 * problem.dim * n + problem._metric_values()


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
        x_seq = np.broadcast_to(x_seq, (T,) + x_seq.shape)
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

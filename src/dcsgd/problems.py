"""Synthetic per-node objectives with exactly known smoothness and variance constants.

A :class:`Problem` bundles n per-node objectives f_i with stochastic
gradient oracles, each evaluated on all n nodes at once, and reports the
constants the step-size theory needs:

* ``L``        - Lipschitz constant of every gradient (upper bound),
* ``sigma2``   - per-node stochastic gradient variance bound,
* ``zeta2``    - across-node gradient variation bound
                 (1/n) sum_i ||grad f_i(x) - grad f(x)||^2.

Two families implement it.  :class:`QuadraticProblem` has all three in
closed form plus a closed-form minimizer; :class:`LogisticProblem` holds
all nodes' samples in one ``(n, samples, dim)`` array and reports a hard L
bound and Monte-Carlo estimates for sigma2 / zeta2 (probed at
standard-normal points).

:func:`stack_problems` turns S problems of one family and shape into one
whose arrays carry a leading trial axis; its methods then take (S, dim)
points and (S, dim, n) states and return one value per trial, each bit for
bit what the trial's own problem returns.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DivergedError, InputError
from .streams import as_streams

# Monte-Carlo estimation knobs for the logistic constants.
_PROBE_POINTS = 64
_ESTIMATE_MARGIN = 1.2


@dataclass(frozen=True, eq=False)
class Problem:
    """n-node objective f(x) = (1/n) sum_i f_i(x) with stochastic oracles.

    A family implements primitives over all n nodes at once, ``_gradients``,
    ``_samples`` (C-contiguous (..., dim, n) results, which ``_samples``
    writes into its ``out`` array when given one) and ``_losses``, plus
    the global ``_loss`` and ``_grad_mean``; node i's value is column i of
    an all-node result.  The primitives treat any leading axis of the
    problem's arrays and of their arguments as the trial axis (see
    :func:`stack_problems`).  ``_metric_values`` is about the peak number
    of values ``_loss`` or ``_grad_mean`` allocates per trial and point.
    """

    dim: int
    n: int
    L: float
    sigma2: float
    zeta2: float
    f_star: float | None = field(default=None, init=False)  # known optimal value

    def loss(self, x: np.ndarray) -> float:
        """Global objective f(x); one value per trial for a stacked problem."""
        return _scalar(self._loss(np.asarray(x, dtype=float)))

    def losses(self, x: np.ndarray) -> np.ndarray:
        """Every node's objective at x; entry i is f_i(x)."""
        return self._losses(np.asarray(x, dtype=float))

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """All exact per-node gradients at once; column i is grad f_i(X[..., i])."""
        return self._gradients(np.asarray(X, dtype=float))

    def grad_mean(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the global objective at a single point x (per trial)."""
        return self._grad_mean(np.asarray(x, dtype=float))

    def minimizer(self) -> np.ndarray | None:
        """Closed-form global minimizer, when available."""
        return None

    def stochastic_gradients(self, X: np.ndarray, rngs) -> np.ndarray:
        """Stacked per-node samples; node i's draw comes from rngs[i].

        ``rngs`` is a list of Generators or a StreamSet, one stream per node.
        For a stacked problem X is (S, dim, n) and rngs holds S * n streams,
        trial by trial.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim < 2 or len(rngs) != math.prod(X.shape[:-2]) * X.shape[-1]:
            raise InputError(f"per-node streams need one stream per column, "
                             f"got shape {X.shape} and {len(rngs)} streams")
        if not np.isfinite(X).all():
            raise DivergedError("asked for gradients at a non-finite state")
        return self._samples(X, rngs)


@dataclass(frozen=True, eq=False)
class QuadraticProblem(Problem):
    """f_i(x) = ||A x - b_i||^2 / (2m) with a shared design matrix A."""

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)  # (m, n), column i = b_i
    noise: float = 0.0
    # the mean target (m,), an array field, so stacking and slicing trials
    # carry it along with B
    B_mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "B_mean", _mean(self.B))
        object.__setattr__(self, "f_star", self.loss(self.minimizer()))

    def minimizer(self) -> np.ndarray:
        At = self.A.mT
        return np.linalg.solve(At @ self.A, _matvec(At, self.B_mean)[..., None])[..., 0]

    def _loss(self, x):
        resid = _matvec(self.A, x)[..., None] - self.B  # (..., m, n)
        resid *= resid
        return 0.5 * np.add.reduce(resid, axis=(-2, -1)) / (self.A.shape[-2] * self.n)

    def _losses(self, x):
        resid = _matvec(self.A, x)[..., None] - self.B
        return 0.5 * np.sum(resid * resid, axis=-2) / self.A.shape[-2]

    def _gradients(self, X, out=None):
        # the full-width product of a C-ordered X, its residual in place
        A = self.A
        t = A @ np.ascontiguousarray(X)
        t -= self.B
        G = np.matmul(A.mT, t, out=out)
        G /= A.shape[-2]
        return G

    def _grad_mean(self, x):
        return _matvec(self.A.mT, _matvec(self.A, x) - self.B_mean) / self.A.shape[-2]

    def _metric_values(self) -> int:
        # _loss's (m, n) residuals: tracemalloc counts 202 values at m = n = 8
        return 3 * self.A.shape[-2] * self.n

    def _samples(self, X, rngs, out=None):
        G = self._gradients(X, out)
        if self.noise > 0.0:
            rows = as_streams(rngs).take("standard_normal", self.dim)
            G += self.noise * np.swapaxes(rows.reshape(G.shape[:-2] + (-1, self.dim)), -1, -2)
        return G


@dataclass(frozen=True, eq=False)
class LogisticProblem(Problem):
    """l2-regularized logistic loss; node i holds data[i] (samples, dim), labels[i]."""

    data: np.ndarray = field(repr=False)    # (n, samples, dim)
    labels: np.ndarray = field(repr=False)  # (n, samples), entries +-1
    reg: float = 0.0

    def _loss(self, x):
        fits = _sum_in_order(self._fits(x))  # node by node
        return fits / self.n + 0.5 * self.reg * _dot(x, x)

    def _losses(self, x):
        return self._fits(x) + 0.5 * self.reg * _dot(x, x)[..., None]

    def _fits(self, x):
        products = self.data @ x[..., None, :, None]  # (..., n, samples, 1)
        margins = self.labels * products[..., 0]
        return np.mean(np.logaddexp(0.0, -margins), axis=-1)

    def _gradients(self, X):
        return _logistic_gradients(self.data, self.labels, self.reg, X)

    def _grad_mean(self, x):
        X = np.broadcast_to(x[..., None], x.shape + (self.n,))
        return _sum_in_order(self._gradients(X)) / self.n  # columns in order

    def _metric_values(self) -> int:
        # tracemalloc counts 2,048 values at n 16, 32 samples, dim 16 and
        # 1,156 at n 8, 8 samples, dim 64
        return 4 * self.n * self.labels.shape[-1] + 2 * self.n * self.dim

    def _samples(self, X, rngs, out=None):
        picks = as_streams(rngs).take("integers", 1, self.labels.shape[-1])
        trials = tuple(np.arange(k)[:, None, None] for k in X.shape[:-2])  # () or trials
        # each node's drawn row as a one-sample dataset: (..., n, 1, dim) and (..., n, 1)
        at = trials + (np.arange(self.n)[:, None], picks.reshape(X.shape[:-2] + (-1, 1)))
        return _logistic_gradients(self.data[at], self.labels[at], self.reg, X, out)


def stack_problems(problems) -> Problem:
    """One problem of the same family whose trial s is problems[s].

    The problems must share the family, dim, n and parameters (noise, reg);
    their arrays and the constants L, sigma2, zeta2 and f_star gain a
    leading trial axis.  One problem is stacked as a view of its arrays.
    """
    first = problems[0]
    if any(type(p) is not type(first) for p in problems):
        raise InputError("stacked problems must be of one family")
    stacked = {}
    for name in _trial_fields(first):
        values = [getattr(p, name) for p in problems]
        stacked[name] = np.asarray(values[0])[None] if len(values) == 1 else np.stack(values)
    for f in fields(first):
        if f.init and f.name not in stacked and any(
                getattr(p, f.name) != getattr(first, f.name) for p in problems):
            raise InputError(f"stacked problems must share {f.name!r}")
    return _with_fields(first, stacked)


def take_trials(problem: Problem, keep: np.ndarray) -> Problem:
    """The stacked problem of the trials flagged in the (S,) mask ``keep``."""
    return _with_fields(problem, {
        name: getattr(problem, name)[keep] for name in _trial_fields(problem)})


def _trial_fields(problem: Problem) -> list:
    """Names of the fields that carry a trial axis once problems are stacked."""
    return [f.name for f in fields(problem)
            if isinstance(getattr(problem, f.name), np.ndarray)
            or (f.name in ("L", "sigma2", "zeta2", "f_star") and getattr(problem, f.name) is not None)]


def _with_fields(problem: Problem, values: dict) -> Problem:
    """A copy of the frozen problem with fields replaced, without re-running
    its construction (a quadratic would solve for its minimizer again)."""
    new = copy.copy(problem)
    for name, value in values.items():
        object.__setattr__(new, name, value)
    return new


def _logistic_gradients(d, y, reg: float, X: np.ndarray, out=None) -> np.ndarray:
    """Gradients at X's columns of the nodes holding d (..., n, samples, dim) and
    y (..., n, samples), as a new C-contiguous array or written into ``out``."""
    # stacked @ makes the same BLAS call per node as for a single node
    Xt = np.swapaxes(X, -1, -2)
    s = _sigmoid(-y * (d @ Xt[..., None])[..., 0])
    g = -(np.swapaxes(d, -1, -2) @ (y * s)[..., None])[..., 0] / y.shape[-1] + reg * Xt
    if out is None:
        return np.ascontiguousarray(np.swapaxes(g, -1, -2))
    np.copyto(out, np.swapaxes(g, -1, -2))
    return out


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v per trial; the same BLAS call as a 2-D M times a 1-D v."""
    return (M @ v[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis per trial; the same BLAS call as 1-D a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1) bit for bit (the same sum, divided by the count), without
    the wrapper's overhead."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def _sum_in_order(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis term by term from 0, as Python's sum() adds."""
    # cumsum adds in order; + 0.0 turns a sum of -0.0 terms into the +0.0 that 0 + ... gives
    return np.cumsum(a, axis=-1)[..., -1] + 0.0


def _scalar(value):
    """A 0-d result as a Python float; a per-trial result as it is."""
    return float(value) if np.ndim(value) == 0 else value


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows; for u >= 0 this is
    # 1 / (1 + exp(-u)) and for u < 0 it is exp(u) / (1 + exp(u))
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def make_quadratic(
    N: int,
    n: int,
    heterogeneity: float = 0.0,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> QuadraticProblem:
    """Least-squares problem f_i(x) = ||A x - b_i||^2 / (2m) with a shared A.

    The shared design matrix is built with singular values giving Hessian
    eigenvalues in [0.5, 2.0] (so L = 2, condition number 4, independent of
    N).  Per-node targets are b_i = b + heterogeneity * delta_i where the
    delta_i are unit vectors spread evenly on a circle in a random 2-D
    subspace: each has norm exactly 1 and they sum to zero, so zeta2 is
    exactly controlled by the knob and zero when it is.  The stochastic
    oracle adds isotropic Gaussian noise, giving sigma2 = noise^2 * N exactly.
    """
    if N < 1 or n < 2:
        raise InputError(f"need N >= 1 and n >= 2, got N={N}, n={n}")
    if heterogeneity < 0.0 or noise < 0.0:
        raise InputError("heterogeneity and noise must be >= 0")
    rng = np.random.default_rng() if rng is None else rng
    m = N
    hess_eigs = np.linspace(0.5, 2.0, N) if N > 1 else np.array([2.0])
    u_left = _random_orthogonal(m, rng)
    u_right = _random_orthogonal(N, rng)
    A = u_left @ (np.sqrt(m * hess_eigs)[:, None] * u_right.T)
    b = rng.standard_normal(m)
    deltas = _circle_patterns(m, n, rng)
    B = b[:, None] + heterogeneity * deltas

    H = A.T @ A / m
    L = float(np.linalg.eigvalsh(H)[-1])
    sigma2 = noise * noise * N
    grad_shifts = A.T @ (heterogeneity * deltas) / m  # grad f_i - grad f, constant in x
    zeta2 = float(np.mean(np.sum(grad_shifts * grad_shifts, axis=0)))
    return QuadraticProblem(dim=N, n=n, L=L, sigma2=sigma2, zeta2=zeta2, A=A, B=B, noise=noise)


def _random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _circle_patterns(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n unit vectors summing to zero: points of a regular n-gon in a 2-D subspace.

    A one-dimensional target space has no such subspace; there the patterns
    are the centered cosine values rescaled to peak magnitude 1 (still mean
    zero, no longer all unit norm).
    """
    angles = 2.0 * np.pi * np.arange(n) / n
    if m == 1:
        vals = np.cos(angles)
        return vals[None, :] / np.max(np.abs(vals))
    basis, _ = np.linalg.qr(rng.standard_normal((m, 2)))
    return basis[:, :1] * np.cos(angles) + basis[:, 1:2] * np.sin(angles)


def make_logistic(
    N: int,
    n: int,
    samples_per_node: int,
    separation: float = 1.0,
    rng: np.random.Generator | None = None,
    reg: float = 0.1,
) -> LogisticProblem:
    """l2-regularized logistic regression on per-node Gaussian clusters.

    Node i draws balanced +-1 labels and features from N(label * c_i, I)
    where c_i = (separation/2) * w_i along a node-specific random unit
    direction, so separation > 0 makes the nodes genuinely disagree.
    The minibatch oracle samples one data point.
    """
    if samples_per_node < 1 or N < 1 or n < 2:
        raise InputError("need samples_per_node >= 1, N >= 1, n >= 2")
    rng = np.random.default_rng() if rng is None else rng
    data, labels = [], []
    for _ in range(n):
        w = rng.standard_normal(N)
        w /= np.linalg.norm(w)
        y = rng.choice([-1.0, 1.0], size=samples_per_node)
        d = rng.standard_normal((samples_per_node, N)) + np.outer(y, 0.5 * separation * w)
        data.append(d)
        labels.append(y)
    return logistic_from_data(data, labels, reg=reg, rng=rng)


def logistic_from_data(data, labels, reg: float, rng: np.random.Generator) -> LogisticProblem:
    """Build the logistic problem from per-node datasets of one common shape.

    L is the hard bound 0.25 * max ||sample||^2 + reg.  sigma2 and zeta2 are
    Monte-Carlo estimates: the empirical maxima over standard-normal probe
    points, inflated by a safety margin.
    """
    sizes = [len(y) for y in labels]
    if len(set(sizes)) > 1:
        raise InputError(f"every node needs the same number of samples, got {sizes}")
    data, labels = np.asarray(data, dtype=float), np.asarray(labels, dtype=float)
    n, _, N = data.shape
    L = 0.25 * float(np.max(np.sum(data * data, axis=2))) + reg

    sigma2_hat, zeta2_hat = 0.0, 0.0
    for _ in range(_PROBE_POINTS):
        x = rng.standard_normal(N)
        grads = _logistic_gradients(data, labels, reg, np.broadcast_to(x[:, None], (N, n)))
        g_mean = grads.mean(axis=1, keepdims=True)
        zeta2_hat = max(zeta2_hat, float(np.mean(np.sum((grads - g_mean) ** 2, axis=0))))
        s = _sigmoid(-labels * (data @ x))
        dev = -(labels * s)[..., None] * data + reg * x - grads.T[:, None, :]  # (n, samples, N)
        sigma2_hat = max(sigma2_hat, float(np.max(np.mean(np.sum(dev * dev, axis=2), axis=1))))
    return LogisticProblem(
        dim=N, n=n, L=L, sigma2=_ESTIMATE_MARGIN * sigma2_hat,
        zeta2=_ESTIMATE_MARGIN * zeta2_hat, data=data, labels=labels, reg=reg,
    )

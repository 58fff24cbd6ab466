"""Gossip mixing matrices: symmetric, doubly stochastic, with cached spectral stats.

Every builder returns a :class:`MixingMatrix` whose entries W satisfy
W = W^T exactly, row sums 1 (to 1e-12), largest eigenvalue 1, and a
spectral radius rho = max(|lambda_2|, |lambda_n|) strictly below 1 for
connected topologies.  Disconnected graphs are rejected at construction
time rather than allowed to run.

:meth:`MixingMatrix.mix` is the one place W is applied to a state.  A
matrix with few nonzero diagonals against its size (a ring of 192 nodes or
more, a sparse custom graph) is applied as a sum over those diagonals; any
other as the dense product ``X @ W``.

A ring of 192 nodes or more is built from its three diagonals, and its
spectrum from the circulant closed form 1/3 + (2/3) cos(2 pi k / n): no
n x n matrix and no ``eigvalsh`` at set-up.  Its rho and mu can differ
from ``eigvalsh``'s in the last bits, and the theory step sizes resolved
from them by more, since they divide by (1 - rho)^2.  Its ``entries`` are
densified from the diagonals on first access, equal bit for bit to the
dense ring.  Every other matrix (smaller rings, complete and custom
graphs, ``from_entries``) is built dense and takes its spectrum from
``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TopologyError

ROW_SUM_TOL = 1e-12
LAMBDA1_TOL = 1e-10
CONNECTED_TOL = 1e-10

# W is applied as a sum over its nonzero diagonals when n >= this many
# nodes per diagonal, and as the dense product X @ W otherwise.  Measured
# with timeit on 2-core x86, one BLAS thread, a 3-diagonal ring, state
# (dim, n), microseconds per call, dense / banded:
#   dim 64:  n 128: 73 / 65,  n 192: 123 / 100,  n 256: 243 / 110,
#            n 1024: 3,560 / 393 (3 stacked trials: 9,397 / 1,201)
#   dim 8:   n 192: 21 / 34,  n 256: 21 / 27,  n 320: 53 / 41
#   dim 256: n 64: 46 / 93,   n 128: 205 / 161
# and a 5-diagonal graph at dim 8: n 320: 54 / 72, n 384: 133 / 78.  The
# bands win from about 40 nodes per diagonal at dim >= 64 and from about 100
# at dim 8; 64 keeps ring 8 (small_sweep) and every complete graph dense and
# sends ring 1024 (wide_ring1024) and ring 256 by the bands.
BANDED_NODES_PER_BAND = 64


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """An n x n gossip weight matrix with its spectral statistics.

    Attributes:
        n: node count.
        eigenvalues: full real spectrum, sorted descending, read-only.
        rho: max(|lambda_2|, |lambda_n|), governs consensus speed.
        mu: max over i >= 2 of |lambda_i - 1|, enters the difference-compression
            feasibility budget.

    The weights are ``entries`` (dense) and ``bands`` (by diagonals); a
    builder gives one of the two and the other is derived on first use.
    """

    n: int
    eigenvalues: np.ndarray
    rho: float
    mu: float

    @classmethod
    def from_entries(cls, entries: np.ndarray, require_connected: bool = True) -> "MixingMatrix":
        """Validate a candidate weight matrix and attach spectral stats.

        Raises TopologyError if the matrix is not symmetric doubly stochastic,
        or (when require_connected) if the mixing process does not contract,
        i.e. rho >= 1 - 1e-10.
        """
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise TopologyError(f"weight matrix must be square, got shape {entries.shape}")
        n = entries.shape[0]
        if n < 2:
            raise TopologyError(f"need at least 2 nodes, got {n}")
        if not np.array_equal(entries, entries.T):
            raise TopologyError("weight matrix must be exactly symmetric")
        row_err = np.max(np.abs(entries.sum(axis=1) - 1.0))
        if row_err > ROW_SUM_TOL:
            raise TopologyError(f"rows must sum to 1 (max deviation {row_err:.3e})")
        entries = entries.copy()
        entries.flags.writeable = False
        return cls._with_spectrum(
            np.linalg.eigvalsh(entries)[::-1], require_connected, entries=entries)

    @classmethod
    def _with_spectrum(cls, eigenvalues: np.ndarray, require_connected: bool = True,
                       **given) -> "MixingMatrix":
        """The matrix with this descending spectrum and the ``entries`` or
        ``bands`` in ``given``, which seed that cached property.

        Raises TopologyError unless lambda_1 = 1 and (when require_connected)
        rho < 1 - 1e-10.
        """
        rho, mu, eigenvalues = _snapped_stats(eigenvalues)
        if abs(eigenvalues[0] - 1.0) > LAMBDA1_TOL:
            raise TopologyError(f"largest eigenvalue must be 1, got {eigenvalues[0]!r}")
        if require_connected and rho >= 1.0 - CONNECTED_TOL:
            raise TopologyError(
                f"topology does not mix (rho = {rho:.12f} >= 1); the graph is "
                "disconnected or the weights make it periodic"
            )
        eigenvalues.flags.writeable = False
        W = cls(n=eigenvalues.size, eigenvalues=eigenvalues, rho=rho, mu=mu)
        vars(W).update(given)
        return W

    @cached_property
    def entries(self) -> np.ndarray:
        """The weight matrix W, read-only; densified from ``bands`` on first use
        when the builder gave only those."""
        return _densify(self.n, *self.bands)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Neighbor count per node (nonzero off-diagonal weights), read-only.

        Counted on first use and kept, so rounds never recount and builders
        whose matrix is never asked pay nothing.  With ``bands`` the count
        never touches ``entries``.
        """
        if self.bands is None:
            degrees = np.count_nonzero(self.entries, axis=1) - (np.diagonal(self.entries) != 0)
        else:
            shifts, weights = self.bands
            rows = (np.arange(self.n) + shifts[:, None]) % self.n
            degrees = np.bincount(rows[(weights != 0) & (shifts[:, None] != 0)],
                                  minlength=self.n)
        degrees.flags.writeable = False
        return degrees

    @property
    def num_edges(self) -> int:
        return int(self.degrees.sum()) // 2

    @cached_property
    def bands(self) -> tuple[np.ndarray, np.ndarray] | None:
        """W's nonzero diagonals as (shifts, weights), or None if ``mix`` stays dense.

        ``shifts`` holds the d in [0, n) with some W[(j + d) % n, j] != 0,
        ascending, and ``weights[k, j] = W[(j + shifts[k]) % n, j]``; both
        read-only.  Found on first use and kept.
        """
        n = self.n
        rows, cols = np.nonzero(self.entries)
        on_band = np.zeros(n, bool)
        on_band[(rows - cols) % n] = True
        shifts = np.flatnonzero(on_band)
        if not _mixes_by_bands(n, shifts.size):
            return None
        cols = np.arange(n)
        weights = self.entries[(cols + shifts[:, None]) % n, cols]
        shifts.flags.writeable = False
        weights.flags.writeable = False
        return shifts, weights

    def mix(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """X W for a state X of shape (..., dim, n), as a new array or
        written into ``out``, an array of X's shape that X does not overlap.

        With ``bands`` the columns are sum_d X[..., (j + d) % n] * b_d[j] in
        ascending d: plain multiplies and adds in a fixed order, so the bits
        do not depend on the BLAS, its threads or the stacking of trials.
        Otherwise it is the dense product ``X @ W``.
        """
        if self.bands is None:
            return np.matmul(X, self.entries, out=out)
        shifts, weights = self.bands
        n = self.n
        out = np.empty(X.shape) if out is None else out
        term = np.empty(X.shape)
        for k, d in enumerate(shifts.tolist()):
            # X[..., (j + d) % n] is X[..., d:] for j < n - d, X[..., :d] after
            dst = term if k else out
            np.multiply(X[..., d:], weights[k, :n - d], out=dst[..., :n - d])
            np.multiply(X[..., :d], weights[k, n - d:], out=dst[..., n - d:])
            if k:
                out += term
        return out


def _mixes_by_bands(n: int, num_bands: int) -> bool:
    """True when a matrix of n nodes and this many nonzero diagonals is
    applied by its diagonals rather than as a dense product."""
    return BANDED_NODES_PER_BAND * num_bands <= n


def _densify(n: int, shifts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The read-only n x n matrix with W[(j + shifts[k]) % n, j] = weights[k, j]
    and zeros elsewhere."""
    cols = np.arange(n)
    entries = np.zeros((n, n))
    entries[(cols + shifts[:, None]) % n, cols] = weights
    entries.flags.writeable = False
    return entries


def _snapped_stats(eigenvalues: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(rho, mu, eigenvalues) of a descending spectrum, as a new array whose
    values within 1e-10 of 1 are snapped to exactly 1."""
    eigenvalues = np.array(eigenvalues, dtype=float)
    eigenvalues[np.abs(eigenvalues - 1.0) <= LAMBDA1_TOL] = 1.0
    rest = eigenvalues[1:]
    rho = float(np.max(np.abs(rest)))
    mu = float(np.max(np.abs(rest - 1.0)))
    return rho, mu, eigenvalues


def spectral_stats(entries: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Return (rho, mu, eigenvalues sorted descending) of a symmetric W.

    rho = max(|lambda_2|, |lambda_n|); mu = max_{i>=2} |lambda_i - 1|.
    Eigenvalues within 1e-10 of 1 are snapped to exactly 1 so that the
    lambda_1 = 1 check is stable under roundoff.
    """
    entries = np.asarray(getattr(entries, "entries", entries), dtype=float)
    return _snapped_stats(np.linalg.eigvalsh(entries)[::-1])


def check_nodes(kind: str, n: int) -> None:
    """Raise TopologyError unless a ring or complete graph can have n nodes.

    Every ring of n >= 3 nodes and complete graph of n >= 2 nodes is a
    valid mixing matrix, so this is all their validation needs.
    """
    if kind == "ring" and n < 3:
        raise TopologyError(f"a ring needs n >= 3 nodes, got {n}")
    if n < 2:
        raise TopologyError(f"need n >= 2 nodes, got {n}")


def build_ring(n: int) -> MixingMatrix:
    """Ring of n nodes, uniform weight 1/3 on self and both neighbors.

    The three diagonals (shifts 0, 1 and n - 1) are the whole matrix.  A
    ring that ``mix`` applies by them (n >= 192) keeps only them and takes
    the circulant spectrum lambda_k = 1/3 + (2/3) cos(2 pi k / n); a smaller
    one is densified and validated like any other matrix.  For n = 3 the
    ring coincides with the fully connected graph.
    """
    check_nodes("ring", n)
    shifts = np.array([0, 1, n - 1])
    weights = np.full((3, n), 1.0 / 3.0)
    if not _mixes_by_bands(n, shifts.size):
        return MixingMatrix.from_entries(_densify(n, shifts, weights))
    shifts.flags.writeable = False
    weights.flags.writeable = False
    spectrum = 1.0 / 3.0 + (2.0 / 3.0) * np.cos(2.0 * np.pi * np.arange(n) / n)
    return MixingMatrix._with_spectrum(np.sort(spectrum)[::-1], bands=(shifts, weights))


def build_fully_connected(n: int) -> MixingMatrix:
    """Complete graph with all weights 1/n; consensus in a single round."""
    check_nodes("complete", n)
    entries = np.full((n, n), 1.0 / n)
    return MixingMatrix.from_entries(entries)


def build_custom(n: int, edges: list[tuple[int, int]], self_weights=None) -> MixingMatrix:
    """Metropolis-weighted matrix for an arbitrary connected undirected graph.

    Edge (i, j) gets weight min(1/deg_i, 1/deg_j); the remainder of each row
    sits on the diagonal, which makes the matrix doubly stochastic for any
    graph.  With ``self_weights`` s_i in [0, 1) the edge weight becomes
    min((1 - s_i)/deg_i, (1 - s_j)/deg_j), guaranteeing W_ii >= s_i; this
    lazy variant avoids rho = 1 on bipartite regular graphs.

    Disconnected graphs (and weightings that fail to mix) raise TopologyError.
    """
    if n < 2:
        raise TopologyError(f"need n >= 2 nodes, got {n}")
    if len(edges) < n - 1:
        # checked before any n x n allocation, which a huge n would not survive
        raise TopologyError(
            f"a connected graph of {n} nodes needs at least {n - 1} edges, got {len(edges)}"
        )
    adj = np.zeros((n, n), dtype=bool)
    for edge in edges:
        i, j = int(edge[0]), int(edge[1])
        if not (0 <= i < n and 0 <= j < n):
            raise TopologyError(f"edge {edge} out of range for n = {n}")
        if i == j:
            raise TopologyError(f"self-loop {edge} not allowed; self weight is implicit")
        adj[i, j] = True
        adj[j, i] = True
    deg = adj.sum(axis=1)
    if np.any(deg == 0):
        isolated = int(np.flatnonzero(deg == 0)[0])
        raise TopologyError(f"node {isolated} has no edges; graph is disconnected")
    if self_weights is None:
        lazy = np.zeros(n)
    else:
        lazy = np.asarray(self_weights, dtype=float)
        if lazy.shape != (n,):
            raise TopologyError(f"self_weights must have length {n}")
        if np.any(lazy < 0.0) or np.any(lazy >= 1.0):
            raise TopologyError("self_weights must lie in [0, 1)")
    share = (1.0 - lazy) / deg
    entries = np.where(adj, np.minimum.outer(share, share), 0.0)
    np.fill_diagonal(entries, 1.0 - entries.sum(axis=1))
    return MixingMatrix.from_entries(entries)

"""Unbiased stochastic compression operators with machine-checkable noise contracts.

Each operator C satisfies E[C(z)] = z.  Two different noise contracts are
tracked per operator:

* ``effective_alpha(c, dim)``: a certified upper bound on the realized
  noise-to-signal ratio ||C(z) - z|| / ||z||, or inf when no such bound
  exists.  The magnitude-scaled stochastic quantizer gives sqrt(dim)/levels
  deterministically, which is what difference compression needs.
* ``variance_bound``: an input-independent bound on E||C(z) - z||^2, or inf.
  Only the synthetic sphere-noise operator has one; it exists to unit-test
  the extrapolation estimate recursion with an exactly known constant.

Randomness is always external, so operators are pure given the streams.
1-D inputs are treated as one vector; 2-D inputs compress each column
independently.  With one Generator, a matrix's draws come row-major from
that stream.  With a sequence of Generators, one per column, column i's
draws come from stream i and are exactly the draws a one-column call on
stream i makes, so a simulator compresses every node's message in one call
and gets the same result as compressing node by node.  The per-column form
also takes a stack of matrices, shape (..., dim, n), with one stream per
column listed matrix by matrix (column i of matrix s reads stream s * n + i),
so a stacked state of S trials is compressed in one call, its draws read in
place, without first being laid out as one wide matrix.  A
:class:`~dcsgd.streams.StreamSet` in place of the sequence gives the same
draws from a block its streams filled many rounds ahead; a sequence is read
as a one-round block.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .problems import _dot
from .streams import StreamSet, as_streams

KINDS = ("identity", "quantize", "sparsify", "synthetic")

FULL_PRECISION_BITS = 32


@dataclass(frozen=True)
class Compressor:
    """Descriptor of an unbiased lossy operator; see :func:`compress`.

    kind:      one of identity | quantize | sparsify | synthetic.
    levels:    quantizer grid levels s >= 1 (grid {0, +-1/s, ..., +-1} of the
               per-vector max magnitude).
    keep_prob: sparsifier survival probability p in (0, 1]; kept entries are
               scaled by 1/p.
    noise_bound2: synthetic operator's exact per-call noise energy b^2
               (noise drawn uniformly on the radius-b sphere).
    """

    kind: str
    levels: int = 0
    keep_prob: float = 1.0
    noise_bound2: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown compressor kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "quantize" and self.levels < 1:
            raise ConfigError(f"quantize needs levels >= 1, got {self.levels}")
        if self.kind == "sparsify" and not (0.0 < self.keep_prob <= 1.0):
            raise ConfigError(f"sparsify needs keep_prob in (0, 1], got {self.keep_prob}")
        if self.kind == "synthetic" and self.noise_bound2 < 0.0:
            raise ConfigError(f"synthetic needs noise_bound2 >= 0, got {self.noise_bound2}")

    def alpha_bound(self, dim: int) -> float:
        """``effective_alpha(self, dim)``, kept for library callers."""
        return effective_alpha(self, dim)

    @property
    def variance_bound(self) -> float:
        """Input-independent bound on E||C(z) - z||^2 (inf if none exists)."""
        if self.kind == "identity":
            return 0.0
        if self.kind == "synthetic":
            return self.noise_bound2
        return math.inf


def identity() -> Compressor:
    return Compressor(kind="identity")


def stochastic_quantize(levels: int) -> Compressor:
    return Compressor(kind="quantize", levels=levels)


def random_sparsify(keep_prob: float) -> Compressor:
    return Compressor(kind="sparsify", keep_prob=keep_prob)


def synthetic_noise(noise_bound2: float) -> Compressor:
    return Compressor(kind="synthetic", noise_bound2=noise_bound2)


def compress(
    c: Compressor, z: np.ndarray,
    rng: np.random.Generator | Sequence[np.random.Generator] | StreamSet,
) -> np.ndarray:
    """Draw one unbiased compressed sample of z.

    ``rng`` is one Generator, or for input of two or more axes a sequence
    of Generators or a StreamSet, one stream per column (see the module
    docstring).  2-D input: every column is an independent vector
    (per-column scaling and per-column noise); a (..., dim, n) stack is
    compressed matrix by matrix.  Empty input is returned unchanged.
    Non-finite entries raise InputError.
    """
    z = np.asarray(z, dtype=float)
    per_column = not isinstance(rng, np.random.Generator)
    if z.ndim not in (1, 2) and not (per_column and z.ndim > 2):
        raise InputError(f"expected a vector or a matrix of columns, got ndim={z.ndim}")
    if per_column and (z.ndim < 2 or len(rng) != math.prod(z.shape[:-2]) * z.shape[-1]):
        raise InputError(
            f"per-column streams need a matrix with one column per stream, "
            f"got shape {z.shape} and {len(rng)} streams"
        )
    if not np.isfinite(z).all():
        raise InputError("compression input contains non-finite entries")
    return _compress(c, z, rng)


def _compress(c: Compressor, z: np.ndarray, rng) -> np.ndarray:
    """:func:`compress` of a float array z that its checks have passed.

    The simulator calls this on inputs it has already scanned (or zeroed),
    or on the models of a trial that has stopped and whose output it drops,
    so the round does not scan them again."""
    if z.size == 0 or c.kind == "identity":
        return z.copy()
    per_column = not isinstance(rng, np.random.Generator)
    draw = "standard_normal" if c.kind == "synthetic" else "random"
    if per_column:
        # one round of the streams: row s * n + i holds column i of matrix s,
        # read in place as the (..., dim, n) stack
        rows = as_streams(rng).take(draw, z.shape[-2])
        u = rows.reshape(z.shape[:-2] + (-1, z.shape[-2])).swapaxes(-1, -2)
    else:
        u = getattr(rng, draw)(z.shape)
    if c.kind == "quantize":
        return _quantize(z, c.levels, u)
    if c.kind == "sparsify":
        return np.where(u < c.keep_prob, z / c.keep_prob, 0.0)
    # synthetic: additive noise uniform on the sphere of radius b, per column;
    # a column's norm is the 1-D norm of its draws (the BLAS dot a 1-D norm
    # takes), which a reduction over axis=-2 may round apart
    if per_column:
        norms = np.sqrt(_dot(rows, rows)).reshape(z.shape[:-2] + (1, -1))
    elif z.ndim == 2:
        norms = np.linalg.norm(u, axis=0, keepdims=True)
    else:
        norms = np.linalg.norm(u)
    return z + math.sqrt(c.noise_bound2) * u / norms


def _quantize(z: np.ndarray, levels: int, u: np.ndarray) -> np.ndarray:
    """Magnitude-scaled stochastic rounding onto {0, +-1/s, ..., +-1} * ||z||_inf.

    ``u`` holds one uniform draw per entry of z.  Computing |z|/scale before
    multiplying by s keeps the level index in [0, s] exactly, so outputs
    never leave the grid; entries already on the grid pass through with
    probability one.
    """
    y = np.abs(z)
    scale = y.max(axis=-2, keepdims=True) if z.ndim >= 2 else y.max()
    safe_scale = np.where(scale == 0.0, 1.0, scale)
    y /= safe_scale
    y *= levels
    level = np.floor(y)
    y -= level  # the fractional part
    level += u < y
    # all-zero columns have sign(z) = 0 everywhere, so safe_scale never leaks
    level *= np.sign(z)
    level *= safe_scale / levels
    return level


def effective_alpha(c: Compressor, dim: int) -> float:
    """Certified upper bound on sup ||C(z) - z|| / ||z|| over nonzero z.

    identity -> 0.  quantize -> sqrt(dim)/levels (per-entry error is at most
    ||z||_inf / levels, and ||z||_inf <= ||z||).  sparsify -> max(1, 1/p - 1):
    each coordinate's realized error is either |z_i| (dropped) or
    (1/p - 1)|z_i| (kept and rescaled), and both extremes are attainable.
    synthetic -> inf, since the added noise does not scale with the signal.
    """
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if c.kind == "identity":
        return 0.0
    if c.kind == "quantize":
        return math.sqrt(dim) / c.levels
    if c.kind == "sparsify":
        return max(1.0, 1.0 / c.keep_prob - 1.0)
    return math.inf


def bits_transmitted(c: Compressor, dim: int) -> int:
    """Accounting cost in bits of sending one compressed dim-vector.

    identity and synthetic send full precision.  The quantizer sends one
    grid index per entry (2*levels + 1 symbols) plus a 32-bit scale.  The
    sparsifier sends the expected p*dim surviving entries as (value, index)
    pairs, rounded up.
    """
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if c.kind in ("identity", "synthetic"):
        return FULL_PRECISION_BITS * dim
    if c.kind == "quantize":
        return dim * math.ceil(math.log2(2 * c.levels + 1)) + FULL_PRECISION_BITS
    index_bits = math.ceil(math.log2(dim)) if dim > 1 else 1
    return math.ceil(c.keep_prob * dim * (FULL_PRECISION_BITS + index_bits))

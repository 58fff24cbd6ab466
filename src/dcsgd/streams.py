"""Per-node random streams of one purpose, drawn many rounds at a time.

A :class:`StreamSet` holds one counter-based stream per (trial, node) for
one purpose, the gradient oracle or compression.  Every round reads one
``(streams, width)`` slab: row i holds stream i's next ``width`` values.
The set fills a ``(streams, K, width)`` buffer with one call per stream
and hands out its K rounds one by one.  A Philox Generator gives the same
values whether it draws K * width values in one call or width values K
times, so a block of K rounds equals K per-round draws bit for bit.

K comes from the rounds the holder has left and a fixed value budget,
:func:`block_rounds`.  A set built from a plain list of Generators has one
round left, so it draws exactly one round per fill: the per-round case is
the same path with K = 1.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

# Values one block of a purpose holds across all its streams, and the most
# rounds a block covers.  At 2**18 values a purpose's buffer is 2 MiB.
# Measured with benchmarks/run.py on 2-core x86, one BLAS thread: small_sweep
# (3 trials of ring 8 x dim 8, 64-round blocks of 12,288 values) ran
# 14,000-14,200 rounds/s against 10,700-11,400 with one-round blocks; on
# wide_ring1024 (ring 1024 x dim 64, 65,536 values a round) moving from
# 2**16 (K = 1) to 2**18 (K = 4) took 75.9 to 90.6 rounds/s, medians of ten
# 55 s pairs, with peak RSS 58.9 MB on both: the round frees the previous
# StepStats and forms delta and the oracle's residual in place, which pays
# for the larger block (BENCH_wide_blocks.json).
BLOCK_VALUES = 2**18
MAX_BLOCK_ROUNDS = 64


def as_streams(rngs) -> "StreamSet":
    """A StreamSet as it is; a sequence of Generators as a one-round block."""
    return rngs if isinstance(rngs, StreamSet) else StreamSet(rngs)


def block_rounds(streams: int, width: int, rounds_left: int) -> int:
    """Rounds one fill draws for ``streams`` streams of ``width`` values a round."""
    return max(1, min(MAX_BLOCK_ROUNDS, rounds_left, BLOCK_VALUES // max(1, streams * width)))


class StreamSet:
    """Independent streams of one purpose, one per (trial, node), read a round at a time.

    ``sources`` holds Generators or SeedSequences; a SeedSequence is built
    into a Philox Generator on the first draw, so a purpose that never draws
    builds no Generator.
    ``rounds`` is how many rounds the holder expects to read; blocks never
    run past it, and one round is drawn at a time after it.
    """

    def __init__(self, sources, rounds: int = 1):
        self._sources = list(sources)
        self._built = False
        self._rounds_left = rounds
        self._kind = None
        self._block = None  # (streams, K, width) draws of the current block
        self._next = self._end = 0  # next round of the block, and its round count

    def __len__(self) -> int:
        return len(self._sources)

    def take(self, draw: str, width: int, *args) -> np.ndarray:
        """The next round's ``(streams, width)`` slab of ``draw`` ("random",
        "standard_normal", or "integers" with its bound in ``args``)."""
        kind = (draw, width, args)
        if self._next == self._end:
            self._fill(kind)
        elif kind != self._kind:
            raise InputError(f"streams hold draws of {self._kind}, not {kind}")
        self._next += 1
        return self._block[:, self._next - 1]

    def keep(self, trials: np.ndarray) -> None:
        """Keep only the streams of the trials flagged in a (S,) mask, the
        streams being listed trial by trial."""
        rows = np.repeat(trials, len(self) // trials.size)
        self._sources = [s for s, kept in zip(self._sources, rows) if kept]
        if self._block is not None:
            self._block = self._block[rows]

    def _fill(self, kind) -> None:
        draw, width, args = kind
        if not self._built:
            self._sources = [s if isinstance(s, np.random.Generator)
                             else np.random.Generator(np.random.Philox(s))
                             for s in self._sources]
            self._built = True
        K = block_rounds(len(self._sources), width, self._rounds_left)
        self._rounds_left -= K
        if draw != "integers":
            self._block = np.empty((len(self._sources), K, width))
            for row, g in zip(self._block, self._sources):
                getattr(g, draw)(out=row)
        else:
            self._block = np.array(
                [g.integers(*args, size=(K, width)) for g in self._sources], np.int64)
        self._kind, self._next, self._end = kind, 0, K


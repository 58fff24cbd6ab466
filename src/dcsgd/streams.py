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

A wide set with rounds left after a fill, one whose round holds so many
values that the budget sets K, draws ahead: one background thread draws
the next block, with the same K and the same accounting, into an array the
set's own thread allocated.  Each stream still draws its values in order
and in one thread at a time, so the values do not change; what moves is
when the next block is drawn.  Stream calls release the GIL, as do a
round's large numpy calls, so the draws run on another core while the
round computes.  The next fill, :meth:`StreamSet.keep` and the set's
deletion join the thread, so none outlives the set.  Every set draws one
kind of values: a drawn-ahead block has already advanced its streams.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import InputError

# Values one block of a purpose holds across all its streams, and the most
# rounds a block covers.  At 2**18 values a purpose's buffer is 2 MiB, and
# a purpose that draws ahead holds two.
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

    _ahead = None  # (thread, block, errors) of the block drawn in the background

    def __init__(self, sources, rounds: int = 1):
        self._sources = list(sources)
        self._built = False
        self._rounds_left = rounds
        self._kind = None  # (draw, width, args) of the first take; every take repeats it
        self._block = None  # (streams, K, width) draws of the current block
        self._next = self._end = 0  # next round of the block, and its round count

    def __len__(self) -> int:
        return len(self._sources)

    def __del__(self):
        # a run that stops early drops its sets with a block still being drawn
        if self._ahead is not None:
            self._ahead[0].join()

    def take(self, draw: str, width: int, *args) -> np.ndarray:
        """The next round's ``(streams, width)`` slab of ``draw`` ("random",
        "standard_normal", or "integers" with its bound in ``args``)."""
        kind = (draw, width, args)
        if self._kind is None:
            self._kind = kind
        elif kind != self._kind:
            raise InputError(f"streams hold draws of {self._kind}, not {kind}")
        if self._next == self._end:
            self._fill()
        self._next += 1
        return self._block[:, self._next - 1]

    def keep(self, trials: np.ndarray) -> None:
        """Keep only the streams of the trials flagged in a (S,) mask, the
        streams being listed trial by trial."""
        rows = np.repeat(trials, len(self) // trials.size)
        self._sources = [s for s, kept in zip(self._sources, rows) if kept]
        if self._block is not None:
            self._block = self._block[rows]
        if self._ahead is not None:
            thread, block, errors = self._ahead
            thread.join()  # the thread writes the whole block before it ends
            self._ahead = thread, block[rows], errors

    def _fill(self) -> None:
        self._block = None  # the consumed block goes before another is allocated
        if not self._built:
            self._sources = [s if isinstance(s, np.random.Generator)
                             else np.random.Generator(np.random.Philox(s))
                             for s in self._sources]
            self._built = True
        if self._ahead is not None:
            thread, block, errors = self._ahead
            self._ahead = None
            thread.join()
            if errors:
                raise errors[0]
        else:
            block = self._new_block()
            _draw(self._sources, block, self._kind)
        self._block, self._next, self._end = block, 0, block.shape[1]
        # Only a round so wide that the budget, not MAX_BLOCK_ROUNDS, sets K
        # draws ahead.  Drawing every set ahead, small_sweep (24 streams of
        # 8 values a round, 64-round blocks) ran 12,870 rounds/s against
        # 14,410 serial, medians of ten alternating 15 s benchmarks/run.py
        # pairs on 2-core x86, one BLAS thread, slower in all ten
        # (BENCH_draw_ahead.json).
        if self._rounds_left > 0 and len(self) * self._kind[1] > BLOCK_VALUES // MAX_BLOCK_ROUNDS:
            self._ahead = _draw_behind(self._sources, self._new_block(), self._kind)

    def _new_block(self) -> np.ndarray:
        """An empty array for the next block; its rounds leave the rounds left."""
        draw, width, _ = self._kind
        K = block_rounds(len(self._sources), width, self._rounds_left)
        self._rounds_left -= K
        return np.empty((len(self._sources), K, width),
                        np.int64 if draw == "integers" else np.float64)


def _draw(sources, block: np.ndarray, kind) -> None:
    """Fill ``block`` row by row, each row from its own stream."""
    draw, _, args = kind
    if draw != "integers":
        for row, g in zip(block, sources):
            getattr(g, draw)(out=row)
    else:
        for row, g in zip(block, sources):
            row[...] = g.integers(*args, size=row.shape)


def _draw_behind(sources, block: np.ndarray, kind):
    """Start a thread that runs ``_draw``; returns (thread, block, errors),
    ``errors`` holding what the thread raised."""
    errors = []

    def work():
        try:
            _draw(sources, block, kind)
        except BaseException as exc:  # re-raised by the thread that joins
            errors.append(exc)

    thread = threading.Thread(target=work, name="dcsgd-streams")
    thread.start()
    return thread, block, errors

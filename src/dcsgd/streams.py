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

A stream is seeded by a Philox key.  :func:`spawn_keys` derives, in one
vectorized pass over uint32 arrays, the keys that the children of
``SeedSequence.spawn`` would seed, for every child of every sequence at
once, with numpy's own SeedSequence algorithm: every stream gets the values
of ``Philox(child)`` bit for bit, and no SeedSequence object is made per
stream.  A set holds a ``(streams, 2)`` uint64 array of keys, whose
Philox Generators it builds on its first draw (a purpose that never draws
builds none), or a sequence of Generators, such as a list given to ``compress``.
"""

from __future__ import annotations

import functools
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


# numpy's SeedSequence constants, fixed by its stream-compatibility policy
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def spawn_keys(seqs, k: int) -> np.ndarray:
    """The ``(len(seqs) * k, 2)`` uint64 Philox keys of the next ``k``
    children of each SeedSequence, listed sequence by sequence: row
    ``s * k + i`` is ``seqs[s].spawn(k)[i].generate_state(2, np.uint64)``.
    No sequence is advanced, and one whose child count would reach 2**32,
    where numpy's own ``spawn(k)`` never returns, raises InputError.

    A child's entropy words are its parent's entropy, zero-padded to the
    pool size, then the parent's spawn key and the child's index.  The
    children of sequences with as many words and the same pool size are
    hashed together; entropy of 2**128 or more, or a longer spawn key, takes
    more words.
    """
    groups = {}  # (pool size, width) -> [(sequence, its children's entropy words)]
    for s, ss in enumerate(seqs):
        if ss.n_children_spawned + k >= 2**32:
            raise InputError(f"SeedSequence child count {ss.n_children_spawned} + {k} reaches 2**32")
        head = _words(ss.entropy)
        head += [0] * (ss.pool_size - len(head)) + _words(ss.spawn_key)
        words = np.empty((k, len(head) + 1), np.uint32)
        words[:, :-1] = head
        # numpy counts a sequence's children in 32 bits: an index is one word
        words[:, -1] = np.arange(ss.n_children_spawned, ss.n_children_spawned + k)
        groups.setdefault((ss.pool_size, words.shape[1]), []).append((s, words))
    keys = np.empty((len(seqs), k, 2), np.uint64)
    for (pool_size, _), parts in groups.items():
        state = _generate_state(_mix_entropy(np.concatenate([w for _, w in parts]), pool_size))
        state = state.astype(np.uint64)
        keys[[s for s, _ in parts]] = (state[:, 0::2] | state[:, 1::2] << 32).reshape(-1, k, 2)
    return keys.reshape(-1, 2)


def _words(x) -> list:
    """An int or a sequence of ints as SeedSequence reads it: 32-bit words,
    least significant first (0 is one word), parts concatenated."""
    if isinstance(x, (int, np.integer)):
        x, words = int(x), []
        while True:
            words.append(x & _MASK32)
            x >>= 32
            if not x:
                return words
    return [w for part in x for w in _words(part)]


def _hash_steps(init: int, mult: int):
    """The (xor, multiplier) pairs of numpy's successive hash steps: a step
    xors its value with the running constant, multiplies the constant by
    ``mult`` and the value by the new constant, then folds in the high half."""
    while True:
        step = init * mult & _MASK32
        yield np.uint32(init), np.uint32(step)
        init = step


def _hash(value: np.ndarray, steps) -> np.ndarray:
    """The next hash step of ``steps`` on a uint32 array (it wraps, as C does)."""
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of two pool words, on uint32 arrays."""
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ result >> 16


def _mix_entropy(entropy: np.ndarray, pool_size: int) -> np.ndarray:
    """SeedSequence's pool for each row of a (rows, width) uint32 entropy
    array; a child's entropy is wider than the pool, whose padding it holds."""
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(entropy[:, i], steps) for i in range(pool_size)]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], steps))
    for src in range(pool_size, entropy.shape[1]):
        for dst in range(pool_size):
            pool[dst] = _mix(pool[dst], _hash(entropy[:, src], steps))
    return np.stack(pool, axis=1)


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4)`` of each row of a (rows, pool size) pool, which
    numpy makes at least 4 words: the four uint32 words of a Philox key,
    low word first."""
    steps = _hash_steps(_INIT_B, _MULT_B)
    return np.stack([_hash(pool[:, i], steps) for i in range(4)], axis=1)


@functools.cache
def _key_seed():
    """The seed a Philox takes its key from; numpy.random's bit_generator
    module is imported on the first build, not with this module."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its key, two uint64 words

    return KeySeed


def as_streams(rngs) -> "StreamSet":
    """A StreamSet as it is; a sequence of Generators as a one-round block."""
    return rngs if isinstance(rngs, StreamSet) else StreamSet(rngs)


def block_rounds(streams: int, width: int, rounds_left: int) -> int:
    """Rounds one fill draws for ``streams`` streams of ``width`` values a round."""
    return max(1, min(MAX_BLOCK_ROUNDS, rounds_left, BLOCK_VALUES // max(1, streams * width)))


class StreamSet:
    """Independent streams of one purpose, one per (trial, node), read a round at a time.

    ``sources`` is a ``(streams, 2)`` uint64 array of Philox keys (from
    :func:`spawn_keys`), built into Philox Generators on the first draw so
    that a purpose that never draws builds none, or a sequence of
    Generators; anything else raises InputError.
    ``rounds`` is how many rounds the holder expects to read; blocks never
    run past it, and one round is drawn at a time after it.
    """

    _ahead = None  # (thread, block, errors) of the block drawn in the background

    def __init__(self, sources, rounds: int = 1):
        if isinstance(sources, np.ndarray) and sources.dtype == np.uint64:
            valid = sources.shape[1:] == (2,)
        else:
            sources = list(sources)
            valid = all(isinstance(g, np.random.Generator) for g in sources)
        if not valid:
            raise InputError("streams are a (streams, 2) uint64 key array or numpy Generators")
        self._sources = sources  # keys until the first draw builds their Generators
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
        self._sources = (self._sources[rows] if isinstance(self._sources, np.ndarray)
                         else [s for s, kept in zip(self._sources, rows) if kept])
        if self._block is not None:
            self._block = self._block[rows]
        if self._ahead is not None:
            thread, block, errors = self._ahead
            thread.join()  # the thread writes the whole block before it ends
            self._ahead = thread, block[rows], errors

    def _fill(self) -> None:
        self._block = None  # the consumed block goes before another is allocated
        if isinstance(self._sources, np.ndarray):
            seed = _key_seed()
            self._sources = [np.random.Generator(np.random.Philox(seed(k))) for k in self._sources]
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

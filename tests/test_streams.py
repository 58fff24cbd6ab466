"""Stream sets: blocks of many rounds equal per-round draws, bit for bit."""

import threading

import numpy as np
import pytest

from dcsgd import InputError, init_state, make_quadratic, streams
from dcsgd.problems import stack_problems
from dcsgd.streams import StreamSet


def children(seed, k):
    ss = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(c)) for c in ss.spawn(k)]


@pytest.mark.parametrize("draw,width,args,count", [
    pytest.param("random", 8, (), 4, id="random-8-args0"),
    pytest.param("standard_normal", 5, (), 4, id="standard_normal-5-args1"),
    pytest.param("integers", 1, (8,), 4, id="integers-1-args2"),
    pytest.param("integers", 3, (2**40,), 4, id="integers-3-args3"),
    # wide sets draw ahead: blocks of 54, 54 and 42 rounds, the last two
    # drawn in the background
    pytest.param("random", 8, (), 600, id="random-8-600-streams"),
    pytest.param("standard_normal", 8, (), 600, id="standard_normal-8-600-streams"),
])
def test_blocks_equal_per_round_draws(draw, width, args, count):
    rounds = 150  # narrow sets: blocks of 64, 64 and 22 rounds
    blocked = StreamSet(children(3, count), rounds)
    looped = children(3, count)
    for t in range(rounds + 3):  # past the horizon it draws one round at a time
        slab = blocked.take(draw, width, *args)
        want = np.array([getattr(g, draw)(*args, size=width) for g in looped])
        assert slab.tobytes() == want.tobytes()
        if t == 0:
            assert (blocked._ahead is not None) == (count == 600)
    assert blocked._ahead is None


def test_seed_children_are_the_spawned_ones_and_built_on_first_draw():
    keys = streams.spawn_keys([np.random.SeedSequence(11)], 5)
    lazy = StreamSet(keys, rounds=10)
    assert lazy.take("random", 4).tobytes() == np.array(
        [g.random(4) for g in children(11, 5)]).tobytes()
    # a set holds (streams, 2) uint64 keys or Generators, nothing else
    for other in (np.random.SeedSequence(11).spawn(5), keys[:, :1], keys.astype(np.int64),
                  list(keys)):
        with pytest.raises(InputError, match="Generators"):
            StreamSet(other)
    # init_state spawns the children; a purpose that never draws builds no Generator
    problem = make_quadratic(4, 5, rng=np.random.default_rng(0))
    state = init_state(problem, 5, "dpsgd", 11, rounds=10)
    state.sample_streams.take("random", 4)
    assert all(isinstance(s, np.random.Generator) for s in state.sample_streams._sources)
    assert not any(isinstance(s, np.random.Generator) for s in state.compress_streams._sources)


def test_init_state_advances_a_seed_sequence():
    # two states from one SeedSequence get independent streams, and a later
    # spawn does not hand out children the states already draw from
    problem = make_quadratic(4, 3, rng=np.random.default_rng(0))
    ss = np.random.SeedSequence(9)
    first = init_state(problem, 3, "dcd", ss).sample_streams.take("random", 4)
    second = init_state(problem, 3, "dcd", ss).sample_streams.take("random", 4)
    assert ss.n_children_spawned == 12
    want = [np.random.Generator(np.random.Philox(c)) for c in np.random.SeedSequence(9).spawn(12)]
    assert first.tobytes() == np.array([g.random(4) for g in want[:3]]).tobytes()
    assert second.tobytes() == np.array([g.random(4) for g in want[6:9]]).tobytes()
    assert ss.spawn(1)[0].spawn_key == (12,)


@pytest.mark.parametrize("listing", ["twice", "mixed", "empty"])
def test_init_state_with_repeated_and_mixed_seeds(listing):
    # a sequence listed twice seeds its second trial from the children its
    # first listing's advance left; an int seed makes a sequence of its own;
    # an empty listing is a stacked state of no trials
    problem = make_quadratic(4, 3, rng=np.random.default_rng(0))
    ss = np.random.SeedSequence(9)
    seeds = {"twice": [ss, ss], "mixed": [5, ss], "empty": []}[listing]
    state = init_state(stack_problems([problem, problem]), 3, "dcd", seeds)
    assert state.X.shape == (len(seeds), 4, 3) and len(state.sample_streams) == 3 * len(seeds)
    if listing == "twice":
        spawned = np.random.SeedSequence(9)
        children = [spawned.spawn(6), spawned.spawn(6)]
    elif listing == "mixed":
        children = [np.random.SeedSequence(5).spawn(6), np.random.SeedSequence(9).spawn(6)]
    else:
        children = []
    gens = [[np.random.Generator(np.random.Philox(c)) for c in cs] for cs in children]
    for purpose, nodes in ((state.sample_streams, slice(0, 3)),
                           (state.compress_streams, slice(3, 6))):
        assert purpose.take("random", 4).tobytes() == np.array(
            [g.random(4) for trial in gens for g in trial[nodes]]).tobytes()
    count = {"twice": 12, "mixed": 6, "empty": 0}[listing]
    assert ss.n_children_spawned == count
    assert ss.spawn(1)[0].spawn_key == (count,)


@pytest.mark.parametrize("spawned", [2**32 - 7, 2**32 - 6])
def test_the_child_counters_end_is_an_input_error(spawned):
    # numpy counts children in 32 bits: SeedSequence(0, n_children_spawned=
    # 2**32 - 7).spawn(6) returns, while at 2**32 - 6 spawn(6) never returns
    problem = make_quadratic(4, 3, rng=np.random.default_rng(0))
    ss = np.random.SeedSequence(0, n_children_spawned=spawned)
    if spawned == 2**32 - 6:
        with pytest.raises(InputError, match="reaches 2"):
            streams.spawn_keys([ss], 6)
        with pytest.raises(InputError, match="reaches 2"):
            init_state(problem, 3, "dcd", ss)
        assert ss.n_children_spawned == spawned  # the keys are read before the advance
        return
    fresh = _fresh(ss)
    want = np.array([c.generate_state(2, np.uint64) for c in fresh.spawn(6)])
    assert streams.spawn_keys([ss], 6).tobytes() == want.tobytes()
    state = init_state(problem, 3, "dcd", ss)
    assert state.sample_streams._sources.tobytes() == want[:3].tobytes()
    assert ss.n_children_spawned == fresh.n_children_spawned == 2**32 - 1


SEQUENCES = {
    **{f"entropy-{entropy}": np.random.SeedSequence(entropy) for entropy in
       (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**23, (1, 2**40))},
    "entropy-os": np.random.SeedSequence(),  # 128 bits of OS entropy
    **{f"spawn-key-{key}": np.random.SeedSequence(10**23, spawn_key=key)
       for key in ((1,), (3, 2**40))},
    "pool-8": np.random.SeedSequence(7, pool_size=8),
    "pool-8-spawned-7": np.random.SeedSequence(2**64 + 5, spawn_key=(1,), pool_size=8,
                                               n_children_spawned=7),
    "spawned-7": np.random.SeedSequence(3, n_children_spawned=7),
}


def _fresh(ss):
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key, pool_size=ss.pool_size,
                                  n_children_spawned=ss.n_children_spawned)


@pytest.mark.parametrize("name", SEQUENCES)
def test_spawn_keys_are_numpys(name):
    ss = SEQUENCES[name]
    want = np.array([c.generate_state(2, np.uint64) for c in _fresh(ss).spawn(5)])
    keys = streams.spawn_keys([ss], 5)
    assert keys.dtype == np.uint64 and keys.tobytes() == want.tobytes()
    assert ss.n_children_spawned == _fresh(ss).n_children_spawned  # nothing advanced


def test_spawn_keys_of_many_sequences_list_them_in_order():
    # sequences of every width and pool size, hashed in groups, come back in order
    want = np.concatenate([[c.generate_state(2, np.uint64) for c in _fresh(ss).spawn(3)]
                           for ss in SEQUENCES.values()])
    assert streams.spawn_keys(list(SEQUENCES.values()), 3).tobytes() == want.tobytes()


def test_a_generator_built_from_a_key_is_philox_of_the_child():
    ss = np.random.SeedSequence(10**23)
    s = StreamSet(streams.spawn_keys([ss], 3), rounds=1)
    s.take("standard_normal", 1)
    for built, child in zip(s._sources, _fresh(ss).spawn(3)):
        g = np.random.Generator(np.random.Philox(child))
        g.standard_normal(1)
        assert repr(built.bit_generator.state) == repr(g.bit_generator.state)
        assert built.standard_normal(1000).tobytes() == g.standard_normal(1000).tobytes()


def test_keep_slices_the_block_mid_way(slow_background_draws):
    # two trials; 300 streams of 8 values draw ahead (54-round blocks), and
    # the block after the current one is still being drawn when a trial goes
    for per_trial, width, rounds in ((3, 2, 10), (300, 8, 120)):
        s = StreamSet(children(5, 2 * per_trial), rounds)
        s.take("random", width)
        in_flight = s._ahead is not None and s._ahead[0].is_alive()
        assert in_flight == (per_trial == 300)
        s.keep(np.array([False, True]))
        rest = children(5, 2 * per_trial)[per_trial:]
        for g in rest:
            g.random(width)
        assert len(s) == per_trial
        for _ in range(rounds):  # through the drawn-ahead block and past the horizon
            assert s.take("random", width).tobytes() == np.array(
                [g.random(width) for g in rest]).tobytes()


def test_background_errors_are_raised_at_the_join(monkeypatch):
    def fail(sources, block, kind):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("draw failed")
        draw(sources, block, kind)

    draw = streams._draw
    monkeypatch.setattr(streams, "_draw", fail)
    s = StreamSet(children(1, 600), rounds=100)
    for _ in range(54):  # the first block, drawn in this thread
        s.take("random", 8)
    with pytest.raises(RuntimeError, match="draw failed"):
        s.take("random", 8)


def test_other_draws_within_a_block_rejected():
    s = StreamSet(children(0, 2), rounds=10)
    s.take("random", 3)
    with pytest.raises(InputError, match="hold draws"):
        s.take("random", 4)
    # a one-round block ends at every round: the set keeps its first kind
    s = StreamSet(children(0, 2), rounds=1)
    s.take("random", 3)
    for other in (("random", 4), ("standard_normal", 3), ("integers", 3, 8)):
        with pytest.raises(InputError, match="hold draws"):
            s.take(*other)
    assert s.take("random", 3).shape == (2, 3)


@pytest.mark.parametrize("count,width,rounds,ahead", [
    (3 * 8, 8, 250, False),  # small_sweep: 3 trials of ring 8 x dim 8
    (512, 8, 250, False),  # 4,096 values a round: the 64-round cap still sets K
    (16 * 1024, 8, 60, True),  # 16 trials of ring 1024 x dim 8: 16 values a stream
    (1024, 64, 60, True),  # wide_ring1024
])
def test_which_sets_draw_ahead(count, width, rounds, ahead, background_fills):
    s = StreamSet(streams.spawn_keys([np.random.SeedSequence(4)], count), rounds)
    for _ in range(5):
        s.take("standard_normal", width)
    assert bool(background_fills) == ahead


def test_block_rounds_budget():
    assert streams.block_rounds(24, 8, 250) == streams.MAX_BLOCK_ROUNDS
    assert streams.block_rounds(24, 8, 10) == 10
    assert streams.block_rounds(1024, 64, 60) == 4
    assert streams.block_rounds(64 * 8, 8, 250) * 64 * 8 * 8 <= streams.BLOCK_VALUES

"""Stream sets: blocks of many rounds equal per-round draws, bit for bit."""

import numpy as np
import pytest

from dcsgd import InputError, init_state, make_quadratic, streams
from dcsgd.streams import StreamSet


def children(seed, k):
    ss = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(c)) for c in ss.spawn(k)]


@pytest.mark.parametrize("draw,width,args", [
    ("random", 8, ()), ("standard_normal", 5, ()), ("integers", 1, (8,)), ("integers", 3, (2**40,)),
])
def test_blocks_equal_per_round_draws(draw, width, args):
    rounds = 150  # blocks of 64, 64 and 22 rounds
    blocked = StreamSet(children(3, 4), rounds)
    looped = children(3, 4)
    for _ in range(rounds + 3):  # past the horizon it draws one round at a time
        slab = blocked.take(draw, width, *args)
        want = np.array([getattr(g, draw)(*args, size=width) for g in looped])
        assert slab.tobytes() == want.tobytes()


def test_seed_children_are_the_spawned_ones_and_built_on_first_draw():
    lazy = StreamSet(np.random.SeedSequence(11).spawn(5), rounds=10)
    assert lazy.take("random", 4).tobytes() == np.array(
        [g.random(4) for g in children(11, 5)]).tobytes()
    # init_state spawns the children; a purpose that never draws builds no Generator
    problem = make_quadratic(4, 5, rng=np.random.default_rng(0))
    state = init_state(problem, 5, "dpsgd", 11, rounds=10)
    state.sample_streams.take("random", 4)
    assert all(isinstance(s, np.random.Generator) for s in state.sample_streams._sources)
    assert all(isinstance(s, np.random.SeedSequence) for s in state.compress_streams._sources)


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


def test_keep_slices_the_block_mid_way():
    s = StreamSet(children(5, 6), rounds=10)  # two trials of three streams
    s.take("random", 2)
    s.keep(np.array([False, True]))
    rest = children(5, 6)[3:]
    for g in rest:
        g.random(2)
    assert len(s) == 3
    assert s.take("random", 2).tobytes() == np.array([g.random(2) for g in rest]).tobytes()


def test_other_draws_within_a_block_rejected():
    s = StreamSet(children(0, 2), rounds=10)
    s.take("random", 3)
    with pytest.raises(InputError, match="hold draws"):
        s.take("random", 4)


def test_block_rounds_budget():
    assert streams.block_rounds(24, 8, 250) == streams.MAX_BLOCK_ROUNDS
    assert streams.block_rounds(24, 8, 10) == 10
    assert streams.block_rounds(1024, 64, 60) == 4
    assert streams.block_rounds(64 * 8, 8, 250) * 64 * 8 * 8 <= streams.BLOCK_VALUES

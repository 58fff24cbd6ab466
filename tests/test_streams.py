"""Stream sets: blocks of many rounds equal per-round draws, bit for bit."""

import threading

import numpy as np
import pytest

from dcsgd import InputError, init_state, make_quadratic, streams
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
    s = StreamSet(np.random.SeedSequence(4).spawn(count), rounds)
    for _ in range(5):
        s.take("standard_normal", width)
    assert bool(background_fills) == ahead


def test_block_rounds_budget():
    assert streams.block_rounds(24, 8, 250) == streams.MAX_BLOCK_ROUNDS
    assert streams.block_rounds(24, 8, 10) == 10
    assert streams.block_rounds(1024, 64, 60) == 4
    assert streams.block_rounds(64 * 8, 8, 250) * 64 * 8 * 8 <= streams.BLOCK_VALUES

"""Fixtures shared by the stream and engine tests."""

import threading
import time

import pytest

from dcsgd import streams


@pytest.fixture
def slow_background_draws(monkeypatch):
    """Delay each block a StreamSet draws ahead by 50 ms, so that the caller
    acts while the block is still being drawn."""
    draw = streams._draw

    def slow(*args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        draw(*args)

    monkeypatch.setattr(streams, "_draw", slow)


@pytest.fixture
def background_fills(monkeypatch):
    """A list that gains one entry per block a StreamSet starts drawing ahead."""
    started = []
    draw_behind = streams._draw_behind
    monkeypatch.setattr(streams, "_draw_behind",
                        lambda *args: started.append(args[1].shape) or draw_behind(*args))
    return started

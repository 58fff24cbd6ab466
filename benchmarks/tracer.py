"""Span tracer that wraps dcsgd's public names from outside the package.

Each wrapped name records calls, self time and inclusive time under a layer
key.  Callers reach the wrappers because they look the names up at call
time: the engine's module globals (``compress``, ``metrics``, the
``*_step`` functions), methods and properties on ``Problem`` and
``MixingMatrix``, the ``dcsgd.config`` builders (``engine.run`` imports them
when it is called) and the ``dcsgd.cli`` writers.  A refactor that stops
calling a wrapped name shows up as a shift of time into its caller's self
time, never as time that silently disappears.

The round window of one ``engine.run`` call starts at its first ``metrics``
call and ends when the run returns.  Spans that finish inside a window are
"round" work; everything else is set-up or output.  The part of a window
that no direct child span covers is the driver loop's own time, the
unattributed remainder.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import dcsgd.cli
import dcsgd.compression
import dcsgd.config
import dcsgd.engine
from dcsgd.problems import Problem
from dcsgd.topology import MixingMatrix

RUN_KEY = "engine.run"
METRICS_KEY = "engine.metrics"


class _Frame:
    __slots__ = ("child", "window_start", "window_child", "marks")

    def __init__(self):
        self.child = 0.0          # inclusive time of finished direct children
        self.window_start = None  # engine.run only: first metrics start
        self.window_child = 0.0
        self.marks = None


@dataclass(slots=True)
class Stat:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    values: int = 0


class Tracer:
    """Install with ``with Tracer() as tr:``; originals come back on exit.

    ``round`` and ``other`` map layer keys to :class:`Stat`; ``intervals``
    holds the seconds between successive ``metrics`` starts of a run (one
    per completed round); ``window_s`` and ``loop_s`` total the round
    windows and their unattributed remainder; ``missing`` lists the names
    that no longer exist and so could not be wrapped.
    """

    def __init__(self):
        self.round = defaultdict(Stat)
        self.other = defaultdict(Stat)
        self.intervals: list[float] = []
        self.window_s = 0.0
        self.loop_s = 0.0
        self._stack: list[_Frame] = []
        self._run: _Frame | None = None
        self._restore: list = []
        self.missing: set[str] = set()

    # ---- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        engine = dcsgd.engine
        self._patch(engine, "run", RUN_KEY)
        self._patch(engine, "metrics", METRICS_KEY)
        for name in sorted(vars(engine)):
            if name.endswith("_step") and not name.startswith("_"):
                self._patch(engine, name, "engine.step")
        self._patch(engine, "compress", "compression.compress",
                    values=lambda args, kwargs: args[1].size)
        self._patch(engine, "bits_transmitted", "compression.bits")
        self._patch(dcsgd.compression, "identity", "compression.identity")
        self._patch(Problem, "stochastic_gradients", "problems.oracle")
        self._patch(Problem, "loss", "problems.loss")
        self._patch(Problem, "grad_mean", "problems.grad_mean")
        self._patch(MixingMatrix, "num_edges", "topology.num_edges")
        config = dcsgd.config
        self._patch(config, "config_from_dict", "config.parse")
        self._patch(config, "build_topology", "topology.build")
        self._patch(config, "build_problem", "problems.build")
        self._patch(config, "build_compressor", "compression.build")
        self._patch(config, "resolve_gamma", "theory.gamma")
        self._patch(dcsgd.cli, "write_trace_csv", "cli.write")
        self._patch(dcsgd.cli, "write_rows_csv", "cli.write")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, key, values=None) -> None:
        original = vars(owner).get(name)
        if isinstance(original, property):
            wrapped = property(self._wrap(original.fget, key, values))
        elif callable(original):
            wrapped = self._wrap(original, key, values)
        else:
            self.missing.add(f"{owner.__name__}.{name}")
            return
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _wrap(self, fn, key, values=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            return tracer._call(key, fn, args, kwargs, values)

        return span

    # ---- recording --------------------------------------------------------

    def _call(self, key, fn, args, kwargs, values):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = _Frame()
        stack.append(frame)
        if key == RUN_KEY:
            outer_run, self._run = self._run, frame
            frame.marks = []
        t0 = perf_counter()
        if key == METRICS_KEY and parent is not None and parent is self._run:
            if parent.window_start is None:
                parent.window_start = t0
                parent.window_child = parent.child
            parent.marks.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            incl = t1 - t0
            run = self._run
            in_round = run is not None and run.window_start is not None and key != RUN_KEY
            stat = (self.round if in_round else self.other)[key]
            stat.calls += 1
            stat.self_s += incl - frame.child
            stat.incl_s += incl
            if values is not None:
                stat.values += values(args, kwargs)
            if parent is not None:
                parent.child += incl
            if key == RUN_KEY:
                self._close_window(frame, t1)
                self._run = outer_run

    def _close_window(self, run: _Frame, t_end: float) -> None:
        if run.window_start is None:
            return
        window = t_end - run.window_start
        self.window_s += window
        self.loop_s += window - (run.child - run.window_child)
        marks = run.marks
        self.intervals.extend(b - a for a, b in zip(marks, marks[1:]))

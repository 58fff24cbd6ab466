#!/usr/bin/env python3
"""Outside-in benchmark of dcsgd.

    python3 benchmarks/run.py --workload small_sweep --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's ``src/``, and the run fails (exit 2, no result) when it is
missing.  Every operation goes through ``dcsgd.cli.main([...])``, the same
path as the ``dcsgd run`` / ``dcsgd sweep`` commands, in this process and
one at a time (closed loop, one client).

``--trace 0`` repeats untraced passes over the workload's operations for
``--seconds`` and reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median over passes of the public builders called directly),
``rounds_per_s`` and ``peak_rss_mb`` (this process's peak resident
memory).  A shared host's speed drifts by up to 1.6x for minutes at a time,
so every pass is bracketed by a fixed reference computation that does not
touch dcsgd (:class:`Reference`), and the three timings are reported in
seconds at the reference speed: each measured time is scaled by
``REF_S`` over the mean of the two reference times around it.  The raw
seconds and the host speed are in the detail line.

``--trace 1`` alternates untraced and traced passes (see ``tracer.py``) and
reports the per-layer metrics, the layer coverage of the round time and the
tracing overhead.

Every pass is checked: each invocation exits 0, each operation completes
all its rounds with a finite final loss, and each output CSV has the same
sha256 as in the first pass (traced passes included).  The second-to-last
line of output is a JSON document with provenance and raw samples; the last
line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 5
MIX_BATCH_S = 0.02
MIX_BATCHES = 15
# Nominal seconds of one Reference() call: its median on the 2-core x86 host
# the baseline was recorded on.  Reported timings are seconds on a host that
# runs the reference in exactly this time.
REF_S = 0.030
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the mixing product runs in the calling thread, and no
# second thread competes with it for one of a small host's cores.
BLAS_THREADS = 1


@dataclasses.dataclass
class PassResult:
    wall_s: float = 0.0
    operations: int = 0
    failed: int = 0
    digests: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)


class Bench:
    """Runs passes of one workload against the checkout's dcsgd."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.config_paths = []
        for i, inv in enumerate(workload.invocations):
            path = workdir / f"config{i}.json"
            path.write_text(json.dumps(inv.config, sort_keys=True))
            self.config_paths.append(str(path))
        self.reference = None

    # ---- one pass ---------------------------------------------------------

    def run_pass(self) -> PassResult:
        """Run every invocation once; only the invocations are timed."""
        import dcsgd.cli

        result = PassResult()
        for i, inv in enumerate(self.workload.invocations):
            out = self.workdir / f"out{i}.csv"
            if out.exists():
                out.unlink()
            stdout = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = dcsgd.cli.main(inv.argv(self.config_paths[i], str(out)))
            except Exception:
                code = None
                result.errors.append(f"invocation {i} raised:\n{traceback.format_exc()}")
            result.wall_s += perf_counter() - t0
            result.operations += inv.operations
            self._check(i, inv, code, stdout.getvalue(), out, result)
        if self.reference is None:
            self.reference = result.digests
        elif result.digests != self.reference:
            result.errors.append("output digests differ from the first pass")
            result.failed = result.operations
        return result

    def _check(self, i, inv, code, stdout, out: Path, result: PassResult) -> None:
        data = out.read_bytes() if out.exists() else b""
        result.digests.append(hashlib.sha256(data).hexdigest())
        try:
            rows = _summaries(inv, stdout, data) if code == 0 else []
        except (IndexError, KeyError, ValueError):
            rows = []
        good = [r for r in rows if _row_ok(r, inv.config["T"])]
        result.failed += inv.operations - len(good)
        if len(good) != inv.operations:
            result.errors.append(f"invocation {i} ({inv.command}): exit code {code}, "
                                 f"{len(good)} of {inv.operations} operations completed")

    # ---- set-up -----------------------------------------------------------

    def time_setup(self) -> float:
        """Seconds in the public builders that the workload's operations pay
        before round 1: one config parse per invocation, then topology,
        problem, compressor and gamma per operation, called directly."""
        import numpy as np
        from dcsgd import config as C

        total = 0.0
        for inv in self.workload.invocations:
            t0 = perf_counter()
            cfg = C.config_from_dict(inv.config)
            for seed in inv.seeds or (cfg.seed,):
                op_cfg = dataclasses.replace(cfg, seed=seed)
                problem_ss, _ = np.random.SeedSequence(seed).spawn(2)
                W = C.build_topology(op_cfg.topology)
                problem = C.build_problem(op_cfg.problem, W.n,
                                          np.random.Generator(np.random.Philox(problem_ss)))
                c = C.build_compressor(op_cfg.compressor)
                C.resolve_gamma(op_cfg, problem, W, c)
            total += perf_counter() - t0
        return total

    # ---- isolated mixing product ------------------------------------------

    def time_mix(self, seed: int) -> float:
        """Median seconds of one ``X @ W.entries`` at the workload's shape."""
        import numpy as np
        from dcsgd import config as C

        cfg = C.config_from_dict(self.workload.invocations[0].config)
        W = C.build_topology(cfg.topology)
        dim, n = self.workload.shape
        X = np.random.default_rng(seed).standard_normal((dim, n))
        reps = 1
        while True:
            t0 = perf_counter()
            for _ in range(reps):
                X @ W.entries
            if perf_counter() - t0 >= MIX_BATCH_S:
                break
            reps *= 2
        batches = []
        for _ in range(MIX_BATCHES):
            t0 = perf_counter()
            for _ in range(reps):
                X @ W.entries
            batches.append((perf_counter() - t0) / reps)
        return statistics.median(batches)


def _summaries(inv, stdout: str, data: bytes) -> list[dict]:
    """One summary per operation: the JSON line ``run`` prints, or the sweep
    CSV rows, which must list the requested seeds in order."""
    if inv.command == "run":
        return [json.loads(stdout.strip().splitlines()[-1])]
    body = [line for line in data.decode().splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(body))
    return rows if [int(r["seed"]) for r in rows] == list(inv.seeds) else []


def _row_ok(row: dict, T: int) -> bool:
    try:
        return (row["status"] == "completed" and int(row["iterations"]) == T
                and math.isfinite(float(row["final_loss"])))
    except (KeyError, TypeError, ValueError):
        return False


class Reference:
    """A fixed computation that gauges the host's current speed.

    It mixes the kinds of work dcsgd does (interpreted Python, numpy calls
    on small arrays and a single-threaded matrix product) and never touches
    dcsgd, so a change to the program cannot move it.  Calling it returns
    its seconds.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.standard_normal((8, 8))
        self.a = rng.standard_normal((64, 256))
        self.b = rng.standard_normal((256, 256))

    def __call__(self) -> float:
        np = self.np
        t0 = perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        x = self.small
        for _ in range(1_500):
            x = np.clip(x * 0.5 + self.small, -3.0, 3.0)
        for _ in range(40):
            self.a @ self.b
        return perf_counter() - t0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict, list]:
    passes = [bench.run_pass()]  # warm-up; its digests are the ones to match
    reference = Reference()
    refs, setups = [reference()], []
    start = perf_counter()
    while len(setups) < MIN_PASSES or perf_counter() - start < seconds:
        setups.append(bench.time_setup())
        passes.append(bench.run_pass())
        refs.append(reference())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p.wall_s for p in passes[1:]]
    # set-up i and pass i ran between reference i and reference i + 1
    scales = [2.0 * REF_S / (a + b) for a, b in zip(refs, refs[1:])]
    rounds = bench.workload.rounds
    metrics = {
        "wall_s": (statistics.median(w * k for w, k in zip(walls, scales)), "s"),
        # every completed pass ran all the workload's rounds (checked per row)
        "rounds_per_s": (statistics.median(rounds / ((w - s) * k)
                                           for w, s, k in zip(walls, setups, scales)), "1/s"),
        "setup_s": (statistics.median(s * k for s, k in zip(setups, scales)), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = {"wall_s": walls, "setup_s": setups, "reference_s": refs,
           "host_speed": REF_S / statistics.median(refs)}
    return metrics, raw, passes


def measure_layers(bench: Bench, seconds: float, seed: int) -> tuple[dict, dict, list]:
    from tracer import Tracer

    w = bench.workload
    passes = [bench.run_pass()]
    # a fixed pass count keeps every count and sample size identical per run
    pairs = max(2, round(seconds / (2.0 * w.pass_estimate_s)))
    tracer = Tracer()
    untraced, traced = [], []
    for i in range(pairs):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer:
                    p = bench.run_pass()
                traced.append(p.wall_s)
            else:
                p = bench.run_pass()
                untraced.append(p.wall_s)
            passes.append(p)
    mix_s = bench.time_mix(seed)

    # per-round figures divide by the rounds the outputs report, so a change
    # that stops calling a wrapped name shifts the split instead of breaking it
    R = len(traced) * w.rounds
    rnd, other = tracer.round, tracer.other
    per_round_us = lambda s: s / R * 1e6
    per_pass = lambda s: s / len(traced)
    compression_self = sum(v.self_s for k, v in rnd.items() if k.startswith("compression."))
    round_us = sorted(x * 1e6 for x in tracer.intervals) or [0.0]
    flops = sum(inv.rounds * inv.mix_flops_per_round() for inv in w.invocations) / w.rounds
    metrics = {
        "compression.compress_us": (per_round_us(compression_self), "us"),
        "compression.calls_per_round": (rnd["compression.compress"].calls / R, "count"),
        "compression.values_per_round": (rnd["compression.compress"].values / R, "count"),
        "engine.step_self_us": (per_round_us(rnd["engine.step"].self_s), "us"),
        "engine.metrics_self_us": (per_round_us(rnd["engine.metrics"].self_s), "us"),
        "engine.loop_self_us": (per_round_us(tracer.loop_s), "us"),
        "engine.round_us.p50": (statistics.median(round_us), "us"),
        "engine.round_us.p99": (round_us[math.ceil(0.99 * len(round_us)) - 1], "us"),
        "engine.round_us.samples": (len(tracer.intervals), "count"),
        "problems.oracle_us": (per_round_us(rnd["problems.oracle"].self_s), "us"),
        "problems.oracle_calls_per_round": (rnd["problems.oracle"].calls / R, "count"),
        "problems.loss_us": (per_round_us(rnd["problems.loss"].self_s), "us"),
        "problems.grad_mean_us": (per_round_us(rnd["problems.grad_mean"].self_s), "us"),
        "problems.build_s": (per_pass(other["problems.build"].incl_s), "s"),
        "topology.num_edges_us": (per_round_us(rnd["topology.num_edges"].self_s), "us"),
        "topology.num_edges_calls_per_round": (rnd["topology.num_edges"].calls / R, "count"),
        "topology.build_s": (per_pass(other["topology.build"].incl_s), "s"),
        "topology.builds_per_op": (per_pass(other["topology.build"].calls) / w.operations,
                                   "count"),
        "topology.mix_us": (mix_s * 1e6, "us"),
        "topology.mix_flops_per_round": (flops, "flop"),
        "config.parse_s": (per_pass(other["config.parse"].self_s), "s"),
        "theory.gamma_s": (per_pass(other["theory.gamma"].incl_s), "s"),
        "cli.write_s": (per_pass(other["cli.write"].incl_s), "s"),
        "trace.coverage": (1.0 - tracer.loop_s / tracer.window_s if tracer.window_s else 0.0,
                           "ratio"),
        "trace.overhead_pct": (100.0 * (statistics.median(traced) / statistics.median(untraced)
                                        - 1.0), "%"),
    }
    raw = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "round_spans": {k: dataclasses.asdict(v) for k, v in sorted(rnd.items())},
        "other_spans": {k: dataclasses.asdict(v) for k, v in sorted(other.items())},
    }
    if tracer.missing:
        raw["not_wrapped"] = sorted(tracer.missing)
    if len(tracer.intervals) != R:
        raw["warning"] = (f"{len(tracer.intervals)} round intervals traced for {R} rounds; "
                          "engine.run or engine.metrics is no longer called by name")
    return metrics, raw, passes


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(workload, reference_digests) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_set": BLAS_THREADS, "threads_reported": _blas_runtime_threads()},
        "git_rev": _git_rev(),
        "src_sha256": _tree_sha256(SRC),
        "workload": workload.name,
        "config_sha256": workload.config_sha256(),
        "output_sha256": reference_digests,
    }


def _cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def _blas_runtime_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be queried."""
    import ctypes

    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                lib = ctypes.CDLL(path)
                for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                    if hasattr(lib, name):
                        fn = getattr(lib, name)
                        fn.restype = ctypes.c_int
                        fn.argtypes = []
                        return int(fn())
    return None


def _git_rev() -> str | None:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dcsgd" / "__init__.py").is_file():
        print(f"error: no dcsgd package under {SRC}", file=sys.stderr)
        return 2
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    sys.path.insert(0, str(SRC))
    import dcsgd
    from workloads import WORKLOADS

    if not Path(dcsgd.__file__).resolve().is_relative_to(SRC):
        print(f"error: dcsgd imported from {dcsgd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".bench_build" / f"dcsgd-bench-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(workload, workdir)
        if args.trace:
            metrics, raw, passes = measure_layers(bench, args.seconds, args.seed)
        else:
            metrics, raw, passes = measure_end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.operations for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    for e in errors:
        print(e, file=sys.stderr)
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    detail = {"provenance": provenance(workload, bench.reference), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "raw": raw, "errors": errors}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not errors and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())

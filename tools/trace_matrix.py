"""Byte-identity matrix: 450 small runs whose outputs must not change.

Runs the product of 5 algorithms x 5 compressors x 3 topologies x 2 problems
x 3 step sizes (T 120, seed 3, trace_every 1, z_norm_cap 50) through
``dcsgd.cli.main(["run", ...])`` and prints one line per config:

    <index> <exit code> <sha256 of the trace CSV followed by stdout>

With ``--theory`` it runs ``dcsgd theory`` on the same configs instead and
prints the sha256 of its stdout followed by its stderr, so the exit-1
messages are pinned with the JSON.  With ``--large`` it runs 13 wide
states instead: dpsgd, dcd and ecd (quantize 127) x ring 1024 with dim 64
and ring 256 with dim 256 x two step sizes, on a noisy quadratic for T 12,
then dpsgd on ring 2048 with dim 8 and the theory step size, which resolves
from the ring's closed-form spectrum.  The small configs draw their random
streams in blocks of up to ``streams.MAX_BLOCK_ROUNDS`` rounds; the large
ones are where the value budget ``streams.BLOCK_VALUES`` sets the block
length instead.  With ``--sweep`` it runs ``dcsgd sweep`` instead, on each
algorithm (ring 8, dim-8 noisy quadratic, T 60, quantize 127 for naive, dcd
and ecd, a gradient threshold that some rows reach) over every axis: seed,
bandwidth and latency once, and gamma, levels and n without and with
``--seeds 0,1``.  Each axis's values hold one that fails its row with
``config_error`` (a quoted cell) and the gamma values one that diverges
(3.0, so ``inf`` cells), and each line digests the sweep CSV, stdout and
stderr, warnings included.  A change that must keep traces byte-identical
runs this on the parent commit and on the change and diffs the two outputs:

    PYTHONPATH=src python tools/trace_matrix.py > after.txt

A change that alters values on purpose keeps each config's outputs with
``--keep DIR`` (``<index>.csv`` for the trace, ``<index>.out`` for stdout)
at both commits, then bounds the change value by value:

    PYTHONPATH=src python tools/trace_matrix.py --compare before/ after/

which prints, for each file whose text differs, the largest relative
deviation |a - b| / max(|a|, |b|) over its numbers, or ``layout`` when the
files differ in anything but the digits of their numbers, and the largest
deviation over all files last.

Uses only the standard library and dcsgd.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import tempfile
import warnings

from dcsgd.cli import main as dcsgd_main
from dcsgd.engine import ALGORITHMS

COMPRESSORS = (
    {"kind": "identity"},
    {"kind": "quantize", "levels": 127},
    {"kind": "quantize", "levels": 7},
    {"kind": "sparsify", "keep_prob": 0.25},
    {"kind": "synthetic", "noise_bound": 1.0},
)
TOPOLOGIES = (
    {"kind": "ring", "n": 8},
    {"kind": "complete", "n": 5},
    {"kind": "custom", "n": 6,
     "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 3]]},
)
PROBLEMS = (
    {"kind": "quadratic", "dim": 8, "heterogeneity": 0.5, "noise": 0.2},
    {"kind": "logistic", "dim": 6, "samples_per_node": 8},
)
GAMMAS = (0.05, "theory", 3.0)
# (axis, --values) of the sweep mode; the axes that take --seeds run
# without and with SWEEP_SEEDS
SWEEP_VALUES = (
    ("seed", "-1,0,5"),
    ("gamma", "0.05,3.0,nan"),
    ("levels", "7,127,0"),
    ("n", "4,2,8"),
    ("bandwidth", "1e8,5e6,nan"),
    ("latency", "0.001,-0.001,0.0"),
)
SEEDED_AXES = ("gamma", "levels", "n")
SWEEP_SEEDS = "0,1"
LARGE_SHAPES = ((1024, 64), (256, 256))  # (ring n, dim)
LARGE_GAMMAS = (0.05, 0.2)
# a decimal number as Python's repr and json print it
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def configs():
    for alg, comp, topo, prob, gamma in itertools.product(
        ALGORITHMS, COMPRESSORS, TOPOLOGIES, PROBLEMS, GAMMAS
    ):
        yield {
            "algorithm": alg, "compressor": comp, "topology": topo, "problem": prob,
            "gamma": gamma, "T": 120, "seed": 3, "trace_every": 1, "z_norm_cap": 50,
        }


def large_configs():
    for alg, (n, dim), gamma in itertools.product(
        ("dpsgd", "dcd", "ecd"), LARGE_SHAPES, LARGE_GAMMAS
    ):
        yield {
            "algorithm": alg, "compressor": {"kind": "quantize", "levels": 127},
            "topology": {"kind": "ring", "n": n},
            "problem": {"kind": "quadratic", "dim": dim, "heterogeneity": 0.5, "noise": 0.2},
            "gamma": gamma, "T": 12, "seed": 3, "trace_every": 1,
        }
    yield {
        "algorithm": "dpsgd", "compressor": {"kind": "identity"},
        "topology": {"kind": "ring", "n": 2048},
        "problem": {"kind": "quadratic", "dim": 8, "heterogeneity": 0.5, "noise": 0.2},
        "gamma": "theory", "T": 12, "seed": 3, "trace_every": 1,
    }


def sweep_runs():
    """(config, sweep arguments) of the sweep mode."""
    for alg in ALGORITHMS:
        comp = ({"kind": "quantize", "levels": 127} if alg in ("naive", "dcd", "ecd")
                else {"kind": "identity"})
        cfg = {
            "algorithm": alg, "compressor": comp, "topology": {"kind": "ring", "n": 8},
            "problem": PROBLEMS[0], "gamma": 0.05, "T": 60, "seed": 3, "grad_threshold": 0.005,
        }
        for axis, values in SWEEP_VALUES:
            for seeds in (None, SWEEP_SEEDS) if axis in SEEDED_AXES else (None,):
                yield cfg, ["--axis", axis, f"--values={values}"] + (
                    ["--seeds", seeds] if seeds else [])


def digest(argv: list[str], csv_path: str | None = None,
           keep: str | None = None, stderr: bool = False) -> tuple[int, str]:
    """Exit code of one dcsgd invocation and sha256 of its CSV plus stdout,
    and plus stderr if ``stderr`` is set.

    With ``keep`` (a path without suffix) the CSV is moved to keep.csv,
    stdout written to keep.out and a digested stderr to keep.err.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always" if stderr else "ignore")  # a digested warning is pinned
        code = dcsgd_main(argv)
    h = hashlib.sha256()
    if csv_path and os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            h.update(fh.read())
        if keep:
            shutil.move(csv_path, keep + ".csv")
        else:
            os.remove(csv_path)
    texts = {".out": out.getvalue()}
    if stderr:
        texts[".err"] = err.getvalue()
    for suffix, text in texts.items():
        h.update(text.encode())
        if keep:
            with open(keep + suffix, "w") as fh:
                fh.write(text)
    return code, h.hexdigest()


def deviation(a: str, b: str) -> float | None:
    """Largest relative deviation between the numbers of two texts, or None
    when they differ in anything else (text, count or position of numbers)."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[::2] != pb[::2]:
        return None
    worst = 0.0
    for x, y in zip(map(float, pa[1::2]), map(float, pb[1::2])):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def read(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def compare(before: str, after: str) -> None:
    """Print the relative deviation of each kept file that differs, then the largest."""
    names = sorted(set(os.listdir(before)) | set(os.listdir(after)),
                   key=lambda name: (int(name.split(".")[0]), name))
    worst, changed = 0.0, 0
    for name in names:
        texts = [read(os.path.join(folder, name)) for folder in (before, after)]
        if texts[0] == texts[1]:
            continue
        changed += 1
        dev = None if None in texts else deviation(*texts)
        print(name, "layout" if dev is None else f"{dev:.3e}")
        worst = math.inf if dev is None else max(worst, dev)
    print(f"max {worst:.3e} over {changed} of {len(names)} files")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--theory", action="store_true",
                      help="digest `dcsgd theory` on the same configs instead")
    mode.add_argument("--large", action="store_true",
                      help="digest `dcsgd run` on the 13 wide-state configs instead")
    mode.add_argument("--sweep", action="store_true",
                      help="digest `dcsgd sweep` on every axis of five small configs instead")
    mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                      help="compare two --keep directories value by value instead")
    parser.add_argument("--keep", metavar="DIR",
                        help="keep each config's trace CSV and stdout in DIR")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, csv_path = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "trace.csv")
        if args.sweep:
            runs = sweep_runs()
        else:
            runs = ((cfg, None) for cfg in (large_configs() if args.large else configs()))
        for index, (cfg, sweep_args) in enumerate(runs):
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            keep = os.path.join(args.keep, str(index)) if args.keep else None
            if sweep_args:
                code, sha = digest(["sweep", "--config", cfg_path, *sweep_args,
                                    "--out", csv_path], csv_path, keep, stderr=True)
            elif args.theory:
                code, sha = digest(["theory", "--config", cfg_path], keep=keep, stderr=True)
            else:
                code, sha = digest(["run", "--config", cfg_path, "--out", csv_path],
                                   csv_path, keep)
            print(index, code, sha, flush=True)


if __name__ == "__main__":
    main()

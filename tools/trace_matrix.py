"""Byte-identity matrix: 450 small runs whose outputs must not change.

Runs the product of 5 algorithms x 5 compressors x 3 topologies x 2 problems
x 3 step sizes (T 120, seed 3, trace_every 1, z_norm_cap 50) through
``dcsgd.cli.main(["run", ...])`` and prints one line per config:

    <index> <exit code> <sha256 of the trace CSV followed by stdout>

With ``--theory`` it runs ``dcsgd theory`` on the logistic configs instead
and prints the sha256 of its JSON.  With ``--large`` it runs 12 wide states
instead: dpsgd, dcd and ecd (quantize 127) x ring 1024 with dim 64 and
ring 256 with dim 256 x two step sizes, on a noisy quadratic for T 12.  The
small configs draw their random streams in blocks of up to
``streams.MAX_BLOCK_ROUNDS`` rounds; the large ones are where the value
budget ``streams.BLOCK_VALUES`` sets the block length instead.  A change
that must keep traces byte-identical runs this on the parent commit and on
the change and diffs the two outputs:

    PYTHONPATH=src python tools/trace_matrix.py > after.txt

Uses only the standard library and dcsgd.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import tempfile
import warnings

from dcsgd.cli import main as dcsgd_main

ALGORITHMS = ("dpsgd", "naive", "dcd", "ecd", "centralized")
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
LARGE_SHAPES = ((1024, 64), (256, 256))  # (ring n, dim)
LARGE_GAMMAS = (0.05, 0.2)


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


def digest(argv: list[str], csv_path: str | None = None) -> tuple[int, str]:
    """Exit code of one dcsgd invocation and sha256 of its CSV plus stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = dcsgd_main(argv)
    h = hashlib.sha256()
    if csv_path and os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            h.update(fh.read())
        os.remove(csv_path)
    h.update(out.getvalue().encode())
    return code, h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--theory", action="store_true",
                      help="digest `dcsgd theory` on the logistic configs instead")
    mode.add_argument("--large", action="store_true",
                      help="digest `dcsgd run` on the 12 wide-state configs instead")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, csv_path = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "trace.csv")
        for index, cfg in enumerate(large_configs() if args.large else configs()):
            if args.theory and cfg["problem"]["kind"] != "logistic":
                continue
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            if args.theory:
                code, sha = digest(["theory", "--config", cfg_path])
            else:
                code, sha = digest(["run", "--config", cfg_path, "--out", csv_path], csv_path)
            print(index, code, sha, flush=True)


if __name__ == "__main__":
    main()

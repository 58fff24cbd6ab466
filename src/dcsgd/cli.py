"""Command-line interface: run / theory / cost / sweep subcommands.

Every output file starts with a comment block echoing the resolved
configuration (including a theory-resolved gamma), so results are
self-describing and byte-identical across repeated invocations.

Exit codes: 0 completed, 1 configuration or argument error, 2 diverged run.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys

from . import costmodel, engine, streams, theory
from .compression import FULL_PRECISION_BITS, bits_transmitted, effective_alpha
from .config import RunConfig, build_compressor, build_run, parse_config, resolve_gamma
from .errors import ConfigError, InfeasibleError, InputError, TopologyError

SWEEP_AXES = ("gamma", "levels", "n", "seed", "bandwidth", "latency")
SEEDED_AXES = ("gamma", "levels", "n")  # the axes that take --seeds
COST_AXES = {"bandwidth": "bandwidths", "latency": "latencies"}  # axis: network field

RUN_ROW_FIELDS = (
    "axis", "value", "seed", "status", "gamma", "iterations", "final_loss",
    "final_grad_norm2", "min_grad_norm2", "final_consensus", "time_to_threshold",
    "total_bits",
)
COST_ROW_FIELDS = ("axis", "value", "seed", "status",
                   "allreduce_s", "decen_full_s", "decen_compressed_s")
GRID_FIELDS = ("bandwidth", "latency", "allreduce_s", "decen_full_s", "decen_compressed_s")

_CONFIG_ERRORS = (ConfigError, InfeasibleError, TopologyError, InputError)

# A seed or gamma sweep runs its entries as trial batches of at most
# MAX_TRIALS trials and BATCH_BYTES bytes: per-trial data (_trial_bytes) plus
# the batch's blocks of random draws (DRAW_BYTES).
# Measured on 2-core x86, one BLAS thread, seed sweeps by batch size: ring 8
# x dim 8 goes from 6,300 trial-rounds/s at 1 trial to 54,100 at 64 (47,100
# at 128); dim 64 x ring 16 and logistic dim 16 x ring 16 gain about 1.8x by
# 8 to 32 trials; ring 256 x dim 16 is fastest at 8 and slower past 32; a
# dim-1024 quadratic or 512 samples per logistic node gain nothing, while
# peak RSS grows by the problem's size per trial.  The byte cap gave these
# shapes 64, about 45, 11 and 1 trial(s) before the draw blocks were
# counted; with them, 64, 36, 9 and 1 at T 200 and trace_every 10: against
# one run at a time, peak RSS grew by at most 10 MB, and wall time fell
# except on the dim-1024 sweep (1 trial per batch), whose QR and eigvalsh
# set-up kept it within 5%.
MAX_TRIALS = 64
# A batch buffers at most max(streams.BLOCK_VALUES, one round) draws for each
# of its two purposes, the oracle and compression, and a purpose that draws
# ahead holds a second such block, the next one, drawn in the background;
# _trial_bytes counts one round, this the block budget of both purposes
# drawing ahead.  Measured buffers: a 3-seed ring 8 x dim 8 sweep with a
# noise-free oracle holds one 96 KiB compression block (64 rounds), 64 seeds
# with oracle noise two 2 MiB blocks (64 rounds, too narrow to draw ahead),
# and a ring 1024 x dim 64 dpsgd run two 2 MiB oracle blocks (4 rounds each,
# the current and the next).
DRAW_BYTES = 2 * 2 * 8 * streams.BLOCK_VALUES
# 7 MiB of per-trial data plus the draw blocks
BATCH_BYTES = 7 * 2**20 + DRAW_BYTES


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep(cfg: RunConfig, axis: str, values, seeds=None) -> list[dict]:
    """One summary row per (value, seed), in deterministic order.

    Per-entry failures land in the status column instead of aborting the
    sweep.  The seed and gamma axes only change a trial's seed and step
    size, so their entries run as trial batches through one ``engine.run``
    call each, every row bit for bit what a solo run gives; the n and levels
    axes change shapes and run one entry at a time.  The bandwidth / latency
    axes evaluate the communication model of a one-point network grid rather
    than running the simulator.  ``seeds`` applies to ``SEEDED_AXES`` only.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if seeds and axis not in SEEDED_AXES:
        raise ConfigError(f"--seeds applies only to the {'/'.join(SEEDED_AXES)} axes, "
                          f"not to {axis!r}")
    if axis == "seed":
        entries = [(int(v), int(v)) for v in values]
    else:
        entries = [(v, int(s)) for v in values for s in seeds or [cfg.seed]]
    rows, runnable = [], []
    for value, seed in entries:
        row = dict.fromkeys(COST_ROW_FIELDS if axis in COST_AXES else RUN_ROW_FIELDS, "")
        row.update(axis=axis, value=value, seed=seed)
        rows.append(row)
        try:
            derived = _derive_config(cfg, axis, value, seed)
            if axis in COST_AXES:
                grid = _grid(derived)[0]
                row.update({k: grid[k] for k in COST_ROW_FIELDS[4:]}, status="completed")
            else:
                runnable.append((row, derived))
        except _CONFIG_ERRORS as exc:
            row["status"] = f"config_error: {exc}"
    size = _batch_size(cfg) if axis in ("seed", "gamma") else 1
    while runnable:
        _run_rows(runnable[:size])
        del runnable[:size]  # filled rows drop their configs and the matrices they keep
    return rows


def _batch_size(cfg: RunConfig) -> int:
    """Trials per batch of a seed or gamma sweep of ``cfg``."""
    return max(1, min(MAX_TRIALS, (BATCH_BYTES - DRAW_BYTES) // _trial_bytes(cfg)))


def _trial_bytes(cfg: RunConfig) -> int:
    """Bytes one trial holds in a running batch, from the config's shapes.

    Counts the state matrix and its round temporaries (about ten (dim, n)
    arrays), the problem arrays twice (a trial's own problem and its slice
    of the stacked one coexist while the batch is built), the trace rows
    (five floats per recorded round, in a buffer that grows by doubling),
    one round of draws for each of the two purposes (at most dim values per
    node; past the block budget a block holds one round) and the 2 n random
    streams (about 640 bytes each).
    """
    dim, n = cfg.problem.dim, cfg.topology.n
    if cfg.problem.kind == "logistic":
        problem = n * cfg.problem.samples_per_node * (dim + 1)
    else:
        problem = dim * (dim + n)
    rows = cfg.T // cfg.trace_every + 2
    return 8 * (10 * dim * n + 2 * problem + 2 * 5 * rows + 2 * dim * n) + 2 * n * 640


def _run_rows(entries: list) -> None:
    """Run (row, config) entries as one trial batch and fill their rows.

    When a trial's set-up fails, the entries run one by one, so only the
    failing rows get the ``config_error`` status.
    """
    try:
        results = engine.run([derived for _, derived in entries])
    except _CONFIG_ERRORS as exc:
        if len(entries) > 1:
            for entry in entries:
                _run_rows([entry])
        else:
            entries[0][0]["status"] = f"config_error: {exc}"
        return
    for (row, _), result in zip(entries, results):
        s = result.summary
        row.update(
            status=s.status, gamma=s.gamma, iterations=s.iterations,
            final_loss=s.final_loss, final_grad_norm2=s.final_grad_norm2,
            min_grad_norm2=s.min_grad_norm2,
            final_consensus=s.final_consensus,
            time_to_threshold="" if s.time_to_threshold is None else s.time_to_threshold,
            total_bits=s.total_bits,
        )


def _derive_config(cfg: RunConfig, axis: str, value, seed: int) -> RunConfig:
    cfg = dataclasses.replace(cfg, seed=seed)
    if axis == "seed":
        return cfg
    if axis == "gamma":
        return dataclasses.replace(cfg, gamma=value)
    if axis in COST_AXES:  # the value and the first entry of the other list
        net = cfg.network
        point = {"bandwidths": net.bandwidths[:1], "latencies": net.latencies[:1],
                 COST_AXES[axis]: (value,)}
        return dataclasses.replace(cfg, network=dataclasses.replace(net, **point))
    if axis == "levels":
        if cfg.compressor.kind != "quantize":
            raise ConfigError(
                f"levels sweep needs a quantize compressor, got {cfg.compressor.kind!r}"
            )
        comp = dataclasses.replace(cfg.compressor, levels=value)
        return dataclasses.replace(cfg, compressor=comp)
    if cfg.topology.kind == "custom":  # the n axis
        raise ConfigError("cannot sweep n over a custom edge list")
    topo = dataclasses.replace(cfg.topology, n=int(value))
    return dataclasses.replace(cfg, topology=topo)


def _grid(cfg: RunConfig) -> list[dict]:
    """The config's communication-time grid, one row per (bandwidth, latency)."""
    net = cfg.network
    bits = FULL_PRECISION_BITS * net.model_dim
    return costmodel.cost_grid(
        n=cfg.topology.n, model_bits=bits,
        compression_ratio=bits_transmitted(build_compressor(cfg.compressor), net.model_dim) / bits,
        steps_per_epoch=net.steps_per_epoch, degree=net.degree,
        compute_s=net.compute_s, bandwidths=net.bandwidths, latencies=net.latencies,
    )


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _metadata_lines(cfg: RunConfig, extra: dict | None = None) -> list[str]:
    doc = dataclasses.asdict(cfg)
    if extra:
        doc.update(extra)
    return ["# dcsgd output", f"# config: {json.dumps(doc, sort_keys=True)}"]


def _format_cell(v) -> str:
    """A float's repr or anything else's str, quoted as csv.QUOTE_MINIMAL would."""
    text = repr(v) if isinstance(v, float) else str(v)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace_csv(path: str, cfg: RunConfig, result: engine.RunResult) -> None:
    lines = _metadata_lines(cfg, {"resolved_gamma": result.summary.gamma,
                                  "status": result.summary.status})
    lines.append(",".join(engine.TraceRecord.FIELDS))
    for r in result.records:
        lines.append(",".join(_format_cell(getattr(r, f)) for f in engine.TraceRecord.FIELDS))
    _write_lines(path, lines)


def write_rows_csv(path: str, cfg: RunConfig, rows: list[dict], fields) -> None:
    lines = _metadata_lines(cfg)
    lines.append(",".join(fields))
    for row in rows:
        lines.append(",".join(_format_cell(row[f]) for f in fields))
    _write_lines(path, lines)


def _check_out(path: str | None) -> None:
    """Raise the OSError that writing ``path`` would raise (ConfigError if it
    is empty), before any work is done, without creating or truncating it."""
    if path in (None, "-"):
        return
    if not path:
        raise ConfigError("--out must be a file path or '-', got an empty string")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _write_lines(path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _summary_dict(summary: engine.RunSummary) -> dict:
    doc = dataclasses.asdict(summary)
    for k, v in doc.items():
        if isinstance(v, float) and not math.isfinite(v):
            doc[k] = repr(v)
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    _check_out(args.out)
    result = engine.run(cfg)
    if args.out:
        write_trace_csv(args.out, cfg, result)
    print(json.dumps(_summary_dict(result.summary), sort_keys=True))
    return 0 if result.summary.status == "completed" else 2


def _cmd_theory(args) -> int:
    cfg = _load_config(args)
    W, problem, c, _ = build_run(cfg)
    alpha = effective_alpha(c, problem.dim)
    feasible = theory.dcd_feasible(W.rho, W.mu, alpha)
    doc = {
        "rho": W.rho, "mu": W.mu, "alpha": alpha if math.isfinite(alpha) else "unbounded",
        "L": problem.L, "sigma2": problem.sigma2, "zeta2": problem.zeta2,
        "dcd_feasible": feasible,
        "alpha_budget": (1.0 - W.rho) / (2.0 * W.mu),
    }
    try:
        doc["gamma"] = resolve_gamma(
            dataclasses.replace(cfg, gamma="theory"), problem, W, c)
    except InfeasibleError as exc:
        doc["gamma"] = f"unavailable: {exc}"
    if feasible:
        consts = theory.constants(W.rho, W.mu, alpha, problem.L, gamma=0.0)
        doc.update(D1=consts.D1, D2=consts.D2, C1=consts.C1)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_cost(args) -> int:
    cfg = _load_config(args)
    write_rows_csv(args.out, cfg, _grid(cfg), GRID_FIELDS)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = _parse_values(args.axis, args.values)
    seeds = None
    if args.seeds:
        seeds = [_parse_number(int, s, "--seeds") for s in args.seeds.split(",")]
    _check_out(args.out)
    rows = sweep(cfg, args.axis, values, seeds)
    fields = COST_ROW_FIELDS if args.axis in COST_AXES else RUN_ROW_FIELDS
    write_rows_csv(args.out, cfg, rows, fields)
    return 0


def _parse_values(axis: str, text: str) -> list:
    items = [s for s in text.split(",") if s]
    if not items:
        raise ConfigError("--values must be a nonempty comma-separated list")
    kind = int if axis in ("levels", "n", "seed") else float
    return [_parse_number(kind, s, "--values") for s in items]


def _parse_number(kind, text: str, flag: str):
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{flag} entry {text!r} is not {what}") from None


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a bad argument; subparsers are of the same class."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dcsgd`` argument parser, built once per process: parsing leaves
    no state in it, so successive ``main`` calls share it."""
    parser = _Parser(
        prog="dcsgd",
        description="Desk-scale simulator for communication-compressed decentralized SGD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run, write a trace CSV")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", default=None, help="trace CSV path ('-' for stdout)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_theory = sub.add_parser(
        "theory", help="print rate constants, feasibility verdict and suggested gamma")
    p_theory.add_argument("--config", required=True)
    p_theory.add_argument("--seed", type=int, default=None)
    p_theory.set_defaults(func=_cmd_theory)

    p_cost = sub.add_parser("cost", help="write the communication-time grid CSV")
    p_cost.add_argument("--config", required=True)
    p_cost.add_argument("--out", default="-")
    p_cost.set_defaults(func=_cmd_cost)

    p_sweep = sub.add_parser("sweep", help="run the config across one swept axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seeds")
    p_sweep.add_argument("--out", default="-")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (*_CONFIG_ERRORS, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

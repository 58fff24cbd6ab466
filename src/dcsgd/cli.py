"""Command-line interface: run / theory / cost / sweep subcommands.

Every output file starts with a comment block echoing the resolved
configuration (including a theory-resolved gamma), so results are
self-describing and byte-identical across repeated invocations.

Exit codes: 0 completed, 1 configuration or argument error, 2 diverged run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import functools
import json
import math
import operator
import os
import sys
import warnings

from . import costmodel, engine, theory
from .compression import FULL_PRECISION_BITS, bits_transmitted, effective_alpha
from .config import RunConfig, build_compressor, build_run, parse_config, resolve_gamma
from .errors import ConfigError, InfeasibleError, InputError, TopologyError

SWEEP_AXES = ("gamma", "levels", "n", "seed", "bandwidth", "latency")
SEEDED_AXES = ("gamma", "levels", "n")  # the axes that take --seeds
COST_AXES = {"bandwidth": "bandwidths", "latency": "latencies"}  # axis: network field

# the columns of a sweep row, and of a cost-axis sweep row: its first four
# and the grid point's epoch times
RUN_ROW_FIELDS = ("axis", "value") + tuple(f.name for f in dataclasses.fields(engine.RunSummary))
COST_ROW_FIELDS = RUN_ROW_FIELDS[:4] + costmodel.GRID_FIELDS[2:]
TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(engine.TraceRecord))

_CONFIG_ERRORS = (ConfigError, InfeasibleError, TopologyError, InputError)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep(cfg: RunConfig, axis: str, values, seeds=None) -> list[dict]:
    """One summary row per (value, seed), in deterministic order.

    Per-entry failures land in the status column instead of aborting the
    sweep.  On every axis, consecutive entries that differ only in seed and
    gamma run as one trial batch per ``engine.run`` call, sized by
    ``engine.batch_length``, every row bit for bit what a solo run gives.
    The bandwidth / latency axes evaluate the communication model of a
    one-point network grid rather than running the simulator.  ``seeds``
    applies to ``SEEDED_AXES`` only.
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
        row = dict.fromkeys(COST_ROW_FIELDS if axis in COST_AXES else RUN_ROW_FIELDS)
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
    while runnable:
        size = engine.batch_length(derived for _, derived in runnable)
        _run_rows(runnable[:size])
        del runnable[:size]  # filled rows drop their configs and the matrices they keep
    return rows


def _run_rows(entries: list) -> None:
    """Run (row, config) entries as one trial batch and fill their rows.

    When a trial's set-up fails or the batch runs out of memory, the entries
    run one by one, so only the failing rows get the ``config_error``
    status, with the message ``main`` would print.
    """
    try:
        results = engine.run([derived for _, derived in entries])
    except (*_CONFIG_ERRORS, MemoryError) as exc:
        if len(entries) > 1:
            for entry in entries:
                _run_rows([entry])
        else:
            entries[0][0]["status"] = f"config_error: {_message(exc)}"
        return
    for (row, _), result in zip(entries, results):
        row.update(_summary_cells(result.summary))


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


def write_trace_csv(path: str, cfg: RunConfig, result: engine.RunResult) -> None:
    _write_csv(path, cfg, TRACE_FIELDS, map(operator.attrgetter(*TRACE_FIELDS), result.records),
               {"resolved_gamma": result.summary.gamma, "status": result.summary.status})


def write_rows_csv(path: str, cfg: RunConfig, rows: list[dict], fields) -> None:
    _write_csv(path, cfg, fields, ([row[f] for f in fields] for row in rows))


def _write_csv(path: str, cfg: RunConfig, fields, rows, extra: dict | None = None) -> None:
    """Two ``#`` lines echoing the config (and ``extra``), then the header and
    the rows, to ``path`` or stdout ('-'): a float as its repr, None as an
    empty cell, minimal quoting."""
    doc = dataclasses.asdict(cfg)
    if extra:
        doc.update(extra)
    with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w") as fh:
        fh.write(f"# dcsgd output\n# config: {json.dumps(doc, sort_keys=True)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)


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


def _summary_cells(summary: engine.RunSummary) -> dict:
    """The summary's fields in order, a non-finite float as its repr: the
    ``run`` JSON and a sweep row's cells."""
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in dataclasses.asdict(summary).items()}


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
    print(json.dumps(_summary_cells(result.summary), sort_keys=True))
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
        "alpha_budget": theory.alpha_budget(W.rho, W.mu),
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
    _check_out(args.out)
    write_rows_csv(args.out, cfg, _grid(cfg), costmodel.GRID_FIELDS)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    kind = int if args.axis in ("levels", "n", "seed") else float
    values = _parse_list("--values", args.values, kind)
    seeds = None if args.seeds is None else _parse_list("--seeds", args.seeds, int)
    _check_out(args.out)
    rows = sweep(cfg, args.axis, values, seeds)
    fields = COST_ROW_FIELDS if args.axis in COST_AXES else RUN_ROW_FIELDS
    write_rows_csv(args.out, cfg, rows, fields)
    return 0


def _parse_list(flag: str, text: str, kind) -> list:
    """The comma-separated entries of ``flag``, each parsed as ``kind`` (int or
    float); an entry that is empty or not such a number is a ConfigError."""
    values = []
    for entry in text.split(","):
        try:
            values.append(kind(entry))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{flag} entry {entry!r} is not {what}") from None
    return values


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
    with warnings.catch_warnings():  # a warning is one stderr line, not a source excerpt
        warnings.showwarning = _print_warning
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except (*_CONFIG_ERRORS, OSError, UnicodeDecodeError, MemoryError) as exc:
            print(f"configuration error: {_message(exc)}", file=sys.stderr)
            return 1


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _message(exc: Exception) -> str:
    """The one-line text of an error; a bare MemoryError() has none."""
    return str(exc) or "out of memory"


if __name__ == "__main__":
    sys.exit(main())

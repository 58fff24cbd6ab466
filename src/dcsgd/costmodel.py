"""Analytic per-epoch communication-time model.

The model claims ordinal fidelity only: it reproduces which configuration
wins under which (bandwidth, latency) regime, not absolute wall-clock
times.  The centralized baseline assumes a bandwidth-optimal ring
allreduce (2(n-1) message rounds, each node moving 2(n-1)/n of the
payload per step); the decentralized exchange is one round of `degree`
concurrent neighbor messages per step.  A single per-step compute time is
added uniformly to every configuration.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class NetworkSpec:
    """Link parameters plus payload accounting for one configuration.

    bandwidth:          bits/second per link.
    latency:            seconds per message.
    n:                  node count.
    model_bits:         full-precision payload of one exchange (32 * dim).
    compression_ratio:  sent bits / full-precision bits (1.0 uncompressed).
    compute_s:          per-step computation time added to every variant.
    """

    bandwidth: float
    latency: float
    n: int
    model_bits: float
    compression_ratio: float = 1.0
    compute_s: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"need n >= 2, got {self.n}")
        for name in ("bandwidth", "model_bits", "compression_ratio", "latency", "compute_s"):
            value = getattr(self, name)
            positive = name not in ("latency", "compute_s")
            # NaN, infinities and integers beyond the float range fail the abs test
            if not (abs(value) <= sys.float_info.max and (value > 0 if positive else value >= 0)):
                floor = "> 0" if positive else ">= 0"
                raise InputError(f"{name} must be a finite number {floor}, got {value!r}")


def epoch_time_allreduce(spec: NetworkSpec, steps_per_epoch: int) -> float:
    """Ring-allreduce epoch time: full precision, 2(n-1) rounds per step."""
    _check_steps(steps_per_epoch)
    n = spec.n
    comm = 2.0 * (n - 1) * spec.latency + 2.0 * ((n - 1) / n) * spec.model_bits / spec.bandwidth
    return steps_per_epoch * (comm + spec.compute_s)


def epoch_time_decentralized(spec: NetworkSpec, steps_per_epoch: int, degree: int) -> float:
    """Gossip epoch time: one latency round, `degree` concurrent messages per step.

    The payload per message is model_bits * compression_ratio, so the ratio
    below 1 models quantized exchanges.
    """
    _check_steps(steps_per_epoch)
    if degree < 1:
        raise InputError(f"degree must be >= 1, got {degree}")
    payload = spec.model_bits * spec.compression_ratio
    comm = spec.latency + degree * payload / spec.bandwidth
    return steps_per_epoch * (comm + spec.compute_s)


def _check_steps(steps_per_epoch: int) -> None:
    if steps_per_epoch < 1:
        raise InputError(f"steps_per_epoch must be >= 1, got {steps_per_epoch}")


# Reference grid: bandwidth from 1.4 Gbps down to 5 Mbps, latency from
# 0.13 ms up to 5 ms, mirroring the sweep used for the qualitative claims.
DEFAULT_BANDWIDTHS = (1.4e9, 500e6, 100e6, 25e6, 5e6)
DEFAULT_LATENCIES = (0.13e-3, 0.5e-3, 1e-3, 2.5e-3, 5e-3)
# the keys of a cost_grid row: the grid point, then the epoch times of the
# full-precision allreduce, full-precision gossip and compressed gossip
GRID_FIELDS = ("bandwidth", "latency", "allreduce_s", "decen_full_s", "decen_compressed_s")


def cost_grid(
    n: int,
    model_bits: float,
    compression_ratio: float,
    steps_per_epoch: int,
    degree: int = 2,
    compute_s: float = 0.0,
    bandwidths=DEFAULT_BANDWIDTHS,
    latencies=DEFAULT_LATENCIES,
) -> list[dict]:
    """Epoch times of the three variants over a (bandwidth, latency) grid:
    one row per grid point, keyed by ``GRID_FIELDS``."""
    rows = []
    for bw in bandwidths:
        for lat in latencies:
            full = NetworkSpec(
                bandwidth=bw, latency=lat, n=n, model_bits=model_bits,
                compression_ratio=1.0, compute_s=compute_s,
            )
            compressed = NetworkSpec(
                bandwidth=bw, latency=lat, n=n, model_bits=model_bits,
                compression_ratio=compression_ratio, compute_s=compute_s,
            )
            rows.append(dict(zip(GRID_FIELDS, (
                bw, lat, epoch_time_allreduce(full, steps_per_epoch),
                epoch_time_decentralized(full, steps_per_epoch, degree),
                epoch_time_decentralized(compressed, steps_per_epoch, degree),
            ))))
    return rows

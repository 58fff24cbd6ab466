"""The benchmark's workloads: fixed CLI invocations derived from a seed.

An operation is one ``dcsgd run`` invocation or one row of a
``dcsgd sweep``.  The workload seed only chooses the simulation seeds, so
every seed gives the same shapes and the same number of rounds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# Dense mixing products X @ W per round, by algorithm: ecd mixes both the
# estimate error and the estimates.
MIXES_PER_ROUND = {"dpsgd": 1, "naive": 1, "dcd": 1, "ecd": 2}


@dataclass(frozen=True)
class Invocation:
    """One ``dcsgd`` CLI call: ``run`` of a config, or ``sweep --axis seed``."""

    command: str
    config: dict
    seeds: tuple = ()

    @property
    def operations(self) -> int:
        return len(self.seeds) if self.command == "sweep" else 1

    @property
    def rounds(self) -> int:
        return self.operations * self.config["T"]

    def argv(self, config_path: str, out_path: str) -> list[str]:
        argv = [self.command, "--config", config_path, "--out", out_path]
        if self.command == "sweep":
            argv += ["--axis", "seed", "--values", ",".join(map(str, self.seeds))]
        return argv

    def mix_flops_per_round(self) -> int:
        dim = self.config["problem"]["dim"]
        n = self.config["topology"]["n"]
        return 2 * dim * n * n * MIXES_PER_ROUND[self.config["algorithm"]]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    # Seconds of one traced pass on a 2-core x86 host, rounded up; only sets
    # how many passes a trace run makes, so the counts it reports repeat.
    pass_estimate_s: float

    @property
    def operations(self) -> int:
        return sum(inv.operations for inv in self.invocations)

    @property
    def rounds(self) -> int:
        return sum(inv.rounds for inv in self.invocations)

    @property
    def shape(self) -> tuple:
        """(dim, n) of the state matrix; every invocation shares it."""
        (shape,) = {(inv.config["problem"]["dim"], inv.config["topology"]["n"])
                    for inv in self.invocations}
        return shape

    def config_sha256(self) -> str:
        doc = [[inv.command, inv.config, list(inv.seeds)] for inv in self.invocations]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _seeds(rng: random.Random, k: int) -> tuple:
    return tuple(rng.randrange(2**31) for _ in range(k))


def small_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    base = {
        "topology": {"kind": "ring", "n": 8},
        "problem": {"kind": "quadratic", "dim": 8},
        "gamma": 0.05,
        "T": 250,
        "trace_every": 1,
    }
    exchanges = [
        ("naive", {"kind": "quantize", "levels": 127}),
        ("dcd", {"kind": "quantize", "levels": 127}),
        ("ecd", {"kind": "quantize", "levels": 127}),
        ("ecd", {"kind": "sparsify", "keep_prob": 0.25}),
    ]
    invs = tuple(
        Invocation("sweep", {**base, "algorithm": alg, "compressor": comp}, _seeds(rng, 3))
        for alg, comp in exchanges
    )
    return Workload("small_sweep", invs, pass_estimate_s=1.5)


def logistic_ring16(seed: int) -> Workload:
    rng = random.Random(seed)
    cfg = {
        "algorithm": "dpsgd",
        "topology": {"kind": "ring", "n": 16},
        "problem": {"kind": "logistic", "dim": 16, "samples_per_node": 32},
        "compressor": {"kind": "identity"},
        "gamma": "theory",
        "T": 500,
        "seed": _seeds(rng, 1)[0],
    }
    return Workload("logistic_ring16", (Invocation("run", cfg),), pass_estimate_s=0.8)


def wide_ring1024(seed: int) -> Workload:
    rng = random.Random(seed)
    cfg = {
        "algorithm": "dpsgd",
        "topology": {"kind": "ring", "n": 1024},
        "problem": {"kind": "quadratic", "dim": 64, "heterogeneity": 0.5, "noise": 0.2},
        "compressor": {"kind": "identity"},
        "gamma": "theory",
        "T": 60,
        "seed": _seeds(rng, 1)[0],
    }
    return Workload("wide_ring1024", (Invocation("run", cfg),), pass_estimate_s=1.8)


WORKLOADS = {f.__name__: f for f in (small_sweep, logistic_ring16, wide_ring1024)}

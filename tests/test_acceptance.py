"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test sets up its scenario from scratch through the public API and
asserts the criterion at its stated tolerance.  Shared helpers live at the
top; every expected value is either computed by an independent oracle
inside the test or is a hard contract of the implementation.
"""

import contextlib
import dataclasses
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from dcsgd import (
    NetworkSpec, compress, epoch_time_allreduce, epoch_time_decentralized,
    estimate_error_trace, stochastic_quantize, random_sparsify, synthetic_noise,
)
from dcsgd.config import config_from_dict
from dcsgd.engine import run
from dcsgd.theory import constants, dcd_feasible
from dcsgd.topology import build_custom, build_fully_connected, build_ring


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def run_quiet(doc):
    """Run one config document, or a list of them as one trial batch."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if isinstance(doc, list):
            return run([config_from_dict(d) for d in doc])
        return run(config_from_dict(doc))


def window_means(values, k):
    values = np.asarray(values, dtype=float)
    w = len(values) // k
    return [values[i * w:(i + 1) * w].mean() for i in range(k)]


# ---------------------------------------------------------------------------
# 1. naive compression fails where difference / extrapolation compression work
# ---------------------------------------------------------------------------


def test_c1_naive_compression_failure():
    start = time.monotonic()
    base = {
        "algorithm": "naive",
        "topology": {"kind": "ring", "n": 8},
        "problem": {"kind": "quadratic", "dim": 8, "heterogeneity": 0.0, "noise": 0.0},
        "compressor": {"kind": "quantize", "levels": 127},
        "gamma": 0.05,  # matched across all three algorithms
        "T": 5000,
        "seed": 0,
        "trace_every": 1,
    }
    finals, decay, plateau = {}, {}, {}
    for alg in ("naive", "dcd", "ecd"):
        per_seed_final, per_seed_decay, per_seed_plateau = [], [], []
        for res in run_quiet([{**base, "algorithm": alg, "seed": seed} for seed in range(5)]):
            assert res.summary.status == "completed"
            per_seed_final.append(res.summary.final_grad_norm2)
            cons = np.array([r.consensus for r in res.records])
            T = len(cons)
            first_q = cons[: T // 4].mean()
            mid = cons[T // 4: 3 * T // 4].mean()
            last_q = cons[3 * T // 4:].mean()
            per_seed_decay.append(first_q / max(last_q, 1e-300))
            per_seed_plateau.append(last_q / max(mid, 1e-300))
        finals[alg] = float(np.median(per_seed_final))
        decay[alg] = float(np.median(per_seed_decay))
        plateau[alg] = float(np.median(per_seed_plateau))

    with criterion(1, "naive-compression failure"):
        assert finals["naive"] >= 10.0 * finals["dcd"]
        assert finals["naive"] >= 10.0 * finals["ecd"]
        # naive consensus plateaus: the last quarter has not dropped below
        # half the mid-run level
        assert plateau["naive"] >= 0.5
        # difference / extrapolation consensus decays at least tenfold from
        # the first quarter of the run to the last
        assert decay["dcd"] >= 10.0
        assert decay["ecd"] >= 10.0
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 2. all three decentralized algorithms converge; lossless runs collapse
# ---------------------------------------------------------------------------


def test_c2_convergence_and_bit_identical_collapse():
    start = time.monotonic()
    base = {
        "topology": {"kind": "ring", "n": 8},
        "problem": {"kind": "quadratic", "dim": 6, "heterogeneity": 0.0, "noise": 0.0},
        "compressor": {"kind": "identity"},
        "T": 10_000,
        "seed": 1,
        "trace_every": 250,
    }
    with criterion(2, "convergence of all three decentralized algorithms"):
        for alg in ("dpsgd", "dcd", "ecd"):
            res = run_quiet({**base, "algorithm": alg, "gamma": "theory"})
            assert res.summary.status == "completed"
            assert res.summary.final_grad_norm2 <= 1e-6

        # identical step size: the three trajectories must be bit-identical
        gamma_common = run_quiet(
            {**base, "algorithm": "ecd", "gamma": "theory", "T": 1}).summary.gamma
        traces = []
        for alg in ("dpsgd", "dcd", "ecd"):
            res = run_quiet({**base, "algorithm": alg, "gamma": gamma_common})
            traces.append([
                (r.t, r.loss, r.grad_norm2, r.consensus, r.q_norm2, r.g_norm2, r.bits)
                for r in res.records
            ])
        assert traces[0] == traces[1] == traces[2]
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 3. extrapolation estimate error decays like sigma_tilde^2 / t
# ---------------------------------------------------------------------------


def test_c3_extrapolation_error_decay():
    b2 = 0.5                 # exact per-call noise energy
    sigma_tilde2 = 2.0 * b2  # estimate-error constant
    c = synthetic_noise(b2)
    x = np.random.default_rng(3).standard_normal(16)
    T = 1000
    total = np.zeros(T)
    for seed in range(20):
        total += estimate_error_trace(x, c, T, np.random.default_rng(1000 + seed))
    mean_err2 = total / 20

    with criterion(3, "extrapolation estimate-error decay"):
        for t in (10, 100, 1000):
            assert mean_err2[t - 1] <= 1.2 * sigma_tilde2 / t
        # exact scalar recursion: a_t = (1-2/t)^2 a_{t-1} + (4/t^2) b_t with
        # b_t <= sigma_tilde2/2 stays below sigma_tilde2/t, no tolerance
        a = 0.0
        for t in range(2, 100_001):
            a = (1.0 - 2.0 / t) ** 2 * a + (4.0 / (t * t)) * (sigma_tilde2 / 2.0)
            assert a <= sigma_tilde2 / t


# ---------------------------------------------------------------------------
# 4. cumulative consensus error bound for lossless deterministic runs
# ---------------------------------------------------------------------------


def test_c4_consensus_inequality():
    from dcsgd import identity, init_state, make_quadratic, round_step

    rng = np.random.default_rng(4)
    topologies = [
        build_ring(8), build_fully_connected(5), build_ring(16),
        build_custom(4, [(0, 1), (1, 2), (2, 3)]),
        build_custom(5, [(0, i) for i in range(1, 5)]),
    ]
    with criterion(4, "consensus inequality"):
        for trial in range(10):
            W = topologies[trial % len(topologies)]
            problem = make_quadratic(
                int(rng.integers(2, 8)), W.n,
                heterogeneity=float(rng.uniform(0.0, 2.0)), noise=0.0,
                rng=np.random.default_rng(200 + trial),
            )
            gamma = float(rng.uniform(0.02, 0.4)) / problem.L
            T = int(rng.integers(30, 150))
            state = init_state(problem, W.n, "dpsgd", trial)
            lhs = rhs = 0.0
            for _ in range(T):
                x_bar = state.X.mean(axis=1, keepdims=True)
                lhs += float(np.sum((state.X - x_bar) ** 2))
                round_step(state, W, identity(), problem, gamma)
                rhs += gamma * gamma * state.last_step.g_norm2
            bound = 2.0 / (1.0 - W.rho) ** 2 * rhs
            assert lhs <= bound + 1e-8 * max(1.0, bound)


# ---------------------------------------------------------------------------
# 5. compression budget: aggressive quantization on a large ring
# ---------------------------------------------------------------------------

C5_BASE = {
    "topology": {"kind": "ring", "n": 16},
    "problem": {"kind": "quadratic", "dim": 4, "heterogeneity": 0.5, "noise": 0.0},
    "compressor": {"kind": "quantize", "levels": 127},
    "gamma": "theory",
    "T": 200,
    "seed": 0,
    "trace_every": 1,
}


def _c5_gamma():
    # step size resolved for the feasible difference-compression setup
    # (levels = 127), then matched across all four runs
    res = run_quiet({**C5_BASE, "algorithm": "dcd", "T": 1})
    return res.summary.gamma


def test_c5_robust_extrapolation_and_moderate_quantization():
    gamma = _c5_gamma()
    with criterion(5, "budget: extrapolation robust, moderate levels converge"):
        # aggressive levels: extrapolation compression keeps reducing loss
        for seed in range(3):
            res = run_quiet({**C5_BASE, "algorithm": "ecd", "gamma": gamma,
                             "seed": seed,
                             "compressor": {"kind": "quantize", "levels": 7}})
            assert res.summary.status == "completed"
            windows = window_means([r.loss for r in res.records], 4)
            assert all(b < a for a, b in zip(windows, windows[1:]))
        # moderate levels: both compressed algorithms converge
        for alg in ("dcd", "ecd"):
            for seed in range(3):
                res = run_quiet({**C5_BASE, "algorithm": alg, "gamma": gamma,
                                 "seed": seed})
                assert res.summary.status == "completed"
                windows = window_means([r.loss for r in res.records], 4)
                assert windows[-1] < windows[0]


def test_c5_aggressive_difference_compression_diverges():
    """Difference compression at levels = 7 must blow up on the 16-ring.

    The operator's worst-case noise-to-signal bound (sqrt(dim)/7) violates
    the feasibility budget (1 - rho)/(2 mu) by an order of magnitude, so
    this regime carries no convergence guarantee and is pinned here as a
    divergence expectation: non-finite state or loss above ten times the
    initial loss within the horizon, on every seed.

    Known red: the magnitude-scaled stochastic quantizer is too well
    behaved for the expectation to materialize at this scale.  Its expected
    noise-to-signal energy ratio is below 1 for every input, while the
    uniform-weight 16-ring only turns relative compression noise into
    runaway consensus error once that ratio exceeds about 1.37 (mode-energy
    recursion; see README, Known limitations).  Losing the guarantee is not
    the same as diverging.
    """
    gamma = _c5_gamma()
    rho, mu = build_ring(16).rho, build_ring(16).mu
    assert not dcd_feasible(rho, mu, math.sqrt(4) / 7)  # far outside the budget
    with criterion(5, "budget: aggressive difference compression diverges"):
        for seed in range(3):
            res = run_quiet({**C5_BASE, "algorithm": "dcd", "gamma": gamma,
                             "seed": seed,
                             "compressor": {"kind": "quantize", "levels": 7}})
            initial_loss = res.records[0].loss
            blew_up = res.summary.status == "diverged" or (
                res.summary.final_loss > 10.0 * initial_loss)
            assert blew_up, (
                f"seed {seed}: status={res.summary.status}, "
                f"final/initial loss = {res.summary.final_loss / initial_loss:.3f}"
            )


# ---------------------------------------------------------------------------
# 6. linear speedup in the node count under gradient noise
# ---------------------------------------------------------------------------


def test_c6_linear_speedup_trend():
    base = {
        "topology": {"kind": "complete", "n": 4},
        "problem": {"kind": "quadratic", "dim": 128, "heterogeneity": 0.0, "noise": 1.0},
        "compressor": {"kind": "quantize", "levels": 127},
        "gamma": "theory",
        "T": 2000,
        "seed": 0,
        "trace_every": 500,
    }
    with criterion(6, "linear speedup in node count"):
        for alg in ("dcd", "ecd"):
            medians = []
            for n in (4, 8, 16):
                finals = [
                    res.summary.final_grad_norm2
                    for res in run_quiet([{**base, "algorithm": alg, "seed": seed,
                                           "topology": {"kind": "complete", "n": n}}
                                          for seed in range(5)])
                ]
                medians.append(float(np.median(finals)))
            assert medians[0] > medians[1] > medians[2], (alg, medians)


# ---------------------------------------------------------------------------
# 7. communication model reproduces the four regime orderings
# ---------------------------------------------------------------------------


def test_c7_cost_model_orderings():
    model_bits = 32 * 270_000
    compute_s = 0.15
    ratio = 0.26  # moderate quantization payload fraction

    def times(bandwidth, latency):
        full = NetworkSpec(bandwidth=bandwidth, latency=latency, n=8,
                           model_bits=model_bits, compute_s=compute_s)
        comp = NetworkSpec(bandwidth=bandwidth, latency=latency, n=8,
                           model_bits=model_bits, compression_ratio=ratio,
                           compute_s=compute_s)
        return (epoch_time_allreduce(full, 98),
                epoch_time_decentralized(full, 98, 2),
                epoch_time_decentralized(comp, 98, 2))

    bandwidths = (1.4e9, 500e6, 100e6, 25e6, 5e6)
    latencies = (0.13e-3, 0.5e-3, 1e-3, 2.5e-3, 5e-3)
    with criterion(7, "communication-cost orderings"):
        # best network: all three within 10%
        allreduce, full, comp = times(1.4e9, 0.13e-3)
        assert (max(allreduce, full, comp) - min(allreduce, full, comp)) \
            / min(allreduce, full, comp) <= 0.10
        # high latency: both decentralized variants beat allreduce while
        # latency (not bandwidth) is the bottleneck; the full-precision
        # variant falls behind again once bandwidth collapses, but the
        # compressed one keeps winning across the whole row
        for bw in bandwidths:
            allreduce, full, comp = times(bw, 5e-3)
            assert comp < allreduce
            if bw >= 100e6:
                assert full < allreduce
        # low bandwidth: compressed decentralized is fastest everywhere
        for lat in latencies:
            allreduce, full, comp = times(5e6, lat)
            assert comp < full and comp < allreduce
        # pure bandwidth: full-precision decentralized tracks allreduce
        allreduce, full, _ = times(5e6, 0.13e-3)
        assert abs(full - allreduce) / allreduce <= 0.15


# ---------------------------------------------------------------------------
# 8. unbiasedness statistics and the quantizer's hard ratio bound
# ---------------------------------------------------------------------------


def test_c8_unbiasedness_and_alpha_bounds():
    rng_z = np.random.default_rng(8)
    n_samples = 100_000
    compressors = {
        "quantize": stochastic_quantize(4),
        "sparsify": random_sparsify(0.3),
        "synthetic": synthetic_noise(1.0),
    }
    with criterion(8, "unbiasedness and hard quantizer bound"):
        for name, c in compressors.items():
            for v in range(20):
                z = rng_z.standard_normal(32)
                Z = np.repeat(z[:, None], n_samples, axis=1)
                samples = compress(c, Z, np.random.default_rng(8000 + v))
                mean = samples.mean(axis=1)
                se = samples.std(axis=1, ddof=1) / math.sqrt(n_samples)
                if name == "quantize":
                    scale = np.max(np.abs(z))
                    y = np.abs(z) / scale * c.levels
                    frac = y - np.floor(y)
                    se = np.maximum(
                        se, scale / c.levels * np.sqrt(frac * (1 - frac) / n_samples))
                dev = np.abs(mean - z)
                assert np.all(dev <= 5.0 * se + 1e-12 * np.maximum(1.0, np.abs(z)))

        rng = np.random.default_rng(88)
        for d, s in ((16, 4), (32, 7), (64, 127)):
            c = stochastic_quantize(s)
            bound = math.sqrt(d) / s
            for _ in range(1000):
                z = rng.standard_normal(d) * rng.uniform(1e-3, 1e3)
                err = np.linalg.norm(compress(c, z, rng) - z)
                assert err <= bound * np.linalg.norm(z)


# ---------------------------------------------------------------------------
# 9. rate-constant cross-check and the feasibility boundary
# ---------------------------------------------------------------------------


def test_c9_constants_cross_check():
    from test_theory import constants_reference, random_feasible_tuples

    with criterion(9, "rate-constant dual implementation"):
        for rho, mu, alpha, L, gamma in random_feasible_tuples(100, seed=9):
            c = constants(rho, mu, alpha, L, gamma)
            ref = constants_reference(rho, mu, alpha, L, gamma)
            got = (c.D1, c.D2, c.D3, c.D4, c.C1, c.C2, c.C3, c.C4)
            for g, w in zip(got, ref):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(g), abs(w))
        rng = np.random.default_rng(99)
        for _ in range(100):
            rho = rng.uniform(0.0, 0.95)
            mu = rng.uniform(0.1, 2.0)
            edge = (1.0 - rho) / (2.0 * mu)
            assert dcd_feasible(rho, mu, edge * (1.0 - 1e-9))
            assert not dcd_feasible(rho, mu, edge * (1.0 + 1e-9))

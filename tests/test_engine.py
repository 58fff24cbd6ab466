"""Simulation engine: step semantics, invariants, driver behavior."""

import dataclasses
import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from dcsgd import (
    ConfigError, DivergedError, InputError, compress, estimate_error_trace, identity, init_state,
    make_quadratic, metrics, round_step, run, stochastic_quantize, streams, synthetic_noise,
)
from dcsgd import compression, config, engine
from dcsgd.config import build_run, build_topology, config_from_dict, resolve_gamma
from dcsgd.engine import ALGORITHMS, LOSS_CAP
from dcsgd.problems import Problem, stack_problems
from dcsgd.topology import build_fully_connected, build_ring


def quad_problem(N, n, het=0.0, noise=0.0, seed=0):
    return make_quadratic(N, n, heterogeneity=het, noise=noise,
                          rng=np.random.default_rng(seed))


class TestDpsgdStep:
    def test_zero_gamma_identical_columns_unchanged(self):
        problem = quad_problem(3, 2)
        W = build_fully_connected(2)
        state = init_state(problem, 2, "dpsgd", 0)
        state.X = np.repeat(np.array([[1.0], [2.0], [-0.5]]), 2, axis=1)
        before = state.X.copy()
        round_step(state, W, identity(), problem, 0.0)
        assert np.array_equal(state.X, before)

    def test_one_step_matches_matrix_expression(self):
        # direct arithmetic oracle on a 2-node, 2-dim instance
        problem = quad_problem(2, 2, het=1.0, seed=3)
        W = build_fully_connected(2)
        state = init_state(problem, 2, "dpsgd", 7)
        state.X = np.array([[1.0, -1.0], [0.5, 2.0]])
        X0 = state.X.copy()
        gamma = 0.1
        G = problem.gradients(X0)  # noiseless problem: deterministic
        expected = np.empty_like(X0)
        for i in range(2):
            expected[:, i] = sum(W.entries[i, j] * X0[:, j] for j in range(2)) \
                - gamma * G[:, i]
        round_step(state, W, identity(), problem, gamma)
        assert np.allclose(state.X, expected, atol=1e-14)

    def test_fully_connected_noiseless_equals_centralized_gd(self):
        problem = quad_problem(5, 4, het=1.0, seed=4)
        W = build_fully_connected(4)
        state = init_state(problem, 4, "dpsgd", 0)
        x = np.zeros(5)
        gamma = 0.2
        for _ in range(50):
            round_step(state, W, identity(), problem, gamma)
            x = x - gamma * problem.grad_mean(x)
            # columns re-average every step, so the mean follows plain
            # gradient descent on f
            assert np.allclose(state.X.mean(axis=1), x, atol=1e-10)


class TestNaiveStep:
    def test_identity_compressor_bitwise_equals_dpsgd(self):
        problem = quad_problem(4, 8, het=0.7, noise=0.3, seed=5)
        W = build_ring(8)
        s1 = init_state(problem, 8, "dpsgd", 11)
        s2 = init_state(problem, 8, "naive", 11)
        for _ in range(25):
            round_step(s1, W, identity(), problem, 0.05)
            round_step(s2, W, identity(), problem, 0.05)
            assert np.array_equal(s1.X, s2.X)

    def test_consensus_plateau_at_noise_floor(self):
        # gossip with additive sphere noise and gamma = 0: consensus error
        # settles at the stationary value b^2 * sum_{k>=2} l^2/(1-l^2)
        # (independent mode-recursion oracle) instead of decaying
        W = build_ring(16)
        b2 = 1.0
        c = synthetic_noise(b2)
        problem = quad_problem(6, 16, seed=6)
        lams = W.eigenvalues[1:]
        oracle = b2 * float(np.sum(lams**2 / (1.0 - lams**2)))
        sigma_tilde2 = 2.0 * b2
        late_means = []
        for seed in range(5):
            state = init_state(problem, 16, "naive", seed)
            cons = []
            for _ in range(1500):
                round_step(state, W, c, problem, 0.0)
                cons.append(float(np.sum((state.X - state.X.mean(1, keepdims=True)) ** 2)))
            cons = np.array(cons)
            late_means.append(cons[1000:].mean())
            # no decay: the late window is not below the mid window
            assert cons[1000:].mean() >= 0.5 * cons[500:1000].mean()
        late = float(np.mean(late_means))
        assert late >= 0.5 * 16 * sigma_tilde2
        assert 0.7 * oracle <= late <= 1.4 * oracle

    def test_quantized_naive_much_worse_than_dcd(self):
        problem = quad_problem(8, 8, seed=7)
        W = build_ring(8)
        c = stochastic_quantize(127)
        finals = {}
        for alg in ("naive", "dcd"):
            state = init_state(problem, 8, alg, 3)
            for _ in range(1500):
                round_step(state, W, c, problem, 0.05)
            _, gn2, _ = metrics(state, problem)
            finals[alg] = gn2
        assert finals["naive"] >= 10.0 * finals["dcd"]


class TestDcdStep:
    def test_identity_compressor_bitwise_equals_dpsgd(self):
        problem = quad_problem(4, 8, het=0.7, noise=0.3, seed=8)
        W = build_ring(8)
        s1 = init_state(problem, 8, "dpsgd", 13)
        s2 = init_state(problem, 8, "dcd", 13)
        for _ in range(25):
            round_step(s1, W, identity(), problem, 0.05)
            round_step(s2, W, identity(), problem, 0.05)
            assert np.array_equal(s1.X, s2.X)

    def test_two_node_scalar_hand_oracle(self):
        # pencil-and-paper check: N=1, complete pair, deterministic
        # compression (identity), one step from distinct scalars
        problem = quad_problem(1, 2, het=1.0, seed=9)
        W = build_fully_connected(2)
        state = init_state(problem, 2, "dcd", 0)
        state.X = np.array([[2.0, -4.0]])
        g = problem.gradients(state.X)
        gamma = 0.25
        # x_half(i) = (x1 + x2)/2 - gamma g_i ; z = x_half - x ; x' = x + z
        x_half = np.array([
            0.5 * 2.0 + 0.5 * (-4.0) - gamma * g[0, 0],
            0.5 * 2.0 + 0.5 * (-4.0) - gamma * g[0, 1],
        ])
        round_step(state, W, identity(), problem, gamma)
        assert np.allclose(state.X[0], x_half, atol=1e-14)

    @pytest.mark.parametrize("trials", [1, 3], ids=["solo", "stacked"])
    def test_reference_round_with_explicit_replicas(self, trials):
        # DCD as the paper states it: the neighbours of each node keep a
        # replica R of its model and mix the replicas; each node compresses
        # Z = R W - gamma G - X and adds C(Z) to its model and to R.
        # round_step keeps no replicas and mixes X: every round the engine's
        # X, the reference X and R agree bit for bit
        W, c = build_ring(8), stochastic_quantize(7)
        problems = [quad_problem(6, 8, het=1.0, noise=0.2, seed=10 + k) for k in range(trials)]
        if trials == 1:
            problem, seed, gamma = problems[0], 21, 0.02
        else:
            problem, seed = stack_problems(problems), [21, 22, 23]
            gamma = np.array([0.02, 0.01, 0.03])[:, None, None]
        state = init_state(problem, 8, "dcd", seed)
        ref = init_state(problem, 8, "dcd", seed)  # the reference draws from its streams
        X, R = ref.X.copy(), ref.X.copy()
        for _ in range(300):
            round_step(state, W, c, problem, gamma)
            G = problem.stochastic_gradients(X, ref.sample_streams)
            CZ = compress(c, W.mix(R) - gamma * G - X, ref.compress_streams)
            X, R = X + CZ, R + CZ
            assert np.array_equal(state.X, X) and np.array_equal(R, X)
        assert state.status == "running" and np.count_nonzero(state.last_step.q_norm2)

    def test_models_set_by_hand_step_like_dpsgd(self):
        # a dcd state has no replicas to set beside X: given X by hand, it
        # steps from that X exactly as dpsgd does
        problem = quad_problem(4, 8, het=0.7, noise=0.3, seed=8)
        W = build_ring(8)
        X0 = np.random.default_rng(1).standard_normal((4, 8))
        s1, s2 = init_state(problem, 8, "dpsgd", 13), init_state(problem, 8, "dcd", 13)
        s1.X, s2.X = X0.copy(), X0.copy()
        round_step(s1, W, identity(), problem, 0.05)
        round_step(s2, W, identity(), problem, 0.05)
        assert np.array_equal(s1.X, s2.X) and not np.array_equal(s1.X, X0)

    def test_unbounded_alpha_rejected(self):
        problem = quad_problem(4, 8, seed=11)
        W = build_ring(8)
        state = init_state(problem, 8, "dcd", 0)
        with pytest.raises(ConfigError):
            round_step(state, W, synthetic_noise(1.0), problem, 0.05)


class TestEcdStep:
    def test_identity_estimates_track_exactly(self):
        problem = quad_problem(4, 8, het=0.5, noise=0.1, seed=12)
        W = build_ring(8)
        state = init_state(problem, 8, "ecd", 17)
        for _ in range(40):
            round_step(state, W, identity(), problem, 0.05)
            assert np.array_equal(state.estimates, state.X)
            assert np.all(state.estimate_err == 0.0)

    def test_identity_compressor_bitwise_equals_dpsgd(self):
        problem = quad_problem(4, 8, het=0.7, noise=0.3, seed=13)
        W = build_ring(8)
        s1 = init_state(problem, 8, "dpsgd", 19)
        s2 = init_state(problem, 8, "ecd", 19)
        for _ in range(25):
            round_step(s1, W, identity(), problem, 0.05)
            round_step(s2, W, identity(), problem, 0.05)
            assert np.array_equal(s1.X, s2.X)

    def test_average_preservation_identity(self):
        # mean-model update: x_bar' = x_bar + q_bar - gamma g_bar, against
        # the recorded per-step noise and gradient means
        problem = quad_problem(5, 8, het=1.0, noise=0.4, seed=14)
        W = build_ring(8)
        gamma = 0.05
        for alg, c in (("ecd", stochastic_quantize(15)),
                       ("dcd", stochastic_quantize(15)),
                       ("naive", stochastic_quantize(15)),
                       ("dpsgd", identity())):
            state = init_state(problem, 8, alg, 23)
            for _ in range(50):
                x_bar = state.X.mean(axis=1)
                round_step(state, W, c, problem, gamma)
                predicted = x_bar + state.last_step.q_bar - gamma * state.last_step.g_bar
                assert np.allclose(state.X.mean(axis=1), predicted, atol=1e-10, rtol=0.0)

    def test_frozen_model_estimate_error_decays(self):
        b2 = 0.5
        c = synthetic_noise(b2)
        sigma_tilde2 = 2.0 * b2
        x = np.random.default_rng(1).standard_normal(16)
        errs = np.zeros(1000)
        n_seeds = 20
        for seed in range(n_seeds):
            errs += estimate_error_trace(x, c, 1000, np.random.default_rng(seed))
        errs /= n_seeds
        for t in (10, 100, 1000):
            assert errs[t - 1] <= 1.2 * sigma_tilde2 / t

    @pytest.mark.parametrize("T", [0, -2, 2.0, True])
    def test_estimate_error_trace_needs_a_horizon_of_one_or_more(self, T):
        with pytest.raises(InputError, match="T must be an integer >= 1"):
            estimate_error_trace(np.ones(3), identity(), T, np.random.default_rng(0))

    def test_live_estimate_error_decay(self):
        # during actual optimization with bounded compression noise, the
        # per-node estimate error keeps the sigma_tilde^2 / t decay
        b2 = 0.8
        sigma_tilde2 = 2.0 * b2
        problem = quad_problem(8, 8, het=0.5, seed=30)
        W = build_ring(8)
        c = synthetic_noise(b2)
        checkpoints = {10: [], 100: []}
        for seed in range(20):
            state = init_state(problem, 8, "ecd", 500 + seed)
            for t in range(1, 101):
                round_step(state, W, c, problem, 0.02)
                if t + 1 in checkpoints:  # estimate_err now pairs with x_{t+1}
                    per_node = np.sum(state.estimate_err**2, axis=0)
                    checkpoints[t + 1].append(per_node.mean())
        for t, vals in checkpoints.items():
            assert np.mean(vals) <= 1.2 * sigma_tilde2 / t

    def test_scalar_recursion_bound_exact(self):
        # a_t = (1 - 2/t)^2 a_{t-1} + (4/t^2) b_t with b_t <= v stays below
        # 2 v / t, asserted without tolerance up to t = 1e5
        v = 0.7  # worst case b_t = v throughout
        bound_scale = 2.0 * v
        a = 0.0
        for t in range(2, 100_001):
            a = (1.0 - 2.0 / t) ** 2 * a + (4.0 / t / t) * v
            assert a <= bound_scale / t


class TestCentralizedStep:
    def test_noiseless_gd_contraction(self):
        problem = quad_problem(6, 4, seed=15)
        W = build_ring(4)
        state = init_state(problem, 4, "centralized", 0)
        x_star = problem.minimizer()
        gamma = 0.9 / problem.L
        prev = np.linalg.norm(state.X[:, 0] - x_star)
        for _ in range(30):
            round_step(state, W, identity(), problem, gamma)
            cur = np.linalg.norm(state.X[:, 0] - x_star)
            assert cur < prev
            prev = cur

    def test_matches_dpsgd_on_complete_graph_with_paired_noise(self):
        problem = quad_problem(5, 4, het=0.0, noise=0.5, seed=16)
        W = build_fully_connected(4)
        s_central = init_state(problem, 4, "centralized", 31)
        s_dpsgd = init_state(problem, 4, "dpsgd", 31)
        gamma = 0.1
        for _ in range(200):
            round_step(s_central, W, identity(), problem, gamma)
            round_step(s_dpsgd, W, identity(), problem, gamma)
            assert np.allclose(s_central.X[:, 0], s_dpsgd.X.mean(axis=1),
                               rtol=1e-8, atol=1e-12)

    def test_consensus_is_zero(self):
        problem = quad_problem(4, 4, seed=17)
        state = init_state(problem, 4, "centralized", 0)
        round_step(state, build_ring(4), identity(), problem, 0.1)
        _, _, consensus = metrics(state, problem)
        assert consensus == 0.0


class TestZeroNoise:
    def test_zero_noise_recorded_without_an_array(self):
        # dpsgd and centralized have Q_t = 0: q_norm2 is +0.0 per trial and
        # q_bar zeros, with no state-sized zero array kept for them
        problem = quad_problem(5, 4, noise=0.3, seed=3)
        W = build_ring(4)
        for alg in ("dpsgd", "centralized"):
            for prob, seed, trials in ((problem, 0, ()),
                                       (stack_problems([problem, problem]), [0, 1], (2,))):
                state = init_state(prob, 4, alg, seed)
                round_step(state, W, identity(), prob, 0.1)
                step = state.last_step
                assert step.Q is None
                assert np.shape(step.q_norm2) == trials
                assert np.all(step.q_norm2 == 0.0) and not np.any(np.signbit(step.q_norm2))
                assert np.array_equal(step.q_bar, np.zeros(step.G.shape[:-1]))

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_norms_read_late_equal_the_sums_taken_at_the_round(self, alg):
        # StepStats reduces q_norm2 and g_norm2 on first use.  Read after
        # later rounds, they must equal each trial's whole-matrix sums taken
        # as its round committed, so no later round writes a kept Q or G
        problem = stack_problems([quad_problem(6, 6, het=0.5, noise=0.2, seed=s) for s in (1, 2)])
        W, c = build_ring(6), stochastic_quantize(7)
        state = init_state(problem, 6, alg, [3, 4])
        steps, eager = [], []
        for _ in range(4):
            round_step(state, W, c, problem, np.array([0.05, 0.2])[:, None, None])
            step = state.last_step
            Q = np.zeros_like(step.G) if step.Q is None else step.Q
            eager.append([(float((Q[s] * Q[s]).sum()).hex(), float((step.G[s] * step.G[s]).sum()).hex())
                          for s in range(2)])
            steps.append(step)
        late = [[(float(step.q_norm2[s]).hex(), float(step.g_norm2[s]).hex()) for s in range(2)]
                for step in steps]
        assert late == eager


class TestConsensusInequality:
    def test_deterministic_identity_bound(self):
        # with lossless exchanges the cumulative consensus error is bounded
        # by 2/(1-rho)^2 times the cumulative squared step energy
        rng = np.random.default_rng(40)
        for trial in range(10):
            n = int(rng.integers(3, 9))
            topo = [build_ring(max(n, 3)), build_fully_connected(n)][trial % 2]
            n = topo.n
            problem = quad_problem(int(rng.integers(2, 7)), n,
                                   het=float(rng.uniform(0, 2)), seed=100 + trial)
            gamma = float(rng.uniform(0.02, 0.4)) / problem.L
            T = int(rng.integers(30, 120))
            state = init_state(problem, n, "dpsgd", trial)
            lhs = 0.0
            rhs = 0.0
            for _ in range(T):
                x_bar = state.X.mean(axis=1, keepdims=True)
                lhs += float(np.sum((state.X - x_bar) ** 2))
                round_step(state, topo, identity(), problem, gamma)
                rhs += gamma * gamma * state.last_step.g_norm2
            bound = 2.0 / (1.0 - topo.rho) ** 2 * rhs
            assert lhs <= bound + 1e-8 * max(1.0, bound)


class TestAlgorithmCollapse:
    def test_three_decentralized_algorithms_bit_identical(self):
        problem = quad_problem(6, 8, het=0.5, noise=0.3, seed=18)
        W = build_ring(8)
        trajectories = {}
        for alg in ("dpsgd", "dcd", "ecd"):
            state = init_state(problem, 8, alg, 77)
            snaps = []
            for _ in range(60):
                round_step(state, W, identity(), problem, 0.04)
                snaps.append(state.X.copy())
            trajectories[alg] = snaps
        for t in range(60):
            assert np.array_equal(trajectories["dpsgd"][t], trajectories["dcd"][t])
            assert np.array_equal(trajectories["dpsgd"][t], trajectories["ecd"][t])


class TestRun:
    BASE = {
        "algorithm": "dpsgd",
        "topology": {"kind": "ring", "n": 8},
        "problem": {"kind": "quadratic", "dim": 6, "heterogeneity": 0.0, "noise": 0.0},
        "compressor": {"kind": "identity"},
        "gamma": 0.25,
        "T": 2000,
        "seed": 0,
        "trace_every": 50,
    }

    def test_zero_iterations_empty_trace(self):
        cfg = config_from_dict({**self.BASE, "T": 0})
        res = run(cfg)
        assert res.records == []
        assert res.summary.status == "completed"
        assert res.summary.iterations == 0
        assert math.isfinite(res.summary.final_loss)

    def test_deterministic_repeat(self):
        cfg = config_from_dict({**self.BASE, "problem": {
            "kind": "quadratic", "dim": 6, "heterogeneity": 0.5, "noise": 0.3}})
        a = run(cfg)
        b = run(cfg)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert (ra.t, ra.loss, ra.grad_norm2, ra.consensus, ra.q_norm2,
                    ra.g_norm2, ra.bits) == \
                   (rb.t, rb.loss, rb.grad_norm2, rb.consensus, rb.q_norm2,
                    rb.g_norm2, rb.bits)

    def test_noiseless_ring_reaches_1e8(self):
        # gamma = 1/(2L) on the noiseless quadratic: geometric contraction
        cfg = config_from_dict(self.BASE)
        res = run(cfg)
        assert res.summary.status == "completed"
        assert res.summary.final_grad_norm2 <= 1e-8

    def test_divergence_detected_and_trace_retained(self):
        cfg = config_from_dict({**self.BASE, "gamma": 5.0, "T": 500, "trace_every": 1})
        res = run(cfg)
        assert res.summary.status == "diverged"
        assert 0 < len(res.records) < 500
        assert res.summary.final_loss == math.inf
        assert all(r.loss <= LOSS_CAP for r in res.records)

    def test_huge_horizon_diverging_at_once_costs_nothing(self):
        # the run sizes nothing from T: at step size 1e150 the loss passes
        # the cap at pass 2, and the trace buffer, the metric block and the
        # draw blocks stay as small as a short run's
        cfg = config_from_dict({
            **self.BASE, "gamma": 1e150, "T": 10**6, "trace_every": 1,
            "problem": {"kind": "quadratic", "dim": 8, "heterogeneity": 0.5, "noise": 0.2}})
        tracemalloc.start()
        try:
            res = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.summary.status, res.summary.iterations) == ("diverged", 1)
        assert [r.t for r in res.records] == [1]
        # ring of 8: 16 directed messages of 32 * 8 bits per round
        assert res.summary.total_bits == 1 * 4096 == res.records[0].bits
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("alg", ["dcd", "ecd", "naive"])
    def test_compressed_runs_diverge_cleanly_at_huge_gamma(self, alg):
        # iterates overflow mid-run; the run must end with status diverged
        # rather than an exception from compressing non-finite values
        cfg = config_from_dict({
            **self.BASE, "algorithm": alg, "gamma": 8.0, "T": 600, "trace_every": 1,
            "compressor": {"kind": "quantize", "levels": 15},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run(cfg)
        assert res.summary.status == "diverged"
        assert res.summary.final_loss == math.inf

    def test_infeasible_dcd_warns_but_runs(self):
        cfg = config_from_dict({
            **self.BASE, "algorithm": "dcd", "T": 50,
            "topology": {"kind": "ring", "n": 16},
            "compressor": {"kind": "quantize", "levels": 7},
            "gamma": 0.01,
        })
        with pytest.warns(UserWarning, match="budget"):
            res = run(cfg)
        assert res.summary.iterations == 50

    def test_bits_accounting(self):
        cfg = config_from_dict({**self.BASE, "T": 10, "trace_every": 1})
        res = run(cfg)
        # ring of 8: 16 directed messages of 32 * 6 bits per round
        assert res.summary.total_bits == 10 * 16 * 32 * 6
        bits = [r.bits for r in res.records]
        assert all(b2 > b1 for b1, b2 in zip(bits, bits[1:]))

    def test_dpsgd_sends_full_precision_whatever_the_compressor(self):
        cfg = config_from_dict({**self.BASE, "T": 10, "trace_every": 1, "problem": {
            "kind": "quadratic", "dim": 6, "heterogeneity": 0.5, "noise": 0.3}})
        plain = run(cfg)
        quantized = run(dataclasses.replace(cfg, compressor=dataclasses.replace(
            cfg.compressor, kind="quantize", levels=127)))
        assert quantized.summary.total_bits == plain.summary.total_bits
        assert all(r.q_norm2 == 0.0 for r in quantized.records)

    @pytest.mark.parametrize("alg", ["dpsgd", "naive", "dcd", "ecd", "centralized"])
    def test_overflow_diverges_without_numpy_warnings(self, alg):
        cfg = config_from_dict({
            **self.BASE, "algorithm": alg, "gamma": 1e300, "T": 50,
            "compressor": {"kind": "quantize"},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg)
        assert res.summary.status == "diverged"

    def test_huge_ecd_norm_cap_does_not_overflow(self):
        cfg = config_from_dict({
            **self.BASE, "algorithm": "ecd", "T": 3, "z_norm_cap": 1e200,
            "compressor": {"kind": "sparsify", "keep_prob": 0.5},
        })
        assert run(cfg).summary.status == "completed"

    def test_huge_integer_norm_cap_runs_like_its_float(self):
        # 10**200 squared leaves the float range; the cap is compared as a float
        doc = {**self.BASE, "algorithm": "ecd", "T": 3,
               "compressor": {"kind": "sparsify", "keep_prob": 0.5}}
        as_int = run(config_from_dict({**doc, "z_norm_cap": 10**200}))
        as_float = run(config_from_dict({**doc, "z_norm_cap": 1e200}))
        assert as_int.summary == as_float.summary
        assert as_int.summary.status == "completed"

    def test_time_to_threshold_recorded(self):
        cfg = config_from_dict({**self.BASE, "grad_threshold": 1e-4, "trace_every": 1})
        res = run(cfg)
        t = res.summary.time_to_threshold
        assert t is not None
        # the threshold crossing is consistent with the recorded trace
        crossed = [r.t for r in res.records if r.grad_norm2 <= 1e-4]
        assert crossed and crossed[0] == t


class TestEcdSparsifyGuard:
    def test_norm_cap_marks_run_diverged(self):
        # the sparsifier's noise grows with its input, so extrapolation runs
        # guard the broadcast magnitude; a tiny cap trips immediately
        cfg = config_from_dict({
            **TestRun.BASE, "algorithm": "ecd", "gamma": 0.05, "T": 100,
            "problem": {"kind": "quadratic", "dim": 6, "heterogeneity": 1.0},
            "compressor": {"kind": "sparsify", "keep_prob": 0.5},
            "z_norm_cap": 1e-6,
        })
        res = run(cfg)
        assert res.summary.status == "diverged"

    def test_default_cap_leaves_sane_runs_alone(self):
        cfg = config_from_dict({
            **TestRun.BASE, "algorithm": "ecd", "gamma": 0.05, "T": 300,
            "problem": {"kind": "quadratic", "dim": 6, "heterogeneity": 1.0},
            "compressor": {"kind": "sparsify", "keep_prob": 0.5},
        })
        res = run(cfg)
        assert res.summary.status == "completed"
        assert res.summary.final_loss < res.records[0].loss


class TestBroadcastGuard:
    @pytest.mark.parametrize("alg", ["dcd", "ecd"])
    def test_batch_check_marks_what_the_exact_scan_marks(self, alg):
        # dcd's and ecd's guard sums the whole batch's Z once and scans it
        # trial by trial only when the sum is not finite.  Trial 0's Z is
        # finite, but its entries of about -5e307 sum past the float range;
        # trial 1's models hold a NaN; trial 2 is an ordinary round.  Only
        # trial 1 may be marked, and each trial must equal its solo round.
        n, c = 8, stochastic_quantize(127)
        W = build_ring(n)
        problems = [quad_problem(1, n, het=0.5, noise=0.3, seed=s) for s in (26, 27, 28)]
        X = np.zeros((3, 1, n))
        X[0] = 1e300  # its gradient is about 2e300 at every node
        X[1, 0, 3] = math.nan
        X[2] = np.linspace(-1.0, 1.0, n)
        gammas = np.array([2.5e7, 0.1, 0.1])

        def advance(problem, seed, X, gamma):
            state = init_state(problem, n, alg, seed)
            state.X = X
            X_new = np.empty_like(X)
            Q, G = engine._exchange_arrays(state)
            with np.errstate(over="ignore", invalid="ignore"):
                bad = engine._advance(state, W, c, problem, gamma, math.inf, X_new, Q, G)
            # a marked trial stops, so its estimate error is never read again
            kept = [X_new, Q, G]
            if bad is None or not bad.all():
                kept.append(state.estimate_err)
            return bad, [a for a in kept if a is not None]

        bad, batch = advance(stack_problems(problems), [0, 1, 2], X, gammas[:, None, None])
        assert bad.tolist() == [False, True, False]
        for s in range(3):
            solo_bad, solo = advance(problems[s], s, X[s].copy(), gammas[s])
            assert (solo_bad is not None) == (s == 1)
            assert [a[s].tobytes() for a in batch[:len(solo)]] == [a.tobytes() for a in solo]

        # trial 0's Z (dcd's delta, or ecd's z_2, the new models) is finite
        # and sums past the float range, so its round took the exact scan
        state = init_state(problems[0], n, alg, 0)
        state.X = X[0].copy()
        round_step(state, W, c, problems[0], gammas[0])
        G = state.last_step.G
        Z = W.mix(X[0]) - gammas[0] * G - X[0] if alg == "dcd" else state.X
        assert np.isfinite(Z).all() and state.status == "running"
        with np.errstate(over="ignore"):
            assert np.add.reduce(Z, axis=None) == -math.inf


class TestStateValidation:
    def test_mismatched_topology_rejected(self):
        problem = quad_problem(4, 8, seed=19)
        state = init_state(problem, 8, "dpsgd", 0)
        with pytest.raises(ConfigError):
            round_step(state, build_ring(4), identity(), problem, 0.1)

    def test_unknown_algorithm_rejected(self):
        problem = quad_problem(4, 8, seed=20)
        with pytest.raises(ConfigError):
            init_state(problem, 8, "admm", 0)

    def test_wrong_node_count_rejected(self):
        problem = quad_problem(4, 8, seed=21)
        with pytest.raises(ConfigError):
            init_state(problem, 4, "dpsgd", 0)

    @pytest.mark.parametrize("alg", ["dpsgd", "dcd", "centralized"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_bad_gamma_rejected_before_anything_is_drawn(self, alg, bad, stacked, monkeypatch):
        draws = []
        draw = streams._draw
        monkeypatch.setattr(streams, "_draw", lambda *args: draws.append(args) or draw(*args))
        problem = quad_problem(4, 8, noise=0.3, seed=22)
        seed, gamma = 0, bad
        if stacked:  # one bad step size among the trials is enough
            problem, seed, gamma = stack_problems([problem, problem]), [0, 1], \
                np.array([0.1, bad])[:, None, None]
        state = init_state(problem, 8, alg, seed)
        X = state.X.copy()
        with pytest.raises(InputError, match="finite and >= 0"):
            round_step(state, build_ring(8), stochastic_quantize(7), problem, gamma)
        assert state.t == 1 and np.array_equal(state.X, X) and state.last_step is None
        assert draws == []

    @pytest.mark.parametrize("n", [3, 8])
    def test_per_trial_gamma_of_shape_s_steps_like_s_1_1(self, n):
        # three trials on a 3-node ring: a (3,) gamma must not broadcast
        # along the node axis, and on a ring of 8 it must not fail
        problem = stack_problems([quad_problem(4, n, het=0.5, noise=0.3, seed=s)
                                  for s in (1, 2, 3)])
        W, c = build_ring(n), stochastic_quantize(7)
        gammas = np.array([0.05, 0.1, 0.2])
        for alg in ALGORITHMS:
            got = []
            for gamma in (gammas, gammas[:, None, None]):
                state = init_state(problem, n, alg, [4, 5, 6])
                for _ in range(3):
                    round_step(state, W, c, problem, gamma)
                got.append(state.X.tobytes())
            assert got[0] == got[1], alg

    @pytest.mark.parametrize("stacked,shape", [
        (True, (2,)), (True, (4,)), (True, (3, 1)), (True, (1, 3)), (True, (3, 1, 8)),
        (True, (1, 1, 1)), (False, (1,)), (False, (1, 1, 1)),
    ])
    def test_gamma_of_another_shape_rejected_before_anything_is_drawn(
            self, stacked, shape, monkeypatch):
        draws = []
        draw = streams._draw
        monkeypatch.setattr(streams, "_draw", lambda *args: draws.append(args) or draw(*args))
        problem = quad_problem(4, 8, noise=0.3, seed=22)
        seed = 0
        if stacked:
            problem, seed = stack_problems([problem] * 3), [0, 1, 2]
        state = init_state(problem, 8, "dcd", seed)
        with pytest.raises(InputError, match="one value per trial"):
            round_step(state, build_ring(8), stochastic_quantize(7), problem, np.full(shape, 0.1))
        assert state.t == 1 and state.last_step is None and draws == []

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_step_loop_from_overflowing_models_diverges_without_numpy_warnings(self, alg):
        # a library caller's round_step loop; numpy's overflow warnings are
        # noise, blow-up must end as diverged
        problem = quad_problem(8, 8, het=0.5, noise=0.3, seed=24)
        W, c = build_ring(8), stochastic_quantize(127)
        state = init_state(problem, 8, alg, 0)
        state.X = np.full_like(state.X, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(10):
                round_step(state, W, c, problem, 1e10)
                state.last_step.q_norm2, state.last_step.g_norm2  # reduced on first use
                metrics(state, problem)
                if state.status == "diverged":
                    break
        assert state.status == "diverged"

    def test_metrics_of_overflowing_models_warn_nothing(self):
        problem = quad_problem(8, 8, het=0.5, seed=25)
        state = init_state(problem, 8, "dpsgd", 0)
        state.X = np.full_like(state.X, 1e200)
        state.X[:, ::2] = -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad_norm2, consensus = metrics(state, problem)
        assert math.isinf(consensus)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_state_made_non_finite_by_hand_diverges_at_the_commit(self, alg):
        # the round does not scan X before its oracle and compressor: that
        # round's commit marks the state diverged, and the next round raises
        problem = quad_problem(4, 8, noise=0.3, seed=23)
        W, c = build_ring(8), stochastic_quantize(127)
        state = init_state(problem, 8, alg, 0)
        round_step(state, W, c, problem, 0.1)
        state.X[2, -1] = math.nan
        round_step(state, W, c, problem, 0.1)
        assert state.status == "diverged" and state.t == 3
        with pytest.raises(DivergedError, match="already diverged"):
            round_step(state, W, c, problem, 0.1)
        assert state.t == 3


class TestFinalMeasurement:
    """The measurement after round T runs as pass T + 1 of run's loop:
    it may stop a trial at the loss cap or record its threshold crossing."""

    DOC = {"topology": {"kind": "ring", "n": 8}, "trace_every": 1,
           "problem": {"kind": "quadratic", "dim": 6, "heterogeneity": 0.5, "noise": 0.2},
           "compressor": {"kind": "quantize", "levels": 127}}

    @pytest.mark.parametrize("alg", ["dpsgd", "naive", "dcd", "ecd", "centralized"])
    def test_loss_cap_and_threshold_at_the_last_measurement(self, alg):
        doc = {**self.DOC, "algorithm": alg, "T": 400}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # step size 1.5 passes the loss cap mid-run: cut the horizon there
            long_run = run(config_from_dict({**doc, "gamma": 1.5, "seed": 1}))
            T = long_run.summary.iterations
            assert long_run.summary.status == "diverged" and 1 < T < 400
            # the measurement after round T, not the round, passes the cap
            capped_cfg = config_from_dict({**doc, "gamma": 1.5, "seed": 1, "T": T})
            W, problem, c, state_ss = build_run(capped_cfg)
            state = init_state(problem, W.n, alg, state_ss)
            for _ in range(T):
                round_step(state, W, c, problem, 1.5)
            assert np.isfinite(state.X).all() and metrics(state, problem)[0] > LOSS_CAP
            # the threshold is a completing run's gradient norm at that
            # measurement, which is below every earlier one
            grads = [r.grad_norm2 for r in run(config_from_dict(
                {**doc, "gamma": 0.05, "seed": 2})).records]
            assert min(grads[:T]) > grads[T]
            configs = [config_from_dict({**doc, "T": T, "grad_threshold": grads[T],
                                         "gamma": g, "seed": s})
                       for g, s in ((1.5, 1), (0.05, 2), (0.02, 3))]
            solo = [run(cfg) for cfg in configs]
            batch = run(configs)
        capped, crossed, completed = solo
        assert capped.summary.status == "diverged" and capped.summary.iterations == T
        assert len(capped.records) == T
        finals = (capped.summary.final_loss, capped.summary.final_grad_norm2,
                  capped.summary.final_consensus)
        assert finals == (math.inf,) * 3
        assert crossed.summary.status == "completed"
        assert crossed.summary.time_to_threshold == T + 1
        assert crossed.summary.final_grad_norm2 == grads[T]
        assert completed.summary.status == "completed" and completed.summary.iterations == T
        for a, b in zip(solo, batch):
            assert result_bits(b) == result_bits(a)


def result_bits(result):
    """Every record and summary field with its type, floats as exact hex."""
    def cell(v):
        return (type(v).__name__, v.hex() if isinstance(v, float) else v)

    rows = [dataclasses.asdict(r) for r in result.records]
    rows.append(dataclasses.asdict(result.summary))
    return [{k: cell(v) for k, v in row.items()} for row in rows]


TRIAL_PROBLEMS = {
    "quadratic": {"kind": "quadratic", "dim": 6, "heterogeneity": 0.5, "noise": 0.2},
    "logistic": {"kind": "logistic", "dim": 5, "samples_per_node": 8},
}
TRIAL_COMPRESSORS = {
    "identity": {"kind": "identity"},
    "quantize127": {"kind": "quantize", "levels": 127},
    "sparsify": {"kind": "sparsify", "keep_prob": 0.25},
    "synthetic": {"kind": "synthetic", "noise_bound": 1.0},
}


class TestTrialBatch:
    """A batch of configs that differ in seed or gamma runs as one stacked
    state; every trial must be bit for bit its solo run."""

    BASE = {
        "topology": {"kind": "ring", "n": 6},
        "T": 40,
        "trace_every": 1,
    }

    @pytest.mark.parametrize("alg,family,comp", [
        case for case in itertools.product(
            ("dpsgd", "naive", "dcd", "ecd", "centralized"), TRIAL_PROBLEMS, TRIAL_COMPRESSORS)
        # dcd needs a compressor with a finite noise-to-signal bound
        if case[0] != "dcd" or case[2] != "synthetic"
    ])
    def test_seed_batch_matches_solo_runs(self, alg, family, comp):
        doc = {**self.BASE, "algorithm": alg, "problem": TRIAL_PROBLEMS[family],
               "compressor": TRIAL_COMPRESSORS[comp],
               "gamma": "theory" if comp in ("identity", "quantize127") else 0.05}
        configs = [config_from_dict({**doc, "seed": seed}) for seed in (5, 0, 12, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solo = [run(cfg) for cfg in configs]
            batch = run(configs)
        assert len(batch) == 4
        for a, b in zip(solo, batch):
            assert result_bits(b) == result_bits(a)
        # the trials really differ, so a mix-up between them would show
        assert len({r.summary.final_loss for r in solo}) == 4

    @pytest.mark.parametrize("alg", ["dpsgd", "naive", "dcd", "ecd", "centralized"])
    def test_gamma_batch_with_diverging_trials_matches_solo_runs(self, alg):
        # one seed, four step sizes: 1e308 overflows in the first round, 1.5
        # passes the loss cap mid-run, the other two complete
        doc = {**self.BASE, "algorithm": alg, "T": 120, "seed": 7,
               "problem": TRIAL_PROBLEMS["quadratic"],
               "compressor": TRIAL_COMPRESSORS["quantize127"]}
        configs = [config_from_dict({**doc, "gamma": g}) for g in (0.05, 1e308, 1.5, 0.1)]
        solo = [run(cfg) for cfg in configs]
        batch = run(configs)
        for a, b in zip(solo, batch):
            assert result_bits(b) == result_bits(a)
        statuses = [r.summary.status for r in batch]
        assert statuses == ["completed", "diverged", "diverged", "completed"]
        assert 0 < batch[2].summary.iterations < 120
        assert batch[2].records and batch[2].records[-1].t == batch[2].summary.iterations

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_run_calls_no_checked_entry_point(self, alg, monkeypatch):
        # run steps its rounds through the kernel behind round_step, and
        # its oracle and compressor are the primitives behind the checked
        # entry points; the scans for non-finite values are the kernel's
        # broadcast guard and run's own per-block scan of the models.  Gamma
        # 1e308 overflows in the first round, so in the batch one trial
        # compresses zeros while the others exchange.
        def checked(*args, **kwargs):
            raise AssertionError("run called a checked entry point")

        monkeypatch.setattr(engine, "round_step", checked)
        monkeypatch.setattr(Problem, "stochastic_gradients", checked)
        monkeypatch.setattr(engine, "compress", checked)
        monkeypatch.setattr(compression, "compress", checked)
        doc = {**self.BASE, "algorithm": alg, "T": 60, "seed": 7,
               "problem": TRIAL_PROBLEMS["quadratic"],
               "compressor": TRIAL_COMPRESSORS["quantize127"]}
        configs = [config_from_dict({**doc, "gamma": g}) for g in (0.05, 1e308, 0.1)]
        solo = [run(cfg) for cfg in configs]
        batch = run(configs)
        for a, b in zip(solo, batch):
            assert result_bits(b) == result_bits(a)
        assert [r.summary.status for r in batch] == ["completed", "diverged", "completed"]
        assert batch[1].summary.iterations == 1

    def test_norm_cap_trips_one_trial_while_others_exchange(self):
        # ecd with the sparsifier: a large step pushes one trial's broadcast
        # past z_norm_cap mid-run while the others keep compressing
        doc = {**self.BASE, "algorithm": "ecd", "T": 200, "z_norm_cap": 50.0,
               "problem": TRIAL_PROBLEMS["quadratic"],
               "compressor": TRIAL_COMPRESSORS["sparsify"]}
        configs = [config_from_dict({**doc, "gamma": g, "seed": s})
                   for g, s in ((0.01, 1), (0.05, 1), (0.005, 2), (0.1, 2))]
        solo = [run(cfg) for cfg in configs]
        batch = run(configs)
        for a, b in zip(solo, batch):
            assert result_bits(b) == result_bits(a)
        assert [r.summary.status for r in batch] == [
            "completed", "diverged", "completed", "diverged"]
        for r in batch[1::2]:
            # the guard tripped inside a round (that round is recorded),
            # at a loss far below the loss cap, and at different rounds
            assert 0 < r.summary.iterations == len(r.records) < 200
            assert r.records[-1].loss < 1e3
        assert batch[1].summary.iterations != batch[3].summary.iterations

    @pytest.mark.parametrize("alg", ["dpsgd", "dcd", "ecd"])
    def test_wide_banded_batch_matches_solo_runs(self, alg):
        # ring 1024 mixes by its three diagonals, not the dense product
        doc = {"algorithm": alg, "topology": {"kind": "ring", "n": 1024}, "T": 5,
               "trace_every": 1, "gamma": 0.05,
               "problem": {"kind": "quadratic", "dim": 64, "heterogeneity": 0.5, "noise": 0.2},
               "compressor": TRIAL_COMPRESSORS["quantize127"]}
        configs = [config_from_dict({**doc, "seed": seed}) for seed in (5, 0, 12)]
        assert build_topology(configs[0].topology).bands is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # dcd's budget cannot hold on a ring this wide
            solo = [run(cfg) for cfg in configs]
            batch = run(configs)
        for a, b in zip(solo, batch):
            assert result_bits(b) == result_bits(a)
        assert len({r.summary.final_loss for r in solo}) == 3

    def test_batch_may_differ_only_in_seed_and_gamma(self):
        cfg = config_from_dict({**TestRun.BASE, "T": 5})
        other = dataclasses.replace(cfg, T=6)
        with pytest.raises(ConfigError, match="seed and gamma"):
            run([cfg, other])
        assert run([]) == []

    RULE_DOC = {**BASE, "algorithm": "naive", "problem": TRIAL_PROBLEMS["quadratic"],
                "compressor": TRIAL_COMPRESSORS["quantize127"], "gamma": 0.05, "T": 20}

    @pytest.mark.parametrize("patch", [
        {"T": 21}, {"algorithm": "ecd"}, {"compressor": {"kind": "quantize", "levels": 63}},
        {"topology": {"kind": "ring", "n": 7}}, {"trace_every": 2},
    ], ids=["T", "algorithm", "levels", "n", "trace_every"])
    def test_batch_rule_is_checked_before_any_trial_runs(self, patch, monkeypatch):
        # the odd trial also differs in seed and gamma, which alone are allowed
        configs = [config_from_dict({**self.RULE_DOC, "seed": 1}),
                   config_from_dict({**self.RULE_DOC, **patch, "seed": 2, "gamma": 0.1}),
                   config_from_dict(self.RULE_DOC)]

        def built(*args, **kwargs):
            raise AssertionError("a trial was built")

        monkeypatch.setattr(config, "build_run", built)
        with pytest.raises(ConfigError) as err:
            run(configs)
        assert str(err.value) == "the trials of a batch may differ only in seed and gamma"

    def test_batch_differing_in_seed_and_gamma_runs(self):
        configs = [config_from_dict({**self.RULE_DOC, "seed": s, "gamma": g})
                   for s, g in ((1, 0.05), (2, 0.1), (1, 0.02))]
        batch = run(configs)
        for cfg, result in zip(configs, batch, strict=True):
            assert result_bits(result) == result_bits(run(cfg))
            assert (result.summary.seed, result.summary.gamma) == (cfg.seed, cfg.gamma)
            assert result.summary.status == "completed"


def float_bits(value):
    return float(value).hex()


class TestBlockDraws:
    """run() draws each stream many rounds ahead; round_step on a fresh
    init_state draws one round at a time.  Both must give the same bits."""

    PROBLEMS = {
        "quadratic": {"kind": "quadratic", "dim": 8, "heterogeneity": 0.5, "noise": 0.2},
        "logistic": {"kind": "logistic", "dim": 6, "samples_per_node": 8},
    }
    COMPRESSORS = {
        "quantize7": {"kind": "quantize", "levels": 7},
        "sparsify": {"kind": "sparsify", "keep_prob": 0.25},
        "synthetic": {"kind": "synthetic", "noise_bound": 1.0},
    }
    BLOCK = 16  # rounds per block, small enough that runs diverging near round 50 cross refills
    T = 60

    @pytest.mark.parametrize("alg,family,comp", [
        case for case in itertools.product(
            ("dpsgd", "naive", "dcd", "ecd", "centralized"), PROBLEMS, COMPRESSORS)
        if case[0] != "dcd" or case[2] != "synthetic"
    ])
    def test_run_equals_per_round_step_loop(self, alg, family, comp, monkeypatch):
        monkeypatch.setattr(streams, "MAX_BLOCK_ROUNDS", self.BLOCK)
        cfg = config_from_dict({
            "algorithm": alg, "topology": {"kind": "ring", "n": 8},
            "problem": self.PROBLEMS[family], "compressor": self.COMPRESSORS[comp],
            "gamma": 0.05, "T": self.T, "trace_every": 1, "seed": 11,
        })
        records = self.check_against_step_loop(cfg)
        # every run reads at least three blocks of each purpose that draws
        # (dcd with the sparsifier diverges near round 50)
        assert len(records) > 2 * self.BLOCK

    # (family, block value budget, oracle K, compression K) on ring 16: the
    # budget, not MAX_BLOCK_ROUNDS, sets the block length.  The logistic
    # oracle draws one value per node and round, its compression dim 6.
    BUDGETS = [
        ("quadratic", 3 * 16 * 8, 3, 3),
        ("quadratic", 2 * 16 * 8, 2, 2),
        ("logistic", 3 * 16, 3, 1),
        ("logistic", 2 * 16 * 6, 12, 2),
    ]

    @pytest.mark.parametrize("alg", ["naive", "dcd", "ecd"])
    @pytest.mark.parametrize("family,budget,oracle_K,compress_K", BUDGETS)
    def test_value_budget_sets_the_block_length(
            self, alg, family, budget, oracle_K, compress_K, monkeypatch):
        monkeypatch.setattr(streams, "BLOCK_VALUES", budget)
        dim = self.PROBLEMS[family]["dim"]
        oracle_width = 1 if family == "logistic" else dim
        assert streams.block_rounds(16, oracle_width, self.T) == oracle_K
        assert streams.block_rounds(16, dim, self.T) == compress_K
        cfg = config_from_dict({
            "algorithm": alg, "topology": {"kind": "ring", "n": 16},
            "problem": self.PROBLEMS[family], "compressor": self.COMPRESSORS["quantize7"],
            "gamma": 0.05, "T": self.T, "trace_every": 1, "seed": 21,
        })
        records = self.check_against_step_loop(cfg)
        # every run reads at least five blocks of each purpose
        assert len(records) >= 5 * max(oracle_K, compress_K)

    def check_against_step_loop(self, cfg):
        """Run cfg, replay it one round per draw with round_step, and
        compare every record and the final metrics as float hex; return the
        run's records."""
        alg = cfg.algorithm
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run(cfg)
        records = result.records

        W, problem, c, state_ss = build_run(cfg)
        gamma = resolve_gamma(cfg, problem, W, c)
        z_norm_cap = cfg.z_norm_cap if c.kind == "sparsify" else math.inf
        state = init_state(problem, W.n, alg, state_ss)  # one round per draw
        for r in records:
            before = metrics(state, problem)
            round_step(state, W, c, problem, gamma, z_norm_cap)
            step = state.last_step
            got = (state.t - 1, *before, step.q_norm2, step.g_norm2, state.bits_total)
            want = (r.t, r.loss, r.grad_norm2, r.consensus, r.q_norm2, r.g_norm2, r.bits)
            assert [float_bits(v) for v in got] == [float_bits(v) for v in want]
            if state.status == "diverged":
                break
        if result.summary.status == "completed":
            final = metrics(state, problem)
            summary = result.summary
            assert [float_bits(v) for v in final] == [float_bits(v) for v in (
                summary.final_loss, summary.final_grad_norm2, summary.final_consensus)]
        return records

    @pytest.mark.parametrize("trace_every", [1, 7])
    @pytest.mark.parametrize("alg", ["dpsgd", "naive", "dcd", "ecd", "centralized"])
    def test_results_do_not_depend_on_the_metric_block(self, alg, trace_every, monkeypatch):
        # run steps up to K rounds a block, then measures them in one
        # metrics call.  Step size 1e308 leaves its trial non-finite in
        # round 1, where dcd's and ecd's broadcast guard marks it: under
        # every algorithm the trial steps on to the block's end and stops at
        # pass 2, the pass after the guard's round and its first non-finite
        # one; 1.5 passes the loss cap mid-run with finite models, and its
        # trial steps on to the end of the block; 0.05 completes.  T = 101
        # is a multiple of no K below.
        configs, solo = self.block_independent_results(alg, trace_every, 101, monkeypatch)
        assert [row["status"][1] for row in (r[-1] for r in solo)] == [
            "completed", "diverged", "diverged"]
        capped_at = solo[2][-1]["iterations"][1]
        assert solo[1][-1]["iterations"][1] == 1 and 1 < capped_at < 101
        # blocks of K passes start at passes 1, K + 1, ...: the capped
        # trial's stop pass, capped_at + 1, is inside a block for some K, so
        # the trial stepped on past it; so it is for blocks from pass 2
        assert any(capped_at % K for K in (2, 3, 7))
        assert any((capped_at - 1) % K for K in (2, 3, 7))

        # the edges of the block loop.  42 is a multiple of every fixed K,
        # so a run's last block at T = 42 steps no round and only measures
        # pass T + 1; at T = 43 it steps one.
        # At T = 1 the non-finite trial stops at pass T + 1 beside two that
        # complete there; T = 0 only measures pass 1.
        for T in (42, 43):
            _, solo = self.block_independent_results(alg, trace_every, T, monkeypatch)
            assert [(r[-1]["status"][1], r[-1]["iterations"][1]) for r in solo] == [
                ("completed", T), ("diverged", 1), ("diverged", capped_at)]
        for T, status in ((1, "diverged"), (0, "completed")):
            _, solo = self.block_independent_results(alg, trace_every, T, monkeypatch)
            assert [(r[-1]["status"][1], r[-1]["iterations"][1]) for r in solo] == [
                ("completed", T), (status, T), ("completed", T)]

        # the per-round reference loop agrees with solo runs in 3-pass blocks
        problem = build_run(configs[0])[1]
        monkeypatch.setattr(engine, "METRIC_BLOCK_VALUES", 3 * engine._pass_values(problem, 6))
        for cfg in configs[::2]:  # the reference replays one record per round
            self.check_against_step_loop(dataclasses.replace(cfg, trace_every=1))

    def block_independent_results(self, alg, trace_every, T, monkeypatch):
        """The test configs at horizon T, and their solo results, which the
        batch and solo runs must give at every metric block length."""
        doc = {"algorithm": alg, "topology": {"kind": "ring", "n": 6}, "T": T, "seed": 7,
               "trace_every": trace_every, "problem": TRIAL_PROBLEMS["quadratic"],
               "compressor": TRIAL_COMPRESSORS["quantize127"]}
        configs = [config_from_dict({**doc, "gamma": g}) for g in (0.05, 1e308, 1.5)]
        pass_values = engine._pass_values(build_run(configs[0])[1], 6)
        solo = [result_bits(run(cfg)) for cfg in configs]
        # K passes a block throughout, then K passes at 3 trials and more as
        # trials retire, then the default (64 passes)
        blocks = [{"MAX_METRIC_PASSES": K} for K in (1, 2, 3, 7)]
        blocks += [{"METRIC_BLOCK_VALUES": K * 3 * pass_values} for K in (1, 2, 3, 7)]
        for patch in blocks + [{}]:
            with monkeypatch.context() as m:
                for name, value in patch.items():
                    m.setattr(engine, name, value)
                assert [result_bits(r) for r in run(configs)] == solo
                assert [result_bits(run(cfg)) for cfg in configs] == solo
        return configs, solo

    def test_no_pass_from_the_stop_on_counts(self, monkeypatch):
        # a loss cap between the seeds' initial losses (0.83, 0.79, 0.22)
        # stops seed 0 at pass 1: neither that pass nor the later ones its
        # block measured count towards its least gradient norm or its
        # threshold crossing, which every counted pass makes
        monkeypatch.setattr(engine, "LOSS_CAP", 0.8)
        doc = {"algorithm": "dcd", "topology": {"kind": "ring", "n": 6}, "T": 30,
               "gamma": 0.05, "grad_threshold": 1e300, "problem": TRIAL_PROBLEMS["quadratic"],
               "compressor": TRIAL_COMPRESSORS["quantize127"]}
        configs = [config_from_dict({**doc, "seed": s}) for s in (0, 4, 2)]
        for K in (1, 2, 64):
            monkeypatch.setattr(engine, "MAX_METRIC_PASSES", K)
            capped, *others = run(configs)
            s = capped.summary
            assert (s.status, s.iterations, capped.records) == ("diverged", 0, [])
            assert s.min_grad_norm2 == math.inf and s.time_to_threshold is None
            assert [(r.summary.status, r.summary.time_to_threshold) for r in others] == [
                ("completed", 1)] * 2

    @pytest.mark.parametrize("alg", ["dpsgd", "naive", "centralized"])
    def test_trial_non_finite_mid_block_stops_at_its_first_non_finite_pass(
            self, alg, monkeypatch):
        # these algorithms have no broadcast guard, so run finds non-finite
        # models only by its per-block scan.  Step size 1e60 overflows the
        # models after a few rounds, not in round 1.  At dim 1 the
        # overflowed models share one sign, so their loss is inf, not NaN;
        # with the loss cap lifted that stops no trial, and the scan must
        # stop it at the pass after the round in which round_step marks it
        # diverged (one pass later, its models are NaN)
        monkeypatch.setattr(engine, "LOSS_CAP", math.inf)
        doc = {"algorithm": alg, "topology": {"kind": "ring", "n": 6}, "T": 30, "seed": 7,
               "trace_every": 1, "compressor": TRIAL_COMPRESSORS["quantize127"],
               "problem": {"kind": "quadratic", "dim": 1, "heterogeneity": 0.5, "noise": 0.2}}
        configs = [config_from_dict({**doc, "gamma": g}) for g in (0.05, 1e60, 0.1)]
        W, problem, c, state_ss = build_run(configs[1])
        state = init_state(problem, W.n, alg, state_ss)
        while state.status == "running":
            round_step(state, W, c, problem, 1e60)
        diverged_at = state.t - 1
        solo = [result_bits(run(cfg)) for cfg in configs]
        assert [(r[-1]["status"][1], r[-1]["iterations"][1]) for r in solo] == [
            ("completed", 30), ("diverged", diverged_at), ("completed", 30)]
        # the stop pass, diverged_at + 1, is the state after a block's last
        # round for some K below, and a row of the stacked models for others
        assert 1 < diverged_at < 30
        assert {diverged_at % K == 0 for K in (1, 3, 7)} == {True, False}
        for patch in [{"MAX_METRIC_PASSES": K} for K in (1, 3, 7)] + [{}]:
            with monkeypatch.context() as m:
                for name, value in patch.items():
                    m.setattr(engine, name, value)
                assert [result_bits(r) for r in run(configs)] == solo
                assert [result_bits(run(cfg)) for cfg in configs] == solo
        for cfg in configs:
            self.check_against_step_loop(cfg)

    @pytest.mark.parametrize("alg,compressor,dim,gamma,z_norm_cap", [
        ("dcd", "quantize127", 1, 1e60, 1e9),
        ("ecd", "quantize127", 1, 1e60, 1e9),
        ("ecd", "sparsify", 4, 0.3, 10.0),
    ], ids=["dcd", "ecd", "ecd-sparsify"])
    def test_trial_guarded_mid_block_stops_after_its_guard_round(
            self, alg, compressor, dim, gamma, z_norm_cap, monkeypatch):
        # dcd's and ecd's broadcast guard marks a trial whose Z is non-finite
        # (step size 1e60 overflows in round 6) or, for the sparsifier, past
        # z_norm_cap in norm (round 11, with finite models).  run settles the
        # guard once per block like every other stop: the marked trial steps
        # on to its block's last round, its message zeroed while its Z is
        # bad, and stops at the pass after the guard's round.  The loss cap
        # is lifted so that only the guard and the non-finite scan stop it.
        monkeypatch.setattr(engine, "LOSS_CAP", math.inf)
        doc = {"algorithm": alg, "topology": {"kind": "ring", "n": 6}, "T": 30, "seed": 7,
               "trace_every": 1, "compressor": TRIAL_COMPRESSORS[compressor],
               "z_norm_cap": z_norm_cap,
               "problem": {"kind": "quadratic", "dim": dim, "heterogeneity": 0.5, "noise": 0.2}}
        configs = [config_from_dict({**doc, "gamma": g}) for g in (0.05, gamma, 0.1)]
        W, problem, c, state_ss = build_run(configs[1])
        state = init_state(problem, W.n, alg, state_ss)
        while state.status == "running":
            round_step(state, W, c, problem, gamma,
                       z_norm_cap if c.kind == "sparsify" else math.inf)
        guarded_at = state.t - 1
        # the sparsifier's trial is stopped by its guard alone
        assert np.isfinite(state.X).all() == (compressor == "sparsify")
        solo = [result_bits(run(cfg)) for cfg in configs]
        assert [(r[-1]["status"][1], r[-1]["iterations"][1]) for r in solo] == [
            ("completed", 30), ("diverged", guarded_at), ("completed", 30)]
        # the stop pass, guarded_at + 1, is the state after a block's last
        # round for some K below, and a row of the stacked models for others
        assert 1 < guarded_at < 30
        assert {guarded_at % K == 0 for K in (1, 3, 7)} == {True, False}
        for patch in [{"MAX_METRIC_PASSES": K} for K in (1, 3, 7)] + [{}]:
            with monkeypatch.context() as m:
                for name, value in patch.items():
                    m.setattr(engine, name, value)
                assert [result_bits(r) for r in run(configs)] == solo
                assert [result_bits(run(cfg)) for cfg in configs] == solo
        for cfg in configs:
            self.check_against_step_loop(cfg)

    @pytest.mark.parametrize("alg", ["naive", "dcd", "ecd"])
    def test_trial_retiring_mid_block_leaves_the_others_unchanged(self, alg):
        # step size 0.45 diverges near round 90, inside the second 64-round
        # block; the other two trials read the sliced blocks for the rest of
        # it and refill at round 129.  Each trial has its own seed, so rows
        # sliced from the wrong trial would show.
        doc = {"algorithm": alg, "topology": {"kind": "ring", "n": 8},
               "problem": self.PROBLEMS["quadratic"], "compressor": self.COMPRESSORS["quantize7"],
               "T": 150, "trace_every": 1}
        configs = [config_from_dict({**doc, "gamma": g, "seed": s})
                   for g, s in ((0.05, 11), (0.45, 12), (0.02, 13))]
        assert streams.block_rounds(3 * 8, 8, 150) == 64
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solo = [run(cfg) for cfg in configs]
            batch = run(configs)
        stopped = batch[1].summary
        assert stopped.status == "diverged"
        assert 64 < stopped.iterations < 128 and stopped.iterations % 64 != 0
        assert [r.summary.status for r in batch[::2]] == ["completed", "completed"]
        for a, b in zip(solo, batch):
            assert result_bits(b) == result_bits(a)

    # 3 trials of ring 8 x dim 8 hold 192 values a round; at this budget that
    # is wider than BLOCK_VALUES / MAX_BLOCK_ROUNDS, so the batch draws
    # ahead in 40-round blocks, while a solo run (64 values a round) does not
    AHEAD_BUDGET = 40 * 3 * 8 * 8

    @pytest.mark.parametrize("alg", ["naive", "dcd", "ecd"])
    def test_trial_retiring_while_the_next_block_is_drawn(
            self, alg, monkeypatch, slow_background_draws):
        # step size 0.45 diverges near round 90, inside the third of four
        # 40-round blocks, while the fourth is being drawn for both purposes
        doc = {"algorithm": alg, "topology": {"kind": "ring", "n": 8},
               "problem": self.PROBLEMS["quadratic"], "compressor": self.COMPRESSORS["quantize7"],
               "T": 160, "trace_every": 1}
        configs = [config_from_dict({**doc, "gamma": g, "seed": s})
                   for g, s in ((0.05, 11), (0.45, 12), (0.02, 13))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solo = [run(cfg) for cfg in configs]
            monkeypatch.setattr(streams, "BLOCK_VALUES", self.AHEAD_BUDGET)
            assert streams.block_rounds(3 * 8, 8, 160) == 40
            # run retires a trial after the metric block of its stop pass;
            # 8-pass blocks retire it before the fourth block is taken
            pass_values = engine._pass_values(build_run(configs[0])[1], 8)
            monkeypatch.setattr(engine, "METRIC_BLOCK_VALUES", 8 * 3 * pass_values)
            ahead = []  # per keep call: is a block drawn ahead, is it still being drawn
            keep = streams.StreamSet.keep

            def watched_keep(s, trials):
                ahead.append((s._ahead is not None, s._ahead is not None and s._ahead[0].is_alive()))
                keep(s, trials)

            monkeypatch.setattr(streams.StreamSet, "keep", watched_keep)
            batch = run(configs)
        stopped = batch[1].summary
        assert stopped.status == "diverged" and 80 < stopped.iterations < 120
        # the oracle's set and then compression's, whose block may be done by
        # the time the oracle's join returns
        assert [pending for pending, _ in ahead] == [True, True] and ahead[0][1]
        assert [r.summary.status for r in batch[::2]] == ["completed", "completed"]
        for a, b in zip(solo, batch):
            assert result_bits(b) == result_bits(a)

    @pytest.mark.parametrize("gamma", [0.05, 50.0])
    def test_no_thread_outlives_run(
            self, gamma, monkeypatch, slow_background_draws, background_fills):
        # at step size 50 every trial diverges within a few rounds, with the
        # second block still being drawn
        monkeypatch.setattr(streams, "BLOCK_VALUES", self.AHEAD_BUDGET)
        configs = [config_from_dict({
            "algorithm": "dcd", "topology": {"kind": "ring", "n": 8},
            "problem": self.PROBLEMS["quadratic"], "compressor": self.COMPRESSORS["quantize7"],
            "gamma": gamma, "T": 150, "seed": s}) for s in (1, 2, 3)]
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run(configs)
        assert threading.active_count() == before
        assert background_fills
        statuses = {r.summary.status for r in results}
        if gamma > 1:
            assert statuses == {"diverged"}
            assert max(r.summary.iterations for r in results) < 40
        else:
            assert statuses == {"completed"}

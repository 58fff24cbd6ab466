"""Synthetic objectives: constants, oracles, closed forms."""

import math

import numpy as np
import pytest

from dcsgd import DivergedError, InputError, make_logistic, make_quadratic
from dcsgd.problems import _sigmoid, logistic_from_data, stack_problems, take_trials
from dcsgd.streams import StreamSet


@pytest.fixture(scope="module")
def quad():
    return make_quadratic(10, 4, heterogeneity=1.0, noise=0.3, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def logi():
    return make_logistic(6, 3, samples_per_node=40, separation=2.0,
                         rng=np.random.default_rng(1), reg=0.1)


def at_every_node(p, x):
    """The (dim, n) state with x in every node's column."""
    return np.repeat(np.asarray(x)[:, None], p.n, axis=1)


def finite_difference_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestQuadratic:
    def test_zero_heterogeneity_zero_zeta(self):
        p = make_quadratic(8, 4, heterogeneity=0.0, noise=0.1, rng=np.random.default_rng(2))
        assert p.zeta2 == 0.0

    def test_zero_noise_zero_sigma(self):
        p = make_quadratic(8, 4, heterogeneity=1.0, noise=0.0, rng=np.random.default_rng(3))
        assert p.sigma2 == 0.0
        X = at_every_node(p, np.random.default_rng(4).standard_normal(8))
        G = p.stochastic_gradients(X, [np.random.default_rng(5) for _ in range(p.n)])
        assert np.array_equal(G, p.gradients(X))

    def test_sigma2_is_noise2_times_dim(self, quad):
        assert quad.sigma2 == pytest.approx(0.3**2 * 10, rel=1e-12)

    def test_gradient_formula(self, quad):
        x = np.random.default_rng(6).standard_normal(10)
        m = quad.A.shape[0]
        G = quad.gradients(at_every_node(quad, x))
        for i in range(quad.n):
            expected = quad.A.T @ (quad.A @ x - quad.B[:, i]) / m
            assert np.allclose(G[:, i], expected, atol=1e-12)

    def test_zeta2_closed_form_vs_brute_force(self, quad):
        # the across-node gradient variation is constant in x for a shared
        # design matrix; sweep 100 random points and compare the maximum
        # against the closed-form value
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(10) * rng.uniform(0.1, 5.0)
            grads = quad.gradients(at_every_node(quad, x))
            g_mean = grads.mean(axis=1, keepdims=True)
            worst = max(worst, float(np.mean(np.sum((grads - g_mean) ** 2, axis=0))))
        assert worst == pytest.approx(quad.zeta2, rel=1e-9)

    def test_heterogeneity_patterns_sum_to_zero(self, quad):
        shifts = quad.B - quad.B.mean(axis=1, keepdims=True)
        assert np.allclose(shifts.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(quad.B - quad.B.mean(axis=1, keepdims=True), axis=0),
                           1.0, atol=1e-9)

    def test_minimizer_is_stationary(self, quad):
        x_star = quad.minimizer()
        assert np.linalg.norm(quad.grad_mean(x_star)) <= 1e-10

    def test_f_star_is_minimal(self, quad):
        x_star = quad.minimizer()
        rng = np.random.default_rng(8)
        assert quad.f_star == pytest.approx(quad.loss(x_star), rel=1e-12)
        for _ in range(20):
            assert quad.loss(x_star + 0.1 * rng.standard_normal(10)) >= quad.f_star

    def test_reported_L_bounds_hessian_power_iteration(self, quad):
        m = quad.A.shape[0]
        H = quad.A.T @ quad.A / m
        v = np.random.default_rng(9).standard_normal(10)
        for _ in range(500):
            v = H @ v
            v /= np.linalg.norm(v)
        assert float(v @ (H @ v)) <= quad.L * (1 + 1e-9)

    def test_L_is_two_by_construction(self, quad):
        assert quad.L == pytest.approx(2.0, rel=1e-9)


class TestLogistic:
    def test_L_hard_bound(self, logi):
        max_row2 = max(float(np.max(np.sum(d * d, axis=1))) for d in logi.data)
        assert logi.L == pytest.approx(0.25 * max_row2 + 0.1, rel=1e-12)

    def test_hessian_never_exceeds_L(self, logi):
        # analytic Hessian-vector products as the independent oracle
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.standard_normal(6)
            i = int(rng.integers(logi.n))
            d, y = logi.data[i], logi.labels[i]
            u = y * (d @ x)
            w = np.exp(-np.abs(u)) / (1 + np.exp(-np.abs(u))) ** 2  # sigmoid'(u)
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            for _ in range(200):
                hv = d.T @ (w * (d @ v)) / len(y) + logi.reg * v
                v = hv / np.linalg.norm(hv)
            top = float(v @ (d.T @ (w * (d @ v)) / len(y) + logi.reg * v))
            assert top <= logi.L * (1 + 1e-9)

    def test_disjoint_clusters_positive_zeta(self):
        p = make_logistic(5, 2, samples_per_node=50, separation=4.0,
                          rng=np.random.default_rng(11))
        assert p.zeta2 > 0.0

    def test_identical_labels_strongly_convex_descends(self):
        # all-positive labels with l2 regularization: gradient descent drives
        # the gradient norm toward zero
        rng = np.random.default_rng(12)
        data = [rng.standard_normal((30, 4)) + 1.0 for _ in range(2)]
        labels = [np.ones(30) for _ in range(2)]
        p = logistic_from_data(data, labels, reg=0.5, rng=rng)
        x = np.zeros(4)
        for _ in range(2000):
            x = x - (1.0 / p.L) * p.grad_mean(x)
        assert np.linalg.norm(p.grad_mean(x)) < 1e-8

    def test_sigma2_bounds_minibatch_variance(self, logi):
        # every node's draws at once, one stream per node, drawn in blocks
        rng = np.random.default_rng(13)
        n_draws = 4000
        for _ in range(20):
            X = at_every_node(logi, rng.standard_normal(6))
            full = logi.gradients(X)
            streams = StreamSet(rng.spawn(logi.n), rounds=n_draws)
            draws = np.stack([logi.stochastic_gradients(X, streams) for _ in range(n_draws)])
            devs = np.sum((draws - full) ** 2, axis=1)  # (n_draws, n)
            se = devs.std(axis=0, ddof=1) / math.sqrt(n_draws)
            assert np.all(devs.mean(axis=0) <= logi.sigma2 + 4 * se)

    def test_ragged_datasets_rejected(self):
        rng = np.random.default_rng(20)
        data = [rng.standard_normal((30, 4)), rng.standard_normal((20, 4))]
        labels = [np.ones(30), np.ones(20)]
        with pytest.raises(InputError, match=r"\[30, 20\]"):
            logistic_from_data(data, labels, reg=0.1, rng=rng)

    def test_zeta2_bounds_node_variation(self, logi):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.standard_normal(6)
            grads = logi.gradients(at_every_node(logi, x))
            g_mean = grads.mean(axis=1, keepdims=True)
            var = float(np.mean(np.sum((grads - g_mean) ** 2, axis=0)))
            assert var <= logi.zeta2


def reference_sigmoid(u):
    """The masked two-branch sigmoid: 1/(1+e^-u) for u >= 0, e^u/(1+e^u) below."""
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    def test_bitwise_equal_to_reference_on_edge_values(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324, -5e-324,
                 36.7, -36.7, 709.78, -709.78, 745.2, -745.2, 800.0, -800.0, 1e300, -1e300]
        u = np.concatenate([edges, np.random.default_rng(0).uniform(-800, 800, 1000)])
        with np.errstate(over="raise"):  # exp of a large argument never runs
            got = _sigmoid(u)
        want = reference_sigmoid(u)
        # NaN stays NaN (its sign bit is not part of the contract); every
        # other value is bit for bit the reference's
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and np.count_nonzero(nan) == 1
        assert got[~nan].tobytes() == want[~nan].tobytes()
        # one element and a stacked (16, 32) batch, as the oracles call it
        for shaped in (u[:1], u[19:19 + 512].reshape(16, 32)):
            assert _sigmoid(shaped).tobytes() == reference_sigmoid(shaped).tobytes()


class TestOracles:
    @pytest.mark.parametrize("which", ["quad", "logi"])
    def test_gradients_match_finite_differences(self, which, quad, logi):
        p = quad if which == "quad" else logi
        rng = np.random.default_rng(15)
        for _ in range(5):
            x = rng.standard_normal(p.dim)
            i = int(rng.integers(p.n))
            g = p.gradients(at_every_node(p, x))[:, i]
            fd = finite_difference_gradient(lambda y: p.losses(y)[i], x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_loss_is_mean_of_node_losses(self, quad):
        x = np.random.default_rng(16).standard_normal(10)
        per_node = np.mean(quad.losses(x))
        assert quad.loss(x) == pytest.approx(per_node, rel=1e-12)

    def test_stochastic_gradient_unbiased_monte_carlo(self, quad):
        rng = np.random.default_rng(17)
        X = at_every_node(quad, rng.standard_normal(10))
        full = quad.gradients(X)[:, 2]
        n_draws = 10_000
        streams = StreamSet(rng.spawn(quad.n), rounds=n_draws)
        draws = np.column_stack(
            [quad.stochastic_gradients(X, streams)[:, 2] for _ in range(n_draws)]
        )
        se = draws.std(axis=1, ddof=1) / math.sqrt(n_draws)
        assert np.all(np.abs(draws.mean(axis=1) - full) <= 4 * se)

    def test_gradient_at_minimizer_with_identical_nodes(self):
        p = make_quadratic(6, 3, heterogeneity=0.0, noise=0.0, rng=np.random.default_rng(18))
        G = p.stochastic_gradients(at_every_node(p, p.minimizer()),
                                   [np.random.default_rng(0) for _ in range(p.n)])
        assert np.all(np.linalg.norm(G, axis=0) <= 1e-10)

    @pytest.mark.parametrize("which", ["quad", "logi"])
    def test_batched_matches_per_node_draws(self, which, quad, logi):
        # node i's draw comes from stream i
        p = quad if which == "quad" else logi
        X = np.random.default_rng(19).standard_normal((p.dim, p.n))
        rngs_a = [np.random.default_rng(100 + i) for i in range(p.n)]
        rngs_b = [np.random.default_rng(100 + i) for i in range(p.n)]
        batched = p.stochastic_gradients(X, rngs_a)
        for i in range(p.n):
            if which == "quad":
                expected = p.gradients(X)[:, i] + p.noise * rngs_b[i].standard_normal(p.dim)
                assert np.allclose(batched[:, i], expected, atol=1e-12)
            else:
                # the one-sample gradient -y s(-y d.x) d + reg x at the drawn row
                k = rngs_b[i].integers(0, p.labels.shape[1], size=(1, 1))[0, 0]
                d, y, x = p.data[i, k], p.labels[i, k], X[:, i]
                expected = -y * _sigmoid(-y * (d @ x)) * d + p.reg * x
                assert np.array_equal(batched[:, i], expected)

    @pytest.mark.parametrize("which", ["quad", "logi", "noise-free"])
    def test_wrong_stream_count_rejected(self, which, quad, logi):
        p = {"quad": quad, "logi": logi, "noise-free": make_quadratic(
            10, 4, rng=np.random.default_rng(0))}[which]
        X = np.zeros((p.dim, p.n))
        for count in (1, p.n - 1, p.n + 1, 2 * p.n):
            with pytest.raises(InputError, match=f"{count} streams"):
                p.stochastic_gradients(X, [np.random.default_rng(i) for i in range(count)])

    def test_nonfinite_state_raises(self, quad):
        with pytest.raises(DivergedError):
            quad.stochastic_gradients(np.full((10, quad.n), np.inf),
                                      [np.random.default_rng(0) for _ in range(quad.n)])


class TestTrialStacking:
    """stack_problems gives each array a leading trial axis; take_trials
    keeps the flagged trials of a stacked problem."""

    @pytest.fixture(params=["quadratic", "logistic"])
    def family(self, request):
        if request.param == "quadratic":
            return [make_quadratic(5, 4, heterogeneity=0.5, noise=0.2,
                                   rng=np.random.default_rng(s)) for s in range(3)]
        return [make_logistic(5, 4, 6, rng=np.random.default_rng(s)) for s in range(3)]

    @staticmethod
    def arrays(p):
        names = ("A", "B") if hasattr(p, "A") else ("data", "labels")
        return [getattr(p, name) for name in names] + [np.asarray(p.L), np.asarray(p.sigma2)]

    def test_take_trials_equals_stacking_the_kept_problems(self, family):
        keep = np.array([True, False, True])
        taken = take_trials(stack_problems(family), keep)
        expected = stack_problems([family[0], family[2]])
        for a, b in zip(self.arrays(taken), self.arrays(expected)):
            assert a.tobytes() == b.tobytes()
        # per-trial f_star is carried over, not solved again on the stack
        if family[0].f_star is not None:
            assert taken.f_star.tolist() == [family[0].f_star, family[2].f_star]
        X = np.random.default_rng(1).standard_normal((2, 5, 4))
        assert taken.gradients(X).tobytes() == expected.gradients(X).tobytes()

    def test_grad_mean_follows_the_kept_trials(self, family):
        # the quadratic's cached mean target travels with B through stacking
        # and slicing: each kept trial's grad_mean is its own problem's
        keep = np.array([False, True, True])
        taken = take_trials(stack_problems(family), keep)
        x = np.random.default_rng(2).standard_normal(5)
        for k, p in enumerate(family[1:]):
            assert taken.grad_mean(np.stack([x, x]))[k].tobytes() == p.grad_mean(x).tobytes()
            assert taken.loss(np.stack([x, x]))[k] == p.loss(x)

    def test_one_problem_stacks_as_a_view(self, family):
        stacked = stack_problems(family[:1])
        for a, b in zip(self.arrays(stacked)[:2], self.arrays(family[0])[:2]):
            assert a.shape == (1,) + b.shape and np.shares_memory(a, b)

    def test_mixed_families_rejected(self):
        quad = make_quadratic(5, 4, rng=np.random.default_rng(0))
        logi = make_logistic(5, 4, 6, rng=np.random.default_rng(0))
        with pytest.raises(InputError, match="one family"):
            stack_problems([quad, logi])

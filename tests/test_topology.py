"""Mixing matrix construction and spectral statistics."""

import tracemalloc

import numpy as np
import pytest

from dcsgd import MixingMatrix, TopologyError, build_custom, build_fully_connected, build_ring
from dcsgd.topology import spectral_stats


def ring_eigenvalues(n):
    """Independent oracle: circulant eigenvalues (1 + 2 cos(2 pi k / n)) / 3."""
    k = np.arange(n)
    return (1.0 + 2.0 * np.cos(2.0 * np.pi * k / n)) / 3.0


def ring_by_loop(n):
    """Reference: the dense ring filled entry by entry, as it was built before
    its diagonals were."""
    entries = np.zeros((n, n))
    for i in range(n):
        entries[i, i] += 1.0 / 3.0
        entries[i, (i + 1) % n] += 1.0 / 3.0
        entries[i, (i - 1) % n] += 1.0 / 3.0
    return entries


def power_iteration_rho(entries, iters=2000, seed=0):
    """Independent oracle: largest |eigenvalue| on the subspace orthogonal to 1."""
    n = entries.shape[0]
    B = entries - np.full((n, n), 1.0 / n)
    v = np.random.default_rng(seed).standard_normal(n)
    for _ in range(iters):
        w = B @ v
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            return 0.0
        v = w / norm
    return float(np.linalg.norm(B @ v))


class TestBuilders:
    def test_ring8_rho_matches_circulant_formula(self):
        W = build_ring(8)
        lams = ring_eigenvalues(8)
        expected_rho = np.max(np.abs(np.sort(lams)[::-1][1:]))
        assert expected_rho == pytest.approx((1 + np.sqrt(2)) / 3, abs=1e-12)
        assert W.rho == pytest.approx(expected_rho, abs=1e-10)

    def test_ring8_mu_matches_circulant_formula(self):
        W = build_ring(8)
        lams = np.sort(ring_eigenvalues(8))[::-1]
        assert W.mu == pytest.approx(np.max(np.abs(lams[1:] - 1.0)), abs=1e-10)
        assert W.mu == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_ring_eigenvalues_match_formula(self):
        for n in (3, 5, 8, 16):
            W = build_ring(n)
            assert np.allclose(W.eigenvalues, np.sort(ring_eigenvalues(n))[::-1], atol=1e-10)

    def test_ring3_is_fully_connected(self):
        W = build_ring(3)
        assert np.allclose(W.entries, np.full((3, 3), 1.0 / 3.0))
        assert W.rho == pytest.approx(0.0, abs=1e-10)

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            build_ring(2)

    def test_fully_connected_entries_and_rho(self):
        W = build_fully_connected(4)
        assert np.all(W.entries == 0.25)
        assert W.rho == pytest.approx(0.0, abs=1e-10)
        assert W.mu == pytest.approx(1.0, abs=1e-10)

    def test_fully_connected_two_nodes_spectrum(self):
        W = build_fully_connected(2)
        assert np.allclose(W.eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_fully_connected_single_step_consensus(self):
        W = build_fully_connected(16)
        X = np.random.default_rng(7).standard_normal((5, 16))
        mixed = X @ W.entries
        assert np.allclose(mixed, mixed[:, :1], atol=1e-12)

    def test_fully_connected_too_small(self):
        with pytest.raises(TopologyError):
            build_fully_connected(1)

    def test_custom_path3_metropolis_weights(self):
        W = build_custom(3, [(0, 1), (1, 2)])
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        assert np.allclose(W.entries, expected, atol=1e-15)
        assert np.allclose(W.entries.sum(axis=1), 1.0, atol=1e-15)

    def test_custom_disconnected_pairs_rejected(self):
        # two disconnected pairs: lambda_2 = 1
        with pytest.raises(TopologyError):
            build_custom(4, [(0, 1), (2, 3)])

    def test_custom_star5_rho_matches_general_eigensolver(self):
        W = build_custom(5, [(0, i) for i in range(1, 5)])
        # independent oracle: general (non-symmetric-path) eigendecomposition
        lams = np.sort(np.real(np.linalg.eigvals(W.entries)))[::-1]
        assert W.rho == pytest.approx(max(abs(lams[1]), abs(lams[-1])), abs=1e-9)

    def test_custom_self_weights_lazy_variant(self):
        # s_i = 1/(1 + deg_i) reproduces the 1/(1 + max deg) lazy weighting
        deg = {0: 1, 1: 2, 2: 1}
        s = [1.0 / (1 + deg[i]) for i in range(3)]
        W = build_custom(3, [(0, 1), (1, 2)], self_weights=s)
        assert W.entries[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert W.entries[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_custom_metropolis_weights_match_pairwise_formula(self):
        n = 9
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 3)]
        lazy = np.random.default_rng(6).uniform(0.0, 0.6, n)
        W = build_custom(n, edges, self_weights=lazy)
        deg = np.zeros(n, int)
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        expected = np.zeros((n, n))
        for i, j in edges:
            expected[i, j] = expected[j, i] = min((1 - lazy[i]) / deg[i], (1 - lazy[j]) / deg[j])
        for i in range(n):
            expected[i, i] = 1.0 - sum(expected[i])
        assert np.array_equal(W.entries, expected)

    def test_custom_too_few_edges_rejected_before_allocating(self):
        # an n x n matrix of this n would need 90.9 TiB
        with pytest.raises(TopologyError, match="needs at least 9999999 edges, got 1"):
            build_custom(10_000_000, [(0, 1)])

    def test_custom_bad_inputs(self):
        with pytest.raises(TopologyError):
            build_custom(3, [(0, 3)])
        with pytest.raises(TopologyError):
            build_custom(3, [(0, 0)])
        with pytest.raises(TopologyError):
            build_custom(3, [(0, 1)])  # node 2 isolated


class TestInvariants:
    @pytest.fixture(params=["ring8", "ring16", "complete6", "star5", "path4"])
    def mixing(self, request):
        return {
            "ring8": lambda: build_ring(8),
            "ring16": lambda: build_ring(16),
            "complete6": lambda: build_fully_connected(6),
            "star5": lambda: build_custom(5, [(0, i) for i in range(1, 5)]),
            "path4": lambda: build_custom(4, [(0, 1), (1, 2), (2, 3)]),
        }[request.param]()

    def test_exact_symmetry(self, mixing):
        assert np.max(np.abs(mixing.entries - mixing.entries.T)) == 0.0

    def test_row_sums(self, mixing):
        assert np.max(np.abs(mixing.entries.sum(axis=1) - 1.0)) <= 1e-12

    def test_uniform_vector_fixed(self, mixing):
        ones = np.full(mixing.n, 1.0 / mixing.n)
        assert np.max(np.abs(mixing.entries @ ones - ones)) <= 1e-12

    def test_rho_below_one(self, mixing):
        assert 0.0 <= mixing.rho < 1.0

    def test_powers_converge_at_rho_rate(self, mixing):
        n = mixing.n
        avg = np.full((n, n), 1.0 / n)
        for t in (1, 5, 20):
            power = np.linalg.matrix_power(mixing.entries, t)
            gap = np.linalg.norm(power - avg)
            assert gap <= np.sqrt(n) * mixing.rho**t + 1e-8

    def test_rho_matches_power_iteration(self, mixing):
        assert mixing.rho == pytest.approx(power_iteration_rho(mixing.entries), abs=1e-6)

    def test_entries_read_only(self, mixing):
        with pytest.raises(ValueError):
            mixing.entries[0, 0] = 2.0


class TestSpectralStats:
    def test_identity_matrix_flagged(self):
        rho, mu, lams = spectral_stats(np.eye(2))
        assert rho == pytest.approx(1.0)
        assert mu == pytest.approx(0.0)
        with pytest.raises(TopologyError):
            MixingMatrix.from_entries(np.eye(2))

    def test_complete8(self):
        W = build_fully_connected(8)
        rho, mu, lams = spectral_stats(W.entries)
        assert rho == pytest.approx(0.0, abs=1e-12)
        assert mu == pytest.approx(1.0, abs=1e-12)
        assert lams[0] == 1.0

    def test_rejects_asymmetric(self):
        bad = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(TopologyError):
            MixingMatrix.from_entries(bad)

    def test_rejects_bad_row_sums(self):
        bad = np.full((3, 3), 0.5)
        with pytest.raises(TopologyError):
            MixingMatrix.from_entries(bad)

    def test_degrees_and_edges(self):
        W = build_ring(8)
        assert list(W.degrees) == [2] * 8
        assert W.num_edges == 8
        K = build_fully_connected(5)
        assert K.num_edges == 10

    @pytest.mark.parametrize("which", ["ring", "complete", "metropolis_ring4",
                                       "ring256", "chorded320"])
    def test_cached_degrees_match_recount(self, which):
        if which == "ring":
            W = build_ring(9)
        elif which == "ring256":
            W = build_ring(256)
        elif which == "chorded320":
            W = lazy_chorded_ring(320)
        elif which == "complete":
            W = build_fully_connected(6)
        else:
            # Metropolis weights on a 4-cycle leave every diagonal entry zero;
            # the graph is bipartite, so it does not mix
            entries = np.array([[0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0],
                                [0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0]])
            W = MixingMatrix.from_entries(entries, require_connected=False)
        off = np.array(W.entries)
        np.fill_diagonal(off, 0.0)
        recount = np.count_nonzero(off, axis=1)
        assert np.array_equal(W.degrees, recount)
        assert W.num_edges == int(recount.sum()) // 2
        assert not W.degrees.flags.writeable


# the custom graph of tools/trace_matrix.py: a 6-cycle with one chord
TRACE_MATRIX_CUSTOM = (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])


def lazy_chorded_ring(n):
    """Ring of n plus a chord (i, i + 5) from every fourth node, with lazy
    self weights that differ per node: five diagonals whose weights vary
    along each diagonal."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 5) % n) for i in range(0, n, 4)]
    self_weights = np.random.default_rng(3).uniform(0.0, 0.5, n)
    return build_custom(n, edges, self_weights=self_weights)


MIX_MATRICES = {
    "ring8": lambda: build_ring(8),
    "complete5": lambda: build_fully_connected(5),
    "custom6": lambda: build_custom(*TRACE_MATRIX_CUSTOM),
    "ring1024": lambda: build_ring(1024),
    "chorded1024": lambda: lazy_chorded_ring(1024),
}


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestMix:
    @pytest.fixture(scope="class", params=list(MIX_MATRICES))
    def mixing(self, request):
        return MIX_MATRICES[request.param]()

    @pytest.mark.parametrize("which", ["ring8", "complete5", "custom6"])
    def test_dense_side_is_the_matrix_product_bit_for_bit(self, which):
        W = MIX_MATRICES[which]()
        assert W.bands is None
        X = np.random.default_rng(1).standard_normal((7, W.n))
        assert np.array_equal(bits(W.mix(X)), bits(X @ W.entries))

    @pytest.mark.parametrize("which,shifts", [
        ("ring1024", [0, 1, 1023]),
        ("chorded1024", [0, 1, 5, 1019, 1023]),
    ])
    def test_banded_side_rebuilds_w_and_matches_the_product(self, which, shifts):
        W = MIX_MATRICES[which]()
        d, b = W.bands
        assert d.tolist() == shifts
        assert not d.flags.writeable and not b.flags.writeable
        # the diagonals hold every nonzero of W, each at its place
        cols = np.arange(W.n)
        rebuilt = np.zeros((W.n, W.n))
        rebuilt[(cols + d[:, None]) % W.n, cols] = b
        assert np.array_equal(rebuilt, W.entries)
        if which == "chorded1024":
            assert len(np.unique(b[0])) > 100  # per-column weights are exercised
        X = np.random.default_rng(2).standard_normal((64, W.n))
        mixed = W.mix(X)
        # a column sums at most five terms in another order than BLAS does,
        # so they agree to rounding, relative to the terms' magnitudes (W >= 0)
        scale = np.abs(X) @ W.entries
        assert np.all(np.abs(mixed - X @ W.entries) <= 1e-14 * scale)

    def test_stacked_trials_mix_as_their_solo_states(self, mixing):
        X = np.random.default_rng(4).standard_normal((3, 16, mixing.n))
        stacked = mixing.mix(X)
        assert stacked.shape == X.shape
        for s in range(3):
            assert np.array_equal(bits(stacked[s]), bits(mixing.mix(X[s])))

    def test_mix_returns_a_new_array(self, mixing):
        X = np.random.default_rng(5).standard_normal((4, mixing.n))
        before = X.copy()
        mixed = mixing.mix(X)
        assert not np.shares_memory(mixed, X)
        assert np.array_equal(X, before)


class TestBandedRing:
    """Rings of 192 nodes or more are built from their diagonals with the
    circulant closed-form spectrum, never as an n x n matrix."""

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 191, 192, 1024])
    def test_entries_equal_the_loop_built_ring(self, n):
        W = build_ring(n)
        assert (W.bands is not None) == (n >= 192)
        assert np.array_equal(W.entries, ring_by_loop(n))
        assert not W.entries.flags.writeable

    @pytest.fixture(scope="class", params=[192, 193, 256, 1023, 1024, 2048])
    def ring(self, request):
        return build_ring(request.param)

    def test_spectrum_matches_eigvalsh(self, ring):
        rho, mu, lams = spectral_stats(ring.entries)
        assert ring.rho == pytest.approx(rho, rel=1e-14, abs=0.0)
        assert ring.mu == pytest.approx(mu, rel=1e-14, abs=0.0)
        assert np.max(np.abs(ring.eigenvalues - lams)) <= 1e-13
        assert ring.eigenvalues[0] == 1.0 and not ring.eigenvalues.flags.writeable

    def test_dense_copy_validates_and_mixes_the_same_bits(self, ring):
        dense = MixingMatrix.from_entries(ring.entries)
        X = np.random.default_rng(8).standard_normal((3, 64, ring.n))
        assert np.array_equal(bits(ring.mix(X)), bits(dense.mix(X)))
        assert np.array_equal(ring.degrees, dense.degrees)

    def test_rounds_never_densify(self):
        n = 16384  # W would be 2 GiB
        tracemalloc.start()
        try:
            W = build_ring(n)
            assert W.num_edges == n
            assert np.all(W.degrees == 2)
            X = np.random.default_rng(9).standard_normal((3, 4, n))
            mixed = W.mix(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "entries" not in vars(W)
        assert peak < n * n  # an n x n float array is 8 n^2 bytes
        expected = (np.roll(X, 1, axis=-1) + X + np.roll(X, -1, axis=-1)) / 3.0
        assert np.allclose(mixed, expected, rtol=1e-14, atol=1e-15)
        assert W.rho == pytest.approx(1.0 / 3.0 + 2.0 / 3.0 * np.cos(2.0 * np.pi / n),
                                      rel=1e-15, abs=0.0)

"""Unbiasedness, noise contracts and bit accounting of the compressors."""

import itertools
import math

import numpy as np
import pytest

from dcsgd import (
    ConfigError, InputError, bits_transmitted, compress, effective_alpha,
    identity, random_sparsify, stochastic_quantize, synthetic_noise,
)


def batched_samples(c, z, n_samples, seed=0):
    """Draw n_samples independent compressions of z as columns of one matrix."""
    rng = np.random.default_rng(seed)
    Z = np.repeat(np.asarray(z, float)[:, None], n_samples, axis=1)
    return compress(c, Z, rng)


class TestCompressBasics:
    def test_identity_returns_copy(self):
        z = np.array([1.0, -2.0, 0.5])
        out = compress(identity(), z, np.random.default_rng(0))
        assert np.array_equal(out, z)
        assert out is not z

    def test_empty_vector_passthrough(self):
        out = compress(stochastic_quantize(4), np.array([]), np.random.default_rng(0))
        assert out.size == 0

    def test_nonfinite_rejected(self):
        for bad in ([np.inf, 1.0], [np.nan, 0.0]):
            with pytest.raises(InputError):
                compress(stochastic_quantize(4), np.array(bad), np.random.default_rng(0))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            stochastic_quantize(0)
        with pytest.raises(ConfigError):
            random_sparsify(0.0)
        with pytest.raises(ConfigError):
            random_sparsify(1.5)
        with pytest.raises(ConfigError):
            synthetic_noise(-1.0)

    def test_reproducible_given_seed(self):
        z = np.random.default_rng(3).standard_normal(64)
        for c in (stochastic_quantize(7), random_sparsify(0.3), synthetic_noise(2.0)):
            a = [compress(c, z, np.random.default_rng(11)) for _ in range(3)]
            b = np.random.default_rng(11)
            bs = [compress(c, z, b) for _ in range(3)]
            assert np.array_equal(a[0], bs[0])
            assert np.array_equal(np.array(a), np.array(a))  # deterministic list
            # consecutive draws from one stream differ (fresh randomness)
            assert not np.array_equal(bs[0], bs[1])


def node_streams(n, seed=7):
    return [np.random.Generator(np.random.Philox(s)) for s in np.random.SeedSequence(seed).spawn(n)]


class TestPerColumnStreams:
    """compress(c, Z, [rng_0, ..., rng_{n-1}]) is the per-column loop, byte for byte."""

    KINDS = {
        "identity": identity(),
        "quantize": stochastic_quantize(7),
        "sparsify": random_sparsify(0.3),
        "synthetic": synthetic_noise(2.0),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("shape", [(8, 8), (1, 3), (33, 6)])
    def test_matches_per_column_loop(self, kind, shape):
        c = self.KINDS[kind]
        dim, n = shape
        Z = np.random.default_rng(5).standard_normal(shape)
        Z *= np.logspace(-150, 150, n)  # columns of very different magnitudes
        Z[:, 1] = 0.0
        batched = compress(c, Z, node_streams(n))
        rngs = node_streams(n)
        looped = np.empty_like(Z)
        for i in range(n):
            looped[:, i] = compress(c, Z[:, i], rngs[i])
        assert batched.tobytes() == looped.tobytes()
        assert batched.flags.c_contiguous

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_stack_matches_the_wide_matrix(self, kind):
        # a (S, dim, n) stack reads stream s * n + i for column i of matrix s,
        # as the (dim, S * n) matrix of its columns does
        c = self.KINDS[kind]
        Z = np.random.default_rng(3).standard_normal((3, 5, 4))
        Z[1, :, 2] = 0.0
        stacked = compress(c, Z, node_streams(12))
        wide = compress(c, Z.transpose(1, 0, 2).reshape(5, 12), node_streams(12))
        assert stacked.tobytes() == wide.reshape(5, 3, 4).transpose(1, 0, 2).tobytes()
        assert stacked.shape == Z.shape and stacked.flags.c_contiguous

    def test_stack_needs_a_stream_per_column(self):
        Z = np.ones((2, 4, 3))
        with pytest.raises(InputError):
            compress(stochastic_quantize(4), Z, node_streams(3))
        with pytest.raises(InputError):
            compress(stochastic_quantize(4), Z, np.random.default_rng(0))

    def test_streams_advance_like_the_loop(self):
        Z = np.random.default_rng(1).standard_normal((5, 4))
        a, b = node_streams(4), node_streams(4)
        compress(stochastic_quantize(3), Z, a)
        for i in range(4):
            compress(stochastic_quantize(3), Z[:, i], b[i])
        assert [g.random() for g in a] == [g.random() for g in b]

    def test_nonfinite_rejected(self):
        Z = np.ones((4, 3))
        Z[2, 1] = np.nan
        with pytest.raises(InputError):
            compress(stochastic_quantize(4), Z, node_streams(3))

    def test_stream_count_must_match_columns(self):
        with pytest.raises(InputError):
            compress(stochastic_quantize(4), np.ones((4, 3)), node_streams(2))
        with pytest.raises(InputError):
            compress(stochastic_quantize(4), np.ones(4), node_streams(4))
        # a list of SeedSequences is not a list of streams
        with pytest.raises(InputError, match="Generators"):
            compress(stochastic_quantize(4), np.ones((4, 3)), np.random.SeedSequence(7).spawn(3))


class TestQuantizer:
    def test_two_point_rounding_probabilities(self):
        # value 0.5 on the grid {0, 0.25, ..., 1.0} (s=4, scale 1) sits on a
        # grid point; value 0.3 rounds to 0.25 or 0.5 with odds 80/20
        c = stochastic_quantize(4)
        z = np.array([0.3, 1.0])
        samples = batched_samples(c, z, 200_000, seed=5)
        vals = np.unique(samples[0])
        assert np.allclose(np.sort(vals), [0.25, 0.5])
        p_up = np.mean(samples[0] == 0.5)
        # exact up-probability is frac(0.3 * 4) = 0.2
        assert p_up == pytest.approx(0.2, abs=0.004)
        assert np.all(samples[1] == 1.0)

    def test_fixed_threshold_example(self):
        # thresholds {0, 0.3, 0.8, 1}: rounding 0.5 to a neighbor must keep
        # the mean at 0.5, which forces P(0.3) = 0.6 and P(0.8) = 0.4
        # (probability inversely proportional to distance)
        lo, hi, val = 0.3, 0.8, 0.5
        p_up = (val - lo) / (hi - lo)
        rng = np.random.default_rng(9)
        draws = np.where(rng.random(200_000) < p_up, hi, lo)
        assert np.mean(draws == lo) == pytest.approx(0.6, abs=0.004)
        assert np.mean(draws == hi) == pytest.approx(0.4, abs=0.004)
        assert np.mean(draws) == pytest.approx(val, abs=0.002)

    def test_grid_aligned_values_exact(self):
        c = stochastic_quantize(2)
        z = np.array([0.5, 1.0])
        for seed in range(5):
            out = compress(c, z, np.random.default_rng(seed))
            assert np.array_equal(out, z)

    def test_outputs_on_grid(self):
        c = stochastic_quantize(5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.standard_normal(16) * rng.uniform(0.1, 10)
            out = compress(c, z, rng)
            scale = np.max(np.abs(z))
            levels = out / (scale / 5)
            assert np.allclose(levels, np.round(levels), atol=1e-9)
            assert np.max(np.abs(out)) <= scale * (1 + 1e-12)

    def test_hard_ratio_bound_never_violated(self):
        # deterministic worst-case bound ||C(z) - z|| <= (sqrt(d)/s) ||z||,
        # checked without tolerance
        rng = np.random.default_rng(2)
        for d, s in ((16, 4), (32, 7), (8, 1), (64, 127)):
            c = stochastic_quantize(s)
            bound = math.sqrt(d) / s
            for _ in range(1000):
                z = rng.standard_normal(d) * rng.uniform(1e-3, 1e3)
                err = np.linalg.norm(compress(c, z, rng) - z)
                assert err <= bound * np.linalg.norm(z)

    def test_zero_vector(self):
        out = compress(stochastic_quantize(3), np.zeros(5), np.random.default_rng(0))
        assert np.array_equal(out, np.zeros(5))


class TestSparsifier:
    def test_scaling_and_support(self):
        c = random_sparsify(0.25)
        samples = batched_samples(c, np.array([4.0]), 100_000, seed=4)
        vals = np.unique(samples)
        assert np.allclose(np.sort(vals), [0.0, 16.0])
        keep_rate = np.mean(samples == 16.0)
        assert keep_rate == pytest.approx(0.25, abs=0.005)
        assert samples.mean() == pytest.approx(4.0, abs=0.05)

    def test_alpha_by_pattern_enumeration(self):
        # enumerate all 2^8 keep/drop patterns on a worst-case vector: the
        # realized ratio never exceeds max(1, 1/p - 1), and reaches it
        p = 0.5
        z = np.ones(8)
        worst = 0.0
        for pattern in itertools.product((0.0, 1.0 / p), repeat=8):
            err = np.linalg.norm(np.array(pattern) * z - z)
            worst = max(worst, err / np.linalg.norm(z))
        assert worst == pytest.approx(effective_alpha(random_sparsify(p), 8), abs=1e-12)
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_realized_ratio_respects_alpha(self):
        rng = np.random.default_rng(8)
        for p in (0.2, 0.5, 0.9):
            c = random_sparsify(p)
            alpha = effective_alpha(c, 32)
            for _ in range(500):
                z = rng.standard_normal(32)
                err = np.linalg.norm(compress(c, z, rng) - z)
                assert err <= alpha * np.linalg.norm(z) * (1 + 1e-12)


class TestSyntheticNoise:
    def test_exact_noise_energy(self):
        c = synthetic_noise(2.5)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(12)
        for _ in range(200):
            err = compress(c, z, rng) - z
            assert err @ err == pytest.approx(2.5, rel=1e-12)

    def test_variance_bound_field(self):
        assert synthetic_noise(3.0).variance_bound == 3.0
        assert identity().variance_bound == 0.0
        assert math.isinf(stochastic_quantize(4).variance_bound)
        assert math.isinf(random_sparsify(0.5).variance_bound)


class TestStatisticalContracts:
    @pytest.mark.parametrize("kind", ["quantize", "sparsify", "synthetic"])
    def test_unbiasedness_20_vectors(self, kind):
        c = {
            "quantize": stochastic_quantize(4),
            "sparsify": random_sparsify(0.3),
            "synthetic": synthetic_noise(1.0),
        }[kind]
        rng = np.random.default_rng(100)
        n_samples = 100_000
        for v in range(20):
            z = rng.standard_normal(32)
            samples = batched_samples(c, z, n_samples, seed=1000 + v)
            mean = samples.mean(axis=1)
            se = samples.std(axis=1, ddof=1) / math.sqrt(n_samples)
            if kind == "quantize":
                # near-grid coordinates can see zero up-rounds in the whole
                # sample; floor the empirical SE with the exact two-point one
                scale = np.max(np.abs(z))
                y = np.abs(z) / scale * c.levels
                frac = y - np.floor(y)
                exact_se = (scale / c.levels) * np.sqrt(frac * (1 - frac) / n_samples)
                se = np.maximum(se, exact_se)
            dev = np.abs(mean - z)
            # the epsilon term absorbs accumulation roundoff when averaging
            # 1e5 bit-identical on-grid samples
            assert np.all(dev <= 5.0 * se + 1e-12 * np.maximum(1.0, np.abs(z)))

    def test_independent_streams_uncorrelated(self):
        c = stochastic_quantize(4)
        z = np.random.default_rng(0).standard_normal(8)
        a = batched_samples(c, z, 100_000, seed=1) - z[:, None]
        b = batched_samples(c, z, 100_000, seed=2) - z[:, None]
        for i in range(8):
            if a[i].std() == 0.0 or b[i].std() == 0.0:
                continue
            corr = np.corrcoef(a[i], b[i])[0, 1]
            assert abs(corr) < 0.02


class TestAlphaAndBits:
    def test_alpha_values(self):
        assert effective_alpha(identity(), 10) == 0.0
        assert effective_alpha(stochastic_quantize(4), 16) == pytest.approx(1.0)
        assert effective_alpha(random_sparsify(0.5), 8) == 1.0
        assert effective_alpha(random_sparsify(0.25), 8) == 3.0
        assert math.isinf(effective_alpha(synthetic_noise(1.0), 8))
        with pytest.raises(InputError):
            effective_alpha(identity(), 0)

    def test_alpha_quantize_validated_empirically(self):
        # maximize the realized ratio over random inputs: stays below the
        # certified bound and comes within a factor of it
        c = stochastic_quantize(4)
        rng = np.random.default_rng(3)
        bound = effective_alpha(c, 16)
        best = 0.0
        for _ in range(3000):
            z = rng.standard_normal(16)
            ratio = np.linalg.norm(compress(c, z, rng) - z) / np.linalg.norm(z)
            best = max(best, ratio)
        assert best <= bound
        assert best >= 0.2 * bound

    def test_bits_examples(self):
        assert bits_transmitted(identity(), 100) == 3200
        assert bits_transmitted(stochastic_quantize(127), 100) == 100 * 8 + 32
        assert bits_transmitted(random_sparsify(0.1), 1000) == math.ceil(0.1 * 1000 * (32 + 10))
        assert bits_transmitted(random_sparsify(0.1), 1000) == 4200
        assert bits_transmitted(synthetic_noise(1.0), 10) == 320

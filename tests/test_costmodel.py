"""Analytic communication-time model: formulas, monotonicity, orderings."""

import math

import numpy as np
import pytest

from dcsgd import InputError, NetworkSpec, epoch_time_allreduce, epoch_time_decentralized
from dcsgd.costmodel import cost_grid

# paper-scale reference payload: 270k parameters at 32 bits
MODEL_BITS = 32 * 270_000
BEST = dict(bandwidth=1.4e9, latency=0.13e-3)


def spec(bandwidth, latency, n=8, ratio=1.0, compute_s=0.0):
    return NetworkSpec(bandwidth=bandwidth, latency=latency, n=n,
                       model_bits=MODEL_BITS, compression_ratio=ratio,
                       compute_s=compute_s)


class TestFormulas:
    def test_allreduce_latency_free_limit(self):
        s = spec(1.4e9, 0.0)
        t = epoch_time_allreduce(s, 10)
        assert t == pytest.approx(10 * 2 * (7 / 8) * MODEL_BITS / 1.4e9, rel=1e-12)

    def test_allreduce_payload_free_limit(self):
        s = spec(1e15, 2e-3)
        t = epoch_time_allreduce(s, 5)
        assert t == pytest.approx(5 * 2 * 7 * 2e-3, rel=1e-6)

    def test_allreduce_reference_point_finite(self):
        t = epoch_time_allreduce(spec(**BEST), 98)
        comm = 2 * 7 * 0.13e-3 + 2 * (7 / 8) * MODEL_BITS / 1.4e9
        assert t == pytest.approx(98 * comm, rel=1e-12)

    def test_decentralized_formula(self):
        s = spec(5e6, 1e-3, ratio=0.25)
        t = epoch_time_decentralized(s, 7, degree=2)
        assert t == pytest.approx(7 * (1e-3 + 2 * MODEL_BITS * 0.25 / 5e6), rel=1e-12)

    def test_compute_time_added_uniformly(self):
        a0 = epoch_time_allreduce(spec(**BEST), 10)
        a1 = epoch_time_allreduce(spec(**BEST, compute_s=0.2), 10)
        d0 = epoch_time_decentralized(spec(**BEST), 10, 2)
        d1 = epoch_time_decentralized(spec(**BEST, compute_s=0.2), 10, 2)
        assert a1 - a0 == pytest.approx(2.0, rel=1e-9)
        assert d1 - d0 == pytest.approx(2.0, rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(InputError):
            spec(0.0, 1e-3)
        with pytest.raises(InputError):
            spec(1e9, -1.0)
        with pytest.raises(InputError):
            epoch_time_decentralized(spec(**BEST), 10, degree=0)
        with pytest.raises(InputError):
            epoch_time_allreduce(spec(**BEST), 0)

    @pytest.mark.parametrize("field,value", [
        ("bandwidth", math.nan), ("bandwidth", math.inf), ("bandwidth", 0.0),
        ("latency", math.nan), ("latency", math.inf), ("latency", -1e-3),
        ("compute_s", -1.0), ("compute_s", math.nan), ("compute_s", math.inf),
        ("model_bits", math.inf), ("model_bits", 0),
        pytest.param("model_bits", 10**400, id="model_bits-int-beyond-float"),
        ("compression_ratio", math.nan), ("compression_ratio", math.inf),
        ("compression_ratio", 0.0),
    ])
    def test_field_must_be_finite_and_in_range(self, field, value):
        # bandwidth, model_bits and compression_ratio must be > 0; latency
        # and compute_s >= 0; each of them finite
        fields = dict(bandwidth=1e9, latency=1e-3, n=8, model_bits=MODEL_BITS,
                      compression_ratio=0.5, compute_s=0.1)
        with pytest.raises(InputError, match=f"^{field} must be a finite number"):
            NetworkSpec(**{**fields, field: value})


class TestMonotonicity:
    def test_nonincreasing_in_bandwidth_nondecreasing_in_latency(self):
        bandwidths = np.geomspace(5e6, 1.4e9, 7)
        latencies = np.geomspace(0.13e-3, 5e-3, 7)
        for lat in latencies:
            times = [
                (epoch_time_allreduce(spec(bw, lat), 10),
                 epoch_time_decentralized(spec(bw, lat), 10, 2),
                 epoch_time_decentralized(spec(bw, lat, ratio=0.26), 10, 2))
                for bw in bandwidths
            ]
            for col in range(3):
                vals = [t[col] for t in times]
                assert all(a >= b for a, b in zip(vals, vals[1:]))
        for bw in bandwidths:
            times = [
                (epoch_time_allreduce(spec(bw, lat), 10),
                 epoch_time_decentralized(spec(bw, lat), 10, 2),
                 epoch_time_decentralized(spec(bw, lat, ratio=0.26), 10, 2))
                for lat in latencies
            ]
            for col in range(3):
                vals = [t[col] for t in times]
                assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestQualitativeOrderings:
    """The four regime claims, evaluated on the reference grid."""

    COMPUTE = 0.15  # seconds per step, uniform across variants

    def times(self, bandwidth, latency):
        full = spec(bandwidth, latency, compute_s=self.COMPUTE)
        comp = spec(bandwidth, latency, ratio=0.26, compute_s=self.COMPUTE)
        return (
            epoch_time_allreduce(full, 98),
            epoch_time_decentralized(full, 98, 2),
            epoch_time_decentralized(comp, 98, 2),
        )

    def test_best_network_all_similar(self):
        allreduce, full, comp = self.times(1.4e9, 0.13e-3)
        lo, hi = min(allreduce, full, comp), max(allreduce, full, comp)
        assert (hi - lo) / lo <= 0.10

    def test_high_latency_decentralized_wins(self):
        allreduce, full, comp = self.times(1.4e9, 5e-3)
        assert full < allreduce and comp < allreduce

    def test_low_bandwidth_compressed_wins(self):
        allreduce, full, comp = self.times(5e6, 0.13e-3)
        assert comp < allreduce and comp < full

    def test_pure_bandwidth_full_decentralized_matches_allreduce(self):
        # bandwidth-dominated regime: the two full-precision variants move
        # the same amount of data; times agree within the (n-1)/n factor
        allreduce, full, _ = self.times(5e6, 0.13e-3)
        assert abs(full - allreduce) / allreduce <= 0.15


class TestGrid:
    def test_grid_shape_and_keys(self):
        rows = cost_grid(n=8, model_bits=MODEL_BITS, compression_ratio=0.26,
                         steps_per_epoch=98, compute_s=0.15)
        assert len(rows) == 25
        assert set(rows[0]) == {"bandwidth", "latency", "allreduce_s",
                                "decen_full_s", "decen_compressed_s"}
        assert all(r["decen_compressed_s"] <= r["decen_full_s"] + 1e-12 for r in rows)

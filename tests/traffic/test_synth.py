"""Statistical and determinism tests for the NHPP trace synthesis."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traffic.synth import (
    DemandClass,
    FlashCrowd,
    TenantProfile,
    TraceSpec,
    default_spec,
    expected_records,
    expected_window_counts,
    synthesise,
    synthesise_window,
    trace_header,
)
from repro.units import TB


def flat_tenant(rate=2.0, name="flat", kinds=(("interactive", 1.0),)):
    """Amplitude 0: the NHPP degenerates to a homogeneous Poisson."""
    return TenantProfile(
        name=name,
        base_rate_per_s=rate,
        diurnal_amplitude=0.0,
        class_weights=kinds,
        zipf_alpha=1.0,
    )


def make_spec(**kwargs):
    defaults = dict(
        seed=0,
        horizon_s=1200.0,
        window_s=300.0,
        tenants=(flat_tenant(),),
        classes=(DemandClass("interactive", median_bytes=2 * TB, sigma=0.5),),
    )
    defaults.update(kwargs)
    return TraceSpec(**defaults)


class TestSpecValidation:
    def test_rejects_empty_tenants(self):
        with pytest.raises(ConfigurationError):
            make_spec(tenants=())

    def test_rejects_unknown_class_in_weights(self):
        with pytest.raises(ConfigurationError):
            make_spec(tenants=(flat_tenant(kinds=(("mystery", 1.0),)),))

    def test_rejects_crowd_for_unknown_tenant(self):
        with pytest.raises(ConfigurationError):
            make_spec(crowds=(FlashCrowd("mystery", "interactive",
                                         0.0, 60.0, 1.0),))

    def test_window_bounds_cover_horizon(self):
        spec = make_spec(horizon_s=1000.0, window_s=300.0)
        assert spec.n_windows == 4
        assert spec.window_bounds(0) == (0.0, 300.0)
        assert spec.window_bounds(3) == (900.0, 1000.0)
        with pytest.raises(ConfigurationError):
            spec.window_bounds(4)


class TestStreamProperties:
    def test_arrivals_are_monotone_and_within_horizon(self):
        spec = default_spec(seed=2, horizon_s=1800.0, rate_scale=0.2)
        last = 0.0
        count = 0
        for record in synthesise(spec):
            assert last <= record.arrival_s <= spec.horizon_s
            assert record.deadline_s >= record.arrival_s
            last = record.arrival_s
            count += 1
        assert count > 0

    def test_records_stay_inside_header_tables(self):
        spec = default_spec(seed=2, horizon_s=900.0, rate_scale=0.2)
        header = trace_header(spec)
        for record in synthesise(spec):
            header.validate_record(record)


class TestNhppIntensity:
    def test_flat_rate_matches_poisson_count(self):
        """lambda(t) = const: realised count within 4 sigma of N = lam*T."""
        spec = make_spec(horizon_s=4000.0, window_s=500.0,
                         tenants=(flat_tenant(rate=2.0),))
        expected = expected_records(spec)
        assert expected == pytest.approx(8000.0, rel=1e-6)
        realised = sum(1 for _ in synthesise(spec))
        assert abs(realised - expected) < 4.0 * np.sqrt(expected)

    def test_window_counts_track_diurnal_curve(self):
        """Chi-squared-style: windowed counts against the NHPP integral."""
        spec = default_spec(seed=11, horizon_s=86400.0, rate_scale=0.02)
        expected = expected_window_counts(spec)
        realised = np.zeros_like(expected)
        for record in synthesise(spec):
            realised[min(int(record.arrival_s // spec.window_s),
                         len(realised) - 1)] += 1
        assert realised.sum() > 5000
        # Pearson statistic over the windows: for a correct NHPP it is
        # ~chi2(n_windows), whose 99.9% tail for 144 windows is < 200.
        statistic = float((((realised - expected) ** 2) / expected).sum())
        assert statistic < 2.0 * len(expected)
        # The diurnal shape is really there: the realised peak window
        # sits near the intensity peak, not uniformly anywhere.
        assert abs(int(np.argmax(expected)) - int(np.argmax(realised))) <= 12

    def test_flash_crowd_concentrates_where_declared(self):
        quiet = make_spec(horizon_s=3600.0, window_s=300.0)
        crowd = FlashCrowd("flat", "interactive", start_s=1500.0,
                           duration_s=600.0, peak_rate_per_s=30.0)
        spec = make_spec(horizon_s=3600.0, window_s=300.0, crowds=(crowd,))
        extra = expected_window_counts(spec) - expected_window_counts(quiet)
        # The added mass integrates to the triangle area, inside the
        # burst's two windows and nowhere else.
        assert extra.sum() == pytest.approx(
            crowd.peak_rate_per_s * crowd.duration_s / 2.0, rel=1e-3
        )
        assert extra[5] + extra[6] == pytest.approx(extra.sum(), rel=1e-6)
        realised = np.zeros(spec.n_windows)
        for record in synthesise(spec):
            realised[min(int(record.arrival_s // spec.window_s),
                         spec.n_windows - 1)] += 1
        assert realised[5] + realised[6] > 3.0 * realised[0]


class TestZipfPopularity:
    def test_rank_frequency_fingerprint(self):
        """Dataset popularity follows the catalog's Zipf weights."""
        spec = make_spec(
            horizon_s=4000.0, window_s=500.0,
            tenants=(flat_tenant(rate=3.0),),
        )
        weights = np.array(spec.catalog.zipf_weights(1.0))
        counts = np.zeros(len(weights))
        total = 0
        for record in synthesise(spec):
            counts[spec.catalog.names.index(record.dataset)] += 1
            total += 1
        shares = counts / total
        # Popularity is monotone-ish in rank and the head dominates the
        # tail by about the analytic ratio.
        assert counts[0] == counts.max()
        assert shares[0] == pytest.approx(weights[0], abs=0.02)
        assert shares[-1] == pytest.approx(weights[-1], abs=0.02)
        # Log-log slope of the realised rank-frequency curve ~ -alpha.
        ranks = np.arange(1, len(weights) + 1)
        slope = np.polyfit(np.log(ranks), np.log(counts + 1), 1)[0]
        assert -1.4 < slope < -0.6


class TestDeterminism:
    def test_streamed_trace_is_byte_identical(self):
        spec = default_spec(seed=9, horizon_s=1800.0, rate_scale=0.3)
        assert list(synthesise(spec)) == list(synthesise(spec))

    def test_windows_are_independent_substreams(self):
        """Synthesising a window alone equals its slice of the stream."""
        spec = default_spec(seed=9, horizon_s=1800.0, rate_scale=0.3)
        streamed = list(synthesise(spec))
        alone = [
            record
            for index in range(spec.n_windows)
            for record in synthesise_window(spec, index)
        ]
        assert alone == streamed

    def test_windows_in_any_order_agree(self):
        """Each window owns its substreams: scheduling order is irrelevant."""
        spec = default_spec(seed=4, horizon_s=3600.0, rate_scale=0.2)
        backwards = {
            index: synthesise_window(spec, index)
            for index in reversed(range(spec.n_windows))
        }
        assert tuple(
            record for index in range(spec.n_windows) for record in backwards[index]
        ) == tuple(synthesise(spec))

    def test_different_seeds_differ(self):
        assert (
            list(synthesise(make_spec(seed=0)))
            != list(synthesise(make_spec(seed=1)))
        )


class TestDefaultSpec:
    def test_headline_day_is_about_a_million_requests(self):
        spec = default_spec(seed=0)
        assert 0.95e6 < expected_records(spec) < 1.1e6

    def test_rate_scale_scales_linearly(self):
        base = expected_records(default_spec(seed=0, horizon_s=3600.0))
        half = expected_records(
            default_spec(seed=0, horizon_s=3600.0, rate_scale=0.5)
        )
        assert half == pytest.approx(base / 2.0, rel=1e-9)

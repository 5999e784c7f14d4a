"""Tests for the multi-stop contention experiment (Section VI)."""

import pytest

from repro.core.params import DhlParams
from repro.dhlsim.multistop import (
    MultiStopExperiment,
    speed_contention_sweep,
)
from repro.errors import ConfigurationError
from repro.units import TB


class TestRequestGeneration:
    def test_deterministic_under_seed(self):
        first = MultiStopExperiment(seed=7).generate_requests()
        second = MultiStopExperiment(seed=7).generate_requests()
        assert first == second

    def test_different_seeds_differ(self):
        first = MultiStopExperiment(seed=1).generate_requests()
        second = MultiStopExperiment(seed=2).generate_requests()
        assert first != second

    def test_arrivals_sorted_and_positive(self):
        requests = MultiStopExperiment(seed=5, n_requests=20).generate_requests()
        arrivals = [request.arrival_s for request in requests]
        assert arrivals == sorted(arrivals)
        assert all(arrival > 0 for arrival in arrivals)

    def test_racks_in_range(self):
        experiment = MultiStopExperiment(seed=5, n_racks=4, n_requests=40)
        requests = experiment.generate_requests()
        assert {request.endpoint_id for request in requests} <= {1, 2, 3, 4}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultiStopExperiment(n_racks=1)
        with pytest.raises(ConfigurationError):
            MultiStopExperiment(n_requests=0)
        with pytest.raises(ConfigurationError):
            MultiStopExperiment(mean_interarrival_s=0)
        with pytest.raises(ConfigurationError):
            MultiStopExperiment(read_bytes=-1)


class TestRun:
    @pytest.fixture(scope="class")
    def report(self):
        return MultiStopExperiment(
            n_requests=6, seed=11, read_bytes=1 * TB
        ).run()

    def test_all_requests_served(self, report):
        assert len(report.outcomes) == 6

    def test_latency_accounting_consistent(self, report):
        for outcome in report.outcomes:
            assert outcome.completed_s > outcome.request.arrival_s
            assert outcome.latency_s >= outcome.queueing_s >= 0

    def test_statistics_well_formed(self, report):
        assert report.p95_latency_s >= report.mean_latency_s * 0.5
        assert report.makespan_s >= max(o.completed_s for o in report.outcomes) - 1e-9

    def test_requests_returned_in_id_order(self, report):
        ids = [outcome.request.request_id for outcome in report.outcomes]
        assert ids == sorted(ids)


class TestContention:
    def test_higher_speed_cuts_latency(self):
        # Section VI: "Multi-stop would motivate higher speeds to
        # ameliorate potential contention."
        sweep = speed_contention_sweep(
            speeds_m_s=(100.0, 300.0),
            n_requests=10,
            seed=3,
            mean_interarrival_s=2.0,
            read_bytes=1 * TB,
        )
        assert sweep[300.0].mean_latency_s < sweep[100.0].mean_latency_s
        assert sweep[300.0].makespan_s < sweep[100.0].makespan_s

    def test_sparser_load_less_queueing(self):
        dense = MultiStopExperiment(
            n_requests=8, seed=9, mean_interarrival_s=1.0, read_bytes=1 * TB
        ).run()
        sparse = MultiStopExperiment(
            n_requests=8, seed=9, mean_interarrival_s=500.0, read_bytes=1 * TB
        ).run()
        assert sparse.mean_latency_s <= dense.mean_latency_s

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            speed_contention_sweep(speeds_m_s=())

    def test_multistop_hops_shorter_than_full_track(self):
        # Racks sit along the rail; a mid-rail hop must be cheaper than a
        # full-length trip in both time and energy.
        experiment = MultiStopExperiment(n_requests=4, seed=1, read_bytes=0.0)
        report = experiment.run()
        full_trip = DhlParams().track_length
        assert report.params.track_length == full_trip
        assert report.mean_latency_s < 60  # single hops, not serial reads


class TestTubeUtilisation:
    def test_utilisation_reported(self):
        report = MultiStopExperiment(n_requests=6, seed=11, read_bytes=1 * TB).run()
        assert 0 < report.tube_utilisation <= 1

    def test_faster_carts_lower_utilisation(self):
        sweep = speed_contention_sweep(
            speeds_m_s=(100.0, 300.0),
            n_requests=8,
            seed=4,
            mean_interarrival_s=30.0,
            read_bytes=1 * TB,
        )
        assert (
            sweep[300.0].tube_utilisation < sweep[100.0].tube_utilisation
        )

    def test_default_sweep_utilisation_is_pinned(self):
        """The tube's probed occupancy gives the exact historical values.

        Hex floats captured before the utilisation moved onto the
        system's ``ResourceProbe`` occupancy metric; any change to how
        claims are sampled shows up in the last bit.
        """
        sweep = speed_contention_sweep()
        assert {speed: report.tube_utilisation.hex()
                for speed, report in sweep.items()} == {
            100.0: "0x1.18712725066bbp-4",
            200.0: "0x1.c8ea5ca39b6abp-5",
            300.0: "0x1.a7e3be703d9adp-5",
        }

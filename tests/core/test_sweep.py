"""Tests for design-space sweeps, the batch/scalar oracle and Pareto."""

import math

import pytest

from repro.analysis.perf import bench_points
from repro.core.chunks import map_chunks
from repro.core.model import design_point_report, design_point_reports
from repro.core.params import DhlParams, table_vi_design_points
from repro.core.sweep import (
    SweepResult,
    evaluate_reports,
    grid_sweep,
    pareto_front,
    run_sweep,
    table_vi_sweep,
)
from repro.errors import ConfigurationError
from repro.storage.datasets import synthetic_dataset
from repro.units import PB


class TestRunSweep:
    def test_report_per_point(self):
        points = [DhlParams(), DhlParams(max_speed=100.0)]
        result = run_sweep(points)
        assert len(result.reports) == 2
        assert result.reports[0].metrics.params == points[0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep([])

    def test_custom_dataset(self):
        result = run_sweep([DhlParams()], dataset=synthetic_dataset(1 * PB))
        assert result.reports[0].campaign.trips == 4

    def test_column_extraction(self):
        result = table_vi_sweep()
        energies = result.column(lambda report: report.metrics.energy_kj)
        assert len(energies) == 13
        assert min(energies) == pytest.approx(2.146, abs=0.01)
        assert max(energies) == pytest.approx(62.86, abs=0.1)


class TestTableViSweep:
    def test_thirteen_rows(self):
        assert len(table_vi_sweep().reports) == 13

    def test_best_efficiency_is_100ms_512tb(self):
        result = table_vi_sweep()
        best = result.best_by(lambda report: report.metrics.efficiency_gb_per_j)
        assert best.metrics.params.max_speed == 100.0
        assert best.metrics.params.ssds_per_cart == 64

    def test_best_speedup_is_300ms_512tb(self):
        result = table_vi_sweep()
        best = result.best_by(lambda report: report.time_speedup)
        assert best.metrics.params.max_speed == 300.0
        assert best.metrics.params.ssds_per_cart == 64

    def test_lowest_energy_is_100ms_128tb(self):
        result = table_vi_sweep()
        frugal = result.best_by(
            lambda report: report.metrics.energy_j, maximise=False
        )
        assert frugal.metrics.params.max_speed == 100.0
        assert frugal.metrics.params.ssds_per_cart == 16


class TestEvaluateReports:
    def test_batch_equals_scalar_reports_on_the_bench_grid(self):
        """The oracle: the batch kernels reproduce the scalar report exactly.

        The 600-point bench grid covers both motion-profile branches,
        three cart sizes and two dock times; equality is field by field,
        floats included.
        """
        points = bench_points(600)
        assert evaluate_reports(points) == tuple(
            design_point_report(params) for params in points
        )

    def test_duplicates_get_equal_reports(self):
        points = [DhlParams(), DhlParams(max_speed=100.0), DhlParams()]
        reports = evaluate_reports(points)
        assert len(reports) == 3
        assert reports[0] == reports[2]
        assert reports[0] != reports[1]


class TestLinkRateValidation:
    """A link rate no baseline can be anchored to fails fast, both paths."""

    BAD_RATES = (0.0, -400.0, math.nan, math.inf)

    @pytest.mark.parametrize("link_gbps", BAD_RATES)
    def test_scalar_report_rejects(self, link_gbps):
        with pytest.raises(ConfigurationError, match="link_gbps"):
            design_point_report(DhlParams(), link_gbps=link_gbps)

    @pytest.mark.parametrize("link_gbps", BAD_RATES)
    def test_batch_reports_reject(self, link_gbps):
        with pytest.raises(ConfigurationError, match="link_gbps"):
            design_point_reports([DhlParams()], link_gbps=link_gbps)


class TestBestByTieBreaking:
    def test_first_in_input_order_wins_on_ties(self):
        """Regression: ties must resolve to the first report in input
        order."""
        points = [
            DhlParams(max_speed=100.0),
            DhlParams(max_speed=100.0, dual_rail=True),
            DhlParams(max_speed=100.0, acceleration=50.1),
        ]
        result = run_sweep(points)
        # All three share identical launch energy (same mass and peak
        # speed; acceleration does not enter the energy model).
        energies = result.column(lambda report: report.metrics.energy_j)
        assert energies[0] == energies[1] == energies[2]
        best = result.best_by(
            lambda report: report.metrics.energy_j, maximise=False
        )
        assert best is result.reports[0]
        worst = result.best_by(lambda report: report.metrics.energy_j)
        assert worst is result.reports[0]

    def test_empty_result_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepResult(reports=()).best_by(lambda report: 0.0)


class TestGridSweep:
    def test_full_factorial(self):
        result = grid_sweep(
            max_speed=[100.0, 200.0, 300.0],
            track_length=[100.0, 500.0],
        )
        assert len(result.reports) == 6

    def test_requires_axes(self):
        with pytest.raises(ConfigurationError):
            grid_sweep()

    def test_base_parameters_preserved(self):
        base = DhlParams(ssds_per_cart=64)
        result = grid_sweep(base=base, max_speed=[100.0])
        assert result.reports[0].metrics.params.ssds_per_cart == 64


class TestParetoFront:
    def test_front_is_nonempty_subset(self):
        result = table_vi_sweep()
        front = pareto_front(result)
        assert 0 < len(front) <= len(result.reports)

    def test_front_members_not_dominated(self):
        result = table_vi_sweep()
        front = pareto_front(result)
        for member in front:
            for other in result.reports:
                dominates = (
                    other.campaign.time_s <= member.campaign.time_s
                    and other.campaign.energy_j <= member.campaign.energy_j
                    and (
                        other.campaign.time_s < member.campaign.time_s
                        or other.campaign.energy_j < member.campaign.energy_j
                    )
                )
                assert not dominates

    def test_speed_energy_tradeoff_present(self):
        # Both a fast-and-hungry and a slow-and-frugal point survive:
        # the paper's central trade-off.
        front = pareto_front(run_sweep(table_vi_design_points()))
        speeds = {report.metrics.params.max_speed for report in front}
        assert len(speeds) >= 2


def _square_chunk(chunk):
    # Module-level so the process engine can pickle it.
    return tuple(value * value for value in chunk)


class TestMapChunks:
    def test_serial_preserves_order(self):
        items = tuple(range(17))
        assert map_chunks(_square_chunk, items) == _square_chunk(items)

    def test_process_matches_serial(self):
        items = tuple(range(23))
        serial = map_chunks(_square_chunk, items, engine="serial")
        process = map_chunks(_square_chunk, items, engine="process", workers=2)
        assert process == serial

    def test_empty_items(self):
        assert map_chunks(_square_chunk, ()) == ()

    def test_explicit_chunk_size(self):
        items = tuple(range(10))
        assert map_chunks(
            _square_chunk, items, engine="process", workers=2, chunk_size=3
        ) == _square_chunk(items)

    def test_rejects_unknown_engine(self):
        for engine in ("vector", "auto"):
            with pytest.raises(ConfigurationError):
                map_chunks(_square_chunk, (1,), engine=engine, workers=2)

    def test_rejects_wrong_result_count(self):
        with pytest.raises(ConfigurationError):
            map_chunks(lambda chunk: chunk[:-1], (1, 2, 3))

"""Tests for the surrogate bench gate and its payload."""

import json

import pytest

from repro.bench import compare, load, write
from repro.surrogate.bench import (
    GATE_MARGIN,
    P99_MAX_REL_ERROR_BOUND,
    SCHEMA,
    TRAIN_SEEDS,
    VALIDATION_SEEDS,
    report_payload,
)


@pytest.fixture
def bench(surrogate_bench):
    return surrogate_bench


class TestInvariants:
    def test_all_invariants_hold(self, bench):
        failed = [name for name, ok in bench.invariants.items() if not ok]
        assert failed == []

    def test_plan_identity(self, bench):
        assert bench.surrogate.best == bench.exhaustive.best
        assert bench.surrogate.best is not None

    def test_des_reduction_is_5x_or_better(self, bench):
        assert bench.surrogate.reduction >= 5.0
        assert bench.surrogate.des_evaluations < len(
            bench.exhaustive.evaluations
        )

    def test_training_parity(self, bench):
        assert bench.train_fingerprint_serial == (
            bench.train_fingerprint_process
        )
        assert bench.model_fingerprint_serial == (
            bench.model_fingerprint_process
        )

    def test_margin_covers_validated_error(self, bench):
        assert GATE_MARGIN.p99_rel >= bench.p99_error.max_rel_error
        assert bench.p99_error.max_rel_error <= P99_MAX_REL_ERROR_BOUND

    def test_validation_seeds_disjoint_from_training(self):
        assert not set(TRAIN_SEEDS) & set(VALIDATION_SEEDS)

    def test_skipping_parity_marks_invariants_false(self, bench):
        from dataclasses import replace

        skipped = replace(bench, train_fingerprint_process="",
                          model_fingerprint_process="")
        assert not skipped.invariants["train_serial_process_identical"]
        assert not skipped.invariants["fit_fingerprint_stable"]


class TestPayloadAndGate:
    def test_payload_shape(self, bench):
        payload = report_payload(bench)
        assert payload["schema"] == SCHEMA
        assert payload["training"]["rows"] == bench.training_rows
        assert payload["surrogate"]["reduction"] >= 5.0
        assert all(payload["invariants"].values())

    def test_write_and_load_round_trip(self, bench, tmp_path):
        path = str(tmp_path / "BENCH_surrogate.json")
        write(report_payload(bench), path)
        assert load(path) == json.loads(
            json.dumps(report_payload(bench))
        )

    def test_identical_payloads_pass_the_gate(self, bench):
        payload = report_payload(bench)
        assert compare(payload, payload) == []

    def test_fingerprint_drift_is_flagged(self, bench):
        payload = report_payload(bench)
        drifted = json.loads(json.dumps(payload))
        drifted["fingerprints"]["model_serial"] = "0" * 64
        problems = compare(payload, drifted)
        assert any("model_serial" in problem for problem in problems)

    def test_validation_drift_is_flagged(self, bench):
        payload = report_payload(bench)
        drifted = json.loads(json.dumps(payload))
        drifted["validation"]["p99_max_rel_error"] *= 2.0
        problems = compare(payload, drifted)
        assert any("p99_max_rel_error" in problem for problem in problems)

    def test_broken_invariant_is_flagged(self, bench):
        payload = report_payload(bench)
        broken = json.loads(json.dumps(payload))
        broken["invariants"]["plan_matches_exhaustive"] = False
        problems = compare(broken, payload)
        assert any("invariant" in problem for problem in problems)

    def test_wall_clock_is_informational(self, bench):
        payload = report_payload(bench)
        other = json.loads(json.dumps(payload))
        other["wall_informational"]["train_s"] *= 100.0
        assert compare(payload, other) == []

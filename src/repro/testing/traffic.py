"""Stateful fuzzing for the trace-driven demand layer.

:class:`TraceReplayMachine` fuzzes the full pipeline the way
production uses it: records are emitted with non-decreasing arrivals,
encoded live into **both** codecs, and injected open-loop into a real
:class:`~repro.fleet.controlplane.ControlPlane` under an active chaos
campaign.  After every rule it checks the layer's three contracts —
monotone arrivals, codec round-trip identity, and (at teardown) the
shared :func:`~repro.testing.statemachine.drain_and_audit` despite
mid-replay chaos.  Like the other machines it is usable directly,
through :func:`~repro.testing.statemachine.random_walk`, or as the
derived hypothesis :class:`TraceReplayStateMachine`.
"""

from __future__ import annotations

import io

import numpy as np
from hypothesis import strategies as st

from ..fleet.controlplane import FleetScenario, _FleetJob
from ..fleet.sla import DEFAULT_TARGET
from ..fleet.topology import DatasetCatalog
from ..traffic.codec import (
    BinaryTraceWriter,
    JsonlTraceWriter,
    read_binary_header,
    read_binary_records,
    read_jsonl_header,
    read_jsonl_records,
)
from ..traffic.schema import TraceHeader, TraceRecord
from ..units import TB
from .statemachine import (
    PlaneMachine,
    assert_legal_outcomes,
    assert_monotone,
    drain_and_audit,
    fuzz_rule,
    state_machine,
)

#: The fuzz vocabulary: small closed tables every fuzzed trace uses.
FUZZ_TENANTS = ("alpha", "beta", "gamma")
FUZZ_KINDS = ("interactive", "batch", "archive")


def fuzz_header(catalog: DatasetCatalog | None = None) -> TraceHeader:
    """The header :class:`TraceReplayMachine` emits records under."""
    catalog = catalog if catalog is not None else DatasetCatalog()
    return TraceHeader(
        seed=0,
        horizon_s=7200.0,
        tenants=FUZZ_TENANTS,
        datasets=catalog.names,
        kinds=FUZZ_KINDS,
    )


class TraceReplayMachine(PlaneMachine):
    """Emit -> encode -> inject fuzzing of the trace replay pipeline.

    ``do_emit`` appends a record at (or after) the machine's trace
    clock, writes it through both live codec writers, and queues it;
    ``do_advance`` moves the DES clock and open-loop injects every
    queued record whose arrival has come due through the control
    plane's real admission path, tenant attached.  Chaos is active the
    whole time, so injection races faults exactly as a day-scale
    replay would.
    """

    def __init__(self, seed: int = 0, scenario: FleetScenario | None = None):
        super().__init__(seed, scenario)
        self.header = fuzz_header(self.scenario.catalog)
        self._binary = io.BytesIO()
        self._jsonl = io.StringIO()
        self._bin_writer = BinaryTraceWriter(self._binary, self.header)
        self._jsonl_writer = JsonlTraceWriter(self._jsonl, self.header)
        self.emitted: list[TraceRecord] = []
        self.pending: list[TraceRecord] = []
        self.injected = 0
        self._clock = 0.0

    # -- rules -------------------------------------------------------------------

    @fuzz_rule(tenant_index=st.integers(min_value=0, max_value=2),
               dataset_index=st.integers(min_value=0, max_value=11),
               kind_index=st.integers(min_value=0, max_value=2),
               gap_s=st.floats(min_value=0.0, max_value=60.0),
               size_fraction=st.floats(min_value=0.0, max_value=1.0),
               deadline_slack_s=st.floats(min_value=1.0, max_value=1800.0))
    def do_emit(self, tenant_index: int, dataset_index: int, kind_index: int,
                gap_s: float, size_fraction: float,
                deadline_slack_s: float) -> None:
        self.rules += 1
        arrival = self._clock + max(0.0, gap_s)
        record = TraceRecord(
            arrival_s=arrival,
            tenant=self.header.tenants[tenant_index % len(self.header.tenants)],
            dataset=self.header.datasets[
                dataset_index % len(self.header.datasets)
            ],
            size_bytes=max(1.0, size_fraction * 8 * TB),
            kind=self.header.kinds[kind_index % len(self.header.kinds)],
            deadline_s=arrival + max(1.0, deadline_slack_s),
        )
        self._clock = arrival
        self._bin_writer.write(record)
        self._jsonl_writer.write(record)
        self.emitted.append(record)
        self.pending.append(record)

    @fuzz_rule(dt=st.floats(min_value=0.1, max_value=90.0))
    def do_advance(self, dt: float) -> None:
        self.rules += 1
        self.env.run(until=self.env.now + max(0.1, dt))
        self._inject_due()

    def _inject_due(self) -> None:
        """Open-loop injection: every due record enters admission."""
        now = self.env.now
        while self.pending and self.pending[0].arrival_s <= now:
            record = self.pending.pop(0)
            target = self.targets.get(record.kind, DEFAULT_TARGET)
            self.plane.submit(_FleetJob(
                job_id=self.injected,
                arrival_s=record.arrival_s,
                size_bytes=record.size_bytes,
                kind=record.kind,
                dataset=record.dataset,
                read_bytes=min(record.size_bytes,
                               self.scenario.catalog.dataset_bytes),
                deadline_at=record.deadline_s,
                priority=target.priority,
                tenant=record.tenant,
            ))
            self.injected += 1

    def step(self, rng: np.random.Generator) -> None:
        """One random rule — the deterministic-walk driver's unit."""
        if rng.random() < 0.55:
            self.do_emit(
                int(rng.integers(0, len(self.header.tenants))),
                int(rng.integers(0, len(self.header.datasets))),
                int(rng.integers(0, len(self.header.kinds))),
                float(rng.random()) * 60.0,
                float(rng.random()),
                float(rng.random()) * 1800.0,
            )
        else:
            self.do_advance(float(rng.random()) * 90.0)

    # -- invariants --------------------------------------------------------------

    def check(self) -> None:
        self._last_now = assert_monotone(self.env.now, self._last_now)
        arrivals = [record.arrival_s for record in self.emitted]
        assert arrivals == sorted(arrivals), "emitted arrivals not monotone"
        stream = io.BytesIO(self._binary.getvalue())
        decoded = list(read_binary_records(stream, read_binary_header(stream)))
        assert decoded == self.emitted, (
            f"binary round-trip mismatch after {len(self.emitted)} records"
        )
        assert self.plane._resolved <= self.injected, (
            f"{self.plane._resolved} outcomes for {self.injected} "
            "injected records"
        )
        assert_legal_outcomes(self.plane.sla.records)
        for record in self.plane.sla.records:
            assert record.tenant in self.header.tenants, (
                f"outcome lost its tenant: {record!r}"
            )

    def finish(self) -> None:
        """Inject and drain everything, then audit conservation."""
        if self.pending:
            self.env.run(until=max(self.env.now + 300.0,
                                   self.pending[-1].arrival_s + 1.0))
            self._inject_due()
        assert not self.pending, "all emitted records must inject"
        drain_and_audit(self.plane, self.injected, self.check)
        stream = io.StringIO(self._jsonl.getvalue())
        decoded = list(read_jsonl_records(stream, read_jsonl_header(stream)))
        assert decoded == self.emitted, (
            "JSONL round-trip mismatch at teardown"
        )
        # Per-tenant accounting reconciles: every resolved record kept
        # its tenant, and the tenant rows sum to the overall count.
        tenants = self.plane.sla.tenant_report(self.scenario.horizon_s)
        tenant_jobs = sum(row.n_jobs for row in tenants.classes) if tenants else 0
        assert tenant_jobs == self.plane._resolved, (
            f"tenant accounting lost records: {tenant_jobs} != "
            f"{self.plane._resolved}"
        )


TraceReplayStateMachine = state_machine(TraceReplayMachine)

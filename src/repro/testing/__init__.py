"""Reusable property-based testing machinery for the DHL repro.

Everything here requires `hypothesis <https://hypothesis.works>`_ (an
optional ``test`` extra); importing :mod:`repro.testing` without it
raises a clear error instead of an obscure one mid-suite.

* :mod:`repro.testing.strategies` — hypothesis strategies for the
  repro's value types: physics parameters, dataset sizes, chaos specs,
  fault campaigns, degradation policies and whole fleet scenarios.
  Promoted out of the test tree so every suite (and downstream users)
  draw from one vocabulary of "valid configuration".
* :mod:`repro.testing.statemachine` — stateful fuzzing: a DHL API
  machine issuing random Open/Close/Read/Write sequences, a fleet
  machine issuing dispatch sequences and a shard co-sim machine that
  reshards a fleet between runs, optionally under an active chaos
  campaign, with conservation/leak/ordering invariants checked after
  every rule.  Each machine doubles as a plain object with ``do_*``
  methods plus a deterministic seeded :func:`random_walk` driver, so
  CI can pin an exact >= 500-rule replay independent of hypothesis'
  example scheduling.  ``@fuzz_rule`` declares each rule's argument
  strategies next to its ``do_*`` method and :func:`state_machine`
  derives every hypothesis wrapper from those declarations;
  ``drain_and_audit`` is the one end-of-run fleet audit (jobs resolved
  exactly once, outcome counts reconciled, no leaked cart or rail).
* :mod:`repro.testing.traffic` — the demand layer's vocabulary and
  fuzz target: strategies for trace records, tenant profiles and whole
  synthesis specs, plus :class:`TraceReplayMachine`, which emits
  monotone records, encodes them live through both codecs, and
  open-loop injects them into a chaos-ridden control plane while
  checking round-trip identity and the shared fleet audit.
"""

try:
    import hypothesis  # noqa: F401
except ImportError as exc:  # pragma: no cover - exercised only sans extra
    raise ImportError(
        "repro.testing requires the 'hypothesis' package; install the "
        "project's [test] extra"
    ) from exc

from .statemachine import (
    DhlApiMachine,
    DhlApiStateMachine,
    FleetDispatchMachine,
    FleetStateMachine,
    ShardCosimMachine,
    ShardCosimStateMachine,
    audit_shard_report,
    random_walk,
    state_machine,
)
from .strategies import (
    campaign_events,
    chaos_campaigns,
    chaos_specs,
    degradation_policies,
    dhl_params,
    fleet_scenarios,
    valid_lengths,
    valid_sizes_pb,
    valid_speeds,
    valid_ssds,
)
from .traffic import (
    TraceReplayMachine,
    TraceReplayStateMachine,
    fuzz_header,
    tenant_profiles,
    trace_records,
    trace_specs,
)

__all__ = [
    "DhlApiMachine",
    "DhlApiStateMachine",
    "FleetDispatchMachine",
    "FleetStateMachine",
    "ShardCosimMachine",
    "ShardCosimStateMachine",
    "TraceReplayMachine",
    "TraceReplayStateMachine",
    "audit_shard_report",
    "campaign_events",
    "chaos_campaigns",
    "chaos_specs",
    "degradation_policies",
    "dhl_params",
    "fleet_scenarios",
    "fuzz_header",
    "random_walk",
    "state_machine",
    "tenant_profiles",
    "trace_records",
    "trace_specs",
    "valid_lengths",
    "valid_sizes_pb",
    "valid_speeds",
    "valid_ssds",
]

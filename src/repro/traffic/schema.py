"""Versioned trace records: the demand language of :mod:`repro.traffic`.

A trace is a header followed by a time-ordered stream of
:class:`TraceRecord` values — one per request an internet-scale user
population makes of the fleet.  The schema is deliberately tiny (six
fields) and versioned (:data:`TRACE_SCHEMA_VERSION`), because traces
outlive code: a committed or archived trace must either decode exactly
or fail loudly, never reinterpret silently.

The header pre-declares every tenant, dataset and traffic-class name
the records may use.  That makes the packed-binary codec possible
(strings become small integer ids) and turns "typo'd dataset name"
into a write-time error instead of a mid-replay surprise a million
records in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import ConfigurationError, DataIntegrityError
from ..units import assert_positive

#: Bumped on any change to the record layout or header semantics; both
#: codecs embed it and refuse to decode a trace from another version.
TRACE_SCHEMA_VERSION = 1

#: First bytes of every packed-binary trace ("DHL Trace, version 1").
TRACE_MAGIC = b"DHT1"

#: First key of every JSONL trace header line.
JSONL_SCHEMA = f"dhl-trace/{TRACE_SCHEMA_VERSION}"


@dataclass(frozen=True)
class TraceRecord:
    """One demand event: who wants which dataset, how much, by when."""

    arrival_s: float
    tenant: str
    dataset: str
    size_bytes: float
    kind: str
    deadline_s: float
    """Absolute virtual time by which the request should complete —
    pre-resolved at synthesis so replay never needs the SLA table to
    interpret a record."""

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ConfigurationError(
                f"arrival_s must be >= 0, got {self.arrival_s}"
            )
        assert_positive("size_bytes", self.size_bytes)
        if self.deadline_s < self.arrival_s:
            raise ConfigurationError(
                f"deadline_s ({self.deadline_s}) precedes arrival_s "
                f"({self.arrival_s})"
            )
        for name in ("tenant", "dataset", "kind"):
            if not getattr(self, name):
                raise ConfigurationError(f"record {name} must be non-empty")


@dataclass(frozen=True)
class TraceHeader:
    """Self-describing preamble written before any records.

    The three name tables are closed vocabularies: a record whose
    tenant, dataset or kind is not declared here is rejected at encode
    time by both codecs.  Table order is significant — it defines the
    binary codec's integer ids — so headers compare equal iff they
    would decode the same bytes the same way.
    """

    seed: int = 0
    horizon_s: float = 0.0
    tenants: tuple[str, ...] = ()
    datasets: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    version: int = TRACE_SCHEMA_VERSION
    extra: tuple[tuple[str, float], ...] = field(default=())
    """Free-form numeric annotations (e.g. the synthesis rate scale)
    carried through both codecs untouched."""

    def __post_init__(self) -> None:
        if self.version != TRACE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"trace schema version {self.version} is not the supported "
                f"version {TRACE_SCHEMA_VERSION}"
            )
        if self.horizon_s < 0:
            raise ConfigurationError("horizon_s must be >= 0")
        for label, table in (("tenants", self.tenants),
                             ("datasets", self.datasets),
                             ("kinds", self.kinds)):
            if len(set(table)) != len(table):
                raise ConfigurationError(f"duplicate names in {label}: {table}")
            if any(not name for name in table):
                raise ConfigurationError(f"empty name in {label}")
            if len(table) > 0xFFFF:
                raise ConfigurationError(
                    f"{label} table exceeds the 65535-entry binary id space"
                )

    def to_dict(self) -> dict[str, object]:
        return {
            "version": self.version,
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "tenants": list(self.tenants),
            "datasets": list(self.datasets),
            "kinds": list(self.kinds),
            "extra": {key: value for key, value in self.extra},
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TraceHeader":
        try:
            return cls(
                version=int(payload["version"]),
                seed=int(payload["seed"]),
                horizon_s=float(payload["horizon_s"]),
                tenants=tuple(payload["tenants"]),
                datasets=tuple(payload["datasets"]),
                kinds=tuple(payload["kinds"]),
                extra=tuple(sorted(dict(payload.get("extra", {})).items())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataIntegrityError(
                f"malformed trace header: {exc}"
            ) from exc

    def validate_record(self, record: TraceRecord) -> None:
        """Reject records naming anything outside the header tables."""
        if record.tenant not in self.tenants:
            raise ConfigurationError(
                f"tenant {record.tenant!r} is not declared in the header"
            )
        if record.dataset not in self.datasets:
            raise ConfigurationError(
                f"dataset {record.dataset!r} is not declared in the header"
            )
        if record.kind not in self.kinds:
            raise ConfigurationError(
                f"kind {record.kind!r} is not declared in the header"
            )


def monotone(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """Pass records through, failing fast on a backwards arrival.

    The JSONL reader wraps its stream in this (the binary reader checks
    inline, with the same message) so an out-of-order trace is a
    :class:`~repro.errors.DataIntegrityError` at the offending record,
    not a subtly wrong replay an hour of virtual time later.
    """
    last = float("-inf")
    for index, record in enumerate(records):
        if record.arrival_s < last:
            raise DataIntegrityError(
                f"trace arrivals must be non-decreasing: record {index} "
                f"arrives at {record.arrival_s} after {last}"
            )
        last = record.arrival_s
        yield record

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
from math import isfinite
from typing import Iterable, Iterator, NamedTuple

from ..errors import ConfigurationError, DataIntegrityError
from ..units import assert_positive

#: Bumped on any change to the record layout or header semantics; both
#: codecs embed it and refuse to decode a trace from another version.
TRACE_SCHEMA_VERSION = 1

#: First bytes of every packed-binary trace ("DHL Trace, version 1").
TRACE_MAGIC = b"DHT1"

#: First key of every JSONL trace header line.
JSONL_SCHEMA = f"dhl-trace/{TRACE_SCHEMA_VERSION}"


_INF = float("inf")
_tuple_new = tuple.__new__


class _TraceRecordFields(NamedTuple):
    arrival_s: float
    tenant: str
    dataset: str
    size_bytes: float
    kind: str
    deadline_s: float


class TraceRecord(_TraceRecordFields):
    """One demand event: who wants which dataset, how much, by when.

    ``deadline_s`` is the absolute virtual time by which the request
    should complete — pre-resolved at synthesis so replay never needs
    the SLA table to interpret a record.

    A validating immutable tuple: construction (positional, by keyword,
    through ``_make``/``_replace`` or unpickling) checks every field, so
    a record that exists is valid, and a decoder can unpack one as
    cheaply as any tuple.  Arrival, size and deadline must be finite,
    with ``0 <= arrival_s <= deadline_s`` and ``size_bytes > 0``; the
    three names must be non-empty.
    """

    __slots__ = ()

    def __new__(cls, arrival_s: float, tenant: str, dataset: str,
                size_bytes: float, kind: str,
                deadline_s: float) -> "TraceRecord":
        # One chained comparison accepts every valid record; NaN fails
        # each comparison, so it falls through to the precise checks.
        if not (0.0 <= arrival_s <= deadline_s < _INF
                and 0.0 < size_bytes < _INF
                and tenant and dataset and kind):
            _reject(arrival_s, tenant, dataset, size_bytes, kind, deadline_s)
        return _tuple_new(
            cls, (arrival_s, tenant, dataset, size_bytes, kind, deadline_s)
        )

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "TraceRecord":
        return cls(*iterable)


def _reject(arrival_s: float, tenant: str, dataset: str, size_bytes: float,
            kind: str, deadline_s: float) -> None:
    """Raise the error for the first invalid field of a record."""
    if not isfinite(arrival_s):
        raise ConfigurationError(f"arrival_s must be finite, got {arrival_s}")
    if arrival_s < 0:
        raise ConfigurationError(f"arrival_s must be >= 0, got {arrival_s}")
    if not isfinite(size_bytes):
        raise ConfigurationError(f"size_bytes must be finite, got {size_bytes}")
    assert_positive("size_bytes", size_bytes)
    if not isfinite(deadline_s):
        raise ConfigurationError(f"deadline_s must be finite, got {deadline_s}")
    if deadline_s < arrival_s:
        raise ConfigurationError(
            f"deadline_s ({deadline_s}) precedes arrival_s ({arrival_s})"
        )
    for name, value in (("tenant", tenant), ("dataset", dataset),
                        ("kind", kind)):
        if not value:
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

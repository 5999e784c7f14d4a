"""Tests for the versioned trace record schema and header tables."""

import pytest

from repro.errors import ConfigurationError, DataIntegrityError
from repro.traffic.schema import (
    JSONL_SCHEMA,
    TRACE_SCHEMA_VERSION,
    TraceHeader,
    TraceRecord,
    monotone,
)


def record(arrival=10.0, tenant="search", dataset="ds-000",
           size=2e12, kind="interactive", deadline=None):
    return TraceRecord(
        arrival_s=arrival,
        tenant=tenant,
        dataset=dataset,
        size_bytes=size,
        kind=kind,
        deadline_s=deadline if deadline is not None else arrival + 60.0,
    )


def header(**kwargs):
    defaults = dict(
        seed=0,
        horizon_s=3600.0,
        tenants=("search", "backup"),
        datasets=("ds-000", "ds-001"),
        kinds=("interactive", "batch"),
    )
    defaults.update(kwargs)
    return TraceHeader(**defaults)


class TestTraceRecord:
    def test_rejects_negative_arrival(self):
        with pytest.raises(ConfigurationError):
            record(arrival=-1.0, deadline=60.0)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            record(size=0.0)

    def test_rejects_deadline_before_arrival(self):
        with pytest.raises(ConfigurationError):
            record(arrival=100.0, deadline=99.0)

    @pytest.mark.parametrize("field", ["tenant", "dataset", "kind"])
    def test_rejects_empty_names(self, field):
        with pytest.raises(ConfigurationError):
            record(**{field: ""})


class TestTraceHeader:
    def test_dict_round_trip(self):
        original = header(extra=(("rate_scale", 0.5),))
        assert TraceHeader.from_dict(original.to_dict()) == original

    def test_jsonl_schema_embeds_version(self):
        assert JSONL_SCHEMA == f"dhl-trace/{TRACE_SCHEMA_VERSION}"

    def test_rejects_unknown_version(self):
        with pytest.raises(ConfigurationError):
            header(version=TRACE_SCHEMA_VERSION + 1)

    def test_malformed_dict_is_data_integrity_error(self):
        with pytest.raises(DataIntegrityError):
            TraceHeader.from_dict({"version": TRACE_SCHEMA_VERSION})

    def test_rejects_duplicate_table_entries(self):
        with pytest.raises(ConfigurationError):
            header(tenants=("search", "search"))

    def test_rejects_empty_table_names(self):
        with pytest.raises(ConfigurationError):
            header(kinds=("interactive", ""))

    def test_validate_record_enforces_tables(self):
        head = header()
        head.validate_record(record())
        with pytest.raises(ConfigurationError):
            head.validate_record(record(tenant="mystery"))
        with pytest.raises(ConfigurationError):
            head.validate_record(record(dataset="ds-999"))
        with pytest.raises(ConfigurationError):
            head.validate_record(record(kind="mystery"))


class TestMonotone:
    def test_passes_ordered_streams_through(self):
        records = [record(arrival=t) for t in (0.0, 1.0, 1.0, 5.0)]
        assert list(monotone(iter(records))) == records

    def test_rejects_backwards_arrivals(self):
        records = [record(arrival=5.0), record(arrival=4.0)]
        with pytest.raises(DataIntegrityError):
            list(monotone(iter(records)))

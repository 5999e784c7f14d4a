"""Tests for the versioned trace record schema and header tables."""

import io
import math
import pickle
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataIntegrityError
from repro.traffic.codec import (
    BinaryTraceWriter,
    JsonlTraceWriter,
    read_binary_header,
    read_binary_records,
    read_jsonl_header,
    read_jsonl_records,
)
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["arrival", "size", "deadline"])
    def test_rejects_non_finite_fields(self, field, value):
        fields = dict(arrival=10.0, size=2e12, deadline=70.0)
        fields[field] = value
        with pytest.raises(ConfigurationError):
            record(**fields)

    def test_replace_and_make_validate_too(self):
        valid = record()
        with pytest.raises(ValueError):
            valid._replace(size_bytes=0.0)
        with pytest.raises(ConfigurationError):
            TraceRecord._make((math.nan, "search", "ds-000", 1.0, "kind", 5.0))
        assert TraceRecord._make(tuple(valid)) == valid

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            record().arrival_s = 0.0


#: Floats a decoder can meet: NaN, both infinities, both zeros, others.
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]),
    st.floats(),
)
NAMES = st.sampled_from(["", "a", "ds-000"])


def expected_error(arrival, tenant, dataset, size, kind, deadline):
    """The exception type construction must raise (``None``: accepted)."""
    if not (math.isfinite(arrival) and arrival >= 0):
        return ConfigurationError
    if not math.isfinite(size):
        return ConfigurationError
    if not size > 0:
        return ValueError
    if not (math.isfinite(deadline) and deadline >= arrival):
        return ConfigurationError
    if not (tenant and dataset and kind):
        return ConfigurationError
    return None


def bits(rec):
    """A record's fields with each float as its exact IEEE-754 bytes."""
    return tuple(
        struct.pack("<d", value) if isinstance(value, float) else value
        for value in rec
    )


def round_trips(rec):
    """``rec`` decoded back from each codec, under a one-name header."""
    head = TraceHeader(tenants=(rec.tenant,), datasets=(rec.dataset,),
                       kinds=(rec.kind,))
    binary = io.BytesIO()
    BinaryTraceWriter(binary, head).write(rec)
    binary.seek(0)
    text = io.StringIO()
    JsonlTraceWriter(text, head).write(rec)
    text.seek(0)
    return (
        list(read_binary_records(binary, read_binary_header(binary))),
        list(read_jsonl_records(text, read_jsonl_header(text))),
    )


class TestTraceRecordProperty:
    @given(arrival=EDGE_FLOATS, size=EDGE_FLOATS, deadline=EDGE_FLOATS,
           relative=st.booleans(), tenant=NAMES, dataset=NAMES, kind=NAMES)
    @example(arrival=math.nan, size=1.0, deadline=1.0, relative=True,
             tenant="a", dataset="a", kind="a")
    @example(arrival=-0.0, size=5e-324, deadline=0.0, relative=True,
             tenant="a", dataset="a", kind="a")
    @example(arrival=1.0, size=1.0, deadline=math.inf, relative=True,
             tenant="a", dataset="a", kind="a")
    @example(arrival=1.0, size=math.nan, deadline=1.0, relative=True,
             tenant="a", dataset="a", kind="a")
    @example(arrival=1.0, size=-1.0, deadline=1.0, relative=True,
             tenant="a", dataset="a", kind="a")
    @example(arrival=1.0, size=1.0, deadline=1.0, relative=True,
             tenant="a", dataset="", kind="a")
    def test_matches_reference_and_round_trips(self, arrival, size, deadline,
                                               relative, tenant, dataset,
                                               kind):
        # A relative deadline sits ``deadline`` after the arrival, so
        # accepted records are common among the draws.
        if relative:
            deadline = arrival + deadline
        fields = (arrival, tenant, dataset, size, kind, deadline)
        expected = expected_error(*fields)
        if expected is not None:
            with pytest.raises(ValueError) as raised:
                TraceRecord(*fields)
            assert type(raised.value) is expected
            return
        rec = TraceRecord(*fields)
        assert bits(rec) == bits(fields)
        for decoded in round_trips(rec):
            assert [bits(item) for item in decoded] == [bits(rec)]
            assert type(decoded[0]) is TraceRecord
        copy = pickle.loads(pickle.dumps(rec))
        assert type(copy) is TraceRecord
        assert copy == rec == TraceRecord(*fields)
        assert hash(copy) == hash(rec)
        assert repr(copy) == repr(rec)
        assert repr(rec).startswith("TraceRecord(arrival_s=")


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

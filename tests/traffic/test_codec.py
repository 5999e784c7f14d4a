"""Tests for the JSONL and packed-binary trace codecs."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataIntegrityError
from repro.fleet.sla import ClassTarget
from repro.traffic.codec import (
    DECODE_BATCH,
    RECORD_STRUCT,
    BinaryTraceWriter,
    JsonlTraceWriter,
    read_binary_header,
    read_binary_records,
    read_jsonl_header,
    read_jsonl_records,
    read_trace,
    write_trace,
)
from repro.traffic.replay import JobBinder, bound_jobs
from repro.traffic.schema import TRACE_MAGIC, TraceHeader, TraceRecord
from repro.traffic.synth import default_spec, synthesise, trace_header

HEADER = TraceHeader(
    seed=3,
    horizon_s=600.0,
    tenants=("search", "backup"),
    datasets=("ds-000", "ds-001", "ds-002"),
    kinds=("interactive", "batch"),
    extra=(("rate_scale", 0.25),),
)


def sample_records(n=10):
    return [
        TraceRecord(
            arrival_s=float(index) * 1.5,
            tenant=HEADER.tenants[index % 2],
            dataset=HEADER.datasets[index % 3],
            size_bytes=1e12 + index * 0.1,
            kind=HEADER.kinds[index % 2],
            deadline_s=float(index) * 1.5 + 60.0,
        )
        for index in range(n)
    ]


def encode_binary(records, header=HEADER):
    stream = io.BytesIO()
    writer = BinaryTraceWriter(stream, header)
    for record in records:
        writer.write(record)
    stream.seek(0)
    return stream


def encode_jsonl(records, header=HEADER):
    stream = io.StringIO()
    writer = JsonlTraceWriter(stream, header)
    for record in records:
        writer.write(record)
    stream.seek(0)
    return stream


class TestBinaryCodec:
    def test_round_trip_is_bit_exact(self):
        records = sample_records(2 * DECODE_BATCH + 17)
        stream = encode_binary(records)
        header = read_binary_header(stream)
        assert header == HEADER
        assert list(read_binary_records(stream, header)) == records

    def test_records_are_fixed_size(self):
        records = sample_records(5)
        body = encode_binary(records).getvalue()
        header_len = len(TRACE_MAGIC) + 4 + struct.unpack(
            "<I", body[len(TRACE_MAGIC):len(TRACE_MAGIC) + 4]
        )[0]
        assert len(body) - header_len == 5 * RECORD_STRUCT.size

    def test_rejects_wrong_magic(self):
        with pytest.raises(DataIntegrityError):
            read_binary_header(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_rejects_truncated_record(self):
        stream = encode_binary(sample_records(3))
        clipped = io.BytesIO(stream.getvalue()[:-7])
        header = read_binary_header(clipped)
        with pytest.raises(DataIntegrityError):
            list(read_binary_records(clipped, header))

    def test_write_rejects_undeclared_names(self):
        writer = BinaryTraceWriter(io.BytesIO(), HEADER)
        rogue = TraceRecord(0.0, "mystery", "ds-000", 1e12,
                            "interactive", 60.0)
        with pytest.raises(ConfigurationError):
            writer.write(rogue)

    def test_write_rejects_backwards_arrivals(self):
        writer = BinaryTraceWriter(io.BytesIO(), HEADER)
        records = sample_records(2)
        writer.write(records[1])
        with pytest.raises(DataIntegrityError):
            writer.write(records[0])

    def test_read_rejects_backwards_arrivals_at_their_index(self):
        # The writer refuses such a trace, so pack the records by hand;
        # the bad record sits in the second decode batch.
        bad = DECODE_BATCH + 2
        stream = encode_binary([])
        stream.seek(0, io.SEEK_END)
        for index in range(bad + 3):
            arrival = 5.0 if index == bad else 10.0 + index
            stream.write(RECORD_STRUCT.pack(arrival, 0, 0, 0, 1e12,
                                            arrival + 60.0))
        stream.seek(0)
        records = read_binary_records(stream, read_binary_header(stream))
        decoded = 0
        with pytest.raises(DataIntegrityError) as raised:
            for _record in records:
                decoded += 1
        assert decoded == bad
        assert str(raised.value) == (
            f"trace arrivals must be non-decreasing: record {bad} "
            f"arrives at 5.0 after {10.0 + bad - 1}"
        )

    @pytest.mark.parametrize("fields, detail", [
        ((0.0, 0.0, 60.0), "size_bytes must be > 0, got 0.0"),
        ((-1.0, 1e12, 60.0), "arrival_s must be >= 0, got -1.0"),
        ((5.0, 1e12, 4.0), "deadline_s (4.0) precedes arrival_s (5.0)"),
        ((float("nan"), 1e12, 60.0), "arrival_s must be finite, got nan"),
    ], ids=["zero-size", "negative-arrival", "deadline-before-arrival",
            "nan-arrival"])
    def test_read_names_a_corrupt_record_by_index(self, fields, detail):
        # ``fields`` is (arrival, size, deadline) of the record at
        # ``bad``, in the second decode batch; the writer refuses such
        # a record, so the trace is packed by hand.
        bad = DECODE_BATCH + 2
        stream = encode_binary([])
        stream.seek(0, io.SEEK_END)
        for index in range(bad + 3):
            arrival, size, deadline = (
                fields if index == bad else (0.0, 1e12, 60.0)
            )
            stream.write(RECORD_STRUCT.pack(arrival, 0, 0, 0, size, deadline))
        stream.seek(0)
        records = read_binary_records(stream, read_binary_header(stream))
        decoded = 0
        with pytest.raises(DataIntegrityError) as raised:
            for _record in records:
                decoded += 1
        assert decoded == bad
        assert str(raised.value) == (
            f"corrupt binary trace record {bad}: {detail}"
        )


class TestJsonlCodec:
    def test_round_trip_is_bit_exact(self):
        records = sample_records(41)
        stream = encode_jsonl(records)
        header = read_jsonl_header(stream)
        assert header == HEADER
        assert list(read_jsonl_records(stream, header)) == records

    def test_one_object_per_line(self):
        text = encode_jsonl(sample_records(4)).getvalue()
        assert len(text.strip().splitlines()) == 1 + 4

    def test_rejects_non_trace_stream(self):
        with pytest.raises(DataIntegrityError):
            read_jsonl_header(io.StringIO('{"schema": "something-else"}\n'))

    def test_rejects_corrupt_record_line(self):
        stream = encode_jsonl(sample_records(2))
        corrupted = io.StringIO(
            stream.getvalue().rsplit("\n", 2)[0] + "\n{not json}\n"
        )
        header = read_jsonl_header(corrupted)
        with pytest.raises(DataIntegrityError):
            list(read_jsonl_records(corrupted, header))

    def test_write_rejects_backwards_arrivals(self):
        writer = JsonlTraceWriter(io.StringIO(), HEADER)
        records = sample_records(2)
        writer.write(records[1])
        with pytest.raises(DataIntegrityError):
            writer.write(records[0])


class TestTraceFiles:
    @pytest.mark.parametrize("fmt", ["bin", "jsonl"])
    def test_write_read_round_trip_autodetects(self, tmp_path, fmt):
        records = sample_records(23)
        path = str(tmp_path / f"trace.{fmt}")
        count = write_trace(path, HEADER, iter(records), fmt=fmt)
        assert count == 23
        header, decoded = read_trace(path)
        assert header == HEADER
        assert list(decoded) == records

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_trace(str(tmp_path / "t"), HEADER, [], fmt="csv")

    def test_formats_agree_on_synthesised_trace(self, tmp_path):
        spec = default_spec(seed=5, horizon_s=900.0, rate_scale=0.05)
        header = trace_header(spec)
        bin_path = str(tmp_path / "trace.bin")
        jsonl_path = str(tmp_path / "trace.jsonl")
        write_trace(bin_path, header, synthesise(spec), fmt="bin")
        write_trace(jsonl_path, header, synthesise(spec), fmt="jsonl")
        _, from_bin = read_trace(bin_path)
        _, from_jsonl = read_trace(jsonl_path)
        assert list(from_bin) == list(from_jsonl)


#: "batch" has no target, so it binds at the default priority.
TARGETS = {"interactive": ClassTarget(deadline_s=60.0, priority=2)}
CART_BYTES = 24e12

#: One field of one record made invalid: each breaks a different check.
CORRUPTIONS = (
    "nan-arrival", "nan-size", "nan-deadline", "zero-size",
    "deadline-before-arrival", "tenant-id", "dataset-id", "kind-id",
    "backwards-arrival",
)


def random_rows(seed, n):
    """``n`` valid packed rows: arrival ties, and sizes at, below and
    above the cart cap."""
    rng = np.random.default_rng(seed)
    gaps = np.where(rng.random(n) < 0.3, 0.0, rng.exponential(5.0, n))
    arrivals = 1.0 + np.cumsum(gaps)
    sizes = rng.choice([CART_BYTES, 1e9, 5e13], n) * rng.choice(
        [1.0, 1.0, 0.5, 1.7], n)
    slack = rng.choice([0.0, 60.0, 3600.0], n) * rng.random(n)
    return [
        [float(arrival), int(tenant), int(dataset), int(kind), float(size),
         float(arrival + extra)]
        for arrival, tenant, dataset, kind, size, extra in zip(
            arrivals, rng.integers(0, len(HEADER.tenants), n),
            rng.integers(0, len(HEADER.datasets), n),
            rng.integers(0, len(HEADER.kinds), n), sizes, slack,
        )
    ]


def corrupt(rows, index, corruption):
    row = rows[index]
    if corruption.startswith("nan-"):
        row[{"arrival": 0, "size": 4, "deadline": 5}[
            corruption.split("-")[1]]] = float("nan")
    elif corruption == "zero-size":
        row[4] = 0.0
    elif corruption == "deadline-before-arrival":
        row[5] = row[0] - 1.0
    elif corruption == "backwards-arrival":
        row[0] = rows[index - 1][0] * 0.5
    else:
        table = corruption.split("-")[0] + "s"
        row[1 + ("tenants", "datasets", "kinds").index(table)] = len(
            getattr(HEADER, table))


def packed_reader(rows, cut=0):
    """A reader over ``rows`` packed by hand, the last ``cut`` bytes
    cut off the end."""
    stream = encode_binary([])
    stream.seek(0, io.SEEK_END)
    for row in rows:
        stream.write(RECORD_STRUCT.pack(*row))
    stream.truncate(stream.tell() - cut)
    stream.seek(0)
    return read_binary_records(stream, read_binary_header(stream))


def bits(job):
    """Every field of a bound job, floats by their exact bits."""
    return tuple(
        (type(value), value.hex() if isinstance(value, float) else value)
        for value in (job.job_id, job.arrival_s, job.size_bytes, job.kind,
                      job.dataset, job.read_bytes, job.deadline_at,
                      job.priority, job.tenant)
    )


def drain(jobs):
    """(bound jobs, (error type, text) or None) of a job stream."""
    bound = []
    try:
        for job in jobs:
            bound.append(bits(job))
    except DataIntegrityError as exc:
        return bound, (type(exc), str(exc))
    return bound, None


def both_paths(rows, chunk, cut=0):
    """The scalar path (``TraceRecord``\\ s through :func:`bound_jobs`)
    and the batch path (validated row chunks through the binder)."""
    scalar = drain(bound_jobs(iter(packed_reader(rows, cut)), TARGETS,
                              CART_BYTES))
    batch = drain(JobBinder(packed_reader(rows, cut), TARGETS, CART_BYTES,
                            chunk_records=chunk).jobs())
    return scalar, batch


def truncation_error(index, cut):
    return (DataIntegrityError,
            f"truncated binary trace: record {index} is cut short "
            f"({RECORD_STRUCT.size - cut} trailing bytes are not a whole "
            "record)")


class TestBatchPathProperty:
    """The chunked row path binds exactly what the scalar path binds."""

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 600))
    def test_valid_traces_bind_bit_identically(self, chunk, seed, n):
        rows = random_rows(seed, n)
        scalar, batch = both_paths(rows, chunk)
        assert scalar[1] is None
        assert batch == scalar
        assert len(batch[0]) == n

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 600),
           corruption=st.sampled_from(CORRUPTIONS), data=st.data())
    def test_corrupt_record_fails_alike_after_the_same_jobs(
        self, chunk, seed, n, corruption, data
    ):
        rows = random_rows(seed, n)
        index = data.draw(st.integers(1, n - 1), label="index")
        corrupt(rows, index, corruption)
        scalar, batch = both_paths(rows, chunk)
        assert scalar[1] is not None
        assert batch == scalar
        assert len(batch[0]) == index

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600),
           cut=st.integers(1, RECORD_STRUCT.size - 1))
    def test_truncated_trace_fails_alike_after_every_whole_record(
        self, chunk, seed, n, cut
    ):
        scalar, batch = both_paths(random_rows(seed, n), chunk, cut)
        assert batch == scalar
        assert len(batch[0]) == n - 1
        assert batch[1] == truncation_error(n - 1, cut)

    @pytest.mark.parametrize("n, chunk", [
        (257, 256),  # the cut record starts a read of its own
        (DECODE_BATCH + 1, 256),
        (2 * DECODE_BATCH + 17, 256),  # cut inside the third decode batch
        (2 * DECODE_BATCH + 17, 4000),
    ])
    def test_truncation_past_a_read_boundary(self, n, chunk):
        scalar, batch = both_paths(random_rows(n, n), chunk, cut=7)
        assert batch == scalar
        assert len(batch[0]) == n - 1
        assert batch[1] == truncation_error(n - 1, 7)

"""Streaming JSONL and packed-binary trace codecs.

Both codecs share one contract: a :class:`~repro.traffic.schema.
TraceHeader` first, then records in non-decreasing arrival order, and
constant memory at any trace length — writers accept one record at a
time, readers yield one record at a time (decoding in fixed-size
batches internally for throughput), and the binary reader also yields
validated chunks of rows.

``jsonl``
    one JSON object per line, human-greppable, ~170 bytes/record.
    Floats are serialised with :func:`repr` semantics, so a record
    round-trips bit-exactly.
``bin``
    :data:`~repro.traffic.schema.TRACE_MAGIC`, a length-prefixed JSON
    header, then fixed 30-byte records (``<dHHHdd``) whose strings are
    integer ids into the header's name tables.  A 10M-request day is
    ~300 MB on disk.  The reader :func:`read_binary_records` returns
    hands out about 1.5 M validated records/s one at a time, and about
    14 M records/s as validated 256-row numpy chunks, the form replay
    binds from (best of 7 passes over 100 k records, 2-vCPU x86-64,
    Python 3.11).  A corrupt record fails as a
    :class:`~repro.errors.DataIntegrityError` naming its index.

:func:`read_trace` auto-detects the format from the first bytes, so
callers never track which codec wrote a file.
"""

from __future__ import annotations

import io
import json
import struct
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from ..errors import ConfigurationError, DataIntegrityError
from .schema import (
    JSONL_SCHEMA,
    TRACE_MAGIC,
    TraceHeader,
    TraceRecord,
    monotone,
)

#: Packed layout of one binary record: arrival, tenant id, dataset id,
#: kind id, size, absolute deadline.
RECORD_STRUCT = struct.Struct("<dHHHdd")

#: The same packed row as a numpy record: the binary reader's chunks.
RECORD_DTYPE = np.dtype([
    ("arrival_s", "<f8"), ("tenant", "<u2"), ("dataset", "<u2"),
    ("kind", "<u2"), ("size_bytes", "<f8"), ("deadline_s", "<f8"),
])

#: Records decoded per read() batch when the binary reader is iterated.
DECODE_BATCH = 4096

_INF = float("inf")

FORMATS = ("bin", "jsonl")


class _MonotoneGate:
    """Write-side arrival-order enforcement shared by both writers."""

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = float("-inf")

    def check(self, record: TraceRecord) -> None:
        if record.arrival_s < self._last:
            raise DataIntegrityError(
                f"trace arrivals must be non-decreasing: got "
                f"{record.arrival_s} after {self._last}"
            )
        self._last = record.arrival_s


class JsonlTraceWriter:
    """Streams records to a text file-like, one JSON object per line."""

    def __init__(self, stream: TextIO, header: TraceHeader):
        self.stream = stream
        self.header = header
        self.count = 0
        self._gate = _MonotoneGate()
        stream.write(json.dumps(
            {"schema": JSONL_SCHEMA, **header.to_dict()}, sort_keys=True
        ))
        stream.write("\n")

    def write(self, record: TraceRecord) -> None:
        self.header.validate_record(record)
        self._gate.check(record)
        self.stream.write(json.dumps({
            "t": record.arrival_s,
            "tenant": record.tenant,
            "dataset": record.dataset,
            "bytes": record.size_bytes,
            "kind": record.kind,
            "deadline": record.deadline_s,
        }, sort_keys=True))
        self.stream.write("\n")
        self.count += 1


class BinaryTraceWriter:
    """Streams fixed 30-byte records to a binary file-like."""

    def __init__(self, stream: BinaryIO, header: TraceHeader):
        self.stream = stream
        self.header = header
        self.count = 0
        self._gate = _MonotoneGate()
        self._tenant_ids = {name: i for i, name in enumerate(header.tenants)}
        self._dataset_ids = {name: i for i, name in enumerate(header.datasets)}
        self._kind_ids = {name: i for i, name in enumerate(header.kinds)}
        blob = json.dumps(header.to_dict(), sort_keys=True).encode("utf-8")
        stream.write(TRACE_MAGIC)
        stream.write(struct.pack("<I", len(blob)))
        stream.write(blob)

    def write(self, record: TraceRecord) -> None:
        self._gate.check(record)
        try:
            packed = RECORD_STRUCT.pack(
                record.arrival_s,
                self._tenant_ids[record.tenant],
                self._dataset_ids[record.dataset],
                self._kind_ids[record.kind],
                record.size_bytes,
                record.deadline_s,
            )
        except KeyError:
            # Re-raise through the schema check for the precise message.
            self.header.validate_record(record)
            raise  # pragma: no cover - validate_record always raises
        self.stream.write(packed)
        self.count += 1


def _read_exact(stream: BinaryIO, n: int, what: str) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise DataIntegrityError(
            f"truncated binary trace: expected {n} bytes of {what}, "
            f"got {len(data)}"
        )
    return data


def read_binary_header(stream: BinaryIO) -> TraceHeader:
    """Decode the magic + header preamble, leaving ``stream`` at record 0."""
    magic = _read_exact(stream, len(TRACE_MAGIC), "magic")
    if magic != TRACE_MAGIC:
        raise DataIntegrityError(
            f"not a binary trace: magic {magic!r} != {TRACE_MAGIC!r}"
        )
    (length,) = struct.unpack("<I", _read_exact(stream, 4, "header length"))
    blob = _read_exact(stream, length, "header")
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataIntegrityError(f"corrupt binary trace header: {exc}") from exc
    return TraceHeader.from_dict(payload)


class BinaryRecordReader:
    """The records of a binary trace whose stream is past its header.

    Iterating yields :class:`~repro.traffic.schema.TraceRecord`\\ s one
    at a time, each validated on construction, with arrival order
    checked inline (the message :func:`~repro.traffic.schema.monotone`
    gives a JSONL stream).  :meth:`chunks` yields the same records as
    numpy row arrays instead, each chunk validated column-wise at once.
    Either way a record whose fields the schema rejects (a zero size, a
    negative or non-finite time, a deadline before its arrival), whose
    ids fall outside the header tables, that arrives before its
    predecessor or that the trace ends inside of (a truncated file) is
    a :class:`DataIntegrityError` naming its index, as
    the JSONL reader names the line, raised after every record before
    it has been handed out.

    A reader that ``owns`` its stream closes it once the records run
    out, fail, or are abandoned.
    """

    def __init__(self, stream: BinaryIO, header: TraceHeader,
                 owns: bool = False):
        self.stream = stream
        self.header = header
        self._owns = owns
        self._index = 0
        self._last = float("-inf")

    def _read(self, n_records: int) -> bytes:
        size = RECORD_STRUCT.size
        data = self.stream.read(size * n_records)
        if len(data) % size:
            return self._cut_short(data)
        return data

    def _cut_short(self, data: bytes) -> bytes:
        """The whole records of a read the trace ends inside of; the
        read after them raises, naming the cut record."""
        size = RECORD_STRUCT.size
        tail = len(data) % size
        whole = len(data) - tail
        error = DataIntegrityError(
            f"truncated binary trace: record {self._index + whole // size} "
            f"is cut short ({tail} trailing bytes are not a whole record)"
        )
        if not whole:
            raise error

        def cut(_n_records: int) -> bytes:
            raise error

        self._read = cut
        return data[:whole]

    def _release(self) -> None:
        if self._owns:
            self.stream.close()

    def _decode(self, batch: bytes) -> Iterator[TraceRecord]:
        """The scalar path: one validated :class:`TraceRecord` per row."""
        tenants, datasets, kinds = (
            self.header.tenants, self.header.datasets, self.header.kinds
        )
        index, last = self._index, self._last
        for arrival, tenant_id, dataset_id, kind_id, size_bytes, deadline \
                in RECORD_STRUCT.iter_unpack(batch):
            try:
                record = TraceRecord(arrival, tenants[tenant_id],
                                     datasets[dataset_id], size_bytes,
                                     kinds[kind_id], deadline)
            except IndexError:
                raise DataIntegrityError(
                    f"binary record {index} references id outside the "
                    f"header tables ({tenant_id}, {dataset_id}, {kind_id})"
                ) from None
            except ValueError as exc:
                raise DataIntegrityError(
                    f"corrupt binary trace record {index}: {exc}"
                ) from exc
            if arrival < last:
                raise DataIntegrityError(
                    f"trace arrivals must be non-decreasing: record {index} "
                    f"arrives at {arrival} after {last}"
                )
            last = arrival
            index += 1
            yield record
        self._index, self._last = index, last

    def __iter__(self) -> Iterator[TraceRecord]:
        try:
            while batch := self._read(DECODE_BATCH):
                yield from self._decode(batch)
        finally:
            self._release()

    def chunks(self, n_records: int) -> Iterator[np.ndarray]:
        """Yield the records ``n_records`` at a time as validated rows.

        Each chunk is one ``stream.read`` viewed as :data:`RECORD_DTYPE`
        rows and checked column-wise: finite fields, ``0 <= arrival <=
        deadline``, ``0 < size``, ids inside the header tables and
        arrivals non-decreasing, across chunk boundaries too.  A chunk
        that fails goes through the scalar :class:`TraceRecord` path,
        which finds the first bad record; the rows before it are yielded
        as a shorter chunk, then its error is raised.
        """
        header = self.header
        n_tenants, n_datasets, n_kinds = (
            len(header.tenants), len(header.datasets), len(header.kinds)
        )
        try:
            while data := self._read(n_records):
                rows = np.frombuffer(data, RECORD_DTYPE)
                arrival = rows["arrival_s"]
                size = rows["size_bytes"]
                deadline = rows["deadline_s"]
                # NaN fails every comparison, so it fails these too.
                if (
                    self._last <= arrival[0]
                    and ((0.0 <= arrival) & (arrival <= deadline)
                         & (deadline < _INF) & (0.0 < size)
                         & (size < _INF)).all()
                    and (arrival[:-1] <= arrival[1:]).all()
                    and rows["tenant"].max() < n_tenants
                    and rows["dataset"].max() < n_datasets
                    and rows["kind"].max() < n_kinds
                ):
                    self._index += len(rows)
                    self._last = float(arrival[-1])
                    yield rows
                    continue
                good = 0
                try:
                    for _record in self._decode(data):
                        good += 1
                except DataIntegrityError as exc:
                    if good:
                        yield rows[:good]
                    raise exc
                yield rows  # pragma: no cover - both checks reject alike
        finally:
            self._release()


def read_binary_records(stream: BinaryIO,
                        header: TraceHeader) -> BinaryRecordReader:
    """The records of a binary trace positioned past its header.

    Returns a :class:`BinaryRecordReader`: iterate it for
    :class:`TraceRecord`\\ s, or take validated row chunks from its
    :meth:`~BinaryRecordReader.chunks` (what trace replay binds from).
    """
    return BinaryRecordReader(stream, header)


def read_jsonl_header(stream: TextIO) -> TraceHeader:
    """Decode the JSONL header line, leaving ``stream`` at record 0."""
    line = stream.readline()
    if not line:
        raise DataIntegrityError("empty JSONL trace: no header line")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataIntegrityError(f"corrupt JSONL trace header: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != JSONL_SCHEMA:
        raise DataIntegrityError(
            f"not a JSONL trace: header schema {payload!r:.80}"
        )
    return TraceHeader.from_dict(payload)


def read_jsonl_records(stream: TextIO,
                       header: TraceHeader) -> Iterator[TraceRecord]:
    """Stream records off a JSONL trace positioned past its header."""

    def decoded() -> Iterator[TraceRecord]:
        for number, line in enumerate(stream, start=2):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                record = TraceRecord(
                    float(row["t"]), row["tenant"], row["dataset"],
                    float(row["bytes"]), row["kind"], float(row["deadline"]),
                )
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                raise DataIntegrityError(
                    f"corrupt JSONL trace record on line {number}: {exc}"
                ) from exc
            header.validate_record(record)
            yield record

    return monotone(decoded())


def write_trace(path: str, header: TraceHeader,
                records: Iterable[TraceRecord], fmt: str = "bin") -> int:
    """Stream ``records`` to ``path`` in ``fmt``; returns the count."""
    if fmt not in FORMATS:
        raise ConfigurationError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt == "bin":
        with open(path, "wb") as handle:
            bin_writer = BinaryTraceWriter(handle, header)
            for record in records:
                bin_writer.write(record)
            return bin_writer.count
    with open(path, "w", encoding="utf-8") as handle:
        writer = JsonlTraceWriter(handle, header)
        for record in records:
            writer.write(record)
        return writer.count


def read_trace(path: str) -> tuple[TraceHeader, Iterable[TraceRecord]]:
    """Open a trace of either format, auto-detected from its first bytes.

    Returns the header plus lazy records that hold the file open until
    exhausted (or abandoned) — a 10M-request trace is never
    materialised.  A binary trace comes back as a
    :class:`BinaryRecordReader`, so replay binds it chunk by chunk.
    """
    probe = open(path, "rb")
    magic = probe.read(len(TRACE_MAGIC))
    if magic == TRACE_MAGIC:
        probe.seek(0)
        header = read_binary_header(probe)
        return header, BinaryRecordReader(probe, header, owns=True)
    probe.close()
    text = open(path, encoding="utf-8")
    header = read_jsonl_header(text)
    return header, _closing(read_jsonl_records(text, header), text)


def _closing(records: Iterator[TraceRecord],
             handle: io.IOBase) -> Iterator[TraceRecord]:
    try:
        yield from records
    finally:
        handle.close()

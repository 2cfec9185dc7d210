"""Streaming binary trace format: chunked, compressed, versioned.

The text format of :mod:`repro.traffic.trace` keeps whole traces in
memory, which caps it at tens of thousands of packets.  This module
stores traces as a fixed 24-byte header followed by independently
zlib-compressed chunks of fixed-size records, so

- :class:`StreamingTraceWriter` emits from any generator without ever
  holding more than one chunk,
- :class:`StreamingTraceReader` yields records one decompressed chunk
  at a time (it never loads the file), so
  :class:`repro.traffic.trace.TraceSource` replays millions of packets
  through the NI injection queues under bounded memory, and
- a truncated final chunk — a crashed writer, a torn copy — degrades
  to a loud :class:`RuntimeWarning` carrying the salvaged and lost
  record counts instead of an exception or silent data loss.

Layout (all little-endian)::

    header:  magic[8] version:u16 reserved:u16 chunk_records:u32
             total_records:u64   (sentinel 2**64-1 until finalized)
    chunk:   record_count:u32 compressed_size:u32 <zlib payload>
    record:  cycle:u64 src:u16 dst:u16 size_bits:u32
             message_class:u8 tenant:i16          (19 bytes)
"""

from __future__ import annotations

import struct
import warnings
import zlib
from pathlib import Path

from repro.traffic.trace import TraceRecord

__all__ = [
    "STREAM_MAGIC",
    "STREAM_VERSION",
    "DEFAULT_CHUNK_RECORDS",
    "StreamingTraceWriter",
    "StreamingTraceReader",
    "trace_info",
    "is_stream_trace",
]

#: File magic of the streaming format (first 8 bytes of every trace).
STREAM_MAGIC = b"CATNAPTR"

#: Format version written by :class:`StreamingTraceWriter`.
STREAM_VERSION = 1

#: Records per compressed chunk unless the writer is given another count.
DEFAULT_CHUNK_RECORDS = 65536

_HEADER = struct.Struct("<8sHHIQ")
_CHUNK_HEADER = struct.Struct("<II")
_RECORD = struct.Struct("<QHHIBh")

#: ``total_records`` value while a writer is still running; a reader
#: seeing it knows the file was never finalized.
_UNFINALIZED = (1 << 64) - 1

_MAX_U16 = (1 << 16) - 1
_MAX_U32 = (1 << 32) - 1
_MAX_U8 = (1 << 8) - 1
_MAX_I16 = (1 << 15) - 1


def _check_packable(record: TraceRecord) -> None:
    """Field-width validation beyond :meth:`TraceRecord.validate`."""
    if record.src > _MAX_U16 or record.dst > _MAX_U16:
        raise ValueError(
            f"src/dst exceed 16 bits: {record.src}/{record.dst}"
        )
    if record.size_bits > _MAX_U32:
        raise ValueError(f"size_bits exceeds 32 bits: {record.size_bits}")
    if record.message_class > _MAX_U8:
        raise ValueError(
            f"message_class exceeds 8 bits: {record.message_class}"
        )
    if record.tenant > _MAX_I16:
        raise ValueError(f"tenant exceeds 15 bits: {record.tenant}")


class StreamingTraceWriter:
    """Append-only writer of the chunked binary trace format.

    Records must arrive in cycle order (same contract as
    :class:`repro.traffic.trace.TrafficTrace`).  The header's
    ``total_records`` field holds a sentinel until :meth:`close`
    patches in the real count, so a crashed writer is detectable.
    Usable as a context manager.
    """

    def __init__(
        self, path: str | Path, chunk_records: int | None = None
    ) -> None:
        if chunk_records is None:
            chunk_records = DEFAULT_CHUNK_RECORDS
        if chunk_records < 1:
            raise ValueError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        self.path = Path(path)
        self.chunk_records = chunk_records
        self.records_written = 0
        self._last_cycle = -1
        self._buffer = bytearray()
        self._buffered = 0
        self._file = open(self.path, "wb")
        self._file.write(
            _HEADER.pack(
                STREAM_MAGIC, STREAM_VERSION, 0, chunk_records, _UNFINALIZED
            )
        )

    def append(self, record: TraceRecord) -> None:
        """Validate and buffer one record, flushing full chunks."""
        if self._file.closed:
            raise ValueError("writer is closed")
        record.validate()
        _check_packable(record)
        if record.cycle < self._last_cycle:
            raise ValueError(
                f"trace records must be in cycle order "
                f"({record.cycle} after {self._last_cycle})"
            )
        self._last_cycle = record.cycle
        self._buffer += _RECORD.pack(
            record.cycle,
            record.src,
            record.dst,
            record.size_bits,
            record.message_class,
            record.tenant,
        )
        self._buffered += 1
        self.records_written += 1
        if self._buffered >= self.chunk_records:
            self._flush_chunk()

    def extend(self, records) -> None:
        """Append every record of an iterable (e.g. a TrafficTrace)."""
        for record in records:
            self.append(record)

    def _flush_chunk(self) -> None:
        if not self._buffered:
            return
        payload = zlib.compress(bytes(self._buffer))
        self._file.write(_CHUNK_HEADER.pack(self._buffered, len(payload)))
        self._file.write(payload)
        self._buffer.clear()
        self._buffered = 0

    def close(self) -> None:
        """Flush the partial chunk and finalize the record count."""
        if self._file.closed:
            return
        self._flush_chunk()
        self._file.seek(0)
        self._file.write(
            _HEADER.pack(
                STREAM_MAGIC,
                STREAM_VERSION,
                0,
                self.chunk_records,
                self.records_written,
            )
        )
        self._file.close()

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _read_header(handle, path: Path) -> tuple[int, int | None]:
    """Parse and validate the fixed header; returns (chunk, declared)."""
    raw = handle.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated stream-trace header")
    magic, version, _, chunk_records, total = _HEADER.unpack(raw)
    if magic != STREAM_MAGIC:
        raise ValueError(
            f"{path}: not a streaming trace (bad magic {magic!r})"
        )
    if version != STREAM_VERSION:
        raise ValueError(
            f"{path}: unsupported stream-trace version {version} "
            f"(expected {STREAM_VERSION})"
        )
    if chunk_records < 1:
        raise ValueError(f"{path}: invalid chunk_records {chunk_records}")
    declared = None if total == _UNFINALIZED else total
    return chunk_records, declared


def is_stream_trace(path: str | Path) -> bool:
    """True when ``path`` starts with the streaming-format magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(STREAM_MAGIC)) == STREAM_MAGIC
    except OSError:
        return False


class StreamingTraceReader:
    """Bounded-memory iterator over a streaming trace file.

    Iteration yields :class:`TraceRecord` values one chunk at a time —
    the file is never loaded wholesale, so memory is bounded by one
    decompressed chunk regardless of trace length.  A truncated final
    chunk is salvaged record-by-record and reported loudly: a
    :class:`RuntimeWarning` carries the salvaged/lost counts and the
    :attr:`truncated` / :attr:`lost_records` attributes record them.
    Each ``iter()`` call re-opens the file, so a reader supports
    multiple passes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as handle:
            self.chunk_records, self.declared_records = _read_header(
                handle, self.path
            )
        self.truncated = False
        self.lost_records = 0
        self.records_read = 0

    def __iter__(self):
        self.truncated = False
        self.lost_records = 0
        self.records_read = 0
        with open(self.path, "rb") as handle:
            handle.seek(_HEADER.size)
            while True:
                chunk_header = handle.read(_CHUNK_HEADER.size)
                if not chunk_header:
                    break
                if len(chunk_header) < _CHUNK_HEADER.size:
                    self._lose(self._remaining_estimate())
                    return
                count, comp_size = _CHUNK_HEADER.unpack(chunk_header)
                payload = handle.read(comp_size)
                if len(payload) < comp_size:
                    yield from self._salvage(payload, count)
                    return
                raw = zlib.decompress(payload)
                if len(raw) != count * _RECORD.size:
                    raise ValueError(
                        f"{self.path}: corrupt chunk (expected "
                        f"{count} records, payload holds "
                        f"{len(raw) // _RECORD.size})"
                    )
                for fields in _RECORD.iter_unpack(raw):
                    self.records_read += 1
                    yield TraceRecord(*fields)
        if self.declared_records is None:
            warnings.warn(
                f"{self.path}: trace was never finalized (crashed "
                f"writer?); read {self.records_read} records",
                RuntimeWarning,
                stacklevel=2,
            )
        elif self.records_read != self.declared_records:
            self._lose(self.declared_records - self.records_read)

    def _remaining_estimate(self) -> int:
        """Best guess at lost records when the chunk header is torn."""
        if self.declared_records is not None:
            return max(0, self.declared_records - self.records_read)
        return 0

    def _salvage(self, payload: bytes, count: int):
        """Yield whole records recoverable from a torn final chunk."""
        try:
            raw = zlib.decompressobj().decompress(payload)
        except zlib.error:
            raw = b""
        complete = len(raw) // _RECORD.size
        for index in range(complete):
            fields = _RECORD.unpack_from(raw, index * _RECORD.size)
            self.records_read += 1
            yield TraceRecord(*fields)
        self._lose(max(count - complete, 1))

    def _lose(self, lost: int) -> None:
        self.truncated = True
        self.lost_records = max(lost, 0)
        warnings.warn(
            f"{self.path}: truncated trace — salvaged "
            f"{self.records_read} records, lost >= {self.lost_records}",
            RuntimeWarning,
            stacklevel=3,
        )


def trace_info(path: str | Path) -> dict:
    """Summarize a streaming trace by scanning chunk headers only.

    Never decompresses a full chunk, so it is O(chunks) regardless of
    record count; ``first_cycle``/``last_cycle`` come from
    decompressing just the first and last *complete* chunks.
    """
    path = Path(path)
    file_bytes = path.stat().st_size
    chunks = 0
    records = 0
    truncated = False
    first_payload: bytes | None = None
    last_payload: bytes | None = None
    with open(path, "rb") as handle:
        chunk_records, declared = _read_header(handle, path)
        while True:
            chunk_header = handle.read(_CHUNK_HEADER.size)
            if not chunk_header:
                break
            if len(chunk_header) < _CHUNK_HEADER.size:
                truncated = True
                break
            count, comp_size = _CHUNK_HEADER.unpack(chunk_header)
            payload = handle.read(comp_size)
            if len(payload) < comp_size:
                truncated = True
                break
            chunks += 1
            records += count
            if first_payload is None:
                first_payload = payload
            last_payload = payload
    if declared is None:
        truncated = True
    first_cycle = last_cycle = None
    if first_payload is not None:
        first_cycle = _RECORD.unpack_from(
            zlib.decompress(first_payload), 0
        )[0]
    if last_payload is not None:
        raw = zlib.decompress(last_payload)
        last_cycle = _RECORD.unpack_from(raw, len(raw) - _RECORD.size)[0]
    return {
        "path": str(path),
        "version": STREAM_VERSION,
        "file_bytes": file_bytes,
        "chunk_records": chunk_records,
        "declared_records": declared,
        "chunks": chunks,
        "records": records,
        "truncated": truncated,
        "first_cycle": first_cycle,
        "last_cycle": last_cycle,
    }

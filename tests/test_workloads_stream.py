"""Tests for the chunked streaming trace format."""

from __future__ import annotations

import struct

import pytest

from tests.conftest import small_fabric

from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern
from repro.traffic.trace import (
    RecordingSource,
    TraceRecord,
    TraceSource,
    TrafficTrace,
)
from repro.workloads.stream import (
    STREAM_MAGIC,
    StreamingTraceReader,
    StreamingTraceWriter,
    is_stream_trace,
    trace_info,
)


def _records(count: int, start: int = 0) -> list[TraceRecord]:
    return [
        TraceRecord(start + i // 3, i % 16, (i * 7) % 16, 512, 0, i % 4)
        for i in range(count)
    ]


def _write(path, records, chunk_records=8) -> None:
    with StreamingTraceWriter(path, chunk_records) as writer:
        writer.extend(records)


class TestWriterReader:
    def test_roundtrip(self, tmp_path):
        records = _records(100)
        path = tmp_path / "t.ctr"
        _write(path, records)
        reader = StreamingTraceReader(path)
        assert list(reader) == records
        assert reader.records_read == 100
        assert not reader.truncated
        assert reader.declared_records == 100

    def test_chunk_boundaries(self, tmp_path):
        # Exactly at, one under, and one over a chunk boundary.
        for count in (7, 8, 9, 16, 17):
            path = tmp_path / f"t{count}.ctr"
            _write(path, _records(count), chunk_records=8)
            assert list(StreamingTraceReader(path)) == _records(count)

    def test_multiple_passes(self, tmp_path):
        path = tmp_path / "t.ctr"
        _write(path, _records(20))
        reader = StreamingTraceReader(path)
        assert list(reader) == list(reader)
        assert reader.records_read == 20

    def test_writer_enforces_cycle_order(self, tmp_path):
        writer = StreamingTraceWriter(tmp_path / "t.ctr", 8)
        writer.append(TraceRecord(5, 0, 1, 72, 0))
        with pytest.raises(ValueError, match="cycle order"):
            writer.append(TraceRecord(4, 0, 1, 72, 0))
        writer.close()

    def test_writer_validates_field_widths(self, tmp_path):
        writer = StreamingTraceWriter(tmp_path / "t.ctr", 8)
        with pytest.raises(ValueError, match="16 bits"):
            writer.append(TraceRecord(0, 1 << 16, 1, 72, 0))
        with pytest.raises(ValueError, match="size_bits"):
            writer.append(TraceRecord(0, 0, 1, -8, 0))
        writer.close()

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = StreamingTraceWriter(tmp_path / "t.ctr", 8)
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append(TraceRecord(0, 0, 1, 72, 0))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ctr"
        path.write_bytes(b"NOTATRACE" + b"\0" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            StreamingTraceReader(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.ctr"
        header = struct.Struct("<8sHHIQ")
        path.write_bytes(header.pack(STREAM_MAGIC, 99, 0, 8, 0))
        with pytest.raises(ValueError, match="version 99"):
            StreamingTraceReader(path)

    def test_is_stream_trace_sniff(self, tmp_path):
        binary = tmp_path / "t.ctr"
        _write(binary, _records(3))
        text = tmp_path / "t.txt"
        TrafficTrace(_records(3)).save(text)
        assert is_stream_trace(binary)
        assert not is_stream_trace(text)
        assert not is_stream_trace(tmp_path / "missing.ctr")


class TestTruncation:
    def test_torn_payload_salvages_whole_records(self, tmp_path):
        path = tmp_path / "t.ctr"
        _write(path, _records(24), chunk_records=8)
        data = path.read_bytes()
        # Tear the last chunk's payload in half.
        path.write_bytes(data[: len(data) - 20])
        reader = StreamingTraceReader(path)
        with pytest.warns(RuntimeWarning, match="truncated trace"):
            salvaged = list(reader)
        assert reader.truncated
        assert reader.lost_records >= 1
        # Everything salvaged is a prefix of the original records.
        assert salvaged == _records(24)[: len(salvaged)]
        assert len(salvaged) + reader.lost_records >= 24

    def test_torn_chunk_header(self, tmp_path):
        path = tmp_path / "t.ctr"
        _write(path, _records(16), chunk_records=8)
        data = path.read_bytes()
        # Leave only 2 bytes of the second chunk's 8-byte header.
        # Walk: header(24) + chunk header(8) + first payload.
        comp_size = struct.unpack_from("<II", data, 24)[1]
        cut = 24 + 8 + comp_size + 2
        path.write_bytes(data[:cut])
        reader = StreamingTraceReader(path)
        with pytest.warns(RuntimeWarning, match="truncated trace"):
            salvaged = list(reader)
        assert salvaged == _records(16)[:8]
        assert reader.truncated
        assert reader.lost_records == 8

    def test_unfinalized_writer_warns(self, tmp_path):
        path = tmp_path / "t.ctr"
        writer = StreamingTraceWriter(path, 4)
        writer.extend(_records(8))
        writer._file.flush()  # full chunks are on disk, header is not
        try:
            reader = StreamingTraceReader(path)
            with pytest.warns(RuntimeWarning, match="never finalized"):
                salvaged = list(reader)
            assert salvaged == _records(8)
        finally:
            writer.close()

    def test_info_reports_truncation(self, tmp_path):
        path = tmp_path / "t.ctr"
        _write(path, _records(24), chunk_records=8)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        info = trace_info(path)
        assert info["truncated"]
        assert info["chunks"] == 2
        assert info["records"] == 16


class TestTraceInfo:
    def test_info_counts_without_decompressing_all(self, tmp_path):
        records = _records(100, start=5)
        path = tmp_path / "t.ctr"
        _write(path, records, chunk_records=16)
        info = trace_info(path)
        assert info["records"] == 100
        assert info["declared_records"] == 100
        assert info["chunks"] == 7
        assert info["chunk_records"] == 16
        assert not info["truncated"]
        assert info["first_cycle"] == records[0].cycle
        assert info["last_cycle"] == records[-1].cycle


class TestStreamingReplay:
    def _record_run(self, tmp_path, cycles=60):
        fabric = small_fabric(seed=4)
        inner = SyntheticTrafficSource(
            fabric, make_pattern("uniform", fabric.mesh), 0.2, seed=4
        )
        path = tmp_path / "run.ctr"
        with StreamingTraceWriter(path, 16) as writer:
            recorder = RecordingSource(fabric, inner, writer)
            for cycle in range(cycles):
                recorder.step(cycle)
                fabric.step()
        return fabric, path

    def test_streaming_replay_matches_text_replay(self, tmp_path):
        fabric_a, path = self._record_run(tmp_path)
        records = list(StreamingTraceReader(path))
        assert len(records) == fabric_a.stats.packets_offered

        # Replay from the streaming reader...
        fabric_b = small_fabric(seed=999)
        replay = TraceSource(fabric_b, StreamingTraceReader(path))
        for cycle in range(60):
            replay.step(cycle)
            fabric_b.step()
        assert replay.exhausted
        assert replay.packets_generated == len(records)
        # ... and from an in-memory trace: same traffic.
        fabric_c = small_fabric(seed=999)
        text_replay = TraceSource(fabric_c, TrafficTrace(records))
        for cycle in range(60):
            text_replay.step(cycle)
            fabric_c.step()
        assert (
            fabric_b.stats.packets_offered
            == fabric_c.stats.packets_offered
            == fabric_a.stats.packets_offered
        )

    def test_streaming_source_skip_horizon(self, tmp_path):
        from repro.noc.backend import NEVER

        fabric = small_fabric()
        path = tmp_path / "t.ctr"
        _write(path, [TraceRecord(10, 0, 1, 72, 0)])
        source = TraceSource(fabric, StreamingTraceReader(path))
        assert source.next_offer_cycle(0) == 10
        assert source.next_offer_cycle(11) == 11
        source.step(10)
        assert source.exhausted
        assert source.next_offer_cycle(11) == NEVER

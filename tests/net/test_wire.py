"""Unit tests for the binary wire codec primitives."""

import pytest

from repro.errors import WireFormatError
from repro.net.wire import CodecRegistry, Reader, Writer


class TestWriterReader:
    def test_fixed_width_roundtrip(self):
        writer = Writer()
        writer.u8(7).u16(300).u32(70000).u64(2**40).f64(1.5).boolean(True)
        reader = Reader(writer.getvalue())
        assert reader.u8() == 7
        assert reader.u16() == 300
        assert reader.u32() == 70000
        assert reader.u64() == 2**40
        assert reader.f64() == 1.5
        assert reader.boolean() is True
        reader.expect_end()

    def test_bytes_field_roundtrip(self):
        writer = Writer()
        writer.bytes_field(b"hello")
        reader = Reader(writer.getvalue())
        assert reader.bytes_field() == b"hello"

    def test_empty_bytes_field(self):
        writer = Writer()
        writer.bytes_field(b"")
        assert Reader(writer.getvalue()).bytes_field() == b""

    def test_u32_list_roundtrip(self):
        writer = Writer()
        writer.u32_list([1, 2, 3])
        assert Reader(writer.getvalue()).u32_list() == [1, 2, 3]

    def test_truncated_read_raises(self):
        reader = Reader(b"\x01")
        with pytest.raises(WireFormatError):
            reader.u32()

    def test_truncation_names_offset_and_shortfall(self):
        # The text is part of the contract (operators grep for it), and
        # a refused read consumes nothing.
        reader = Reader(b"\x01\x02\x03")
        reader.u8()
        with pytest.raises(
            WireFormatError,
            match=r"^truncated message: wanted 4 bytes at offset 1, have 2$",
        ):
            reader.u32()
        assert reader.u16() == 0x0203
        with pytest.raises(
            WireFormatError,
            match=r"^truncated message: wanted 5 bytes at offset 2, have 2$",
        ):
            Reader(b"\x00\x05ab").bytes_field()

    def test_trailing_bytes_detected(self):
        reader = Reader(b"\x01\x02")
        reader.u8()
        with pytest.raises(WireFormatError):
            reader.expect_end()

    def test_writer_len_tracks_bytes(self):
        writer = Writer()
        writer.u32(1)
        writer.u8(2)
        assert len(writer) == 5

    def test_network_byte_order(self):
        writer = Writer()
        writer.u16(0x0102)
        assert writer.getvalue() == b"\x01\x02"

    def test_oversized_bytes_field_rejected(self):
        writer = Writer()
        with pytest.raises(WireFormatError):
            writer.bytes_field(b"x" * 70000)


class _Ping:
    def __init__(self, value):
        self.value = value

    def encode_fields(self, writer):
        writer.u32(self.value)

    @classmethod
    def decode_fields(cls, reader):
        return cls(reader.u32())


class TestCodecRegistry:
    def test_roundtrip(self):
        registry = CodecRegistry()
        registry.register(1, _Ping, _Ping.decode_fields)
        data = registry.encode(_Ping(42))
        decoded = registry.decode(data)
        assert isinstance(decoded, _Ping)
        assert decoded.value == 42

    def test_unknown_tag(self):
        registry = CodecRegistry()
        with pytest.raises(WireFormatError):
            registry.decode(b"\x99")

    def test_unregistered_type(self):
        registry = CodecRegistry()
        with pytest.raises(WireFormatError):
            registry.encode(_Ping(1))

    def test_duplicate_tag_rejected(self):
        registry = CodecRegistry()
        registry.register(1, _Ping, _Ping.decode_fields)

        class Other(_Ping):
            pass

        with pytest.raises(WireFormatError):
            registry.register(1, Other, Other.decode_fields)

    def test_duplicate_type_rejected(self):
        registry = CodecRegistry()
        registry.register(1, _Ping, _Ping.decode_fields)
        with pytest.raises(WireFormatError):
            registry.register(2, _Ping, _Ping.decode_fields)

    def test_trailing_garbage_rejected(self):
        registry = CodecRegistry()
        registry.register(1, _Ping, _Ping.decode_fields)
        data = registry.encode(_Ping(42)) + b"\x00"
        with pytest.raises(WireFormatError):
            registry.decode(data)

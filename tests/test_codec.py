"""Unit tests for the untrusted-byte value/record codec."""

import pytest

from repro.serialization.codec import (
    Preencoded,
    PreencodedIntMap,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    preencoded_list,
    scan_frames,
)
from repro.shardstore.errors import CorruptionError


class TestValueRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**62),
            b"",
            b"\x00\xff" * 100,
            "",
            "unicode ☃ text",
            [],
            [1, b"two", "three", None, False],
            {},
            {"k": 1, b"raw": b"v", 3: [None]},
            {"nested": {"deep": [{"er": True}]}},
        ],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_dict_encoding_is_canonical(self):
        a = encode_value({"x": 1, "y": 2})
        b = encode_value({"y": 2, "x": 1})
        assert a == b

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())
        with pytest.raises(TypeError):
            encode_value(3.14)

    def test_bool_is_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    def test_preencoded_splices_byte_identical(self):
        # The superblock caches its ownership map's encoding; splicing the
        # cached bytes must be indistinguishable from encoding the value.
        ownership = {e: ("data" if e % 2 else "free") for e in range(8)}
        plain = encode_value({"epoch": 3, "ownership": ownership})
        spliced = encode_value(
            {"epoch": 3, "ownership": Preencoded(encode_value(ownership))}
        )
        assert spliced == plain
        assert decode_value(spliced) == {"epoch": 3, "ownership": ownership}

    def test_preencoded_inside_list_and_nested(self):
        inner = Preencoded(encode_value([1, b"two"]))
        assert decode_value(encode_value([inner, 3])) == [[1, b"two"], 3]

    def test_preencoded_list_of_joined_items(self):
        items = [[7, [1, 2, 3]], [9, [4, 5, 6]], b"x", None]
        joined = b"".join(encode_value(item) for item in items)
        spliced = encode_value({"runs": preencoded_list(len(items), joined)})
        assert spliced == encode_value({"runs": items})
        assert encode_value(preencoded_list(0, b"")) == encode_value([])

    def test_int_map_patched_in_place_equals_plain_encoding(self):
        plain = {extent: 0 for extent in (9, 4, 130, 5)}  # any insertion order
        patched = PreencodedIntMap(plain)
        assert encode_value(patched.preencoded) == encode_value(plain)
        for extent, pointer in ((130, 65536), (4, 1), (9, 2**40), (4, 0), (5, -3)):
            plain[extent] = pointer
            patched.set(extent, pointer)
            assert encode_value(patched.preencoded) == encode_value(plain)
        assert encode_value(PreencodedIntMap({}).preencoded) == encode_value({})

    def test_int_map_rejects_what_would_break_the_fixed_layout(self):
        with pytest.raises(TypeError):
            PreencodedIntMap({1: True})
        with pytest.raises(TypeError):
            PreencodedIntMap({"1": 1})
        patched = PreencodedIntMap({1: 0})
        with pytest.raises(ValueError):
            patched.set(1, 2**63)
        with pytest.raises(ValueError):
            patched.set(1, True)
        with pytest.raises(KeyError):
            patched.set(2, 0)


class TestValueCorruption:
    def test_truncated_input(self):
        data = encode_value([1, 2, 3])
        for cut in range(len(data)):
            with pytest.raises(CorruptionError):
                decode_value(data[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(CorruptionError):
            decode_value(encode_value(1) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(CorruptionError):
            decode_value(b"\x63")

    def test_bad_bool(self):
        with pytest.raises(CorruptionError):
            decode_value(bytes([6, 7]))

    def test_invalid_utf8(self):
        raw = bytearray(encode_value("ab"))
        raw[-2:] = b"\xff\xfe"
        with pytest.raises(CorruptionError):
            decode_value(bytes(raw))

    def test_huge_container_length(self):
        import struct

        with pytest.raises(CorruptionError):
            decode_value(b"\x03" + struct.pack("<I", 0xFFFFFFFF))

    def test_deep_nesting_rejected_not_crash(self):
        data = b"\x03\x01\x00\x00\x00" * 64 + encode_value(None)
        with pytest.raises(CorruptionError):
            decode_value(data)

    def test_unhashable_dict_key(self):
        # dict with a list key: tag 4, one entry, key = list
        import struct

        data = b"\x04" + struct.pack("<I", 1) + encode_value([1]) + encode_value(2)
        with pytest.raises(CorruptionError):
            decode_value(data)


class TestRecords:
    def test_roundtrip(self):
        record = encode_record({"epoch": 9}, page_size=128)
        assert len(record) % 128 == 0
        value, consumed = decode_record(record)
        assert value == {"epoch": 9}
        assert consumed <= len(record)

    def test_bad_magic(self):
        record = bytearray(encode_record({"epoch": 1}, 128))
        record[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_record(bytes(record))

    def test_crc_detects_flip(self):
        record = bytearray(encode_record({"epoch": 1}, 128))
        record[20] ^= 0x01
        with pytest.raises(CorruptionError):
            decode_record(bytes(record))

    def test_out_of_bounds_offset(self):
        record = encode_record({"epoch": 1}, 128)
        with pytest.raises(CorruptionError):
            decode_record(record, offset=len(record) - 2)
        with pytest.raises(CorruptionError):
            decode_record(record, offset=-5)


class TestScan:
    def test_scan_multiple_records(self):
        log = b"".join(encode_record({"epoch": i}, 128) for i in range(4))
        frames, end = scan_frames(log, 128)
        assert [decode_value(log[a:b])["epoch"] for a, b in frames] == [0, 1, 2, 3]
        assert end == len(log)

    def test_scan_stops_at_torn_tail(self):
        good = encode_record({"epoch": 0}, 128)
        torn = encode_record({"epoch": 1, "pad": b"x" * 200}, 128)[:128]
        frames, end = scan_frames(good + torn, 128)
        assert len(frames) == 1
        assert end == len(good)

    def test_scan_of_garbage_is_empty(self):
        frames, end = scan_frames(b"\xde\xad\xbe\xef" * 64, 128)
        assert frames == []
        assert end == 0

    def test_scan_page_alignment(self):
        record = encode_record({"epoch": 0, "big": b"z" * 300}, 128)
        assert len(record) % 128 == 0
        frames, _ = scan_frames(record + encode_record({"epoch": 1}, 128), 128)
        assert len(frames) == 2

    def test_scan_checks_frames_not_payloads(self):
        """A CRC-valid frame around an undecodable payload is still a frame:
        it does not end the log (recovery skips it as "not a state")."""
        import struct
        import zlib

        payload = b"\xff not a value encoding"
        header = struct.pack("<4sII", b"SSRC", len(payload), zlib.crc32(payload))
        odd = (header + payload).ljust(128, b"\0")
        log = encode_record({"epoch": 0}, 128) + odd + encode_record({"epoch": 2}, 128)
        frames, end = scan_frames(log, 128)
        assert len(frames) == 3 and end == len(log)
        with pytest.raises(CorruptionError):
            decode_value(log[slice(*frames[1])])
        assert decode_value(log[slice(*frames[2])]) == {"epoch": 2}

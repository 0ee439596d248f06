"""Serialization: untrusted-byte codecs and the panic-freedom harness."""

from .codec import (
    RECORD_MAGIC,
    Preencoded,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    scan_frames,
)

__all__ = [
    "RECORD_MAGIC",
    "Preencoded",
    "decode_record",
    "decode_value",
    "encode_record",
    "encode_value",
    "scan_frames",
]

"""The one binary container of the index and model files.

Layout: a magic string, then little-endian u32 format version, header length
and zlib.crc32 of everything after the crc; a JSON header (the caller's
fields, plus an ``arrays`` table giving each array's dtype, byte offset from
the end of the header and length), padded with spaces to 8 bytes; then the
arrays in table order, little-endian, each zero-padded to 8 bytes. Writing is
byte-deterministic. Reading checks every part of the layout and returns the
arrays as read-only views of the file's bytes.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

_LAYOUT = struct.Struct("<III")


def write(path: str, magic: bytes, version: int, fields: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write fields (JSON-serialisable, without an ``arrays`` key) and the
    arrays, in the dict's order, to one file."""
    chunks = []
    table = {}
    offset = 0
    for name, array in arrays.items():
        dtype = array.dtype.newbyteorder("<")
        data = np.ascontiguousarray(array, dtype=dtype).tobytes()
        table[name] = {"dtype": dtype.str, "offset": offset, "length": array.size}
        data += bytes(-len(data) % 8)
        chunks.append(data)
        offset += len(data)
    head = json.dumps({**fields, "arrays": table}, sort_keys=True).encode("utf-8")
    head += b" " * (-(len(magic) + _LAYOUT.size + len(head)) % 8)
    crc = zlib.crc32(head)
    for data in chunks:
        crc = zlib.crc32(data, crc)
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(_LAYOUT.pack(version, len(head), crc))
        handle.write(head)
        for data in chunks:
            handle.write(data)


def read(
    path: str,
    magic: bytes,
    version: int,
    dtypes: dict[str, str],
    errors: tuple[type[Exception], type[Exception], type[Exception]],
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by :func:`write`: the header fields, and one
    read-only 1-D view per name of dtypes, which must be exactly the file's
    arrays, in file order, with those dtypes.

    errors is (file error, version error, corrupt error): the first is raised
    when the file cannot be read, the second for another format version, and
    the third for anything else that does not check out.
    """
    file_error, version_error, corrupt_error = errors
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise file_error(f"cannot read {path!r}: {exc}") from exc
    if len(data) < len(magic) + 4 or data[: len(magic)] != magic:
        raise corrupt_error(f"{path!r} is not a {magic.decode()} file")
    (found,) = struct.unpack_from("<I", data, len(magic))
    if found != version:
        raise version_error(f"{path!r} has format version {found}, this build reads version {version}")
    start = len(magic) + _LAYOUT.size
    if len(data) < start:
        raise corrupt_error(f"{path!r} is truncated")
    _, header_len, crc = _LAYOUT.unpack_from(data, len(magic))
    if zlib.crc32(memoryview(data)[start:]) != crc:
        raise corrupt_error(f"{path!r} fails its checksum")
    try:
        fields = json.loads(data[start : start + header_len].decode("utf-8"))
        table = fields.pop("arrays")
        start += header_len
        if start % 8:
            raise ValueError("header is not padded to 8 bytes")
        if set(table) != set(dtypes):
            raise ValueError("array table does not list the expected arrays")
        arrays = {}
        end = start
        for name, dtype in dtypes.items():
            spec = table[name]
            offset, length = spec["offset"], spec["length"]
            if spec["dtype"] != dtype or type(offset) is not int or type(length) is not int:
                raise ValueError(f"array {name} is misdescribed")
            size = length * np.dtype(dtype).itemsize
            if offset != end - start or not 0 <= size <= len(data) - end:
                raise ValueError(f"array {name} is out of place")
            arrays[name] = np.frombuffer(data, dtype=dtype, count=length, offset=end)
            end += size + (-size % 8)
        if end != len(data):
            raise ValueError(f"payload holds {len(data)} bytes, the arrays {end}")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise corrupt_error(f"{path!r} is corrupt: {exc}") from exc
    return fields, arrays

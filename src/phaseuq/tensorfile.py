"""Binary tensor container and 16-bit PGM export.

Single-record layout, all little-endian:

    magic   4 bytes  "PUQT"
    version u8       1
    dtype   u8       1 = float32, 2 = float64
    rank    u8
    dims    rank x u32
    payload product(dims) x itemsize bytes, row-major
    meta    optional: u32 byte length + UTF-8 text

The trailing metadata block is present only when nonempty text was
supplied at write time. A file may hold several records back to back
(parameter checkpoints do); in that case every record carries metadata
whose first line is the record name, optionally followed by free text.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, NonFiniteInput

MAGIC = b"PUQT"
VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_OF = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def _encode(array: np.ndarray, metadata: str) -> bytes:
    array = np.asarray(array)
    if array.dtype not in _CODE_OF:
        raise FormatError(f"unsupported dtype {array.dtype}, use float32 or float64")
    if not np.isfinite(array).all():
        raise NonFiniteInput("tensor payload contains non-finite values")
    if array.ndim < 1 or array.ndim > 255:
        raise FormatError(f"rank {array.ndim} outside the u8 range [1, 255]")
    if any(d > 0xFFFFFFFF or d < 1 for d in array.shape):
        raise FormatError(f"dims {array.shape} do not fit u32 or are empty")
    code = _CODE_OF[array.dtype]
    blob = MAGIC + struct.pack("<BBB", VERSION, code, array.ndim)
    blob += struct.pack(f"<{array.ndim}I", *array.shape)
    blob += np.ascontiguousarray(array, dtype=_DTYPE_CODES[code]).tobytes()
    if metadata:
        enc = metadata.encode("utf-8")
        blob += struct.pack("<I", len(enc)) + enc
    return blob


def _decode(blob: bytes, offset: int, path) -> tuple[np.ndarray, str, int]:
    if len(blob) < offset + 7 or blob[offset : offset + 4] != MAGIC:
        raise FormatError(f"{path}: not a PUQT tensor record at byte {offset}")
    version, code, rank = struct.unpack_from("<BBB", blob, offset + 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if code not in _DTYPE_CODES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    if rank < 1:
        raise FormatError(f"{path}: rank {rank} record, rank must be >= 1")
    offset += 7
    if len(blob) < offset + 4 * rank:
        raise FormatError(f"{path}: truncated dimension header")
    dims = struct.unpack_from(f"<{rank}I", blob, offset)
    offset += 4 * rank
    dtype = _DTYPE_CODES[code]
    n_items = int(np.prod(dims))
    n_bytes = n_items * dtype.itemsize
    if len(blob) < offset + n_bytes:
        raise FormatError(
            f"{path}: payload holds {len(blob) - offset} bytes, need {n_bytes}"
        )
    array = np.frombuffer(blob, dtype=dtype, count=n_items, offset=offset)
    if not np.isfinite(array).all():
        raise NonFiniteInput(f"{path}: tensor payload contains non-finite values")
    array = array.reshape(dims).copy()
    offset += n_bytes
    metadata = ""
    # remaining bytes are either the next record (magic) or metadata
    if len(blob) > offset and blob[offset : offset + 4] != MAGIC:
        if len(blob) < offset + 4:
            raise FormatError(f"{path}: truncated metadata length")
        (m_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if len(blob) < offset + m_len:
            raise FormatError(
                f"{path}: metadata block holds {len(blob) - offset} bytes, header says {m_len}"
            )
        try:
            metadata = blob[offset : offset + m_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: metadata is not valid UTF-8 ({exc.reason})") from None
        offset += m_len
    return array, metadata, offset


def write_tensor(path, array: np.ndarray, metadata: str = "") -> None:
    """Serialize one float32/float64 array; row-major, little-endian."""
    with open(path, "wb") as fh:
        fh.write(_encode(array, metadata))


def read_tensor(path) -> tuple[np.ndarray, str]:
    """Read a single-record file; returns (array, metadata text or "")."""
    with open(path, "rb") as fh:
        blob = fh.read()
    array, metadata, offset = _decode(blob, 0, path)
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after record")
    return array, metadata


def write_records(path, records) -> None:
    """Write named records: an iterable of (name, array, text).

    The record name goes on the first metadata line; nonempty text
    follows on later lines. Names must be nonempty and single-line.
    """
    blob = b""
    for name, array, text in records:
        if not name or "\n" in name:
            raise FormatError(f"record name {name!r} must be nonempty, single line")
        metadata = f"{name}\n{text}" if text else name
        blob += _encode(array, metadata)
    if not blob:
        raise FormatError("no records to write")
    with open(path, "wb") as fh:
        fh.write(blob)


def read_records(path) -> list[tuple[str, np.ndarray, str]]:
    """Read back (name, array, text) records written by write_records."""
    with open(path, "rb") as fh:
        blob = fh.read()
    out = []
    offset = 0
    while offset < len(blob):
        array, metadata, offset = _decode(blob, offset, path)
        if not metadata:
            raise FormatError(f"{path}: record {len(out)} has no name")
        name, _, text = metadata.partition("\n")
        out.append((name, array, text))
    return out


def write_pgm16(path, array: np.ndarray) -> None:
    """Min-max scaled 16-bit PGM of a 2D array; scale kept in a comment."""
    array = np.asarray(array, dtype=float)
    if array.ndim != 2:
        raise FormatError(f"PGM export needs a 2D array, got rank {array.ndim}")
    if not np.all(np.isfinite(array)):
        raise NonFiniteInput("PGM export needs finite values")
    lo = float(array.min())
    hi = float(array.max())
    span = hi - lo
    if span > 0.0:
        scaled = np.round((array - lo) / span * 65535.0).astype(">u2")
    else:
        scaled = np.zeros(array.shape, dtype=">u2")
    header = (
        f"P5\n# lo={lo:.17g} hi={hi:.17g}\n{array.shape[1]} {array.shape[0]}\n65535\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(scaled.tobytes())

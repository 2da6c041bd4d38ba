"""Binary scalar-field files for bit-exact worst-case replay.

Layout: a 32-byte header (magic ``VLPF``, version u16, dimension u16,
topology u8, zero padding), one ``<u32 resolution, f64 extent, f64 origin>``
record per axis, then the samples as row-major little-endian f64.  The
per-axis origin makes shifted boxes round-trip exactly.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from ..exponents import ExponentField
from ..fields import PERIODIC, TRUNCATED, GridSpec, ScalarField

MAGIC = b"VLPF"
VERSION = 1
_HEADER = struct.Struct("<4sHHB23x")
_AXIS = struct.Struct("<Idd")
_TOPOLOGY_CODE = {TRUNCATED: 0, PERIODIC: 1}
_TOPOLOGY_NAME = {0: TRUNCATED, 1: PERIODIC}


class FieldFileError(ValueError):
    """The bytes do not form a well-formed field file."""


def _encode(values: np.ndarray, grid: GridSpec) -> bytes:
    parts = [_HEADER.pack(MAGIC, VERSION, grid.dimension,
                          _TOPOLOGY_CODE[grid.topology])]
    for axis in range(grid.dimension):
        parts.append(_AXIS.pack(grid.resolution[axis], grid.extents[axis],
                                grid.origin[axis]))
    parts.append(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return b"".join(parts)


def _decode(blob: bytes, path: str) -> tuple[np.ndarray, GridSpec]:
    if len(blob) < _HEADER.size:
        raise FieldFileError(f"{path}: truncated header")
    magic, version, dimension, topo_code = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FieldFileError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FieldFileError(f"{path}: unsupported version {version}")
    if topo_code not in _TOPOLOGY_NAME:
        raise FieldFileError(f"{path}: unknown topology code {topo_code}")
    offset = _HEADER.size
    resolution, extents, origin = [], [], []
    for _ in range(dimension):
        if len(blob) < offset + _AXIS.size:
            raise FieldFileError(f"{path}: truncated axis table")
        res, ext, org = _AXIS.unpack_from(blob, offset)
        resolution.append(res)
        extents.append(ext)
        origin.append(org)
        offset += _AXIS.size
    try:
        grid = GridSpec(dimension, tuple(extents), tuple(resolution),
                        _TOPOLOGY_NAME[topo_code], tuple(origin))
    except ValueError as exc:
        raise FieldFileError(f"{path}: {exc}") from exc
    count = math.prod(grid.shape)
    payload = blob[offset:]
    if len(payload) != 8 * count:
        raise FieldFileError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * count}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
    return values, grid


def write_field(field: ScalarField, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_encode(field.values, field.grid))


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        blob = fh.read()
    values, grid = _decode(blob, str(path))
    return ScalarField(values, grid)


def write_exponent(p: ExponentField, path) -> None:
    """Store the samples and grid only; ``p_infinity`` does not survive the
    trip, so :func:`read_exponent` takes it again."""
    with open(path, "wb") as fh:
        fh.write(_encode(p.samples, p.grid))


def read_exponent(path, p_infinity: float | None = None) -> ExponentField:
    with open(path, "rb") as fh:
        blob = fh.read()
    values, grid = _decode(blob, str(path))
    return ExponentField(values, grid, p_infinity)

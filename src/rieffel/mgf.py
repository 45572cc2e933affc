"""Binary grid format MGF1 for module functions.

Layout: magic bytes "MGF1"; little-endian u32 fields n, N, k; f64 L; then
N^n * k^2 complex values as (re, im) f64 pairs, row-major over the grid with
matrix entries innermost row-major.  That payload is exactly the bytes of a
C-ordered little-endian complex128 (`<c16`) array, so both directions move it
as one: no (re, im) temporaries.  Reads validate the magic, dimensions,
payload length, and finiteness before any object is constructed.
"""
from __future__ import annotations

import os
import struct

import numpy as np

from .errors import MGFFormatError
from .grids import GridSpec
from .module_space import ModuleFunction

MAGIC = b"MGF1"
_HEADER = struct.Struct("<4sIIId")

MAX_POINTS = 1 << 16
MAX_DIM = 1 << 10


def write_mgf(path, f: ModuleFunction) -> None:
    g = f.grid
    k = f.algebra_dim
    payload = np.ascontiguousarray(f.samples, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, g.n, g.points, k, g.half_width))
        fh.write(payload.data)


def read_mgf(path) -> ModuleFunction:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise MGFFormatError("truncated header")
        magic, n, npts, k, half_width = _HEADER.unpack(head)
        if magic != MAGIC:
            raise MGFFormatError(f"bad magic {magic!r}")
        if not (1 <= n <= 2):
            raise MGFFormatError(f"unsupported dimension n={n}")
        if npts < 8 or npts % 2 or npts > MAX_POINTS:
            raise MGFFormatError(f"invalid point count N={npts}")
        if not (1 <= k <= MAX_DIM):
            raise MGFFormatError(f"invalid algebra dimension k={k}")
        if not np.isfinite(half_width) or half_width <= 0:
            raise MGFFormatError(f"invalid half width L={half_width}")
        count = (npts ** n) * k * k * 2
        # checked before reading: the header may claim more than the file holds
        if os.fstat(fh.fileno()).st_size < _HEADER.size + count * 8:
            raise MGFFormatError("truncated payload")
        # a bytearray, so the samples viewing it are writable
        raw = bytearray(count * 8)
        if fh.readinto(raw) < count * 8:
            raise MGFFormatError("truncated payload")
        if fh.read(1):
            raise MGFFormatError("trailing bytes after payload")
    if not np.all(np.isfinite(np.frombuffer(raw, dtype="<f8"))):
        raise MGFFormatError("payload contains NaN or Inf")
    samples = np.frombuffer(raw, dtype="<c16").reshape((npts,) * n + (k, k))
    return ModuleFunction(GridSpec(n, npts, float(half_width)), samples)

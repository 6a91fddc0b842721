"""Binary tensor files: a 4-byte magic, u32 LE rank, u32 LE extents, then the
row-major data: "NFT1" stores little-endian f32, "NFT8" little-endian f8.

float64 arrays are written as NFT8 and every other array as NFT1, so a
float64 tensor round-trips exactly; ``decode_tensor`` returns the stored
dtype.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["MAGIC", "MAGIC_F8", "write_flat", "read_tensor", "decode_tensor"]

MAGIC = b"NFT1"
MAGIC_F8 = b"NFT8"
_STORED = {MAGIC: np.dtype("<f4"), MAGIC_F8: np.dtype("<f8")}


def decode_tensor(blob: bytes) -> np.ndarray:
    stored = _STORED.get(bytes(blob[:4]))
    if stored is None:
        raise ValueError(f"bad magic {blob[:4]!r} at byte 0, expected {MAGIC!r} or {MAGIC_F8!r}")
    if len(blob) < 8:
        raise ValueError("truncated header: missing rank at byte 4")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if rank == 0 or rank > 8:
        raise ValueError(f"unreasonable rank {rank} at byte 4")
    need = 8 + 4 * rank
    if len(blob) < need:
        raise ValueError(f"truncated header: missing extents at byte {len(blob)}")
    shape = struct.unpack_from(f"<{rank}I", blob, 8)
    if any(s == 0 for s in shape):
        raise ValueError(f"zero extent in shape {shape}")
    count = int(np.prod(shape))
    if len(blob) != need + stored.itemsize * count:
        raise ValueError(f"payload length mismatch at byte {need}: have {len(blob) - need} bytes, "
                         f"need {stored.itemsize * count}")
    data = np.frombuffer(blob, dtype=stored, offset=need, count=count)
    return data.reshape(shape).astype(stored.newbyteorder("="))


def write_flat(path: str | Path, arrays: Sequence[np.ndarray]) -> None:
    """Write the arrays' elements, in order, as one rank-1 tensor.

    The arrays share one dtype and are streamed one at a time, so no joined
    copy of them is built.
    """
    dtypes, size = {a.dtype for a in arrays}, sum(a.size for a in arrays)
    if len(dtypes) != 1 or size == 0:
        raise ValueError(f"write_flat needs a value and arrays of one dtype, got {size} values "
                         f"of {sorted(map(str, dtypes))}")
    magic = MAGIC_F8 if dtypes.pop() == np.float64 else MAGIC
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<II", 1, size))
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype=_STORED[magic]).data)


def read_tensor(path: str | Path) -> np.ndarray:
    return decode_tensor(Path(path).read_bytes())

"""Binary PPM (P6) images and PGM (P5) masks, maxval 255, strict parsing.

Images are float arrays in [0,1], quantized to 8 bits on write
(``quantize8``) and decoded as value / 255 on read (``decode8``); masks
store class indices directly. Malformed input is rejected with the byte
offset of the violation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_ppm", "read_ppm8", "write_pgm", "read_pgm", "quantize8",
           "decode8"]


def quantize8(image: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)


def decode8(values: np.ndarray, dtype=np.float64) -> np.ndarray:
    """8-bit values -> a new ``dtype`` array of value / 255, in [0,1].

    The quotient is rounded once, in ``dtype``. For float32 that equals the
    float64 quotient cast to float32, for all 256 values.
    """
    return np.divide(values, 255.0, dtype=dtype)


def write_ppm(image: np.ndarray) -> bytes:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"write_ppm: expects [H,W,3] in [0,1], got shape {image.shape}")
    h, w = image.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + quantize8(image).tobytes()


def write_pgm(mask: np.ndarray) -> bytes:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"write_pgm: expects [H,W] integer mask, got shape {mask.shape}")
    if mask.min() < 0 or mask.max() > 255:
        raise ValueError(f"write_pgm: values outside [0,255]: {mask.min()}..{mask.max()}")
    h, w = mask.shape
    return b"P5\n%d %d\n255\n" % (w, h) + mask.astype(np.uint8).tobytes()


class _Cursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def fail(self, msg: str):
        raise ValueError(f"{msg} at byte {self.pos}")

    def skip_space(self, require: bool = True):
        # whitespace runs may contain '#' comments ending at newline
        start = self.pos
        while self.pos < len(self.blob):
            c = self.blob[self.pos : self.pos + 1]
            if c in b" \t\r\n":
                self.pos += 1
            elif c == b"#":
                nl = self.blob.find(b"\n", self.pos)
                if nl < 0:
                    self.fail("unterminated comment")
                self.pos = nl + 1
            else:
                break
        if require and self.pos == start:
            self.fail("expected whitespace")

    def read_int(self, what: str) -> int:
        start = self.pos
        while self.pos < len(self.blob) and self.blob[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(f"expected {what}")
        return int(self.blob[start : self.pos])


def _read_netpbm(blob: bytes, magic: bytes, channels: int) -> np.ndarray:
    cur = _Cursor(blob)
    if blob[:2] != magic:
        cur.fail(f"bad magic {blob[:2]!r}, expected {magic!r}")
    cur.pos = 2
    cur.skip_space()
    w = cur.read_int("width")
    cur.skip_space()
    h = cur.read_int("height")
    cur.skip_space()
    maxval = cur.read_int("maxval")
    if w < 1 or h < 1:
        cur.fail(f"extents must be positive, got {w}x{h}")
    if maxval != 255:
        cur.fail(f"maxval must be 255, got {maxval}")
    # exactly one whitespace byte separates the header from the payload
    if cur.pos >= len(blob) or blob[cur.pos : cur.pos + 1] not in b" \t\r\n":
        cur.fail("expected single whitespace before payload")
    cur.pos += 1
    need = w * h * channels
    have = len(blob) - cur.pos
    if have != need:
        cur.fail(f"payload length mismatch: have {have} bytes, need {need}")
    data = np.frombuffer(blob, dtype=np.uint8, offset=cur.pos, count=need)
    shape = (h, w, channels) if channels == 3 else (h, w)
    return data.reshape(shape).copy()


def read_ppm8(blob: bytes) -> np.ndarray:
    """P6 bytes -> the file's 8-bit values [H,W,3], uint8."""
    return _read_netpbm(blob, b"P6", 3)


def read_pgm(blob: bytes) -> np.ndarray:
    """P5 bytes -> integer mask [H,W]."""
    return _read_netpbm(blob, b"P5", 1).astype(np.int64)

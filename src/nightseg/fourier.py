"""2-D discrete Fourier transforms of real planes, any extents.

A real [H, W] plane has a Hermitian spectrum, Z[-u, -v] = conj(Z[u, v]),
so its columns 0..W//2 hold all of it. ``rfft2d`` returns that half
spectrum, [H, W//2+1]; ``irfft2d`` takes a half spectrum and the plane's
full shape back to the real plane. The forward transform is unnormalized
(plain double sum); the inverse carries the 1/(H*W) factor, so
``irfft2d(rfft2d(x), x.shape)`` reproduces ``x``. Both are numpy's FFT.

``dft2d_bruteforce`` and ``idft2d_bruteforce`` evaluate the defining sums
bin by bin over the full plane and serve as the independent verification
oracle; the half spectrum is their first W//2+1 columns. Both return
complex128 arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rfft2d", "irfft2d", "dft2d_bruteforce", "idft2d_bruteforce"]


def _as_plane(x, dtype) -> np.ndarray:
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D plane, got shape {arr.shape}")
    return arr


def rfft2d(x) -> np.ndarray:
    """Unnormalized 2-D DFT of a real [H, W] plane: columns 0..W//2, [H, W//2+1]."""
    return np.fft.rfft2(_as_plane(x, np.float64))


def irfft2d(z, shape: tuple[int, int]) -> np.ndarray:
    """The real plane of extents ``shape`` whose half spectrum is ``z``.

    Carries the 1/(H*W) factor. The full shape is needed because W and
    W+1 have the same half-spectrum width when W is even.
    """
    z = _as_plane(z, np.complex128)
    h, w = shape
    if z.shape != (h, w // 2 + 1):
        raise ValueError(f"irfft2d: a {h}x{w} plane has a half spectrum of shape "
                         f"{(h, w // 2 + 1)}, got {z.shape}")
    return np.fft.irfft2(z, s=(h, w))


def dft2d_bruteforce(x) -> np.ndarray:
    """Literal double-sum DFT, evaluated bin by bin."""
    arr = _as_plane(x, np.float64)
    h, w = arr.shape
    ii = np.arange(h)[:, None] / h
    jj = np.arange(w)[None, :] / w
    out = np.empty((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            ang = -2.0 * np.pi * (u * ii + v * jj)
            out[u, v] = np.sum(arr * np.exp(1j * ang))
    return out


def idft2d_bruteforce(z) -> np.ndarray:
    """Literal double-sum inverse DFT with the 1/(H*W) factor."""
    z = _as_plane(z, np.complex128)
    h, w = z.shape
    ii = np.arange(h)[:, None] / h
    jj = np.arange(w)[None, :] / w
    out = np.empty((h, w), dtype=np.complex128)
    for a in range(h):
        for b in range(w):
            ang = 2.0 * np.pi * (a * ii + b * jj)
            out[a, b] = np.sum(z * np.exp(1j * ang))
    return out / (h * w)

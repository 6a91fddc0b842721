"""2-D discrete Fourier transforms of real planes, any extents.

The forward transform is unnormalized (plain double sum); the inverse
carries the 1/(H*W) factor, so ``ifft2d(fft2d(x))`` reproduces ``x``.
``fft2d``/``ifft2d`` are numpy's FFT; ``dft2d_bruteforce`` and
``idft2d_bruteforce`` evaluate the defining sums bin by bin and serve as
the independent verification oracle. All four return complex128 arrays.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["fft2d", "ifft2d", "dft2d_bruteforce", "idft2d_bruteforce"]


def _as_plane(x, dtype) -> np.ndarray:
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D plane, got shape {arr.shape}")
    return arr.astype(dtype)


def fft2d(x) -> np.ndarray:
    """Unnormalized 2-D DFT of a real plane."""
    return np.fft.fft2(_as_plane(x, np.float64))


def ifft2d(z) -> np.ndarray:
    """Inverse 2-D DFT; carries the 1/(H*W) factor."""
    return np.fft.ifft2(_as_plane(z, np.complex128))


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

"""Fourier phase texture extraction and the lightweight phase encoder.

A plane's spectrum is split into amplitude and unit phasor z/|z|; forcing
the amplitude to a constant and inverting the transform yields a texture
map that keeps structure while discarding intensity statistics. Under
low-light inputs this makes faint texture visible to the downstream
encoder. A real plane's spectrum is Hermitian, so all of this runs on the
half spectrum (columns 0..W//2), and no angle is ever formed. A Sobel
gradient-magnitude map is provided as the baseline enhancing operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import irfft2d, rfft2d
from .layers import Conv2dLayer, Module, Pyramid
from .tensor import Tensor, relu

__all__ = [
    "Spectrum",
    "fourier_decompose",
    "choose_c_a",
    "phase_reconstruct",
    "sobel_texture_map",
    "minmax_normalize",
    "image_texture_stack",
    "PhaseEncoder",
]


@dataclass
class Spectrum:
    """Half spectrum of a real plane of extents ``shape``, columns 0..W//2:
    per-bin modulus and unit phasor z/|z|. Pinned bins have phasor 1."""

    amplitude: np.ndarray   # [H, W//2+1] float64
    phasor: np.ndarray      # [H, W//2+1] complex128
    shape: tuple[int, int]  # the plane's [H, W]
    flat: bool              # every bin but DC pinned: a constant or all-zero plane

    def __post_init__(self):
        h, w = self.shape
        half = (h, w // 2 + 1)
        if self.amplitude.shape != half or self.phasor.shape != half:
            raise ValueError(f"Spectrum: a {h}x{w} plane has half spectra of shape {half}, got "
                             f"amplitude {self.amplitude.shape} and phasor {self.phasor.shape}")


# Bins at most this fraction of the mean amplitude vanish up to rounding
# (float64 transform noise sits orders of magnitude lower at image sizes):
# their phase is noise, so they get phasor 1 (phase 0).
ZERO_BIN_RTOL = 1e-9


def _plane_mean(amp: np.ndarray, w: int) -> float:
    """Mean amplitude over the full [H, W] plane, from its half spectrum.

    Column v with 0 < v < W/2 stands for itself and its mirror W-v, so it
    counts twice; column 0 and, for even W, column W/2 count once.
    """
    col = amp.sum(axis=0)
    return float((col.sum() + col[1:(w + 1) // 2].sum()) / (amp.shape[0] * w))


def fourier_decompose(x: np.ndarray) -> Spectrum:
    """Half spectrum of a real plane as amplitude and unit phasor; bins that
    vanish up to rounding get phasor 1 (all but DC: the plane is flat)."""
    if x.ndim != 2:
        raise ValueError(f"fourier_decompose: expects a single-channel plane, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("fourier_decompose: input contains non-finite values")
    z = rfft2d(x)
    amp = np.abs(z)
    pinned = amp <= ZERO_BIN_RTOL * _plane_mean(amp, x.shape[1])
    phasor = np.divide(z, amp, out=z, where=~pinned)
    phasor[pinned] = 1.0
    return Spectrum(amp, phasor, x.shape, bool(pinned.reshape(-1)[1:].all()))


def choose_c_a(s: Spectrum) -> float:
    """The amplitude constant used for reconstruction: mean over all bins of
    the full plane."""
    return _plane_mean(s.amplitude, s.shape[1])


def phase_reconstruct(s: Spectrum, c_a: float) -> np.ndarray:
    """The real plane whose spectrum has the phases of s and the constant
    amplitude c_a."""
    if not (math.isfinite(c_a) and c_a > 0):
        raise ValueError(f"phase_reconstruct: c_a must be positive and finite, got {c_a}")
    return irfft2d(c_a * s.phasor, s.shape)


def sobel_texture_map(x: np.ndarray) -> np.ndarray:
    """Gradient magnitude sqrt(Gx^2 + Gy^2) with the standard 3x3 pair.

    Edge padding plus the separable (smooth, then difference) form make
    constant inputs map to exactly zero: the differenced values are
    bitwise identical, so they cancel regardless of rounding.
    """
    if x.ndim != 2:
        raise ValueError(f"sobel_texture_map: expects a single-channel plane, got {x.shape}")
    h, w = x.shape
    xp = np.pad(x, 1, mode="edge")
    col_smooth = xp[:-2, :] + 2.0 * xp[1:-1, :] + xp[2:, :]   # (1,2,1) down columns
    row_smooth = xp[:, :-2] + 2.0 * xp[:, 1:-1] + xp[:, 2:]   # (1,2,1) along rows
    gx = col_smooth[:, 2:] - col_smooth[:, :-2]
    gy = row_smooth[2:, :] - row_smooth[:-2, :]
    assert gx.shape == (h, w) and gy.shape == (h, w)
    return np.hypot(gx, gy)


def minmax_normalize(plane: np.ndarray) -> np.ndarray:
    lo, hi = plane.min(), plane.max()
    if hi <= lo:
        return np.zeros_like(plane)
    return (plane - lo) / (hi - lo)


def image_texture_stack(image: np.ndarray, mode: str) -> np.ndarray:
    """Per-channel texture maps of an [H,W,3] image, min-max scaled to [0,1].

    mode "phase": constant-amplitude phase reconstruction per channel, at
    that channel's mean amplitude. The reconstruction is linear in the
    constant and the min-max scaling cancels it, so no other constant would
    change the maps beyond rounding. A flat channel has no phase outside DC:
    its map is all zero, as Sobel's is, not the spike its pinned bins would
    reconstruct. mode "sobel": gradient magnitude per channel.
    """
    if image.ndim != 3:
        raise ValueError(f"image_texture_stack: expects [H,W,C], got {image.shape}")
    chans = []
    for c in range(image.shape[2]):
        plane = image[:, :, c]
        if mode == "phase":
            spectrum = fourier_decompose(plane)
            tex = (np.zeros(plane.shape) if spectrum.flat
                   else phase_reconstruct(spectrum, choose_c_a(spectrum)))
        elif mode == "sobel":
            tex = sobel_texture_map(plane)
        else:
            raise ValueError(f"image_texture_stack: unknown mode {mode!r}")
        chans.append(minmax_normalize(tex))
    return np.stack(chans, axis=2)


class PhaseEncoder(Module):
    """Strided conv encoder for texture maps, tapping stages at 1/4 .. 1/32.

    A stride-2 stem followed by four stride-2 stages; the taps after
    stages 1..4 match the backbone stage extents. Returned coarse to fine.
    """

    def __init__(self, rng: np.random.Generator, in_channels: int,
                 widths: tuple[int, int, int, int], dtype=np.float64):
        self.stem = Conv2dLayer(rng, in_channels, widths[0], 3, 2, 1, dtype)
        w_in = [widths[0], widths[0], widths[1], widths[2]]
        self.stages = [Conv2dLayer(rng, w_in[i], widths[i], 3, 2, 1, dtype) for i in range(4)]

    def __call__(self, texture: Tensor) -> Pyramid:
        h, w = texture.shape[-3:-1]
        if h % 32 or w % 32:
            raise ValueError(f"phase encoder: extents {(h, w)} must be divisible by 32")
        x = relu(self.stem(texture))
        taps = []
        for stage in self.stages:
            x = relu(stage(x))
            taps.append(x)
        return Pyramid(stages=list(reversed(taps)))  # [1/32, 1/16, 1/8, 1/4]

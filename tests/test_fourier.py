"""Transforms: hand-computed bins, brute-force agreement, round trips."""

import numpy as np
import pytest

from nightseg.fourier import dft2d_bruteforce, idft2d_bruteforce, irfft2d, rfft2d
from nightseg.selftest import ROUNDTRIP_EXTENTS, check_fft_oracle, check_fft_roundtrip


class TestBruteForce:
    def test_1x1(self):
        s = dft2d_bruteforce(np.array([[3.5]]))
        assert s.real[0, 0] == pytest.approx(3.5)
        assert s.imag[0, 0] == pytest.approx(0.0)

    def test_impulse_flat_spectrum(self):
        s = dft2d_bruteforce(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.abs(s.real - 1.0).max() < 1e-12
        assert np.abs(s.imag).max() < 1e-12

    def test_hand_evaluated_2x2(self):
        # four-term sums evaluated by hand: bins 10, -2, -4, 0
        s = dft2d_bruteforce(np.array([[1.0, 2.0], [3.0, 4.0]]))
        want = np.array([[10.0, -2.0], [-4.0, 0.0]])
        assert np.abs(s.real - want).max() < 1e-12
        assert np.abs(s.imag).max() < 1e-12


def _half(z: np.ndarray) -> np.ndarray:
    """The columns 0..W//2 of a full-plane spectrum."""
    return z[:, : z.shape[1] // 2 + 1]


class TestFastPath:
    def test_impulse_flat(self):
        z = np.zeros((2, 2))
        z[0, 0] = 1.0
        s = rfft2d(z)
        assert np.abs(s.real - 1.0).max() < 1e-12
        assert np.abs(s.imag).max() < 1e-12

    def test_constant_only_dc(self):
        s = rfft2d(np.full((2, 2), 4.0))
        assert s.real[0, 0] == pytest.approx(16.0)
        other = s.real.copy()
        other[0, 0] = 0.0
        assert np.abs(other).max() < 1e-12
        assert np.abs(s.imag).max() < 1e-12

    def test_matches_bruteforce_50_random(self):
        check_fft_oracle()

    def test_non_square_and_rect_sizes(self):
        check_fft_oracle()

    @pytest.mark.parametrize("shape", [(4, 8), (5, 7), (6, 9), (3, 1)])
    def test_inverse_matches_bruteforce_of_hermitian_spectrum(self, shape):
        # the half spectrum of a real plane stands for the full one: the
        # brute-force inverse of the full spectrum is the same real plane
        x = np.random.default_rng(shape[0] * 10 + shape[1]).normal(size=shape)
        full = dft2d_bruteforce(x)
        got = irfft2d(_half(full), shape)
        want = idft2d_bruteforce(full)
        assert np.abs(got - want.real).max() < 1e-9
        assert np.abs(want.imag).max() < 1e-9

    def test_inverse_needs_the_matching_half_spectrum(self):
        with pytest.raises(ValueError, match="half spectrum"):
            irfft2d(np.zeros((4, 5), dtype=complex), (4, 10))


class TestRoundTrip:
    @pytest.mark.parametrize("shape", ROUNDTRIP_EXTENTS)
    def test_inverse_restores_input(self, shape):
        check_fft_roundtrip([shape])

    def test_bruteforce_roundtrip_odd_size(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 7))
        back = idft2d_bruteforce(dft2d_bruteforce(x))
        assert np.abs(back.real - x).max() < 1e-9
        assert np.abs(back.imag).max() < 1e-9

    def test_forward_unnormalized_inverse_scaled(self):
        # DC bin of the forward transform is the plain sum
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert rfft2d(x).real[0, 0] == pytest.approx(10.0)

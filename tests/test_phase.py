"""Phase texture extraction: decomposition, reconstruction, Sobel, encoder."""

import numpy as np
import pytest

from nightseg import fourier, phase
from nightseg.fourier import dft2d_bruteforce, idft2d_bruteforce
from nightseg.gradcheck import grad_check
from nightseg.phase import (PhaseEncoder, choose_c_a, fourier_decompose,
                            image_texture_stack, minmax_normalize,
                            phase_reconstruct, sobel_texture_map)
from nightseg.selftest import (check_amplitude_shift_invariance, check_phase_amplitude_invariant,
                               check_sobel)
from nightseg.tensor import Tensor


def _half(z: np.ndarray) -> np.ndarray:
    """The columns 0..W//2 of a full-plane spectrum."""
    return z[:, : z.shape[1] // 2 + 1]


class TestDecompose:
    def test_constant_image(self):
        s = fourier_decompose(np.full((2, 2), 4.0))
        assert s.amplitude[0, 0] == pytest.approx(16.0)
        rest = s.amplitude.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-12
        assert np.all(s.phasor == 1.0)  # zero-amplitude bins pinned to phase 0

    def test_impulse(self):
        z = np.zeros((4, 4))
        z[0, 0] = 1.0
        s = fourier_decompose(z)
        assert np.abs(s.amplitude - 1.0).max() < 1e-12
        assert np.abs(s.phasor - 1.0).max() < 1e-12

    def test_amplitude_squared_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 8))
        s = fourier_decompose(x)
        want = np.abs(_half(dft2d_bruteforce(x))) ** 2
        assert np.abs(s.amplitude ** 2 - want).max() < 1e-10 * max(1.0, want.max())

    def test_phasor_has_unit_modulus(self):
        rng = np.random.default_rng(3)
        for shape in [(8, 4)] * 20 + [(7, 5), (6, 9)]:
            s = fourier_decompose(rng.normal(size=shape))
            assert s.phasor.shape == s.amplitude.shape == (shape[0], shape[1] // 2 + 1)
            assert np.abs(np.abs(s.phasor) - 1.0).max() < 1e-15

    def test_reassembly_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 8))
        s = fourier_decompose(x)
        plane = s.amplitude * s.phasor
        b = _half(dft2d_bruteforce(x))
        scale = max(1.0, np.abs(b).max())
        assert np.abs(plane - b).max() / scale < 1e-9

    def test_rounding_level_bins_get_phase_zero(self):
        # adjacent columns equal: the Nyquist column vanishes exactly, but a
        # float transform leaves it at rounding level with a noise angle
        img = np.random.default_rng(12).integers(0, 256, size=(16, 12)) / 255.0
        x = np.repeat(img, 2, axis=1)
        s = fourier_decompose(x)
        assert np.abs(s.amplitude[:, 12]).max() < 1e-9
        assert np.all(s.phasor[:, 12] == 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fourier_decompose(np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_shift_leaves_amplitude(self):
        check_amplitude_shift_invariance()


class TestChooseCA:
    def test_constant_amplitude(self):
        s = fourier_decompose(np.zeros((2, 2)))
        s.amplitude[:] = 2.0
        assert choose_c_a(s) == pytest.approx(2.0)

    def test_mean_of_dc_only(self):
        s = fourier_decompose(np.full((2, 2), 4.0))
        assert choose_c_a(s) == pytest.approx(4.0)  # (16+0+0+0)/4

    def test_matches_direct_mean(self):
        # the mean over the full plane of the brute-force spectrum, although
        # only its columns 0..W//2 are kept: odd W has no lone Nyquist column
        rng = np.random.default_rng(6)
        for shape in ((8, 8), (6, 10), (5, 7), (4, 9), (3, 2), (3, 1)):
            x = rng.normal(size=shape)
            want = np.abs(dft2d_bruteforce(x)).mean()
            assert choose_c_a(fourier_decompose(x)) == pytest.approx(want, abs=1e-12)


class TestReconstruct:
    def test_zero_phase_gives_impulse(self):
        s = fourier_decompose(np.zeros((2, 2)))
        s.phasor[:] = 1.0
        rec = phase_reconstruct(s, 1.0)
        want = np.zeros((2, 2))
        want[0, 0] = 1.0
        assert np.abs(rec - want).max() < 1e-12

    def test_modulus_forced_to_c_a(self):
        check_phase_amplitude_invariant()

    def test_matches_bruteforce_inverse_oracle(self):
        rng = np.random.default_rng(8)
        for shape in ((8, 8), (7, 5)):
            x = rng.uniform(size=shape)
            s = fourier_decompose(x)
            c_a = 2.5
            rec = phase_reconstruct(s, c_a)
            b = dft2d_bruteforce(x)
            oracle = idft2d_bruteforce(c_a * b / np.abs(b))
            assert rec.dtype == np.float64
            assert np.abs(rec - oracle.real).max() < 1e-8
            assert np.abs(oracle.imag).max() < 1e-9  # conjugate symmetry of real-input phases

    def test_nonpositive_c_a_rejected(self):
        s = fourier_decompose(np.ones((2, 2)))
        with pytest.raises(ValueError, match="positive"):
            phase_reconstruct(s, 0.0)


class TestSobel:
    def test_constant_all_zero(self):
        check_sobel()

    def test_step_edge_magnitude_four(self):
        check_sobel()

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 8))
        kx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
        ky = kx.T
        xp = np.pad(x, 1, mode="edge")
        gx = np.zeros_like(x)
        gy = np.zeros_like(x)
        for i in range(6):
            for j in range(8):
                for a in range(3):
                    for b in range(3):
                        gx[i, j] += kx[a, b] * xp[i + a, j + b]
                        gy[i, j] += ky[a, b] * xp[i + a, j + b]
        want = np.sqrt(gx ** 2 + gy ** 2)
        got = sobel_texture_map(x)
        assert np.abs(got - want).max() < 1e-10


class TestEncoder:
    def test_zero_input_zero_pyramid(self):
        enc = PhaseEncoder(np.random.default_rng(0), 3, (4, 5, 6, 7))
        pp = enc(Tensor(np.zeros((32, 64, 3))))
        # zero input, zero biases: relu(conv(0)) = 0 at every stage
        for stage in pp.stages:
            assert np.abs(stage.data).max() == 0.0

    def test_stage_extents_align_with_backbone(self):
        enc = PhaseEncoder(np.random.default_rng(1), 3, (4, 4, 4, 4))
        pp = enc(Tensor(np.random.default_rng(2).uniform(size=(32, 64, 3))))
        assert [s.shape[:2] for s in pp.stages] == [(1, 2), (2, 4), (4, 8), (8, 16)]

    def test_indivisible_extents_rejected(self):
        enc = PhaseEncoder(np.random.default_rng(3), 3, (4, 4, 4, 4))
        with pytest.raises(ValueError, match="divisible"):
            enc(Tensor(np.zeros((20, 64, 3))))

    def test_gradient_reaches_weights(self):
        enc = PhaseEncoder(np.random.default_rng(4), 1, (2, 2, 2, 2))
        rng = np.random.default_rng(5)
        tex = rng.uniform(size=(32, 32, 1))
        head = rng.normal(size=(1, 1, 2))

        def f(t):
            enc.stem.w = t
            return enc(Tensor(tex)).stages[0]

        assert grad_check(f, Tensor(enc.stem.w.data.copy()), head) < 1e-4


class TestTextureStack:
    def test_minmax_bounds(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(0.0, 0.3, size=(32, 32, 3))
        tex = image_texture_stack(img, mode="phase")
        assert tex.shape == img.shape
        assert tex.min() >= 0.0 and tex.max() <= 1.0

    def test_constant_channel_maps_to_zero(self):
        assert np.abs(minmax_normalize(np.full((4, 4), 3.0))).max() == 0.0

    def test_sobel_mode(self):
        rng = np.random.default_rng(11)
        img = rng.uniform(size=(16, 16, 3))
        tex = image_texture_stack(img, mode="sobel")
        assert tex.shape == img.shape

    def test_matches_bruteforce_texture_with_vanishing_bins(self):
        rng = np.random.default_rng(13)
        img = rng.integers(0, 256, size=(16, 12, 3)) / 255.0
        images = [np.repeat(img, 2, axis=1),  # 16x24, exact-zero Nyquist column
                  rng.integers(0, 256, size=(15, 9, 3)) / 255.0,    # odd H and W
                  rng.integers(0, 256, size=(12, 13, 3)) / 255.0]   # odd W
        for img in images:
            chans = []
            for c in range(3):
                b = dft2d_bruteforce(img[:, :, c])
                amp = np.abs(b)
                ph = np.where(amp <= 1e-9 * amp.mean(), 0.0, np.angle(b))
                rec = idft2d_bruteforce(amp.mean() * np.exp(1j * ph)).real
                chans.append(minmax_normalize(rec))
            want = np.stack(chans, axis=2)
            assert np.abs(image_texture_stack(img, mode="phase") - want).max() < 1e-9, img.shape

    def test_c_a_cancels_in_the_scaled_texture(self):
        # the reconstruction is linear in c_a and min-max scaling divides it
        # out, so the texture's mean-amplitude constant is as good as any
        img = np.random.default_rng(15).integers(0, 256, size=(32, 96, 3)) / 255.0
        default = image_texture_stack(img, mode="phase")
        for c in range(3):
            s = fourier_decompose(img[:, :, c])
            for c_a in (1e-3, 1e3):
                tex = minmax_normalize(phase_reconstruct(s, c_a))
                assert np.abs(tex - default[:, :, c]).max() < 1e-12

    def test_any_extent_avoids_bruteforce(self, monkeypatch):
        def boom(*args):
            raise AssertionError("brute-force transform called")

        for name in ("dft2d_bruteforce", "idft2d_bruteforce"):
            monkeypatch.setattr(fourier, name, boom)
            monkeypatch.setattr(phase, name, boom, raising=False)
        img = np.random.default_rng(14).uniform(size=(32, 96, 3))
        tex = image_texture_stack(img, mode="phase")
        assert tex.shape == img.shape

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            image_texture_stack(np.zeros((4, 4, 3)), mode="canny")

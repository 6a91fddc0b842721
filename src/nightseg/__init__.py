"""Night-scene semantic segmentation with phase-texture enhancement and
reliable top-K matching, built on a small self-contained tensor engine."""

from .tensor import Tensor, Tape, backward
from .gradcheck import grad_check
from .fourier import rfft2d, irfft2d, dft2d_bruteforce
from .phase import Spectrum, fourier_decompose, phase_reconstruct, choose_c_a
from .model import ModelConfig, NightSegModel, SegOutput, predict
from .metrics import ConfusionMatrix

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Tape", "backward", "grad_check",
    "rfft2d", "irfft2d", "dft2d_bruteforce",
    "Spectrum", "fourier_decompose", "phase_reconstruct", "choose_c_a",
    "ModelConfig", "NightSegModel", "SegOutput", "predict",
    "ConfusionMatrix",
    "__version__",
]

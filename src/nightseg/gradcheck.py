"""Finite-difference verification of tape gradients.

``grad_check`` compares the analytic gradient of a scalar-valued function,
or of sum(f(x) * head) for a fixed array ``head`` of f's output shape,
against central differences, coordinate by coordinate, in 64-bit. The
probe mutates ``x.data`` in place and restores it, so the function under
test must read ``x`` fresh on every call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tape, Tensor, backward

__all__ = ["grad_check"]


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, head: np.ndarray | None = None,
               h: float = 1e-5) -> float:
    """Max over coordinates of |a-n| / max(1e-8, |a|+|n|)."""
    if x.data.dtype != np.float64:
        raise ValueError("grad_check requires a float64 tensor")

    def value() -> float:
        y = f(x)
        return y.item() if head is None else float(np.sum(y.data * head))

    x.requires_grad = True
    x.grad = None
    with Tape():
        backward(f(x), head)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = value()
        flat[i] = keep - h
        fm = value()
        flat[i] = keep
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"grad_check: non-finite evaluation at coordinate {i}")
        numeric = (fp - fm) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, err)
    return worst

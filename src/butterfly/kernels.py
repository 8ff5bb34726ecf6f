"""The concrete operators: oscillatory integral kernel, Hankel-function sum,
centered discrete Fourier transform, and the composed chain built from them.

All entry oracles are pure and vectorized over index arrays.  Public indices
are 0-based throughout: row i maps to x_i = i/n, column j to xi_j = j - n/2
for the oscillatory kernel, and to order j for the Hankel kernel with
x_i = n + (2*pi/3) * i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import hankel1_orders
from .factors import ButterflyFactors

DENSE_CAP = 4096


def _phase_speed(x):
    return (2.0 + np.sin(2.0 * np.pi * x)) / 8.0


class FioKernel:
    """Unimodular kernel exp(2*pi*i*(x*xi + c(x)*|xi|)) on the centered grids."""

    def __init__(self, n: int):
        self.n = n
        self.shape = (n, n)

    def block(self, rows, cols) -> np.ndarray:
        x = np.asarray(rows, dtype=float)[:, None] / self.n
        xi = np.asarray(cols, dtype=float)[None, :] - self.n / 2.0
        theta = 2 * np.pi * (x * xi + _phase_speed(x) * np.abs(xi))
        out = np.empty(theta.shape, dtype=np.complex128)  # exp(1j * theta)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        return out


class HankelKernel:
    """K[i, j] = H1_j(x_i) with x_i = n + (2*pi/3)*i, bounded away from zero.

    Pure: a block runs the order recurrence of its rows from order 0 up to
    its largest column, so it costs as much as those rows up to that column
    whatever columns it keeps.  ``whole_rows`` therefore sends it to whole
    block lines, and a factorization evaluates O(n^2) entries.
    """

    whole_rows = True

    def __init__(self, n: int):
        self.n = n
        self.shape = (n, n)

    def block(self, rows, cols) -> np.ndarray:
        x = self.n + (2.0 * np.pi / 3.0) * np.asarray(rows, dtype=float)
        return hankel1_orders(x, cols)


def dft_apply(n: int, g: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Apply the centered transform (or its inverse, conjugate-transpose/n)."""
    g = np.asarray(g, dtype=np.complex128)
    if g.shape[0] != n:
        raise ValueError(f"input length {g.shape[0]} != {n}")
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    if g.ndim > 1:
        signs = signs[:, None]
    if direction == "forward":
        return np.fft.fft(signs * g, axis=0)
    if direction == "inverse":
        return signs * np.fft.ifft(g, axis=0)
    raise ValueError(f"unknown direction {direction!r}")


def dense_matrix(entry, n: int) -> np.ndarray:
    """Full enumeration of an entry oracle (brute-force reference)."""
    if n > DENSE_CAP:
        raise ValueError(f"dense enumeration capped at {DENSE_CAP}, asked for {n}")
    idx = np.arange(n)
    return entry.block(idx, idx)


@dataclass(frozen=True)
class ComposedOperator:
    """K F K as a black-box operator: two factored applies around an FFT."""

    k_factors: ButterflyFactors

    @property
    def n(self) -> int:
        return self.k_factors.n

    @property
    def shape(self):
        return (self.n, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        k = self.k_factors
        return k.apply(dft_apply(self.n, k.apply(x), "forward"))

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        k = self.k_factors
        inner = self.n * dft_apply(self.n, k.apply_adjoint(x), "inverse")
        return k.apply_adjoint(inner)

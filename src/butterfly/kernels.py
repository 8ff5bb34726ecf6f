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
_HANKEL_CACHE_CAP = 4096


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
        phase = x * xi + _phase_speed(x) * np.abs(xi)
        return np.exp(2j * np.pi * phase)


class HankelKernel:
    """K[i, j] = H1_j(x_i) with x_i = n + (2*pi/3)*i, bounded away from zero.

    A row's orders come from one upward recurrence over all of them, so
    full rows are cached (dimension permitting): every later lookup on the
    same row is free.  Each value depends on its (x_i, j) alone, so cached
    and uncached blocks are bit-identical.
    """

    def __init__(self, n: int, cache: bool | None = None):
        self.n = n
        self.shape = (n, n)
        self._cache_rows = n <= _HANKEL_CACHE_CAP if cache is None else cache
        self._rows: dict[int, np.ndarray] = {}

    def block(self, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if not self._cache_rows:
            x = self.n + (2.0 * np.pi / 3.0) * rows.astype(float)
            table = hankel1_orders(x, int(cols.max(initial=0)))
            return np.ascontiguousarray(table[:, cols])
        missing = sorted(set(int(i) for i in rows) - self._rows.keys())
        for lo in range(0, len(missing), 256):
            batch = missing[lo:lo + 256]
            x = self.n + (2.0 * np.pi / 3.0) * np.asarray(batch, dtype=float)
            table = hankel1_orders(x, self.n - 1)
            for b, i in enumerate(batch):
                self._rows[i] = table[b]
        out = np.empty((rows.size, cols.size), dtype=np.complex128)
        for a, i in enumerate(rows):
            out[a] = self._rows[int(i)][cols]
        return out


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


def dense_matrix(entry, n: int, max_n: int = DENSE_CAP) -> np.ndarray:
    """Full enumeration of an entry oracle (brute-force reference)."""
    if n > max_n:
        raise ValueError(f"dense enumeration capped at {max_n}, asked for {n}")
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

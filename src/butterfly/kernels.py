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
from .factors import ButterflyFactors, materialize
from .oracles import is_entry_oracle

DENSE_CAP = 4096


def _doubled(z) -> np.ndarray:
    """(sides, 2^b, rows): out[:, t] is the product of z[:, b] over the set
    bits b of t, each entry one multiply from out[:, t - 2^b]."""
    out = np.ones((z.shape[0], 1 << z.shape[1], z.shape[2]), np.complex128)
    for b in range(z.shape[1]):
        np.multiply(out[:, :1 << b], z[:, b, None], out=out[:, 1 << b:2 << b])
    return out


class FioKernel:
    """Unimodular kernel exp(2*pi*i*(x*xi + c(x)*|xi|)) on the centered grids.

    On each side of xi = 0 the phase is linear in xi.  Columns fall in groups
    of L, the largest power of two up to sqrt(2n) dividing n/2, and entry
    (i, j) is base(i, j // L) * high(i, t // S) * low(i, t % S) at t = j % L,
    S about sqrt(L): the base and the log2 L values at t = 2^b are cosines
    and sines of phases reduced exactly (n a power of two up to 2**26), high
    and low products of the latter.  An entry is a function of (i, j, n)
    alone, within a few 1e-15 of its phase in long double, where the phase
    in double loses about n * 1e-16.
    """

    def __init__(self, n: int):
        self.n, self.shape, self._width = n, (n, n), 1
        while 2 * self._width ** 2 <= n and n % (4 * self._width) == 0:
            self._width *= 2

    def block(self, rows, cols) -> np.ndarray:
        n, width = self.n, self._width
        i, j = np.asarray(rows, dtype=float), np.asarray(cols, dtype=np.int64)
        run = j.size > 0 and bool((j == j[0] + np.arange(j.size)).all())
        at = j // width  # each column's group, then its place among groups
        groups = np.arange(at.min(initial=n), at.max(initial=-1) + 1)
        at -= groups[:1]
        eta = 2 * width * groups - n  # 2 xi at each group's first column
        cut = int(np.searchsorted(eta, 0))  # the groups with xi < 0
        spans = [(s, part) for s, part in ((-1.0, slice(0, cut)),
                                           (1.0, slice(cut, None)))
                 if eta[part].size]
        steps = 2.0 ** np.arange(1, width.bit_length())  # 2 t at t = 2^b
        k = np.concatenate([eta, *[steps] * len(spans)])[:, None]
        u = np.concatenate([abs(eta), *[s * steps for s, _ in spans]])[:, None]
        half_c = (2.0 + np.sin(2.0 * np.pi * (i / n))) * 2.0 ** 23  # c(x) / 2
        hi = np.rint(half_c)  # hi * 2**-27 * u and i * k / 2n are exact
        turns = i * (k / (2 * n)) + hi * 2.0 ** -27 * u
        turns = 2 * np.pi * (turns - np.rint(turns)
                             + (half_c - hi) * 2.0 ** -27 * u)
        table = np.empty(turns.shape, dtype=np.complex128)
        np.cos(turns, out=table.real)
        np.sin(turns, out=table.imag)
        base = table[:eta.size]
        twos = table[eta.size:].reshape(len(spans), steps.size, i.size)
        low, high = (_doubled(twos[:, :steps.size // 2]),
                     _doubled(twos[:, steps.size // 2:]))
        if not run:
            side = (at >= cut) * (len(spans) - 1)
            th, tl = np.divmod(j % width, low.shape[1])
            out = high[side, th]  # in place: fewer fresh arrays to fault in
            np.multiply(out, low[side, tl], out=out)
            return np.multiply(base[at], out, out=out).T
        # inner is built in each side's first group and multiplied into the
        # others before its own: a block of one group holds no second copy
        # of it, nor a second numpy buffer for a broadcast operand
        out = np.empty((i.size, eta.size, width), dtype=np.complex128)
        for side, (_, part) in enumerate(spans):
            line, bases = out[:, part], base[part].T[:, :, None]
            inner = line[:, 0].reshape(i.size, high.shape[1], -1)
            inner[...] = high[side].T[:, :, None]
            np.multiply(inner, low[side].T[:, None], out=inner)
            np.multiply(bases[:, 1:], line[:, :1], out=line[:, 1:])
            np.multiply(bases[:, :1], line[:, :1], out=line[:, :1])
        first = j[0] - groups[0] * width
        return out.reshape(i.size, -1)[:, first:first + j.size]


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


def dense_matrix(oracle, n: int) -> np.ndarray:
    """Full enumeration of an entry oracle, or the applications of an
    operator oracle to the identity (brute-force reference)."""
    if n > DENSE_CAP:
        raise ValueError(f"dense enumeration capped at {DENSE_CAP}, asked for {n}")
    if not is_entry_oracle(oracle):
        return materialize(oracle.apply, n)
    idx = np.arange(n)
    return oracle.block(idx, idx)


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

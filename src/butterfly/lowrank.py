"""Fixed-rank approximation engines.

Four routes to a rank-r approximate SVD ``Z ~ u0 @ diag(sigma0) @ v0*``:

* :func:`truncated_svd` (optimal) and :func:`sketched_svd` (one power
  step) -- dense; for blocks read whole (:func:`at_dense_limit`);
* :func:`randomized_svd` -- probes a black-box operator with r +
  ``PROBE_OVERSAMPLING`` Gaussian vectors per side;
* :func:`randomized_sampling_svd` -- visits ``SAMPLES_PER_RANK`` * r rows and
  columns through an entry oracle in one pivoted QR/LQ skeleton sweep.

:func:`svd_from_probes` finishes the probe route from stored products, for
blocks of an operator that cannot be applied to fresh vectors.

:func:`truncated_svd`, :func:`sketched_svd`, :func:`svd_from_probes`,
:func:`floored_inverse` and :func:`pinv_floored` accept leading batch axes:
a stack of equal-shaped blocks is one call, each block treated on its own.
The construction passes whole block lines of the middle level this way.  A
slice of a stacked :func:`truncated_svd` or :func:`sketched_svd` is
bit-identical to the call on that block alone; stacked products may round
differently, so :func:`svd_from_probes` slices agree to rounding only.

All randomized draws come from a caller-supplied generator, and every
reduction is deterministic, so identical seeds give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative singular-value floor applied in every pseudo-inversion.
PINV_FLOOR = 1e-13

#: Relative window inside which pivot column norms count as tied.
PIVOT_TIE = 1e-14

#: Residual level (relative to the largest column) below which further basis
#: directions are numerical noise; such directions can be arbitrarily spiky
#: and poison sampled least-squares problems.
BASIS_TRIM = 1e-11

#: Gaussian probe vectors beyond the rank in :func:`randomized_svd` and the
#: operator construction: the standard additive oversampling (Halko,
#: Martinsson and Tropp, SIAM Rev. 53, 2011, sec. 4.2).
PROBE_OVERSAMPLING = 5

#: Random rows (and columns) :func:`randomized_sampling_svd` draws per unit
#: of rank, for the skeleton sweep and again for the final least squares.
SAMPLES_PER_RANK = 3

#: Block side per unit of rank up to which reading a block whole costs less
#: than the sampling engine's ~14 r side entries, pivoting and least squares.
DENSE_SIDE_PER_RANK = 32


@dataclass(frozen=True)
class LowRankApprox:
    """Rank-r triple (u0, sigma0, v0); u0/v0 have orthonormal columns.

    Stacked triples carry the same leading batch axes on all three arrays.
    """

    u0: np.ndarray
    sigma0: np.ndarray
    v0: np.ndarray

    @property
    def rank(self) -> int:
        return self.sigma0.shape[-1]

    def matrix(self) -> np.ndarray:
        return (self.u0 * self.sigma0[..., None, :]) @ _adjoint(self.v0)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def floored_inverse(sigma: np.ndarray) -> np.ndarray:
    """Invert singular values, zeroing everything below PINV_FLOOR * max.

    The maximum is taken along the last axis, so each row of a stack is
    floored against its own largest value.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        return sigma.copy()
    keep = sigma > PINV_FLOOR * sigma.max(axis=-1, keepdims=True, initial=0.0)
    out = np.zeros_like(sigma)
    np.divide(1.0, sigma, out=out, where=keep)
    return out


def pinv_floored(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared relative floor."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    sinv = floored_inverse(s)
    return (_adjoint(vh) * sinv[..., None, :]) @ _adjoint(u)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Gaussian with independent unit-variance real and imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def select_pivot_columns(a: np.ndarray, k: int, rel_tol: float = 0.0) -> list[int]:
    """Greedy column-pivot order: largest residual norm first, k picks.

    Ties within PIVOT_TIE relative are broken toward the lower index so the
    selection is reproducible across BLAS builds.  Stops early when the
    residual falls to rel_tol times the largest initial column norm (exact
    zero by default).
    """
    work = np.array(a, dtype=np.complex128, copy=True)
    m, n = work.shape
    k = min(k, m, n)
    norms2 = (work.real * work.real + work.imag * work.imag).sum(axis=0)
    floor = rel_tol * rel_tol * float(norms2.max(initial=0.0))
    pivots: list[int] = []
    for _ in range(k):
        best = float(norms2.max(initial=0.0))
        if best <= floor or best <= 0.0:
            break
        # boolean argmax finds the first (lowest-index) column in the window
        j = int(np.argmax(norms2 >= best * (1.0 - 2.0 * PIVOT_TIE)))
        pivots.append(j)
        q = work[:, j] / np.sqrt(norms2[j])
        proj = q.conj() @ work
        work -= q[:, None] * proj
        norms2 -= proj.real * proj.real + proj.imag * proj.imag
        np.maximum(norms2, 0.0, out=norms2)
        norms2[j] = 0.0
    return pivots


def orthonormal_columns(a: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis for the first k pivot columns of ``a``.

    Rank-deficient input yields fewer columns: the honest numerical rank up
    to ``BASIS_TRIM``.
    """
    q, _ = np.linalg.qr(a[:, select_pivot_columns(a, k, BASIS_TRIM)])
    return q


def _pad_orthonormal(partial: np.ndarray, k: int) -> np.ndarray:
    """Complete (..., m, t) orthonormal columns to (..., m, k) with t <= k."""
    m, t = partial.shape[-2:]
    if t == k:
        return partial
    filler = np.broadcast_to(np.eye(m, dtype=np.complex128)[:, : k - t],
                             (*partial.shape[:-2], m, k - t))
    q, _ = np.linalg.qr(np.concatenate([partial, filler], axis=-1))
    return np.concatenate([partial, q[..., t:k]], axis=-1)


def truncated_svd(z: np.ndarray, r: int) -> LowRankApprox:
    """Optimal rank-r approximation by dense SVD truncation.

    ``z`` is one (m, n) matrix or a stack (..., m, n) of them; one stacked
    SVD call covers the stack.
    """
    z = np.asarray(z)
    m, n = z.shape[-2:]
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} outside [1, {min(m, n)}] for a {m}x{n} matrix")
    u, s, vh = np.linalg.svd(z, full_matrices=False)
    return LowRankApprox(
        u0=np.ascontiguousarray(u[..., :r], dtype=np.complex128),
        sigma0=np.ascontiguousarray(s[..., :r]),
        v0=np.ascontiguousarray(_adjoint(vh[..., :r, :])),
    )


def at_dense_limit(m: int, n: int, r: int) -> bool:
    """True when reading an m x n block whole costs less than sampling it:
    its longer side is at most ``DENSE_SIDE_PER_RANK`` * r."""
    return max(m, n) <= DENSE_SIDE_PER_RANK * r


def sketched_svd(z: np.ndarray, r: int, omega: np.ndarray) -> LowRankApprox:
    """Rank-r SVD of dense blocks from their Gaussian sketch ``omega``
    (..., n, l >= r) with one power step (Halko, Martinsson and Tropp 2011,
    Alg. 4.4): Q = orth(Z omega), P = orth(Z* Q), Z P = Q' R, SVD of R."""
    q, _ = np.linalg.qr(z @ omega)
    q_row, _ = np.linalg.qr(_adjoint(_adjoint(q) @ z))
    q_col, mid = np.linalg.qr(z @ q_row)
    return _assemble(mid, q_col, q_row, r)


def randomized_svd(apply_op, m, n, r, rng) -> LowRankApprox:
    """Probe-based rank-r SVD of a black-box operator.

    ``apply_op(x, adjoint)`` must return ``Z @ x`` (or ``Z* @ x`` when
    ``adjoint`` is true) for blocks of r + ``PROBE_OVERSAMPLING`` vectors.
    Draw order: column probes, then row probes.
    """
    rng = np.random.default_rng(rng)
    width = r + PROBE_OVERSAMPLING
    if width > min(m, n):
        raise ValueError(f"r + {PROBE_OVERSAMPLING} = {width} exceeds "
                         f"min(m, n) = {min(m, n)}")
    r_col = complex_normal(rng, (n, width))
    r_row = complex_normal(rng, (m, width))
    y_col = apply_op(r_col, False)
    y_row = apply_op(r_row, True)
    # keep the whole probed range; truncate to r only after the small
    # SVD.  Every probe column is kept, so plain QR spans what pivoting would.
    q_col, _ = np.linalg.qr(y_col)
    q_row, _ = np.linalg.qr(y_row)
    mid = q_col.conj().T @ apply_op(q_row, False)
    return _assemble(mid, q_col, q_row, r)


def svd_from_probes(y_col, y_row, r_row, r) -> LowRankApprox:
    """Finish the probe SVD from stored products only (no re-application).

    Given ``y_col = Z @ C``, ``y_row = Z* @ R`` and the row probe ``R``, the
    middle matrix solves ``R* Q_col M ~ y_row* Q_row`` in the least-squares
    sense; this is the finishing step of the fast-matvec construction, where
    blocks of the operator cannot be applied to fresh vectors.

    All three inputs may carry leading batch axes (``r_row`` broadcasts), so
    a whole block row is finished in one pass.  The bases keep every probe
    direction, so plain QR spans what pivoted QR would; no pivoting needed.
    """
    q_col, _ = np.linalg.qr(y_col)
    q_row, _ = np.linalg.qr(y_row)
    mid = pinv_floored(_adjoint(r_row) @ q_col) @ (_adjoint(y_row) @ q_row)
    return _assemble(mid, q_col, q_row, r)


def randomized_sampling_svd(entry, m, n, r, rng) -> LowRankApprox:
    """Rank-r SVD from sampled rows and columns of an entry oracle.

    ``entry(rows, cols)`` returns the dense submatrix on the given index
    arrays.  One skeleton sweep: pivoted QR on random rows picks r skeleton
    columns, pivoted LQ on random columns joined with them picks r skeleton
    rows.  Fresh rows and columns joined with the skeletons give the bases
    and a least-squares middle, cut from the row sample: four oracle calls.
    Draw order: rows, columns, final rows, final columns.  Rows and columns
    are assumed incoherent with respect to delta functions (unchecked).
    """
    rng = np.random.default_rng(rng)
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} outside [1, {min(m, n)}]")
    rq = r * SAMPLES_PER_RANK
    rows = _draw(rng, m, rq)
    pi_col = select_pivot_columns(entry(rows, np.arange(n)), r)
    cols = _draw(rng, n, rq, pi_col)
    pi_row = select_pivot_columns(entry(np.arange(m), cols).conj().T, r)

    # Least-squares sets: skeletons plus fresh random rows/columns.  The
    # bases span the best sampled columns/rows (not just the r skeletons);
    # the final truncation then recovers near-optimal singular values.  A
    # rank-r margin keeps the middle least-squares problem overdetermined,
    # otherwise ill-conditioned basis/sample sections amplify the tail.
    rows = _draw(rng, m, rq, pi_row)
    cols = _draw(rng, n, rq, pi_col)
    width = max(r, min(rows.size, cols.size) - r)
    q_col = orthonormal_columns(entry(np.arange(m), cols), min(width, m))
    row_sample = entry(rows, np.arange(n))
    q_row = orthonormal_columns(row_sample.conj().T, min(width, n))
    mid = pinv_floored(q_col[rows, :]) @ row_sample[:, cols] @ pinv_floored(q_row[cols, :].conj().T)
    return _assemble(mid, q_col, q_row, r)


def _draw(rng, n: int, count: int, kept=()) -> np.ndarray:
    """Sorted union of ``count`` distinct random indices below n and ``kept``."""
    return np.union1d(rng.choice(n, size=min(count, n), replace=False),
                      np.asarray(kept, dtype=np.intp))


def _assemble(mid, q_col, q_row, r) -> LowRankApprox:
    u_m, s_m, vh_m = np.linalg.svd(mid, full_matrices=False)
    t = min(r, s_m.shape[-1])
    sigma = np.zeros((*s_m.shape[:-1], r))
    sigma[..., :t] = s_m[..., :t]
    return LowRankApprox(
        u0=_pad_orthonormal(q_col @ u_m[..., :t], r),
        sigma0=sigma,
        v0=_pad_orthonormal(q_row @ _adjoint(vh_m[..., :t, :]), r),
    )

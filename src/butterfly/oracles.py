"""Access models for the operator being factored.

Two contracts, mirroring how the construction algorithms touch the matrix:

* entry oracle -- ``shape`` plus ``block(rows, cols)`` returning the dense
  (len(rows), len(cols)) submatrix on integer index arrays;
* operator oracle -- ``shape`` plus ``apply(x)`` / ``apply_adjoint(x)``
  returning (n, k) for (n, k) blocks of vectors.

Both must be pure.  A call that raises, or returns another shape or
non-finite values, fails the construction as :class:`OracleError`.  The construction calls them only from the thread that
called it, in a fixed order, whatever the number of CPUs.

An entry oracle may set ``whole_rows = True`` when a block costs as much as
its rows up to its largest column.  Sampling reads lines at the dense limit
whole either way, 128 rows a call; the flag matters above that limit, where
lines are then read whole too, and in streaming, which then reads whole
lines instead of runs of blocks.  Wrappers must forward it (perfbench's
``EntryProbe`` does not; harmless for its Hankel workload, sampling mode).
"""

from __future__ import annotations

import numpy as np


class OracleError(RuntimeError):
    """Raised when an oracle fails; carries the block that was being built."""


class DenseOracle:
    """Entry and operator oracle backed by an explicit matrix."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        self.shape = self.matrix.shape

    def block(self, rows, cols) -> np.ndarray:
        return self.matrix[np.ix_(np.asarray(rows, dtype=np.intp),
                                  np.asarray(cols, dtype=np.intp))]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.conj().T @ x


def is_entry_oracle(oracle) -> bool:
    return hasattr(oracle, "block")


def is_operator_oracle(oracle) -> bool:
    return hasattr(oracle, "apply") and hasattr(oracle, "apply_adjoint")

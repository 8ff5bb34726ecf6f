"""Access models for the operator being factored.

Two contracts, mirroring how the construction algorithms touch the matrix:

* entry oracle -- ``shape`` plus ``block(rows, cols)`` returning the dense
  submatrix on integer index arrays;
* operator oracle -- ``shape`` plus ``apply(x)`` / ``apply_adjoint(x)`` on
  (n, k) blocks of vectors.

Both must be pure and safe to call concurrently.
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


class BlockView:
    """Entry oracle restricted to a row/column window of a parent oracle."""

    def __init__(self, parent, rows: range, cols: range):
        self._parent = parent
        self._row0 = rows.start
        self._col0 = cols.start
        self.shape = (len(rows), len(cols))

    def block(self, rows, cols) -> np.ndarray:
        return self._parent.block(np.asarray(rows, dtype=np.intp) + self._row0,
                                  np.asarray(cols, dtype=np.intp) + self._col0)


def is_entry_oracle(oracle) -> bool:
    return hasattr(oracle, "block")


def is_operator_oracle(oracle) -> bool:
    return hasattr(oracle, "apply") and hasattr(oracle, "apply_adjoint")

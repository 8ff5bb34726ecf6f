"""Butterfly factorization of complementary low-rank operators.

Build a product of O(log n) sparse factors from either sampled entries or
black-box applications of the operator, then apply it (and its adjoint) in
O(n log n) flops.
"""

from .bench import (BenchConfig, BenchReport, BenchRow, OperatorReference,
                    RowSampledReference, estimate_eps_a, run_bench)
from .construct import (factorize, middle_factorization_matvec,
                        middle_factorization_sampling, recursive_factor_u,
                        recursive_factor_v)
from .factors import (ButterflyFactors, MiddleFactor, NnzReport,
                      TransferFactor, factors_equal)
from .kernels import (ComposedOperator, FioKernel, HankelKernel, dense_matrix,
                      dft_apply)
from .lowrank import (LowRankApprox, randomized_sampling_svd, randomized_svd,
                      truncated_svd)
from .oracles import DenseOracle, OracleError
from .partition import DyadicPartition, make_partition
from .storage import (FormatError, load_factors, read_vector, save_factors,
                      write_vector)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""The benchmark's workloads and how each one is set up from a seed.

Every workload fixes an operator, a tree, a rank and a construction mode.
The sizes are chosen so that one run of every workload, with its
tracemalloc pass, stays well under a minute on a 2-core machine.

Layers (modules of ``butterfly``) and what each workload makes heavy:

* ``fio-ref``     -- construct (dense-SVD middle level), factors, storage;
  light on kernels (1 M entries) and the pivoting engine never runs.
* ``fio-stream``  -- construct in streaming mode plus the randomized
  sampling engine (lowrank, per-pivot loop) and kernels.
* ``composition`` -- factors in block mode (inside the operator) and the
  probe path of lowrank (``svd_from_probes``).
* ``hankel``      -- kernels and bessel (Miller sweeps); the only workload
  that reaches bessel.

Not a workload: FIO at n=16384, leaf 16, r=4 (the memory baseline of the
roadmap).  Its factors give eps_a of about 1.96, so they do not approximate
the operator and their timings say nothing about a useful factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from butterfly import (ComposedOperator, FioKernel, HankelKernel,
                       OperatorReference, RowSampledReference, factorize,
                       make_partition)
from butterfly.bench import derive_seed

#: Spawn-key domains; 4 and 7 follow bench.py (eps samples, inner chain).
EPS_DOMAIN = 4
INNER_DOMAIN = 7
VECTOR_DOMAIN = 11

#: Width of the vector block used for apply64_vps.
BLOCK = 64

#: Rows sampled by one estimate_eps_a draw, as in bench.py.
EPS_SAMPLES = 256


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str        # "fio", "hankel" or "composition"
    n: int
    leaf: float        # make_partition target_leaf
    rank: int
    mode: str          # factorize mode
    eps_bound: float   # eps_a above this counts as a failure
    eps_source: str    # where eps_bound comes from
    eps_draws: int     # estimate_eps_a draws; eps_a is their median
    heavy: str
    light: str


# eps_draws: one 256-row draw is a noisy estimate when the error sits in a
# few rows (Hankel: draws of one factorization range over 3x), so eps_a is
# the median of several draws; the counts below keep its seed-to-seed
# spread under 10 % (Hankel: 128 draws left 15 %).
#
# hankel runs at n=512, half the size of acceptance criterion 2: a
# factorize call takes 0.5 s instead of 2 s, so a 20 s run holds four times
# as many samples, and its tracemalloc pass takes 3 s instead of 13 s.
WORKLOADS = {w.name: w for w in (
    Workload("fio-ref", "fio", 1024, 0.25, 8, "sampling",
             1e-9, "acceptance criterion 1, rank 8", 32,
             heavy="construct (dense-SVD middle), factors, storage",
             light="kernels (1 M entries), lowrank pivoting (never runs)"),
    Workload("fio-stream", "fio", 512, 1, 6, "streaming",
             5e-2, "no criterion covers it; 5x the measured 1.0e-2, "
                   "so a lost digit fails but seed noise does not", 32,
             heavy="construct streaming, lowrank sampling engine, kernels",
             light="storage, factors (0.16 M entries)"),
    Workload("composition", "composition", 512, 0.5, 8, "matvec",
             1e-3, "acceptance criterion 3, rank 8", 64,
             heavy="operator (factors in block mode), lowrank probe path",
             light="kernels (only in set-up), bessel"),
    Workload("hankel", "hankel", 512, 0.25, 6, "sampling",
             1e-6, "acceptance criterion 2, rank 6", 384,
             heavy="kernels, bessel (Miller sweeps)",
             light="lowrank pivoting (never runs)"),
)}


@dataclass
class Setup:
    """Everything a workload needs before its first timed call."""

    partition: object
    fresh_oracle: object   # () -> a new oracle object, no shared cache
    reference: object      # ground truth for estimate_eps_a
    g1: np.ndarray         # one input vector
    block: np.ndarray      # (n, BLOCK) input block
    x: np.ndarray          # pair for the adjoint identity
    y: np.ndarray


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def build(w: Workload, seed: int) -> Setup:
    """Partition, oracle factory, reference and inputs for one seed.

    For ``composition`` this factors the inner FIO chain, as bench.py does.
    """
    p = make_partition(w.n, w.leaf)
    if w.kernel == "composition":
        inner = factorize(FioKernel(w.n), p, w.rank,
                          seed=derive_seed(seed, INNER_DOMAIN),
                          mode="sampling")
        reference = OperatorReference(ComposedOperator(inner))

        def fresh_oracle():
            return ComposedOperator(inner)
    else:
        kernel_class = FioKernel if w.kernel == "fio" else HankelKernel
        reference = RowSampledReference(kernel_class(w.n))

        def fresh_oracle():
            return kernel_class(w.n)
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(VECTOR_DOMAIN,)))
    return Setup(p, fresh_oracle, reference,
                 g1=_complex_normal(rng, (w.n,)),
                 block=_complex_normal(rng, (w.n, BLOCK)),
                 x=_complex_normal(rng, (w.n,)),
                 y=_complex_normal(rng, (w.n,)))


def eps_rng(seed: int, draw: int) -> np.random.Generator:
    """Generator of one eps_a draw; draw 0 is bench.py's first row."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(EPS_DOMAIN, draw)))

"""Accuracy and timing harness over the three reference operators.

The error estimate eps_a compares the factored operator against a ground
truth on one shared Gaussian input, evaluated at a 256-point sample set.
For the explicit kernels the truth is the direct row sum at the sampled
points only (O(|S| * n)); for the composed operator it is the fast chain
itself, matching the protocol the reported values come from.  For the
explicit kernels the baseline ``t_dense_s`` is the direct sum with every
entry evaluated on the fly, never a stored dense matrix.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .construct import block_rng, check_rank, check_seed, factorize
from .factors import ButterflyFactors
from .kernels import ComposedOperator, FioKernel, HankelKernel
from .lowrank import complex_normal
from .partition import make_partition

KERNELS = ("fio", "hankel", "composition")
DEFAULT_LEAF = 0.25
_EPS_DOMAIN = 4
_INNER_DOMAIN = 7

CSV_COLUMNS = ("n", "r", "eps_a", "t_factor_s", "t_dense_s", "t_apply_s",
               "speedup", "nnz_total")


def derive_seed(seed: int, *key) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def eps_rng(seed: int, row: int) -> np.random.Generator:
    """Generator of the eps_a sample of bench row ``row`` (verify: row 0)."""
    return block_rng(seed, _EPS_DOMAIN, row)


class RowSampledReference:
    """Direct row sums of an entry oracle, evaluated at sampled rows only."""

    def __init__(self, entry):
        self.entry = entry

    def rows(self, g: np.ndarray, sample: np.ndarray) -> np.ndarray:
        n = self.entry.shape[1]
        return self.entry.block(sample, np.arange(n)) @ g

    def matvec_time(self, g: np.ndarray) -> float:
        """One full direct matvec, entries made on the fly 256 rows at a time."""
        n, chunk = self.entry.shape[1], 256
        cols = np.arange(n)
        out = np.empty(n, dtype=np.complex128)
        start = time.perf_counter()
        for r0 in range(0, n, chunk):
            rows = np.arange(r0, min(r0 + chunk, n))
            out[rows] = self.entry.block(rows, cols) @ g
        return time.perf_counter() - start


class OperatorReference:
    """Ground truth provided by a fast black-box operator (composed chain)."""

    def __init__(self, op):
        self.op = op

    def rows(self, g: np.ndarray, sample: np.ndarray) -> np.ndarray:
        return self.op.apply(g)[sample]

    def matvec_time(self, g: np.ndarray) -> float:
        start = time.perf_counter()
        self.op.apply(g)
        return time.perf_counter() - start


def sampled_relative_error(u_approx, u_exact):
    """(error, used_absolute_fallback) of the sampled l2 ratio metric."""
    diff = float(np.linalg.norm(u_approx - u_exact))
    denom = float(np.linalg.norm(u_exact))
    if denom == 0.0:
        return diff, True
    return diff / denom, False


def estimate_eps_a(f: ButterflyFactors, reference, sample_count: int,
                   rng) -> float:
    value, _ = estimate_eps_a_info(f, reference, sample_count, rng)
    return value


def check_sample_count(count: int) -> int:
    """``count`` if eps_a can be estimated from that many rows; with none
    it would read 0 and pass any bound."""
    if count < 1:
        raise ValueError(f"sample_count must be at least 1, got {count}")
    return count


def estimate_eps_a_info(f: ButterflyFactors, reference, sample_count: int,
                        rng):
    check_sample_count(sample_count)
    rng = np.random.default_rng(rng)
    n = f.n
    sample = np.sort(rng.choice(n, size=min(sample_count, n), replace=False))
    g = complex_normal(rng, (n,))
    return sampled_relative_error(f.apply(g)[sample],
                                  reference.rows(g, sample))


@dataclass(frozen=True)
class BenchConfig:
    kernel: str
    n_list: tuple
    rank_list: tuple
    mode: str = "sampling"
    seed: int = 0
    sample_count: int = 256
    target_leaf: float = DEFAULT_LEAF

    def __post_init__(self):
        _check_kernel_mode(self.kernel, self.mode)
        if not self.n_list or not self.rank_list:
            raise ValueError("n_list and rank_list must not be empty, got "
                             f"{self.n_list!r} and {self.rank_list!r}")
        check_sample_count(self.sample_count)
        check_seed(self.seed)
        for n, r in itertools.product(self.n_list, self.rank_list):
            # an argument error, raised before any row is factorized
            check_rank(make_partition(n, self.target_leaf), r)


@dataclass
class BenchRow:
    n: int
    r: int
    eps_a: float = math.nan
    t_factor_s: float = math.nan
    t_dense_s: float = math.nan
    t_apply_s: float = math.nan
    speedup: float = math.nan
    nnz_total: int = 0
    seed: int = 0
    samples_clamped: bool = False
    eps_absolute_fallback: bool = False
    error: str | None = None


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps([asdict(row) for row in self.rows], indent=2)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            d = asdict(row)
            lines.append(",".join(_csv_cell(d[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def _check_kernel_mode(kernel: str, mode: str) -> None:
    """Reject an unknown kernel, or a mode its oracle cannot run: fio and
    hankel are entry oracles, composition an operator oracle (run in
    matvec mode under ``sampling`` too)."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; pick from {KERNELS}")
    if mode == ("streaming" if kernel == "composition" else "matvec"):
        raise ValueError(f"kernel {kernel} cannot run mode={mode!r}")


def build_operator(kernel: str, n: int, r: int, leaf: float, mode: str,
                   seed: int):
    """(partition, oracle, reference, effective mode) of one problem."""
    _check_kernel_mode(kernel, mode)
    p = make_partition(n, leaf)
    if kernel in ("fio", "hankel"):
        entry = (FioKernel if kernel == "fio" else HankelKernel)(n)
        return p, entry, RowSampledReference(entry), mode
    inner = factorize(FioKernel(n), p, r,
                      seed=derive_seed(seed, _INNER_DOMAIN), mode="sampling")
    composed = ComposedOperator(inner)
    return p, composed, OperatorReference(composed), "matvec"


def run_bench(cfg: BenchConfig) -> BenchReport:
    report = BenchReport()
    for idx, (n, r) in enumerate(itertools.product(cfg.n_list, cfg.rank_list)):
        row = BenchRow(n=n, r=r, seed=cfg.seed,
                       samples_clamped=cfg.sample_count > n)
        report.rows.append(row)
        try:
            _run_row(cfg, idx, row)
        except Exception as exc:
            row.error = f"{type(exc).__name__}: {exc}"
    return report


def _run_row(cfg: BenchConfig, idx: int, row: BenchRow) -> None:
    p, oracle, reference, mode = build_operator(
        cfg.kernel, row.n, row.r, cfg.target_leaf, cfg.mode, cfg.seed)
    start = time.perf_counter()
    factors = factorize(oracle, p, row.r, seed=cfg.seed, mode=mode)
    row.t_factor_s = time.perf_counter() - start

    rng = eps_rng(cfg.seed, idx)
    row.eps_a, row.eps_absolute_fallback = estimate_eps_a_info(
        factors, reference, cfg.sample_count, rng)

    g = complex_normal(rng, (row.n,))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        factors.apply(g)
        times.append(time.perf_counter() - start)
    row.t_apply_s = float(np.median(times))
    row.t_dense_s = reference.matvec_time(g)
    row.speedup = row.t_dense_s / row.t_apply_s
    row.nnz_total = factors.nnz_report().total

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

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .construct import factorize
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


class RowSampledReference:
    """Direct row sums of an entry oracle, evaluated at sampled rows only."""

    def __init__(self, entry):
        self.entry = entry

    def rows(self, g: np.ndarray, sample: np.ndarray) -> np.ndarray:
        n = self.entry.shape[1]
        return self.entry.block(sample, np.arange(n)) @ g

    def matvec_time(self, g: np.ndarray, chunk: int = 256) -> float:
        """One full direct matvec, entries made on the fly in row chunks."""
        n = self.entry.shape[1]
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

    def matvec_time(self, g: np.ndarray, chunk: int = 256) -> float:
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


def estimate_eps_a_info(f: ButterflyFactors, reference, sample_count: int,
                        rng):
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
    output_format: str = "json"
    target_leaf: float = DEFAULT_LEAF

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; pick from {KERNELS}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.output_format!r}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


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

    def to_dict(self) -> dict:
        return {
            "n": self.n, "r": self.r, "eps_a": self.eps_a,
            "t_factor_s": self.t_factor_s, "t_dense_s": self.t_dense_s,
            "t_apply_s": self.t_apply_s, "speedup": self.speedup,
            "nnz_total": self.nnz_total, "seed": self.seed,
            "samples_clamped": self.samples_clamped,
            "eps_absolute_fallback": self.eps_absolute_fallback,
            "error": self.error,
        }


@dataclass
class BenchReport:
    config: BenchConfig
    rows: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps([row.to_dict() for row in self.rows], indent=2)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            d = row.to_dict()
            lines.append(",".join(_csv_cell(d[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        return self.to_csv() if self.config.output_format == "csv" else self.to_json()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def build_operator(kernel: str, n: int, r: int, cfg: BenchConfig):
    """(oracle, reference, effective_mode) for one bench row."""
    p = make_partition(n, cfg.target_leaf)
    if kernel == "fio":
        entry = FioKernel(n)
        return p, entry, RowSampledReference(entry), cfg.mode
    if kernel == "hankel":
        entry = HankelKernel(n)
        return p, entry, RowSampledReference(entry), cfg.mode
    inner = factorize(FioKernel(n), p, r,
                      seed=derive_seed(cfg.seed, _INNER_DOMAIN), mode="sampling")
    composed = ComposedOperator(inner)
    return p, composed, OperatorReference(composed), "matvec"


def run_bench(cfg: BenchConfig) -> BenchReport:
    report = BenchReport(cfg)
    for idx, (n, r) in enumerate((n, r) for n in cfg.n_list
                                 for r in cfg.rank_list):
        row = BenchRow(n=n, r=r, seed=cfg.seed,
                       samples_clamped=cfg.sample_count > n)
        report.rows.append(row)
        try:
            _run_row(cfg, idx, row)
        except Exception as exc:
            row.error = f"{type(exc).__name__}: {exc}"
    return report


def _run_row(cfg: BenchConfig, idx: int, row: BenchRow) -> None:
    p, oracle, reference, mode = build_operator(cfg.kernel, row.n, row.r, cfg)
    start = time.perf_counter()
    factors = factorize(oracle, p, row.r, seed=cfg.seed, mode=mode)
    row.t_factor_s = time.perf_counter() - start

    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_EPS_DOMAIN, idx)))
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

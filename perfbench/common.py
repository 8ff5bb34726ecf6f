"""Pieces shared by the untraced and the traced run: the failure ledger,
timing summaries, factor inspection and provenance."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


class Timing:
    """Samples of one timed operation, summarised as median and tail."""

    def __init__(self, samples):
        self.samples = list(samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def tail(self):
        """(label, value): the highest of p99/p90/p75 with at least ten
        samples beyond it, else the maximum."""
        count = len(self.samples)
        for pct in (99, 90, 75):
            if count * (100 - pct) >= 1000:
                cut = statistics.quantiles(self.samples, n=100)[pct - 1]
                return f"p{pct}", cut
        return "max", max(self.samples)

    def summary(self) -> dict:
        label, value = self.tail()
        return {"median": self.median, label: value,
                "count": len(self.samples)}


def collect():
    """Untimed preparation step for heavy calls: start from a clean heap."""
    gc.collect()
    return ()


def finite(a) -> bool:
    return bool(np.isfinite(a).all())


def factor_pieces(f):
    """(group, name, factor, op) for each factor in the order ``apply``
    uses them; ``op`` is "forward" or "adjoint"."""
    pieces = [("v_outer", "v_outer", f.v_outer, "adjoint")]
    pieces += [("h", f"h{tf.level}", tf, "adjoint") for tf in reversed(f.h_chain)]
    pieces.append(("middle", "middle", f.middle, "forward"))
    pieces += [("g", f"g{tf.level}", tf, "forward") for tf in f.g_chain]
    pieces.append(("u_outer", "u_outer", f.u_outer, "forward"))
    return pieces


#: Factor groups named in the per-layer metrics.  Transfer levels are
#: summed per side because the workloads do not share one tree depth; the
#: per-level figures are in the trace file.
GROUPS = ("u_outer", "g", "middle", "h", "v_outer")


def factor_array(factor) -> np.ndarray:
    return factor.weights if hasattr(factor, "weights") else factor.blocks


def factors_finite(f) -> bool:
    return all(finite(factor_array(fac)) for _, _, fac, _ in factor_pieces(f))


def factors_bytes(f) -> int:
    return sum(factor_array(fac).nbytes for _, _, fac, _ in factor_pieces(f))


def floor_hits(f) -> int:
    """Middle weights set to zero by the singular-value floor."""
    return int(np.count_nonzero(f.middle.weights == 0))


def nnz_counts(f) -> dict:
    """{factor name: (stored entries, exact zeros)}."""
    out = {}
    for _, name, fac, _ in factor_pieces(f):
        arr = factor_array(fac)
        out[name] = (int(arr.size), int(arr.size - np.count_nonzero(arr)))
    return out


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):  # older numpy
        return {"name": None, "version": None}


def _commit():
    """HEAD of the repository the benchmark sits in, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _source_digest() -> str:
    """sha256 over the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "commit": _commit(), "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": _blas_info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }

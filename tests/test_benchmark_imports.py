"""The benchmark under perfbench/ imports the library by name and patches
two of its functions when tracing; dropping any of those names breaks it
without breaking any other test."""

import subprocess
import sys
from pathlib import Path

from butterfly import (FioKernel, HankelKernel, factorize, kernels, lowrank,
                       make_partition)

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import inspect
import measure, selftest, tracing, workloads
import butterfly, butterfly.kernels, butterfly.lowrank
for module, name in ((butterfly.lowrank, "select_pivot_columns"),
                     (butterfly.kernels, "hankel1_orders")):
    if not callable(getattr(module, name, None)):
        raise SystemExit(f"{module.__name__}.{name} is missing")
# tracing.py calls the middle-level stages as stage(oracle, p, r, seed=...)
for name in ("middle_factorization_sampling", "middle_factorization_matvec"):
    try:
        inspect.signature(getattr(butterfly, name)).bind(
            "oracle", "p", "r", seed=0)
    except TypeError as exc:
        raise SystemExit(f"butterfly.{name}(oracle, p, r, seed=...): {exc}")
"""


def test_benchmark_modules_import():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = {paths!r}\n{CHECK}"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_library_calls_the_names_the_benchmark_patches(monkeypatch):
    # tracing.py counts pivots and Bessel calls by replacing these module
    # globals; a call that bypassed them would read as zero
    counts = {}
    for module, name in ((lowrank, "select_pivot_columns"),
                         (kernels, "hankel1_orders")):
        def counted(*args, inner=getattr(module, name), name=name, **kw):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    # FIO side 64 at r=1 is above the crossover: the sampling engine pivots
    factorize(FioKernel(1024), make_partition(1024, 4), 1, seed=0)
    factorize(HankelKernel(64), make_partition(64, 0.25), 3, seed=0)
    assert counts["select_pivot_columns"] > 0
    assert counts["hankel1_orders"] > 0

"""The untraced run: every end-to-end metric of one workload and seed.

Load from other tenants of a shared machine shifts timings by 20 % or more
for tens of seconds.  So the timed operations are interleaved: each round
sets the workload up, factors it and then applies, saves and loads, and
rounds repeat until the run's seconds of timed work are spent.  The untimed
work (the tracemalloc pass and the eps_a draws) is done in pieces between
rounds, so every median spans the whole run instead of one part of it.
Every timed call is bracketed by readings of a calibration kernel, and the
metrics are medians of samples scaled to a nominal host speed (see
``hostspeed``); the raw medians go to the result file.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc

import numpy as np

from butterfly import (estimate_eps_a, factorize, factors_equal,
                       load_factors, save_factors)

from common import (OUT_DIR, Ledger, Timing, collect, factors_bytes,
                    factors_finite, finite, floor_hits, nnz_counts)
from hostspeed import HostSpeed
from probes import probe_for
from workloads import BLOCK, EPS_SAMPLES, Workload, build, eps_rng

MIN_ROUNDS = 3
MAX_ROUNDS = 50
#: Share of the run's seconds each operation gets per round (at least one
#: call).  factorize, the slowest and noisiest, gets about half of every
#: round; apply, adjoint, block apply, save and load share the rest.
FACTOR_SHARE = 0.06
SLICE_SHARE = 0.01
#: The eps_a draws are done in this many pieces between rounds.
EPS_PIECES = 4
ADJOINT_TOL = 1e-12


class Sampler:
    """Timed calls by name; each call is one operation in the ledger.

    Every sample is kept raw and scaled by the host-speed reading around it
    (see ``hostspeed``); the metrics use the scaled samples."""

    def __init__(self, ledger: Ledger, speed: HostSpeed):
        self.ledger = ledger
        self.speed = speed
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}

    def _call(self, name: str, fn, args, check, taken: list):
        start = time.perf_counter()
        out = fn(*args)
        taken.append(time.perf_counter() - start)
        count = len(self.raw.get(name, ())) + len(taken)
        self.ledger.record(name, check is None or bool(check(out)),
                           f"call {count} failed its check")
        return out

    def repeat(self, name: str, slice_s: float, fn, *args, check=None):
        """Call at least once, and again until ``slice_s`` has passed, between
        two readings of the calibration kernel."""
        taken = []

        def calls():
            deadline = time.perf_counter() + slice_s
            out = self._call(name, fn, args, check, taken)
            while time.perf_counter() < deadline:
                out = self._call(name, fn, args, check, taken)
            return out

        out, scale = self.speed.bracket(calls)
        self.raw.setdefault(name, []).extend(taken)
        self.scaled.setdefault(name, []).extend(t * scale for t in taken)
        return out

    def call(self, name: str, fn, *args, check=None):
        return self.repeat(name, 0.0, fn, *args, check=check)

    def timing(self, name: str) -> Timing:
        return Timing(self.scaled[name])

    def raw_timing(self, name: str) -> Timing:
        return Timing(self.raw[name])


def adjoint_gap(f, x, y) -> float:
    """|<A x, y> - <x, A* y>| relative to |A x| |y|."""
    ax, aty = f.apply(x), f.apply_adjoint(y)
    gap = abs(np.vdot(y, ax) - np.vdot(aty, x))
    return float(gap / (np.linalg.norm(ax) * np.linalg.norm(y)))


def peak_mb(w: Workload, setup, seed: int) -> float:
    """tracemalloc peak of one factorize call (not timed)."""
    oracle = setup.fresh_oracle()
    collect()
    tracemalloc.start()
    try:
        factorize(oracle, setup.partition, w.rank, seed=seed, mode=w.mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def eps_draws(f, setup, seed: int, draws: range) -> list[float]:
    """estimate_eps_a draws of 256 rows each; eps_a is their median."""
    return [estimate_eps_a(f, setup.reference, EPS_SAMPLES, eps_rng(seed, k))
            for k in draws]


def run_untraced(w: Workload, seed: int, seconds: float, ledger: Ledger):
    """Returns (metrics {name: (value, unit)}, scaled timings, raw timings,
    host-speed readings, counts)."""
    sampler = Sampler(ledger, HostSpeed())
    collect()
    setup = sampler.call("setup", build, w, seed)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-{seed}-{os.getpid()}"
    first, second = stem.with_suffix(".a.bfac"), stem.with_suffix(".b.bfac")
    probes, built, loaded = [], [], None

    def same_factors(f):
        if not built:
            built.append(f)
            return factors_finite(f)
        return factors_equal(f, built[0])

    def factor():
        """One factorize call with a fresh (counted) oracle, so no cache
        carries over from an earlier call."""
        probes.append(probe_for(setup.fresh_oracle()))
        return factorize(probes[-1], setup.partition, w.rank, seed=seed,
                         mode=w.mode)

    peak, eps = [], []
    untimed = [lambda: peak.append(peak_mb(w, setup, seed))]
    step = -(-w.eps_draws // EPS_PIECES)
    untimed += [lambda k=k: eps.extend(eps_draws(
        built[0], setup, seed, range(k, min(k + step, w.eps_draws))))
        for k in range(0, w.eps_draws, step)]

    slice_s = SLICE_SHARE * seconds
    deadline = time.perf_counter() + seconds
    try:
        for rounds in range(1, MAX_ROUNDS + 1):
            if rounds > 1:
                collect()
                sampler.call("setup", build, w, seed)
            collect()
            sampler.repeat("factorize", FACTOR_SHARE * seconds, factor,
                           check=same_factors)
            f = built[0]
            for name, x in (("apply", setup.g1), ("apply_block", setup.block)):
                sampler.repeat(name, slice_s, f.apply, x, check=finite)
            sampler.repeat("apply_adjoint", slice_s, f.apply_adjoint, setup.g1,
                           check=finite)
            collect()
            sampler.repeat("save_factors", slice_s, save_factors, f, first)
            collect()
            loaded = sampler.repeat("load_factors", slice_s,
                                    load_factors, first,
                                    check=lambda g: factors_equal(g, f))
            if untimed:
                start = time.perf_counter()
                untimed.pop(0)()
                deadline += time.perf_counter() - start
            if rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
        for piece in untimed:
            piece()

        save_factors(loaded, second)
        ledger.record("save -> load -> save is byte-identical",
                      first.read_bytes() == second.read_bytes())
        file_bytes = first.stat().st_size
    finally:
        for path in (first, second):
            path.unlink(missing_ok=True)
    ledger.record("loaded factors apply like the originals",
                  np.array_equal(loaded.apply(setup.block),
                                 f.apply(setup.block)))
    work = [(pr.calls, getattr(pr, "entries", 0), getattr(pr, "vectors", 0))
            for pr in probes]
    ledger.record("oracle work repeats across factorize calls",
                  len(set(work)) == 1, str(work))
    gap = adjoint_gap(f, setup.x, setup.y)
    ledger.record("adjoint identity", gap <= ADJOINT_TOL, f"{gap:.3e}")
    peak, eps = peak[0], statistics.median(eps)
    ledger.record("eps_a", bool(np.isfinite(eps)) and eps <= w.eps_bound,
                  f"{eps:.3e} vs bound {w.eps_bound:.0e}")

    ops = {"setup_s": "setup", "factor_s": "factorize", "apply1_s": "apply",
           "adjoint1_s": "apply_adjoint", "apply64_block_s": "apply_block",
           "save_s": "save_factors", "load_s": "load_factors"}
    timings = {k: sampler.timing(op) for k, op in ops.items()}
    raw = {k: sampler.raw_timing(op) for k, op in ops.items()}
    metrics = {
        "setup_s": (timings["setup_s"].median, "s"),
        "factor_s": (timings["factor_s"].median, "s"),
        "factor_peak_mb": (peak, "MB"),
        "apply1_s": (timings["apply1_s"].median, "s"),
        "adjoint1_s": (timings["adjoint1_s"].median, "s"),
        "apply64_vps": (BLOCK / timings["apply64_block_s"].median, "1/s"),
        "save_s": (timings["save_s"].median, "s"),
        "load_s": (timings["load_s"].median, "s"),
        "factors_mb": (factors_bytes(f) / 1e6, "MB"),
        "eps_a": (eps, "ratio"),
    }
    counts = {
        "oracle_calls": work[0][0], "kernels.entries": work[0][1],
        "operator.vectors": work[0][2], "construct.floor_hits": floor_hits(f),
        "nnz": nnz_counts(f), "eps_a": eps, "storage.bytes": file_bytes,
        "adjoint_gap": gap, "rounds": rounds,
    }
    return metrics, timings, raw, sampler.speed.summary(), counts

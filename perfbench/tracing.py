"""The traced run: per-layer metrics from spans recorded around the calls
the benchmark makes into each layer.

The factorization is rebuilt stage by stage through the public stage
functions (or through ``factorize`` in streaming mode, whose stages
interleave), with the oracle, ``hankel1_orders`` and
``select_pivot_columns`` wrapped.  The result must be bit-equal to an
untraced ``factorize``; the per-factor apply must equal ``apply`` exactly.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import butterfly.kernels
import butterfly.lowrank
from butterfly import (ButterflyFactors, OperatorReference,
                       RowSampledReference, factorize, factors_equal,
                       load_factors, middle_factorization_matvec,
                       middle_factorization_sampling, recursive_factor_u,
                       recursive_factor_v, save_factors)

from common import (GROUPS, OUT_DIR, Ledger, collect, factor_pieces,
                    factors_finite, floor_hits, nnz_counts)
from probes import Spans, patched, probe_for
from workloads import Workload, build

FACTOR_REPS = 5
REFERENCE_REPS = 3
STORAGE_REPS = 3
APPLY_REPS = 21
#: Largest share of the traced factorize that may lie outside every stage
#: span (assembling ButterflyFactors takes well under 0.1 %).
MAX_UNATTRIBUTED = 0.01

_STAGES = {"sampling": middle_factorization_sampling,
           "matvec": middle_factorization_matvec}


def traced_factorize(w: Workload, setup, seed: int, spans: Spans):
    """(factors, root span, stage spans, oracle probe, bessel, pivots)."""
    p, r = setup.partition, w.rank
    oracle = probe_for(setup.fresh_oracle(), spans)
    stages = {}
    with patched(butterfly.kernels, "hankel1_orders", spans,
                 "bessel.hankel1_orders") as bessel, \
            patched(butterfly.lowrank, "select_pivot_columns", spans,
                    "lowrank.select_pivot_columns") as pivots:
        collect()
        with spans.span("factorize") as root:
            if w.mode == "streaming":
                with spans.span("construct.stream") as stages["stream"]:
                    f = factorize(oracle, p, r, seed=seed, mode="streaming")
            else:
                with spans.span("construct.middle") as stages["middle"]:
                    u_h, middle, v_h = _STAGES[w.mode](oracle, p, r, seed=seed)
                with spans.span("construct.recurse_u") as stages["recurse_u"]:
                    u_outer, g_chain = recursive_factor_u(u_h, p, r)
                with spans.span("construct.recurse_v") as stages["recurse_v"]:
                    v_outer, h_chain = recursive_factor_v(v_h, p, r)
                f = ButterflyFactors(p, r, u_outer, g_chain, middle, h_chain,
                                     v_outer)
    return f, root, stages, oracle, bessel, pivots


def untimed_factorize(w: Workload, setup, seed: int):
    oracle = setup.fresh_oracle()
    collect()
    start = time.perf_counter()
    f = factorize(oracle, setup.partition, w.rank, seed=seed, mode=w.mode)
    return f, time.perf_counter() - start


def per_factor_apply(f, block, spans: Spans):
    """Apply the chain factor by factor, FACTOR_REPS times per factor.
    Returns ({factor name: median seconds}, output)."""
    out = block.astype(np.complex128, copy=False)
    times = {}
    with spans.span("apply"):
        for _, name, factor, op in factor_pieces(f):
            fn, samples = getattr(factor, op), []
            for _ in range(FACTOR_REPS):
                with spans.span(f"factors.{name}") as idx:
                    result = fn(out)
                samples.append(spans.duration(idx))
            times[name] = statistics.median(samples)
            out = result
    return times, out


def _median_time(fn, reps: int, prepare=collect) -> float:
    samples = []
    for _ in range(reps):
        prepare()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def reference_times(w: Workload, setup):
    """(direct_s, dense_s): the on-the-fly direct matvec (a fresh oracle
    each time; the fast chain for composition) and a matvec against a
    stored dense matrix built outside the timed call."""
    g = setup.g1
    reference = (OperatorReference if w.kernel == "composition"
                 else RowSampledReference)
    direct = statistics.median(
        reference(setup.fresh_oracle()).matvec_time(g)
        for _ in range(REFERENCE_REPS))
    oracle = setup.fresh_oracle()
    if w.kernel == "composition":
        dense = oracle.apply(np.eye(w.n, dtype=np.complex128))
    else:
        idx = np.arange(w.n)
        dense = oracle.block(idx, idx)
    return direct, _median_time(lambda: dense @ g, APPLY_REPS, prepare=tuple)


def storage_times(f, stem):
    path = stem.with_suffix(".bfac")
    try:
        save = _median_time(lambda: save_factors(f, path), STORAGE_REPS)
        load = _median_time(lambda: load_factors(path), STORAGE_REPS)
        return path.stat().st_size, save, load
    finally:
        path.unlink(missing_ok=True)


def run_traced(w: Workload, seed: int, ledger: Ledger):
    """Returns (metrics {name: (value, unit)}, detail for the trace file)."""
    spans = Spans()
    with spans.span("setup"):
        setup = build(w, seed)

    t_before = untimed_factorize(w, setup, seed)[1]
    f, root, stages, oracle, bessel, pivots = traced_factorize(
        w, setup, seed, spans)
    plain, t_after = untimed_factorize(w, setup, seed)
    traced_s = spans.duration(root)
    base_s = (t_before + t_after) / 2

    ledger.record("traced factors are finite", factors_finite(f))
    ledger.record("traced build equals factorize", factors_equal(f, plain))
    del plain
    # The stage spans must cover factorize: time inside the root span but
    # outside every stage span is glue no layer accounts for.
    unattributed = spans.self_times()[root] / traced_s
    ledger.record("stage spans cover the traced factorize",
                  unattributed <= MAX_UNATTRIBUTED,
                  f"{unattributed:.3%} of it outside any stage span")

    factor_s, chained = per_factor_apply(f, setup.block, spans)
    ledger.record("per-factor apply equals apply",
                  np.array_equal(chained, f.apply(setup.block)))
    apply1 = _median_time(lambda: f.apply(setup.g1), APPLY_REPS, prepare=tuple)

    OUT_DIR.mkdir(exist_ok=True)
    file_bytes, save_s, load_s = storage_times(
        f, OUT_DIR / f"{w.name}-{seed}-traced")
    direct_s, dense_s = reference_times(w, setup)

    entries = getattr(oracle, "entries", 0)
    is_entry = hasattr(oracle, "entries")
    kernel_busy = spans.busy("kernels.block", root)
    operator_busy = spans.busy("operator.apply", root)
    stage_s = {k: spans.duration(i) for k, i in stages.items()}
    middle_s = stage_s.get("middle", 0.0)
    nnz = nnz_counts(f)
    names = {name: group for group, name, _, _ in factor_pieces(f)}

    m = {
        "kernels.calls": (oracle.calls if is_entry else 0, "count"),
        "kernels.entries": (entries, "count"),
        "kernels.busy_s": (kernel_busy, "s"),
        "kernels.entries_per_n15r": (entries / (w.n ** 1.5 * w.rank), "ratio"),
        "bessel.calls": (bessel.calls, "count"),
        "bessel.busy_s": (spans.busy("bessel.hankel1_orders", root), "s"),
        "lowrank.pivot_calls": (pivots.calls, "count"),
        "lowrank.pivot_busy_s": (
            spans.busy("lowrank.select_pivot_columns", root), "s"),
        "operator.vectors": (getattr(oracle, "vectors", 0), "count"),
        "operator.busy_s": (operator_busy, "s"),
        "construct.middle_s": (middle_s, "s"),
        "construct.middle_self_s": (
            middle_s - kernel_busy - operator_busy if middle_s else 0.0, "s"),
        "construct.recurse_u_s": (stage_s.get("recurse_u", 0.0), "s"),
        "construct.recurse_v_s": (stage_s.get("recurse_v", 0.0), "s"),
        "construct.self_s": (traced_s - kernel_busy - operator_busy, "s"),
        "construct.floor_hits": (floor_hits(f), "count"),
    }
    for group in GROUPS:
        members = [name for name, g in names.items() if g == group]
        size = sum(nnz[name][0] for name in members)
        zeros = sum(nnz[name][1] for name in members)
        m[f"factors.{group}.apply64_s"] = (
            sum(factor_s[name] for name in members), "s")
        m[f"factors.{group}.nnz"] = (size, "count")
        m[f"factors.{group}.zero_share"] = (zeros / size, "ratio")
    total = sum(size for size, _ in nnz.values())
    m["factors.nnz_total"] = (total, "count")
    m["factors.zero_share"] = (
        sum(zeros for _, zeros in nnz.values()) / total, "ratio")
    m["storage.bytes"] = (file_bytes, "bytes")
    m["storage.save_mbps"] = (file_bytes / 1e6 / save_s, "MB/s")
    m["storage.load_mbps"] = (file_bytes / 1e6 / load_s, "MB/s")
    m["reference.direct_s"] = (direct_s, "s")
    m["reference.dense_s"] = (dense_s, "s")
    m["reference.speedup_direct"] = (direct_s / apply1, "ratio")
    m["reference.speedup_dense"] = (dense_s / apply1, "ratio")
    m["trace.overhead_share"] = ((traced_s - base_s) / base_s, "ratio")

    detail = {
        "traced_factor_s": traced_s,
        "unattributed_share": unattributed,
        "untraced_factor_s": [t_before, t_after],
        "apply1_s": apply1,
        "per_factor": {name: {"apply64_s": factor_s[name], "nnz": nnz[name][0],
                              "zeros": nnz[name][1]} for name in names},
        "spans": spans.to_json(),
    }
    return m, detail

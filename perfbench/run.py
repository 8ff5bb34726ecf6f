"""Butterfly benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fio-ref --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  Human-readable lines (every metric by
name and unit, timing tails and sample counts, provenance) come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the spans
of a traced run, is written to ``perfbench/out/``.  The exit code is 0 only
if no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the machine this was sized on has 2 cores, and a single
# thread gives the steadiest timings.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import butterfly from this checkout's src/ and nowhere else."""
    if not (SRC / "butterfly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import butterfly
    if Path(butterfly.__file__).resolve().parent != SRC / "butterfly":
        raise SystemExit(f"perfbench: imported butterfly from "
                         f"{butterfly.__file__}, not from {SRC}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()

    from common import OUT_DIR, Ledger, provenance
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"pick from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.seconds < 1:
        raise SystemExit("perfbench: --seconds must be at least 1")

    ledger = Ledger()
    prov = provenance(w.name, args.seed, args.seconds, bool(args.trace))
    result = {"provenance": prov, "workload": vars(w)}
    metrics = {}
    try:
        if args.trace:
            from tracing import run_traced
            metrics, detail = run_traced(w, args.seed, ledger)
            result.update(detail)
        else:
            from measure import run_untraced
            metrics, timings, raw, speed, counts = run_untraced(
                w, args.seed, args.seconds, ledger)
            result["timings"] = {k: t.summary() for k, t in timings.items()}
            result["raw_timings"] = {k: t.summary() for k, t in raw.items()}
            result["samples"] = {k: t.samples for k, t in timings.items()}
            result["raw_samples"] = {k: t.samples for k, t in raw.items()}
            result["host_speed"] = speed
            result["counts"] = counts
    except Exception:  # report the crash as a failed operation
        ledger.record("run", False, traceback.format_exc())

    fail_share = ledger.failed / max(ledger.attempted, 1)
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name} = {_fmt(value)} {unit}")
    for label in ("timings", "raw_timings"):
        for name, summary in result.get(label, {}).items():
            print(f"{w.name} {name} {label[:-1]} "
                  + " ".join(f"{k}={_fmt(v)}" for k, v in summary.items()))
    if "host_speed" in result:
        print(f"{w.name} host speed reading " + " ".join(
            f"{k}={_fmt(v)}" for k, v in result["host_speed"].items()))
    print(f"{w.name} fail_share = {_fmt(fail_share)} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    result.update(failures=ledger.failures, attempted=ledger.attempted,
                  failed=ledger.failed, fail_share=fail_share,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str))
    print(f"result written to {out_file.relative_to(ROOT)}")

    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

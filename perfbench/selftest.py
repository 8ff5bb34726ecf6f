"""Self-test: the benchmark's exact counts repeat.

    python3 perfbench/selftest.py --workload fio-ref --seed 3

Runs ``run.py`` twice untraced and once traced with the same seed, one
after the other, and requires identical oracle calls, ``kernels.entries``,
``operator.vectors``, per-factor nnz and zero counts,
``construct.floor_hits``, ``.bfac`` size and ``eps_a`` across the untraced
runs, and the same counts from the traced run.  (Each untraced run already
fails if ``kernels.entries`` differs between its timed ``factorize`` calls.)
Exits 0 when everything repeats.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 600
#: Counts an untraced run records that must repeat exactly.
EXACT = ("oracle_calls", "kernels.entries", "operator.vectors",
         "construct.floor_hits", "nnz", "storage.bytes", "eps_a")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"selftest: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}")
    out = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())


def traced_counts(result: dict) -> dict:
    """The untraced count names, read from a traced run's metrics.  None
    marks a count the traced run does not have: it reports operator
    applications as vectors only, so its oracle call count is the entry
    oracle's and is 0 for composition."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    per_factor = result["per_factor"]
    return {
        "oracle_calls": m["kernels.calls"] or None,
        "kernels.entries": m["kernels.entries"],
        "operator.vectors": m["operator.vectors"],
        "construct.floor_hits": m["construct.floor_hits"],
        "nnz": {k: [v["nnz"], v["zeros"]] for k, v in per_factor.items()},
        "storage.bytes": m["storage.bytes"],
    }


def compare(label: str, a: dict, b: dict, keys) -> list[str]:
    return [f"{label}: {key} {a[key]!r} != {b[key]!r}"
            for key in keys if b[key] is not None and a[key] != b[key]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args(argv)

    first = run(args.workload, args.seed, args.seconds, 0)["counts"]
    second = run(args.workload, args.seed, args.seconds, 0)["counts"]
    traced = traced_counts(run(args.workload, args.seed, args.seconds, 1))
    problems = compare("untraced runs", first, second, EXACT)
    problems += compare("traced vs untraced", first, traced, sorted(traced))
    for problem in problems:
        print(problem)
    print(f"selftest {args.workload} seed {args.seed}: "
          f"{'FAIL' if problems else 'ok'} "
          f"(entries {first['kernels.entries']}, vectors "
          f"{first['operator.vectors']}, eps_a {first['eps_a']!r})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

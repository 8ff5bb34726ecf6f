"""Command line front end: factor, apply, bench, verify.

Exit codes: 0 success, 1 argument error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (DEFAULT_LEAF, KERNELS, BenchConfig, build_operator,
                    check_sample_count, estimate_eps_a, eps_rng, run_bench)
from .construct import check_seed, factorize
from .kernels import DENSE_CAP, FioKernel, dense_matrix, dft_apply
from .storage import load_factors, read_vector, save_factors, write_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def int_list(text: str) -> tuple:
    """Comma separated integers; an empty item or list is an error."""
    items = text.split(",")
    if not all(item.strip() for item in items):
        raise argparse.ArgumentTypeError(f"empty item in {text!r}")
    return tuple(int(v) for v in items)


def checked_int(check):
    """An integer flag passed through ``check`` while the arguments are
    parsed, before any work; its ValueError is a usage error."""
    def parse(text: str) -> int:
        try:
            return check(int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def tolerance(text: str) -> float:
    """--tol: a bound >= 0; NaN would compare false and pass any eps_a."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"tol must be >= 0, got {text}")
    return value


def _add_problem_args(sub, lists: bool = False):
    """Flags of one problem: --n and --rank, or bench's --n-list/--rank-list."""
    sub.add_argument("--kernel", required=True, choices=KERNELS)
    size, kind = ("-list", int_list) if lists else ("", int)
    for flag in ("--n", "--rank"):
        sub.add_argument(flag + size, required=True, type=kind,
                         help="comma separated" if lists else None)
    sub.add_argument("--mode", default="sampling",
                     choices=("sampling", "matvec", "streaming"))
    sub.add_argument("--seed", type=checked_int(check_seed), default=0)
    sub.add_argument("--leaf", type=float, default=DEFAULT_LEAF,
                     help="target leaf size of the dyadic trees")


def build_parser() -> _Parser:
    parser = _Parser(prog="butterfly",
                     description="Butterfly factorization of structured "
                                 "dense operators")
    subs = parser.add_subparsers(dest="command", required=True)

    factor = subs.add_parser("factor", help="build and save a factorization")
    _add_problem_args(factor)
    factor.add_argument("--out", required=True)

    apply_p = subs.add_parser("apply", help="apply saved factors to a vector")
    apply_p.add_argument("--factors", required=True)
    apply_p.add_argument("--input", required=True)
    apply_p.add_argument("--output", required=True)
    apply_p.add_argument("--adjoint", action="store_true")

    bench = subs.add_parser("bench", help="accuracy/timing table")
    _add_problem_args(bench, lists=True)
    bench.add_argument("--samples", type=checked_int(check_sample_count),
                       default=256)
    bench.add_argument("--format", default="json", choices=("json", "csv"))
    bench.add_argument("--out", default=None,
                       help="report file (stdout when omitted)")

    verify = subs.add_parser("verify",
                             help="dense comparison of a fresh factorization")
    _add_problem_args(verify)
    verify.add_argument("--samples", type=checked_int(check_sample_count),
                        default=256)
    verify.add_argument("--tol", type=tolerance, default=None,
                        help="exit 2 when eps_a exceeds this bound")
    return parser


def _build(args):
    p, oracle, reference, mode = build_operator(
        args.kernel, args.n, args.rank, args.leaf, args.mode, args.seed)
    factors = factorize(oracle, p, args.rank, seed=args.seed, mode=mode)
    return factors, oracle, reference


def _cmd_factor(args) -> int:
    factors, _, _ = _build(args)
    save_factors(factors, args.out)
    print(f"saved factors for kernel={args.kernel} n={args.n} "
          f"rank={args.rank} to {args.out}")
    return EXIT_OK


def _cmd_apply(args) -> int:
    factors = load_factors(args.factors)
    g = read_vector(args.input)
    out = factors.apply_adjoint(g) if args.adjoint else factors.apply(g)
    write_vector(args.output, out)
    print(f"applied factors ({factors.n} x {factors.n}) to {args.input}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = run_bench(BenchConfig(
        kernel=args.kernel, n_list=args.n_list, rank_list=args.rank_list,
        mode=args.mode, seed=args.seed, sample_count=args.samples,
        target_leaf=args.leaf))
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    failed = [row for row in report.rows if row.error]
    for row in failed:
        print(f"row (n={row.n}, r={row.r}) failed: {row.error}",
              file=sys.stderr)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_verify(args) -> int:
    if args.n > DENSE_CAP:
        raise ValueError(f"verify is capped at n={DENSE_CAP}")
    factors, oracle, reference = _build(args)
    approx = factors.dense()
    dense, true_dense = dense_matrix(oracle, args.n), None
    if args.kernel == "composition" and args.n <= 1024:
        # reference protocol compares against the fast chain; report the
        # truly dense composition too while it is still materializable
        k = dense_matrix(FioKernel(args.n), args.n)
        true_dense = k @ dft_apply(args.n, k)
    frob = (np.linalg.norm(dense - approx)
            / max(np.linalg.norm(dense), np.finfo(float).tiny))
    eps = estimate_eps_a(factors, reference, args.samples,
                         eps_rng(args.seed, 0))
    print(f"frobenius_rel_error={frob:.6e}")
    print(f"eps_a={eps:.6e}")
    if true_dense is not None:
        true_err = np.linalg.norm(true_dense - approx) / np.linalg.norm(true_dense)
        print(f"true_dense_rel_error={true_err:.6e}")
    if not np.isfinite(frob) or not np.isfinite(eps):
        print("numerical failure: non-finite error", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.tol is not None and eps > args.tol:
        print(f"numerical failure: eps_a {eps:.3e} > tol {args.tol:.3e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {"factor": _cmd_factor, "apply": _cmd_apply, "bench": _cmd_bench,
             "verify": _cmd_verify}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(cli_main())

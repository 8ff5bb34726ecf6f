import json
import tracemalloc

import numpy as np
import pytest

from butterfly import bench, cli, load_factors, read_vector, write_vector
from butterfly.cli import cli_main

from conftest import complex_gaussian


def run(*argv):
    return cli_main(list(argv))


def test_unknown_flag_is_usage_error(capsys):
    # the sampling constants are fixed, so no flag sets them
    for flag in ("--bogus", "--iters", "--oversample-p", "--oversample-q"):
        assert run("factor", "--kernel", "fio", "--n", "64", "--rank", "2",
                   "--out", "x.bfac", flag, "3") == 1
        err = capsys.readouterr().err
        assert "usage" in err and f"unrecognized arguments: {flag}" in err


def test_unknown_kernel_is_usage_error():
    assert run("factor", "--kernel", "nope", "--n", "64", "--rank", "2",
               "--out", "x.bfac") == 1


def test_factor_apply_roundtrip(tmp_path, rng):
    fac = tmp_path / "k.bfac"
    assert run("factor", "--kernel", "fio", "--n", "64", "--rank", "3",
               "--seed", "4", "--out", str(fac)) == 0
    factors = load_factors(fac)

    vec_in = tmp_path / "g.vec"
    vec_out = tmp_path / "u.vec"
    g = complex_gaussian(rng, 64)
    write_vector(vec_in, g)
    assert run("apply", "--factors", str(fac), "--input", str(vec_in),
               "--output", str(vec_out)) == 0
    assert np.array_equal(read_vector(vec_out), factors.apply(g))


def test_apply_zero_vector_gives_zero_file(tmp_path):
    fac = tmp_path / "k.bfac"
    run("factor", "--kernel", "fio", "--n", "64", "--rank", "2",
        "--out", str(fac))
    vec_in = tmp_path / "z.vec"
    vec_out = tmp_path / "zz.vec"
    write_vector(vec_in, np.zeros(64, dtype=complex))
    assert run("apply", "--factors", str(fac), "--input", str(vec_in),
               "--output", str(vec_out)) == 0
    assert np.array_equal(read_vector(vec_out), np.zeros(64, dtype=complex))


def test_apply_rejects_non_finite_vector(tmp_path, capsys):
    fac = tmp_path / "k.bfac"
    run("factor", "--kernel", "fio", "--n", "64", "--rank", "2",
        "--out", str(fac))
    g = np.ones(64, dtype=complex)
    g[17] = np.inf
    vec_in = tmp_path / "inf.vec"
    write_vector(vec_in, g)
    assert run("apply", "--factors", str(fac), "--input", str(vec_in),
               "--output", str(tmp_path / "out.vec")) == 1
    assert "input row 17" in capsys.readouterr().err
    assert not (tmp_path / "out.vec").exists()


def test_verify_reports_errors_and_tolerance(tmp_path, capsys):
    assert run("verify", "--kernel", "fio", "--n", "128", "--rank", "6",
               "--seed", "1") == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert float(fields["frobenius_rel_error"]) <= 1e-4
    assert float(fields["eps_a"]) <= 1e-4

    assert run("verify", "--kernel", "fio", "--n", "128", "--rank", "2",
               "--seed", "1", "--tol", "1e-14") == 2


def test_verify_rejects_oversized_problem():
    assert run("verify", "--kernel", "fio", "--n", "8192", "--rank", "4") == 1


def _no_factorization(monkeypatch):
    def factorize(*args, **kwargs):
        raise AssertionError("a factorization ran")

    monkeypatch.setattr(cli, "factorize", factorize)
    monkeypatch.setattr(bench, "factorize", factorize)


def test_verify_rejects_an_empty_sample(monkeypatch, capsys):
    # with no sampled rows eps_a would read 0 and pass any --tol; the
    # count is checked while parsing, before any factorization
    _no_factorization(monkeypatch)
    assert run("verify", "--kernel", "fio", "--n", "64", "--rank", "2",
               "--samples", "0", "--tol", "1e-30") == 1
    captured = capsys.readouterr()
    assert "eps_a" not in captured.out
    assert "sample_count must be at least 1, got 0" in captured.err


@pytest.mark.parametrize("command", ["factor", "verify", "bench"])
def test_a_negative_seed_is_a_usage_error(monkeypatch, capsys, tmp_path,
                                          command):
    # factor exited 0 on --seed -1 (every line of this tree is truncated,
    # so no draw saw it), while verify failed later with numpy's error
    _no_factorization(monkeypatch)
    problem = ("--n", "256", "--rank", "4") if command != "bench" else (
        "--n-list", "256", "--rank-list", "4")
    out = ("--out", str(tmp_path / "k.bfac")) if command == "factor" else ()
    assert run(command, "--kernel", "fio", *problem, "--leaf", "1",
               "--seed", "-1", *out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: seed must be a non-negative integer, got -1" \
        in captured.err


@pytest.mark.parametrize("command", ["factor", "verify", "bench"])
@pytest.mark.parametrize("kernel, mode", [
    ("fio", "matvec"), ("hankel", "matvec"), ("composition", "streaming")])
def test_a_mode_the_kernel_cannot_run_is_a_usage_error(
        monkeypatch, capsys, tmp_path, command, kernel, mode):
    # bench reported such a row as a numerical failure (exit 2), verify
    # exited 1 and composition ran matvec in place of streaming (exit 0);
    # the pair is rejected before the inner chain of composition is built
    _no_factorization(monkeypatch)
    problem = ("--n", "64", "--rank", "2") if command != "bench" else (
        "--n-list", "64", "--rank-list", "2")
    out = ("--out", str(tmp_path / "k.bfac")) if command == "factor" else ()
    assert run(command, "--kernel", kernel, *problem, "--mode", mode,
               *out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"kernel {kernel} cannot run mode='{mode}'" in captured.err


def test_composition_runs_matvec_under_the_default_mode(monkeypatch):
    modes = []

    def factorize(oracle, p, r, seed, mode):
        modes.append(mode)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "factorize", factorize)
    assert run("verify", "--kernel", "composition", "--n", "64",
               "--rank", "2") == 1
    assert modes == ["matvec"]


@pytest.mark.parametrize("tol", ["nan", "-1e-3", "-inf"])
def test_verify_rejects_a_tolerance_that_passes_nothing_or_everything(
        monkeypatch, capsys, tol):
    # eps_a > nan is always false, so --tol nan would turn the gate off
    _no_factorization(monkeypatch)
    assert run("verify", "--kernel", "fio", "--n", "64", "--rank", "1",
               f"--tol={tol}") == 1
    captured = capsys.readouterr()
    assert "eps_a" not in captured.out
    assert f"argument --tol: tol must be >= 0, got {tol}" in captured.err


def test_verify_leaf_inf_is_a_usage_error(capsys):
    assert run("verify", "--kernel", "fio", "--n", "64", "--rank", "1",
               "--leaf", "inf") == 1
    assert "target_leaf must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("problem, message", [
    (("--n-list", "1000", "--rank-list", "4"),
     "n=1000 admits no dyadic decomposition"),
    (("--n-list", "64", "--rank-list", "4", "--leaf", "inf"),
     "target_leaf must be positive and finite"),
    (("--n-list", "64", "--rank-list", "40"),
     "rank 40 outside [1, 4] at n=64")],
    ids=["n-1000", "leaf-inf", "rank-40"])
def test_bench_rejects_a_row_it_cannot_build_before_factoring(
        monkeypatch, capsys, problem, message):
    # bench reported these as a row's numerical failure (exit 2), while
    # factor and verify exit 1 on the same arguments
    _no_factorization(monkeypatch)
    assert run("bench", "--kernel", "fio", *problem) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_bench_rejects_an_empty_sample_before_factoring(monkeypatch, capsys):
    _no_factorization(monkeypatch)
    assert run("bench", "--kernel", "composition", "--n-list", "64",
               "--rank-list", "2", "--samples", "0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --samples: sample_count must be at least 1, got 0" \
        in captured.err


def test_verify_and_bench_row_zero_share_eps(capsys):
    problem = ("--kernel", "fio", "--rank", "4", "--seed", "3",
               "--samples", "64")
    assert run("verify", "--n", "128", *problem) == 0
    out = capsys.readouterr().out
    verify_eps = dict(line.split("=") for line in out.strip().splitlines())
    assert run("bench", "--n-list", "128", "--rank-list", "4", *problem) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["error"] is None
    assert verify_eps["eps_a"] == f"{row['eps_a']:.6e}"


def test_verify_composition_reports_true_dense_error(capsys):
    assert run("verify", "--kernel", "composition", "--n", "256", "--rank",
               "12", "--mode", "matvec", "--leaf", "1") == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert float(fields["eps_a"]) <= 1e-3
    assert float(fields["true_dense_rel_error"]) <= 1e-3


def test_verify_composition_reference_is_built_in_column_chunks(capsys):
    # the composed operator is materialized 512 identity columns at a time,
    # as the factors are: verify's traced peak reads 7.0x the 17 MB of one
    # dense n=1024 matrix (10.6x when the whole identity went in one call)
    n = 1024
    tracemalloc.start()
    try:
        assert run("verify", "--kernel", "composition", "--n", str(n),
                   "--rank", "4", "--leaf", "1") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "true_dense_rel_error" in capsys.readouterr().out
    assert peak <= 8.5 * n * n * 16


def test_bench_csv_written(tmp_path):
    out = tmp_path / "report.csv"
    assert run("bench", "--kernel", "fio", "--n-list", "64,128",
               "--rank-list", "3", "--format", "csv", "--seed", "2",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,r,eps_a")
    assert len(lines) == 3


def test_bench_json_to_stdout(capsys):
    assert run("bench", "--kernel", "fio", "--n-list", "64",
               "--rank-list", "2", "--samples", "32") == 0
    out = capsys.readouterr().out
    assert '"eps_a"' in out


def test_bench_unknown_format_is_usage_error(capsys):
    assert run("bench", "--kernel", "fio", "--n-list", "64",
               "--rank-list", "2", "--format", "xml") == 1
    assert "invalid choice: 'xml'" in capsys.readouterr().err


@pytest.mark.parametrize("n_list, rank_list", [
    (",", "2"), ("64", ","), ("", "2"), ("64,", "2"), ("64,,128", "2")])
def test_bench_rejects_empty_size_lists(capsys, n_list, rank_list):
    # an empty list would print a report with no rows and exit 0
    assert run("bench", "--kernel", "fio", "--n-list", n_list,
               "--rank-list", rank_list) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty item" in captured.err


def test_bench_size_lists_are_parsed_by_argparse(capsys):
    assert run("bench", "--kernel", "fio", "--n-list", "64,x",
               "--rank-list", "2") == 1
    assert "argument --n-list" in capsys.readouterr().err


@pytest.mark.slow
def test_factor_then_verify_replay_reported_scale(tmp_path):
    # fixed-rank replay at the reported scale: rank 8 reaches 1e-9
    fac = tmp_path / "k.bfac"
    assert run("factor", "--kernel", "fio", "--n", "1024", "--rank", "8",
               "--mode", "sampling", "--seed", "7", "--out", str(fac)) == 0
    assert load_factors(fac).n == 1024
    assert run("verify", "--kernel", "fio", "--n", "1024", "--rank", "8",
               "--seed", "7", "--tol", "1e-9") == 0


@pytest.mark.slow
def test_bench_hankel_reported_row(tmp_path):
    out = tmp_path / "hankel.csv"
    assert run("bench", "--kernel", "hankel", "--n-list", "1024",
               "--rank-list", "4", "--format", "csv", "--seed", "0",
               "--out", str(out)) == 0
    header, row = out.read_text().splitlines()
    eps = float(row.split(",")[header.split(",").index("eps_a")])
    assert eps <= 1e-4

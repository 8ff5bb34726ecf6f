import dataclasses
import json
import math

import numpy as np
import pytest

from butterfly import (FioKernel, OperatorReference, RowSampledReference,
                       bench, estimate_eps_a, factorize, make_partition,
                       run_bench)
from butterfly.bench import (BenchConfig, BenchRow, build_operator,
                             sampled_relative_error)

from conftest import complex_gaussian


@pytest.fixture(scope="module")
def factors():
    n = 256
    return factorize(FioKernel(n), make_partition(n, 0.25), 4, seed=0)


def test_eps_zero_for_identical_operators(factors):
    eps = estimate_eps_a(factors, OperatorReference(factors), 256,
                         np.random.default_rng(0))
    assert eps <= 1e-15


def test_eps_scalar_perturbation(rng):
    u = complex_gaussian(rng, 256)
    value, fallback = sampled_relative_error(1.001 * u, u)
    assert abs(value - 1e-3) <= 1e-12
    assert not fallback


def test_eps_scale_invariant(rng):
    u = complex_gaussian(rng, 128)
    d = complex_gaussian(rng, 128)
    a, _ = sampled_relative_error(u + d, u)
    b, _ = sampled_relative_error(17.0 * (u + d), 17.0 * u)
    assert abs(a - b) <= 1e-12 * a


def test_eps_zero_denominator_flags_fallback():
    value, fallback = sampled_relative_error(np.ones(4), np.zeros(4))
    assert fallback and value == 2.0


def test_eps_against_sampled_rows(factors, rng):
    ref = RowSampledReference(FioKernel(256))
    eps = estimate_eps_a(factors, ref, 256, rng)
    assert eps <= 1e-3


@pytest.mark.parametrize("count", [0, -3])
def test_eps_rejects_an_empty_sample(factors, count):
    # an empty sample would read as eps_a = 0 and pass any tolerance
    with pytest.raises(ValueError, match="at least 1"):
        estimate_eps_a(factors, OperatorReference(factors), count,
                       np.random.default_rng(0))


def test_run_bench_single_row():
    cfg = BenchConfig(kernel="fio", n_list=(256,), rank_list=(4,), seed=0)
    report = run_bench(cfg)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.error is None
    assert row.eps_a <= 1e-3
    assert row.t_factor_s > 0 and row.t_apply_s > 0 and row.t_dense_s > 0
    assert math.isclose(row.speedup, row.t_dense_s / row.t_apply_s, rel_tol=1e-12)
    assert row.nnz_total > 0 and not row.samples_clamped


def test_run_bench_clamps_sample_count():
    cfg = BenchConfig(kernel="fio", n_list=(64,), rank_list=(2,), seed=0,
                      sample_count=500)
    report = run_bench(cfg)
    assert report.rows[0].samples_clamped
    assert report.rows[0].error is None


def test_run_bench_failure_recorded_not_raised(monkeypatch):
    def factorize(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(bench, "factorize", factorize)
    cfg = BenchConfig(kernel="fio", n_list=(64,), rank_list=(2,), seed=0)
    report = run_bench(cfg)
    assert report.rows[0].error == "LinAlgError: SVD did not converge"


def test_eps_monotone_in_rank_at_reported_scale():
    cfg = BenchConfig(kernel="fio", n_list=(1024,), rank_list=(4, 8), seed=0)
    report = run_bench(cfg)
    by_rank = {row.r: row.eps_a for row in report.rows}
    assert by_rank[8] < by_rank[4]


def test_report_numeric_fields_deterministic():
    cfg = BenchConfig(kernel="fio", n_list=(128,), rank_list=(3,), seed=5)
    rows1 = run_bench(cfg).rows
    rows2 = run_bench(cfg).rows
    for a, b in zip(rows1, rows2):
        assert (a.n, a.r, a.eps_a, a.nnz_total, a.seed) == \
            (b.n, b.r, b.eps_a, b.nnz_total, b.seed)


def test_report_formats():
    cfg = BenchConfig(kernel="fio", n_list=(64,), rank_list=(2,), seed=0)
    report = run_bench(cfg)
    csv = report.to_csv()
    assert csv.splitlines()[0] == \
        "n,r,eps_a,t_factor_s,t_dense_s,t_apply_s,speedup,nnz_total"
    payload = json.loads(report.to_json())
    assert payload[0]["n"] == 64 and "seed" in payload[0]


def test_json_keys_follow_row_fields():
    report = run_bench(BenchConfig(kernel="fio", n_list=(64, 128),
                                   rank_list=(3,), seed=2))
    fields = [f.name for f in dataclasses.fields(BenchRow)]
    assert fields[:3] == ["n", "r", "eps_a"] and fields[-1] == "error"
    for row in json.loads(report.to_json()):
        assert list(row) == fields


def test_composition_rows_use_the_fast_chain_reference():
    cfg = BenchConfig(kernel="composition", n_list=(256,), rank_list=(8,),
                      seed=0, mode="matvec")
    report = run_bench(cfg)
    row = report.rows[0]
    assert row.error is None
    assert row.eps_a <= 1e-3


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(kernel="nope", n_list=(64,), rank_list=(2,))
    with pytest.raises(ValueError, match="at least 1, got 0"):
        BenchConfig(kernel="fio", n_list=(64,), rank_list=(2,),
                    sample_count=0)
    for n_list, rank_list in (((), (2,)), ((64,), ())):
        with pytest.raises(ValueError, match="must not be empty"):
            BenchConfig(kernel="fio", n_list=n_list, rank_list=rank_list)
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        BenchConfig(kernel="fio", n_list=(64,), rank_list=(2,), seed=-1)
    with pytest.raises(ValueError, match=r"rank 0 outside \[1, 4\]"):
        BenchConfig(kernel="fio", n_list=(64,), rank_list=(2, 0))
    with pytest.raises(ValueError, match="unknown kernel"):
        build_operator("nope", 64, 2, 0.25, "sampling", 0)

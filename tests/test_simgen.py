import itertools
import math

import numpy as np
import pytest

from pagaudit.citests import CiOracle, chi_square_test, oracle_test
from pagaudit.data import Column, Dataset
from pagaudit.errors import FitError, InputError
from pagaudit.graph import ancestors, validate
from pagaudit.simgen import (
    expit,
    fit_logistic,
    sample_dataset,
    simulate,
    surrogate_predictor,
    truth_dag,
)


def test_truth_dag_shape():
    g = truth_dag()
    assert g.n_edges == 7
    assert ancestors(g, "Y") == {"V", "C", "U1", "U2"}
    assert validate(g) == []


def test_truth_dag_relabel():
    g = truth_dag(outcome_name="Yhat")
    assert "Yhat" in g.names and "Y" not in g.names
    assert ancestors(g, "Yhat") == {"V", "C", "U1", "U2"}


def test_expit_stable_at_extremes():
    assert expit(0.0) == pytest.approx(0.5)
    assert expit(800.0) == pytest.approx(1.0)
    assert expit(-800.0) == pytest.approx(0.0)
    vals = expit(np.array([-1e4, -1.0, 0.0, 1.0, 1e4]))
    assert np.all(np.isfinite(vals))
    assert np.all((vals >= 0) & (vals <= 1))


def test_sampler_deterministic():
    a = sample_dataset(1000, 42, include_c=True)
    b = sample_dataset(1000, 42, include_c=True)
    assert a == b
    c = sample_dataset(1000, 43, include_c=True)
    assert a != c


def test_sampler_columns_and_latents_hidden():
    d = sample_dataset(10, 0, include_c=True)
    assert d.names == ["H", "V", "C", "R", "Y"]
    d2 = sample_dataset(10, 0, include_c=False)
    assert d2.names == ["H", "V", "R", "Y"]
    assert not d.has("U1") and not d.has("U2")
    with pytest.raises(InputError):
        sample_dataset(0, 0)


def test_sampler_marginals():
    d = sample_dataset(10_000, 11, include_c=True)
    h, v, c = d.col("H").values, d.col("V").values, d.col("C").values
    y = d.col("Y").values
    assert h.mean() == pytest.approx(0.5, abs=0.02)
    assert (h & v).mean() == pytest.approx(1 / 6, abs=0.02)
    mask = (v == 1) & (c == 1)
    assert y[mask].mean() == pytest.approx(expit(3.75), abs=0.02)


def test_sampler_conditional_cells_at_scale():
    d = sample_dataset(100_000, 5, include_c=True)
    h, v, c = d.col("H").values, d.col("V").values, d.col("C").values
    r, y = d.col("R").values, d.col("Y").values
    for vv, cc in itertools.product((0, 1), repeat=2):
        mask = (v == vv) & (c == cc)
        p = expit(-0.5 + 2.5 * vv + 1.75 * cc)
        se = math.sqrt(p * (1 - p) / mask.sum())
        assert abs(y[mask].mean() - p) <= 3 * se
    for hh, cc in itertools.product((0, 1), repeat=2):
        mask = (h == hh) & (c == cc)
        p = expit(0.75 * hh + 0.5 * cc)
        se = math.sqrt(p * (1 - p) / mask.sum())
        assert abs(r[mask].mean() - p) <= 3 * se


def test_large_sample_tests_agree_with_oracle():
    # Faithfulness of this parameterization at every query with |s| <= 2: the
    # sample-level decision matches the graph in a majority of seeds.  The
    # weakest signal (a collider opened by conditioning) needs roughly half a
    # million rows before the test has power, and single-seed agreement would
    # be flaky anyway because each truly independent query rejects at rate
    # alpha.
    oracle = CiOracle(truth_dag(), ("H", "V", "R", "Y"))
    names = ["H", "V", "R", "Y"]
    seeds = (17, 5, 99, 123, 7)
    agree: dict[tuple, int] = {}
    for seed in seeds:
        d = sample_dataset(500_000, seed, include_c=False)
        for x, y in itertools.combinations(names, 2):
            rest = [v for v in names if v not in (x, y)]
            for k in range(3):
                for s in itertools.combinations(rest, k):
                    want = oracle_test(oracle, x, y, s)
                    got = chi_square_test(d, x, y, s, 0.05).independent
                    agree[(x, y, s)] = agree.get((x, y, s), 0) + (got == want)
    losers = {q: c for q, c in agree.items() if c < 3}
    assert not losers, losers


def test_surrogate_perfect_copies_outcome():
    d = sample_dataset(500, 3, include_c=True)
    out = surrogate_predictor(d, mode="perfect")
    assert out.names == ["H", "V", "C", "R", "Yhat"]
    assert np.array_equal(out.col("Yhat").values, d.col("Y").values)


def test_surrogate_logistic_held_out_accuracy():
    train = sample_dataset(5000, 21, include_c=True)
    x = np.column_stack([train.col(f).values for f in ("H", "V", "C", "R")]).astype(float)
    beta = fit_logistic(x, train.col("Y").values.astype(float))
    test = sample_dataset(2000, 22, include_c=True)
    xt = np.column_stack([test.col(f).values for f in ("H", "V", "C", "R")]).astype(float)
    pred = (expit(np.column_stack([np.ones(2000), xt]) @ beta) > 0.5).astype(int)
    accuracy = (pred == test.col("Y").values).mean()
    assert accuracy >= 0.75


def test_surrogate_logistic_coefficient_ordering():
    d = sample_dataset(5000, 8, include_c=True)
    x = np.column_stack([d.col(f).values for f in ("H", "V", "C", "R")]).astype(float)
    beta = fit_logistic(x, d.col("Y").values.astype(float))
    coef = dict(zip(("H", "V", "C", "R"), beta[1:]))
    assert coef["V"] > coef["H"]
    assert coef["V"] > 0


def test_surrogate_logistic_deterministic_given_seed():
    d = sample_dataset(2000, 4, include_c=True)
    a = surrogate_predictor(d, mode="logistic")
    b = surrogate_predictor(d, mode="logistic")
    assert a == b


def test_surrogate_errors():
    d = sample_dataset(100, 5, include_c=True)
    with pytest.raises(InputError):
        surrogate_predictor(d, mode="zap")
    flat = Dataset(
        [
            Column("H", "cat", np.zeros(50, dtype=int), 2),
            Column("Y", "cat", np.ones(50, dtype=int), 2),
        ]
    )
    with pytest.raises(FitError):
        surrogate_predictor(flat, mode="logistic")
    no_feats = Dataset([Column("Y", "cat", np.array([0, 1] * 25), 2)])
    with pytest.raises(InputError):
        surrogate_predictor(no_feats, mode="logistic")


def test_simulate_pipeline_shapes_and_determinism():
    d = simulate(1000, 6, include_c=False, mode="logistic")
    assert d.names == ["H", "V", "R", "Yhat"]
    d_c = simulate(1000, 6, include_c=True, mode="logistic")
    assert d_c.names == ["H", "V", "C", "R", "Yhat"]
    # the exported feature set does not change the prediction column
    assert np.array_equal(d.col("Yhat").values, d_c.col("Yhat").values)
    assert simulate(1000, 6, include_c=False, mode="logistic") == d

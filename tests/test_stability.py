import collections
import csv
import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from helpers import bird_like_standin, xray_like_standin
from pagaudit.data import Column, CountTable, Dataset
from pagaudit.errors import InputError
from pagaudit.fci import FciConfig, fci_run
from pagaudit import stability as stability_module
from pagaudit.graph import BackgroundKnowledge, EdgeClass, to_json
from pagaudit.simgen import simulate
from pagaudit.stability import (
    StabilityConfig,
    bootstrap_replicate,
    run_stability,
)


def small_dataset(n=400, seed=0, k=3):
    rng = np.random.default_rng(seed)
    cols = [Column(f"f{i}", "cat", rng.integers(0, 2, n), 2) for i in range(k)]
    cols.append(Column("t", "cat", rng.integers(0, 2, n), 2))
    return Dataset(cols)


def test_bootstrap_single_row_is_identity():
    d = Dataset([Column("a", "cat", np.array([1]), 2)])
    rep = bootstrap_replicate(d, 7, 0)
    assert rep == d


def test_bootstrap_deterministic_per_key():
    d = small_dataset()
    assert bootstrap_replicate(d, 3, 5) == bootstrap_replicate(d, 3, 5)
    assert bootstrap_replicate(d, 3, 5) != bootstrap_replicate(d, 3, 6)
    assert bootstrap_replicate(d, 4, 5) != bootstrap_replicate(d, 3, 5)


def test_bootstrap_row_count_distribution():
    # each original row appears with roughly Poisson(1) frequency; the share
    # of distinct rows drawn approaches 1 - 1/e
    n = 5000
    base = Dataset([Column("id", "cat", np.arange(n), n)])
    fractions = []
    zero_counts = []
    for i in range(20):
        rep = bootstrap_replicate(base, 99, i)
        ids = rep.col("id").values
        fractions.append(len(np.unique(ids)) / n)
        zero_counts.append(1.0 - len(np.unique(ids)) / n)
    mean_frac = float(np.mean(fractions))
    assert abs(mean_frac - (1 - math.exp(-1))) <= 0.02
    counts = collections.Counter(
        collections.Counter(bootstrap_replicate(base, 42, 0).col("id").values).values()
    )
    # Poisson(1): P(k=1) about 0.368, P(k=2) about 0.184 of rows
    assert counts[1] / n == pytest.approx(math.exp(-1), abs=0.03)
    assert counts[2] / n == pytest.approx(math.exp(-1) / 2, abs=0.03)


def test_bootstrap_empty_rejected():
    with pytest.raises(InputError):
        StabilityConfig(target="t", replicates=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("replicates", 2.5),
        ("replicates", "3"),
        ("base_seed", 1.5),
        ("base_seed", True),
        ("subsample_fraction", "0.5"),
    ],
)
def test_config_rejects_a_value_of_the_wrong_type_naming_the_field(field, value):
    with pytest.raises(InputError, match=f"{field} must be .*got {value!r}"):
        StabilityConfig(target="t", **{field: value})


def test_config_takes_numpy_numbers():
    cfg = StabilityConfig(
        target="t",
        replicates=np.int64(3),
        base_seed=np.uint64(7),
        subsample_fraction=np.float32(0.5),
    )
    assert (cfg.replicates, cfg.base_seed, cfg.subsample_fraction) == (3, 7, 0.5)


def test_single_replicate_matches_single_run():
    from pagaudit.fci import fci_run
    from pagaudit.graph import classify_edge

    d = simulate(3000, 1, include_c=False, mode="logistic")
    cfg = StabilityConfig(target="Yhat", replicates=1, base_seed=5, fci=FciConfig(test="chi2"))
    report = run_stability(d, cfg)
    rep0 = bootstrap_replicate(d, 5, 0)
    single = fci_run(rep0, cfg=FciConfig(test="chi2"), target="Yhat")
    for name, fs in report.features.items():
        expected = classify_edge(single.graph, name, "Yhat")
        assert fs.counts[expected] == 1
        for cls in EdgeClass:
            assert fs.frequency(cls) in (0.0, 1.0)


def test_all_independent_columns_false_positive_control():
    # Replicates resample one realized dataset, so a sample association that
    # lands near the rejection threshold keeps its edge in many replicates:
    # conditionally on a dataset the false-cause rate is far from binomial.
    # The meaningful null control averages over independent datasets, where
    # the rate sits near alpha (slightly above, because a false edge into the
    # target is usually oriented as a possible cause).
    rates = []
    for ds_seed in range(10):
        d = small_dataset(n=2000, seed=100 + ds_seed, k=4)
        cfg = StabilityConfig(
            target="t", replicates=10, base_seed=ds_seed, fci=FciConfig(test="chi2")
        )
        report = run_stability(d, cfg)
        rates.extend(fs.cause_frequency for fs in report.features.values())
    assert float(np.mean(rates)) <= 0.15
    assert float(np.median(rates)) == 0.0


def test_frequencies_sum_to_one_and_denominator():
    d = simulate(2000, 2, include_c=False, mode="logistic")
    cfg = StabilityConfig(target="Yhat", replicates=10, base_seed=1, fci=FciConfig(test="chi2"))
    report = run_stability(d, cfg)
    assert report.successes == 10
    for fs in report.features.values():
        assert sum(fs.counts.values()) == report.successes
        assert sum(fs.frequency(c) for c in EdgeClass) == pytest.approx(1.0)
        assert 0.0 <= fs.cause_frequency <= 1.0


def test_doubling_replicates_preserves_prefix():
    d = simulate(1500, 4, include_c=False, mode="logistic")

    def classifications(replicates):
        from pagaudit.stability import _one_replicate

        cfg = StabilityConfig(
            target="Yhat", replicates=replicates, base_seed=9, fci=FciConfig(test="chi2")
        )
        return [_one_replicate(d, cfg, None, i) for i in range(replicates)]

    short = classifications(5)
    longer = classifications(10)
    assert longer[:5] == short


def test_failures_recorded_and_excluded():
    rng = np.random.default_rng(0)
    # tiny continuous dataset: every replicate fails the fisher-z length check
    d = Dataset(
        [
            Column("x", "cont", rng.normal(size=3)),
            Column("y", "cont", rng.normal(size=3)),
            Column("t", "cont", rng.normal(size=3)),
        ]
    )
    cfg = StabilityConfig(target="t", replicates=4, base_seed=0, fci=FciConfig(test="fisherz"))
    report = run_stability(d, cfg)
    assert report.successes == 0
    assert len(report.failures) == 4
    for fs in report.features.values():
        assert fs.cause_frequency == 0.0


def test_subsample_mode():
    d = small_dataset(n=1000, seed=5)
    cfg = StabilityConfig(
        target="t",
        replicates=3,
        base_seed=1,
        fci=FciConfig(test="chi2"),
        subsample_fraction=0.5,
    )
    report = run_stability(d, cfg)
    assert report.successes == 3
    with pytest.raises(InputError):
        StabilityConfig(target="t", subsample_fraction=1.5)


def test_report_serialization_round_trip():
    d = simulate(1500, 7, include_c=False, mode="logistic")
    cfg = StabilityConfig(target="Yhat", replicates=8, base_seed=4, fci=FciConfig(test="chi2"))
    report = run_stability(d, cfg)
    obj = json.loads(report.to_json())
    assert obj["target"] == "Yhat"
    assert set(obj["features"]) == {"H", "V", "R"}
    for name, entry in obj["features"].items():
        assert entry["cause_frequency"] == pytest.approx(
            report.features[name].cause_frequency
        )
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert [r["feature"] for r in rows] == ["H", "V", "R"]
    header = report.to_csv().splitlines()[0]
    assert header == "feature,def_cause,poss_cause,confounded,none,cause_frequency"
    for r in rows:
        total = sum(float(r[k]) for k in ("def_cause", "poss_cause", "confounded", "none"))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_missing_target_rejected():
    d = small_dataset()
    with pytest.raises(InputError):
        run_stability(d, StabilityConfig(target="ghost", replicates=2))


def _fci_outputs(result):
    return to_json(result.graph), result.sepsets.items(), asdict(result.diagnostics)


@pytest.mark.parametrize("fraction", [None, 0.5])
@pytest.mark.parametrize(
    "data, cfg",
    [
        ("bird27", FciConfig(alpha=0.05, max_cond_size=3, test="chi2")),
        ("xray8", FciConfig(alpha=0.05, test="chi2")),
        ("xray8", FciConfig(alpha=0.2, test="g2")),
    ],
)
def test_counted_replicate_runs_like_the_materialised_one(data, cfg, fraction):
    # bird27's 1500 rows are all distinct, xray8's repeat.  The counted
    # replicate must hold the drawn rows, in draw order, and give the same
    # run; the bird27 goldens and test_first_independent_matches_a_one_at_a_time_walk
    # compare the counted path with statistics on the rows themselves
    sources = [bird_like_standin()] if data == "bird27" else [
        xray_like_standin(seed) for seed in range(4)
    ]
    for d in sources:
        rows = bootstrap_replicate(d, 1, 0, fraction)
        counted = bootstrap_replicate(CountTable.of(d), 1, 0, fraction)
        assert Dataset(list(counted.columns)) == rows
        assert _fci_outputs(fci_run(counted, cfg=cfg, target="label")) == _fci_outputs(
            fci_run(rows, cfg=cfg, target="label")
        )


@pytest.mark.parametrize(
    "kind, test",
    [("cat", "fisherz"), ("cont", "chi2"), ("cont", "g2"), ("mixed", "auto"), ("cat", "oracle")],
)
def test_a_test_that_does_not_fit_the_columns_raises_before_any_replicate(kind, test):
    rng = np.random.default_rng(0)
    cat = [Column(n, "cat", rng.integers(0, 2, 50), 2) for n in ("a", "t")]
    cont = [Column(n, "cont", rng.normal(size=50)) for n in ("a", "t")]
    cols = {"cat": cat, "cont": cont, "mixed": [cat[0], cont[1]]}[kind]
    cfg = StabilityConfig(target="t", replicates=3, fci=FciConfig(test=test))
    with pytest.raises(InputError):
        run_stability(Dataset(cols), cfg)


def test_knowledge_naming_an_unknown_variable_raises_before_any_replicate(monkeypatch):
    # such knowledge once failed every replicate alike and returned a report
    # of zero successes; fci_run raises the same InputError on one run
    know = BackgroundKnowledge(forbidden_adjacencies={("H", "nosuch")})
    d = simulate(500, 1)
    with pytest.raises(InputError, match=r"knowledge references unknown variables: \['nosuch'\]"):
        fci_run(d, know, target="Yhat")
    replicates = []
    monkeypatch.setattr(stability_module, "_one_replicate", lambda *args: replicates.append(args))
    with pytest.raises(InputError, match=r"knowledge references unknown variables: \['nosuch'\]"):
        run_stability(d, StabilityConfig(target="Yhat", replicates=3), know)
    assert replicates == []

import itertools
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CURATED_RULE_CASES,
    PDS_REQUIRED_CASE,
    bird_like_standin,
    build_dag,
    class_pag,
    mag_equivalence_class,
    observed_independence_facts,
    random_dag,
    random_latent_dag,
    separated_by_paths,
    xray_like_standin,
)
from pagaudit import citests as citests_module
from pagaudit import fci as fci_module
from pagaudit import graph as graph_module
from pagaudit.citests import (
    GSQUARED,
    PEARSON,
    CiOracle,
    CiTestResult,
    chi_square_test,
    oracle_test,
)
from pagaudit.data import Column, CountTable, Dataset
from pagaudit.errors import (
    DegenerateInputError,
    InputError,
    InternalConsistencyError,
    KnowledgeInconsistencyError,
)
from pagaudit.fci import (
    CiTester,
    Diagnostics,
    FciConfig,
    SepSetMap,
    apply_orientation_rules,
    fci_run,
    orient_colliders,
    parse_knowledge,
    possible_dsep_prune,
    skeleton_search,
)
from pagaudit.graph import (
    BackgroundKnowledge,
    GraphKind,
    Mark,
    MixedGraph,
    descendants,
    to_json,
    validate,
)
from pagaudit.simgen import simulate, truth_dag
from pagaudit.stability import bootstrap_replicate

OBS4 = ("H", "V", "R", "Yhat")


def shapes_oracle():
    return CiOracle(truth_dag(outcome_name="Yhat"), OBS4)


def oracle_tester(oracle, **cfg):
    return CiTester(oracle, FciConfig(test="oracle", **cfg))


def edgeless_tester(names):
    """An oracle tester on which every pair is independent given any set."""
    return oracle_tester(CiOracle(build_dag(names, []), names))


def learned_pag():
    g = MixedGraph(OBS4, GraphKind.PAG)
    g.add_circle_edge("H", "V")
    g.add_edge("H", "R", Mark.CIRCLE, Mark.ARROW)
    g.add_edge("V", "Yhat", Mark.CIRCLE, Mark.ARROW)
    g.add_bidirected_edge("R", "Yhat")
    return g


# -- config ---------------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = FciConfig()
    assert cfg.alpha == 0.05
    assert cfg.max_cond_size is None
    assert cfg.enable_possible_dsep
    for bad in (dict(alpha=0.0), dict(alpha=1.0), dict(max_cond_size=-1), dict(test="zap")):
        with pytest.raises(InputError):
            FciConfig(**bad)


@pytest.mark.parametrize(
    "field, value",
    [("alpha", "0.05"), ("alpha", True), ("max_cond_size", 2.5), ("max_cond_size", "2")],
)
def test_config_rejects_a_value_of_the_wrong_type_naming_the_field(field, value):
    with pytest.raises(InputError, match=f"{field} must be .*got {value!r}"):
        FciConfig(**{field: value})


def test_config_takes_numpy_numbers():
    cfg = FciConfig(alpha=np.float64(0.1), max_cond_size=np.int64(2))
    assert (cfg.alpha, cfg.max_cond_size) == (0.1, 2)


# -- skeleton ---------------------------------------------------------------------


def test_skeleton_on_shapes_oracle():
    g, seps = skeleton_search(oracle_tester(shapes_oracle()))
    got = {(e.a, e.b) for e in g.edges()}
    assert got == {("H", "V"), ("H", "R"), ("V", "Yhat"), ("R", "Yhat")}
    by_name = seps.as_names(OBS4)
    assert by_name == {("H", "Yhat"): {"V"}, ("V", "R"): {"H"}}
    # the recorded sets agree with brute-force search over the latent DAG
    dag = truth_dag(outcome_name="Yhat")
    assert separated_by_paths(dag, "H", "Yhat", {"V"})
    assert separated_by_paths(dag, "V", "R", {"H"})


def test_skeleton_mutually_independent_nodes():
    tester, calls = edgeless_tester(("A", "B", "C")), []
    decide = tester._decide

    def recorded(x, y, s):
        calls.append((x, y, s))
        return decide(x, y, s)

    tester._decide = recorded
    g, seps = skeleton_search(tester)
    assert g.n_edges == 0
    assert len(calls) == 3
    assert all(s == 0 for (_, _, s) in calls)  # everything fell at depth zero
    assert len(seps) == 3


def test_skeleton_max_cond_size_zero_keeps_all_edges():
    g, seps = skeleton_search(oracle_tester(shapes_oracle(), max_cond_size=0))
    assert g.n_edges == 6
    assert len(seps) == 0


def test_skeleton_needs_two_nodes():
    with pytest.raises(InputError):
        skeleton_search(edgeless_tester(("A",)))


def test_skeleton_respects_adjacency_knowledge():
    know = BackgroundKnowledge(
        forbidden_adjacencies={frozenset(("H", "V"))},
        required_adjacencies={frozenset(("H", "Yhat"))},
    )
    g, seps = skeleton_search(oracle_tester(shapes_oracle()), knowledge=know)
    assert not g.adjacent("H", "V")
    assert g.adjacent("H", "Yhat")  # never tested, stays
    entry = seps.get(0, 1)
    assert entry is not None and entry.from_knowledge


def test_test_errors_carry_the_query():
    def broken(x, y, s):
        raise ValueError("boom")

    d = Dataset(
        [
            Column("a", "cat", np.array([0, 1, 0, 1]), 2),
            Column("b", "cat", np.array([0, 0, 1, 1]), 2),
        ]
    )
    tester = CiTester(d, FciConfig(test="chi2"))
    tester._decide = broken
    with pytest.raises(ValueError) as err:
        skeleton_search(tester)
    assert "a _||_ b" in str(err.value)
    assert isinstance(err.value.__cause__, ValueError)


class TwoPartError(Exception):
    """An error whose type cannot be built from one message."""

    def __init__(self, what, where):
        super().__init__(what, where)


@pytest.mark.parametrize("kind, test", [("cat", "chi2"), ("cont", "fisherz")])
def test_an_error_that_cannot_take_the_query_is_raised_unchanged(kind, test):
    error = TwoPartError("boom", "decider")

    def broken(*args):
        raise error

    arity = 2 if kind == "cat" else None
    d = Dataset([Column(name, kind, np.array([0, 1, 0, 1]), arity) for name in "ab"])
    tester = CiTester(d, FciConfig(test=test))
    tester._decide = broken
    with pytest.raises(TwoPartError) as err:
        tester.first_independent(0, 1, [()])
    assert err.value is error and err.value.args == ("boom", "decider")
    assert err.value.__cause__ is None and err.value.__context__ is None


@pytest.mark.parametrize(
    "third, message",
    [
        ("copy", "singular correlation submatrix [while testing a _||_ b | ['c']]"),
        ("constant", "constant column in correlation submatrix [while testing a _||_ c | []]"),
    ],
)
def test_fisher_z_errors_carry_the_query(third, message):
    # a and b are dependent, so the walk of (a, b) reaches depth 1, where a
    # copy of a as c makes the correlation submatrix singular
    rng = np.random.default_rng(0)
    a = rng.normal(size=50)
    b = a + rng.normal(size=50)
    c = a.copy() if third == "copy" else np.ones(50)
    d = Dataset([Column(name, "cont", v) for name, v in zip("abc", (a, b, c))])
    with pytest.raises(DegenerateInputError) as err:
        fci_run(d, cfg=FciConfig(test="fisherz"))
    assert str(err.value) == message
    assert isinstance(err.value.__cause__, DegenerateInputError)


def test_a_failing_score_ahead_call_names_its_first_query():
    # four noisy copies of one column: no pair is independent given the empty
    # set, so depth 1 opens with one score-ahead call over every pair's sets
    rng = np.random.default_rng(3)
    base = rng.integers(0, 2, 400)
    columns = [np.where(rng.random(400) < 0.1, 1 - base, base) for _ in range(4)]
    d = Dataset([Column(f"c{i}", "cat", v, 2) for i, v in enumerate(columns)])
    tester = CiTester(d, FciConfig(test="chi2"))
    decide, calls = tester._decide, []

    def fails_at_depth_1(x, y, subsets):
        calls.append((x, y, list(subsets)))
        if any(subsets):
            raise ValueError("boom")
        return decide(x, y, subsets)

    tester._decide = fails_at_depth_1
    with pytest.raises(ValueError) as err:
        skeleton_search(tester)
    x, y, subsets = calls[-1]
    assert len(set(zip(x, y))) > 1  # one call over several pairs
    assert str(err.value) == (
        f"boom [while testing c0 _||_ c1 | ['c2'] (or one of the {len(subsets) - 1} sets after it)]"
    )
    assert isinstance(err.value.__cause__, ValueError)


def _fci_outputs(result):
    seps = [(pair, sorted(e.nodes), e.from_knowledge) for pair, e in result.sepsets.items()]
    return to_json(result.graph), seps, asdict(result.diagnostics)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.one_of(st.integers(1, 40), st.integers(2_000, 9_000)),
    arities=st.lists(st.integers(1, 3), min_size=3, max_size=7),
    max_cond_size=st.sampled_from([None, 0, 2]),
    pds=st.booleans(),
    test=st.sampled_from(["chi2", "g2"]),
    knowledge=st.integers(0, 3),
)
def test_scoring_ahead_changes_no_output(seed, n, arities, max_cond_size, pds, test, knowledge):
    # noisy copies along a chain and of the first column keep some pairs
    # dependent; arity-1 columns are constant; bit 0 of ``knowledge`` forbids
    # an adjacency and bit 1 requires one
    rng = np.random.default_rng(seed)
    columns = [rng.integers(0, arities[0], n)]
    for a in arities[1:]:
        source = columns[rng.integers(0, len(columns))]
        columns.append(np.where(rng.random(n) < 0.3, rng.integers(0, a, n), source % a))
    names = [f"c{i}" for i in range(len(arities))]
    d = Dataset([Column(nm, "cat", v, a) for nm, v, a in zip(names, columns, arities)])
    pairs = [frozenset(p) for p in itertools.combinations(names, 2)]
    picked = rng.choice(len(pairs), size=2, replace=False)
    know = BackgroundKnowledge(
        forbidden_adjacencies={pairs[picked[0]]} if knowledge & 1 else set(),
        required_adjacencies={pairs[picked[1]]} if knowledge & 2 else set(),
    )
    cfg = FciConfig(max_cond_size=max_cond_size, enable_possible_dsep=pds, test=test)
    scored = _fci_outputs(fci_run(d, know, cfg))
    with mock.patch.object(CiTester, "score_ahead", lambda self, walks: None):
        assert _fci_outputs(fci_run(d, know, cfg)) == scored


def test_xray8_replicates_take_few_kernel_calls(monkeypatch):
    # the 8-column stand-in's replicates are bound by per-call overhead: these
    # 40 replicates make 231 kernel calls, 5.8 per replicate; each replicate
    # makes at least one, so a count of 0 means the patched name is no longer
    # the one FCI calls
    calls = 0
    kernel = citests_module.chi_square_batch

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(citests_module, "chi_square_batch", counted)
    replicates = 0
    for seed in range(5):
        table = CountTable.of(xray_like_standin(seed))
        for i in range(8):
            fci_run(bootstrap_replicate(table, 1, i), cfg=FciConfig(test="chi2"), target="label")
            replicates += 1
    assert replicates <= calls <= 12 * replicates


def test_oracle_fci_unions_each_frontier_once(monkeypatch):
    # oracle FCI on these 20 DAGs makes 3,177 frontier unions; a union per
    # Bayes-ball step made 97,347 for the same 32,332 tests and 16,079 cache
    # hits.  Each run unions at least once, so a count of 0 means the
    # patched name is no longer the one the oracle's maps call
    calls = 0
    union = graph_module._union

    def counted(*args):
        nonlocal calls
        calls += 1
        return union(*args)

    monkeypatch.setattr(graph_module, "_union", counted)
    tests = hits = 0
    for seed in range(20):
        dag, observed = random_latent_dag(seed, 12, 20, 3)
        diag = fci_run(CiOracle(dag, observed), cfg=FciConfig(test="oracle")).diagnostics
        tests += diag.tests_run
        hits += diag.cache_hits
    assert (tests, hits) == (32_332, 16_079)
    assert 20 <= calls <= 97_347 // 10


def test_a_tester_never_scores_the_same_query_twice(monkeypatch):
    # a result scored ahead waits in the cache until a walk reads it, in
    # either orientation, at a later depth or in Possible-D-SEP
    decider, twice = fci_module.decider, []

    def counting(source, selector, alpha):
        decide, rows = decider(source, selector, alpha)
        scored = set()

        def counted(x, y, subsets):
            pairs = itertools.repeat((x, y)) if isinstance(x, int) else zip(x, y)
            for (a, b), s in zip(pairs, subsets):
                query = (min(a, b), max(a, b), frozenset(s))
                if query in scored:
                    twice.append(query)
                scored.add(query)
            return decide(x, y, subsets)

        return counted, rows

    monkeypatch.setattr(fci_module, "decider", counting)
    for seed in range(5):
        table = CountTable.of(xray_like_standin(seed))
        for i in range(8):
            fci_run(bootstrap_replicate(table, 1, i), cfg=FciConfig(test="chi2"), target="label")
    assert twice == []


def test_a_set_too_large_for_one_call_is_scored_on_the_strata_that_occur(monkeypatch):
    # 10**4 strata of 100 cells each pass a call's cap 15 times over; the
    # 200 rows occupy at most 200 of those strata, fewer since the columns
    # share one hidden cause
    rng = np.random.default_rng(3)
    hidden = rng.integers(0, 10, 200)
    d = Dataset([
        Column(f"v{i}", "cat", (hidden + rng.integers(0, 2, 200)) % 10, 10) for i in range(7)
    ])
    # scored before the kernel is recorded, so that only the tester's call is
    single = chi_square_test(d, "v0", "v1", ["v2", "v3", "v4", "v5"])
    kernel, results = citests_module.chi_square_batch, []

    def recorded(*args):
        results.append(kernel(*args))
        return results[-1]

    monkeypatch.setattr(citests_module, "chi_square_batch", recorded)
    tester = CiTester(CountTable.of(d), FciConfig(test="chi2"))
    tracemalloc.start()
    try:
        found = tester.first_independent(0, 1, [(2, 3, 4, 5)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    [(stats, dofs)] = results
    assert single.dof > 0
    assert (found is not None) == single.independent
    assert dofs.tolist() == [single.dof]
    assert stats[0] == single.statistic


def test_a_set_whose_strata_pass_int64_is_scored_on_the_strata_that_occur():
    # 10 members of 200 levels each: 200**10 possible strata, one per row
    rng = np.random.default_rng(4)
    d = Dataset([Column(f"v{i}", "cat", rng.permutation(200), 200) for i in range(12)])
    members = tuple(range(2, 12))
    tester = CiTester(CountTable.of(d), FciConfig(test="chi2"))
    assert tester.first_independent(0, 1, [members]) == members
    assert tester.diagnostics.dof_zero_warnings == 1


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 7),
    first=st.integers(0, 2),
    sizes=st.integers(1, 3),
)
def test_a_stage_asks_every_query_and_repeats_no_answered_walk(seed, n, first, sizes):
    # random adjacency, candidate masks and required pairs; an oracle on a
    # complete DAG never answers "independent", so every edge stays and each
    # walk's sets are fixed
    rng = np.random.default_rng(seed)
    names = tuple(f"v{i}" for i in range(n))
    g = MixedGraph(names, GraphKind.PAG)
    required = [0] * n
    for x, y in itertools.combinations(range(n), 2):
        if rng.random() < 0.7:
            g.add_circle_edge(x, y)
        if rng.random() < 0.15:
            required[x] |= 1 << y
            required[y] |= 1 << x
    candidates = [int(rng.integers(0, 1 << n)) & ~(1 << x) for x in range(n)]
    sizes = range(first, first + sizes)
    walks, asked = {}, set()
    tester = oracle_tester(CiOracle(build_dag(names, itertools.combinations(names, 2)), names))
    first_independent, decide = tester.first_independent, tester._decide

    def recording(x, y, subsets):
        assert (x, y) not in walks
        walks[x, y] = list(subsets)
        return first_independent(x, y, walks[x, y])

    def recorded(x, y, z):
        asked.add((frozenset((x, y)), frozenset(fci_module.bits(z))))
        return decide(x, y, z)

    tester.first_independent, tester._decide = recording, recorded
    adj = list(g.adj)
    fci_module._run_stage(tester, g, SepSetMap(), candidates, sizes, required)
    assert g.adj == adj
    stage = {
        (frozenset((x, y)), frozenset(s))
        for x in range(n)
        for y in fci_module.bits(g.adj[x] & ~required[x])
        for k in sizes
        for s in itertools.combinations(fci_module.bits(candidates[x] & ~(1 << y)), k)
    }
    assert asked == stage
    for (x, y), sets in walks.items():
        if x > y:
            assert not set(sets) <= set(walks.get((y, x), ())), (x, y)


@pytest.mark.parametrize("test, counts", [("chi2", (23_963, 2_206)), ("g2", (28_304, 3_281))])
def test_bird27_replicate_reads_few_answers_twice(monkeypatch, test, counts):
    # the golden bird27 run: while a pair's later walk still ran after its
    # earlier walk had asked all its sets, the same tests made 18,557 (chi2)
    # and 24,283 (g2) cache hits; while score-ahead calls held at most 2^12
    # rows x sets against a walk batch's 2^16, they took 718 (chi2) and 796
    # (g2) kernel calls
    calls = 0
    kernel = citests_module.chi_square_batch

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(citests_module, "chi_square_batch", counted)
    rep = bootstrap_replicate(bird_like_standin(), 1, 0)
    diag = fci_run(rep, cfg=FciConfig(alpha=0.05, max_cond_size=3, test=test), target="label").diagnostics
    assert (diag.tests_run, diag.cache_hits) == counts
    assert calls == {"chi2": 436, "g2": 505}[test]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.one_of(st.integers(1, 40), st.integers(2_000, 9_000)),
    arities=st.lists(st.integers(1, 3), min_size=4, max_size=8),
    k=st.integers(0, 4),
    warm=st.integers(0, 40),
    alpha=st.sampled_from([0.05, 0.5, 0.95]),
)
def test_first_independent_matches_a_one_at_a_time_walk(seed, n, arities, k, warm, alpha):
    # a chain of noisy copies keeps some pairs dependent; arity-1 columns are
    # constant and give zero-dof answers; n >= 2000 spreads a walk over
    # several growing batches
    rng = np.random.default_rng(seed)
    columns = [rng.integers(0, arities[0], n)]
    for a in arities[1:]:
        noisy = rng.random(n) < 0.3
        columns.append(np.where(noisy, rng.integers(0, a, n), columns[-1] % a))
    names = [f"c{i}" for i in range(len(arities))]
    d = Dataset([Column(nm, "cat", v, a) for nm, v, a in zip(names, columns, arities)])
    batched = CiTester(d, FciConfig(alpha=alpha, test="chi2"))

    # the reference: a plain callable with a frozenset-keyed cache, one query at a time
    cache, counts = {}, {"tests_run": 0, "cache_hits": 0, "dof_zero_warnings": 0}

    def plain(x, y, s):
        key = (min(x, y), max(x, y), frozenset(s))
        if key in cache:
            counts["cache_hits"] += 1
            return cache[key]
        counts["tests_run"] += 1
        result = chi_square_test(d, names[x], names[y], [names[v] for v in s], alpha)
        counts["dof_zero_warnings"] += result.dof == 0
        cache[key] = result.independent
        return result.independent

    # the same cached answers in both, asked in both orientations of the pair
    m = len(arities)
    for _ in range(warm):
        x, y = (int(v) for v in rng.choice(m, size=2, replace=False))
        rest = [v for v in range(m) if v not in (x, y)]
        s = tuple(sorted(int(v) for v in rng.choice(rest, size=rng.integers(0, 3), replace=False)))
        batched.first_independent(x, y, [s])
        plain(y, x, s)
    x, y = (int(v) for v in rng.choice(m, size=2, replace=False))
    others = [v for v in range(m) if v not in (x, y)]
    subsets = list(itertools.combinations(others, min(k, len(others))))

    got = batched.first_independent(x, y, iter(subsets))
    assert got == next((s for s in subsets if plain(x, y, s)), None)
    diag = batched.diagnostics
    assert (diag.tests_run, diag.cache_hits, diag.dof_zero_warnings) == tuple(counts.values())
    assert len(batched._cache) == len(cache)  # nothing cached past the stop


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 10),
    n_latent=st.integers(0, 3),
    p_edge=st.sampled_from([0.2, 0.4, 0.6]),
    k=st.integers(0, 4),
    warm=st.integers(0, 40),
)
def test_oracle_first_independent_matches_a_walk_over_oracle_test(
    seed, n, n_latent, p_edge, k, warm
):
    # latent nodes, and observed nodes in shuffled order, make a node's
    # observed position differ from its index in the truth
    rng = np.random.default_rng(seed)
    truth = random_dag(rng, n, p_edge)
    latent = set(rng.choice(n, min(n_latent, n - 2), replace=False).tolist())
    observed = [name for i, name in enumerate(truth.names) if i not in latent]
    observed = tuple(observed[i] for i in rng.permutation(len(observed)))
    oracle = CiOracle(truth, observed)
    tester = oracle_tester(oracle)

    # the reference: a plain callable over oracle_test by names, with a
    # frozenset-keyed cache
    cache, counts = {}, {"tests_run": 0, "cache_hits": 0}

    def plain(x, y, s):
        key = (min(x, y), max(x, y), frozenset(s))
        if key in cache:
            counts["cache_hits"] += 1
            return cache[key]
        counts["tests_run"] += 1
        cache[key] = oracle_test(oracle, observed[x], observed[y], [observed[v] for v in s])
        return cache[key]

    # the same cached answers in both, asked in both orientations of the pair
    m = len(observed)
    for _ in range(warm):
        x, y = (int(v) for v in rng.choice(m, size=2, replace=False))
        rest = [v for v in range(m) if v not in (x, y)]
        size = min(int(rng.integers(0, 3)), len(rest))
        s = tuple(sorted(int(v) for v in rng.choice(rest, size=size, replace=False)))
        assert (tester.first_independent(x, y, [s]) is not None) == plain(y, x, s)
    x, y = (int(v) for v in rng.choice(m, size=2, replace=False))
    others = [v for v in range(m) if v not in (x, y)]
    subsets = list(itertools.combinations(others, min(k, len(others))))

    got = tester.first_independent(x, y, iter(subsets))
    assert got == next((s for s in subsets if plain(x, y, s)), None)
    diag = tester.diagnostics
    assert (diag.tests_run, diag.cache_hits, diag.dof_zero_warnings) == (*counts.values(), 0)
    assert len(tester._cache) == len(cache)  # nothing cached past the stop


@pytest.mark.parametrize(
    "kind, selector, expected",
    [
        ("cat", "auto", ("chi2", PEARSON)),
        ("cat", "chi2", ("chi2", PEARSON)),
        ("cat", "g2", ("chi2", GSQUARED)),
        ("cont", "auto", ("fisherz",)),
        ("cont", "fisherz", ("fisherz",)),
    ],
)
def test_tester_runs_the_selected_test(monkeypatch, kind, selector, expected):
    calls = []
    independent = CiTestResult(0.0, 1, 1.0, True, 0.05)

    def chi2(x, rx, y, ry, members, arities, variant, weights):
        calls.append(("chi2", variant))
        return np.zeros(len(arities)), np.ones(len(arities), dtype=np.int64)

    def fisherz(columns, alpha):
        calls.append(("fisherz",))
        return independent

    monkeypatch.setattr(citests_module, "chi_square_batch", chi2)
    monkeypatch.setattr(citests_module, "fisher_z_columns", fisherz)
    arity = 2 if kind == "cat" else None
    d = Dataset([Column(name, kind, np.array([0, 1, 0, 1]), arity) for name in "ab"])
    assert CiTester(d, FciConfig(test=selector)).first_independent(0, 1, [()]) == ()
    assert calls == [expected]


# -- collider orientation -------------------------------------------------------------


def test_orient_colliders_on_shapes_skeleton():
    g, seps = skeleton_search(oracle_tester(shapes_oracle()))
    oriented = orient_colliders(g, seps)
    # R is outside sepset(H, Yhat): arrows at R on both edges
    assert oriented.mark_at("R", "H") is Mark.ARROW
    assert oriented.mark_at("R", "Yhat") is Mark.ARROW
    # Yhat is outside sepset(V, R): arrows at Yhat
    assert oriented.mark_at("Yhat", "R") is Mark.ARROW
    assert oriented.mark_at("Yhat", "V") is Mark.ARROW
    # V sits inside sepset(H, Yhat): triple H-V-Yhat stays unoriented
    assert oriented.mark_at("V", "H") is Mark.CIRCLE
    assert oriented.mark_at("V", "Yhat") is Mark.CIRCLE
    assert oriented.mark_at("H", "V") is Mark.CIRCLE


def test_orient_colliders_shielded_triple_untouched():
    g = MixedGraph(("A", "B", "C"), GraphKind.PAG)
    g.add_circle_edge("A", "B")
    g.add_circle_edge("B", "C")
    g.add_circle_edge("A", "C")
    out = orient_colliders(g, SepSetMap())
    assert all(e.mark_a is Mark.CIRCLE and e.mark_b is Mark.CIRCLE for e in out.edges())


def test_orient_colliders_missing_sepset_is_error():
    g = MixedGraph(("A", "B", "C"), GraphKind.PAG)
    g.add_circle_edge("A", "B")
    g.add_circle_edge("B", "C")
    with pytest.raises(InternalConsistencyError):
        orient_colliders(g, SepSetMap())


# -- possible-d-sep pruning --------------------------------------------------------------


def test_pdsep_no_removals_on_shapes_oracle():
    tester = oracle_tester(shapes_oracle())
    g, seps = skeleton_search(tester)
    before = {(e.a, e.b) for e in g.edges()}
    pruned, _ = possible_dsep_prune(g, seps, tester)
    assert {(e.a, e.b) for e in pruned.edges()} == before
    assert all(
        e.mark_a is Mark.CIRCLE and e.mark_b is Mark.CIRCLE for e in pruned.edges()
    )


def test_pdsep_edgeless_unchanged():
    g = MixedGraph(("A", "B"), GraphKind.PAG)
    seps = SepSetMap()
    seps.set(0, 1, frozenset())
    pruned, _ = possible_dsep_prune(g, seps, edgeless_tester(("A", "B")))
    assert pruned.n_edges == 0


@pytest.mark.parametrize("source", [simulate(2000, 1), bird_like_standin()], ids=["sim", "bird27"])
def test_possible_dsep_walks_no_size_past_the_node_count(monkeypatch, source):
    # a limit of 10**9 once had every pair's walk make an empty combinations
    # for each size up to it, so such a run never ended; the check comes
    # before the stage runs, so such a walk never starts
    stage, handed = fci_module._run_stage, []

    def recorded(test, g, sepsets, candidates, sizes, required):
        handed.append(sizes)
        assert len(sizes) <= g.n_nodes + 1
        stage(test, g, sepsets, candidates, sizes, required)

    target = source.names[-1]
    monkeypatch.setattr(fci_module, "_run_stage", recorded)
    huge = fci_run(source, cfg=FciConfig(max_cond_size=10**9, test="chi2"), target=target)
    monkeypatch.undo()
    free = fci_run(source, cfg=FciConfig(test="chi2"), target=target)
    assert handed[-1] == range(len(source.names) + 1)
    assert huge.graph.edge_mark_pairs() == free.graph.edge_mark_pairs()
    assert huge.sepsets.items() == free.sepsets.items()
    assert asdict(huge.diagnostics) == asdict(free.diagnostics)


def test_pdsep_removes_edge_skeleton_cannot():
    case = PDS_REQUIRED_CASE
    dag = build_dag(case["nodes"], case["edges"])
    x, y = case["pair"]
    # brute-force: the pair is separable, but never by a subset of either
    # endpoint's final adjacency set
    facts = observed_independence_facts(dag, case["observed"])
    seps = [s for (a, b, s), v in facts.items() if {a, b} == {x, y} and v]
    assert seps == [frozenset(case["separator"])]
    oracle = CiOracle(dag, tuple(case["observed"]))
    tester = oracle_tester(oracle)
    sk, sepmap = skeleton_search(tester)
    assert sk.adjacent(x, y)
    adj_x = {sk.names[i] for i in sk.neighbors(x)} - {y}
    adj_y = {sk.names[i] for i in sk.neighbors(y)} - {x}
    assert not case["separator"] <= adj_x
    assert not case["separator"] <= adj_y
    pruned, sepmap = possible_dsep_prune(sk, sepmap, tester)
    assert not pruned.adjacent(x, y)
    assert sepmap.as_names(tuple(case["observed"]))[(x, y)] == case["separator"]


def pds_case_oracle():
    case = PDS_REQUIRED_CASE
    return CiOracle(build_dag(case["nodes"], case["edges"]), tuple(case["observed"]))


@pytest.mark.parametrize("limit", [2, 3])
def test_possible_dsep_reads_the_testers_size_limit(limit):
    # the one separator of the pair has three members
    tester = oracle_tester(pds_case_oracle(), max_cond_size=limit)
    pruned, _ = possible_dsep_prune(*skeleton_search(tester), tester)
    assert pruned.adjacent(*PDS_REQUIRED_CASE["pair"]) == (limit < 3)


def test_each_stage_counts_into_the_testers_diagnostics():
    tester = oracle_tester(pds_case_oracle())
    diag = tester.diagnostics
    sk, seps = skeleton_search(tester)
    assert diag.tests_run > 0
    assert diag.stage_edge_counts == {"initial": 10, "post_skeleton": sk.n_edges}
    skeleton_tests = diag.tests_run
    pruned, _ = possible_dsep_prune(sk, seps, tester)
    assert diag.tests_run > skeleton_tests
    assert diag.stage_edge_counts["post_possible_dsep"] == pruned.n_edges == sk.n_edges - 1
    assert diag.rule_firings["R0"] > 0  # the provisional collider pass
    assert tester.diagnostics is diag
    # the two stages ask every test a full run asks
    full = fci_run(pds_case_oracle(), cfg=tester.cfg).diagnostics
    assert (full.tests_run, full.cache_hits) == (diag.tests_run, diag.cache_hits)


# -- orientation rules ----------------------------------------------------------------------


def test_rules_on_shapes_oracle_reach_target_pag():
    g, seps = skeleton_search(oracle_tester(shapes_oracle()))
    g = orient_colliders(g, seps)
    know = BackgroundKnowledge.non_ancestor_of_all("Yhat", OBS4)
    out = apply_orientation_rules(g, know, seps)
    assert out.edge_mark_pairs() == learned_pag().edge_mark_pairs()


def test_rules_chain_without_arrowheads_stays_circled():
    chain = build_dag(("A", "B", "C"), [("A", "B"), ("B", "C")])
    res = fci_run(CiOracle(chain, ("A", "B", "C")), cfg=FciConfig(test="oracle"))
    assert {(e.a, e.b) for e in res.graph.edges()} == {("A", "B"), ("B", "C")}
    for e in res.graph.edges():
        assert e.mark_a is Mark.CIRCLE and e.mark_b is Mark.CIRCLE


def test_rule_r1_direct():
    g = MixedGraph(("A", "B", "C"), GraphKind.PAG)
    g.add_edge("A", "B", Mark.CIRCLE, Mark.ARROW)
    g.add_circle_edge("B", "C")
    seps = SepSetMap()
    seps.set(0, 2, frozenset({1}))
    out = apply_orientation_rules(g, sepsets=seps)
    assert out.mark_at("B", "C") is Mark.TAIL
    assert out.mark_at("C", "B") is Mark.ARROW
    assert out.mark_at("A", "B") is Mark.CIRCLE


def test_rule_r8_direct_tail_completion():
    g = MixedGraph(("A", "B", "C"), GraphKind.PAG)
    g.add_directed_edge("A", "B")
    g.add_directed_edge("B", "C")
    g.add_edge("A", "C", Mark.CIRCLE, Mark.ARROW)
    diag = Diagnostics()
    out = apply_orientation_rules(g, diagnostics=diag)
    assert out.mark_at("A", "C") is Mark.TAIL
    assert diag.rule_firings.get("R8") == 1


def test_rules_never_overwrite_fixed_marks():
    # R1 would need an arrow at C, but C's end is already a tail: inconsistent
    g = MixedGraph(("A", "B", "C"), GraphKind.PAG)
    g.add_edge("A", "B", Mark.CIRCLE, Mark.ARROW)
    g.add_edge("B", "C", Mark.CIRCLE, Mark.TAIL)
    seps = SepSetMap()
    seps.set(0, 2, frozenset({1}))
    with pytest.raises(KnowledgeInconsistencyError):
        apply_orientation_rules(g, sepsets=seps)


def test_knowledge_marks_applied_and_checked():
    g = MixedGraph(("A", "B"), GraphKind.PAG)
    g.add_circle_edge("A", "B")
    know = BackgroundKnowledge(non_ancestor_pairs={("B", "A")})
    out = apply_orientation_rules(g, know)
    assert out.mark_at("B", "A") is Mark.ARROW
    bad = MixedGraph(("A", "B"), GraphKind.PAG)
    bad.add_edge("A", "B", Mark.ARROW, Mark.TAIL)  # tail at B: B causes A
    with pytest.raises(KnowledgeInconsistencyError):
        apply_orientation_rules(bad, know)


def test_curated_rule_suite_fires_and_matches_enumeration():
    fired_total = set()
    for name, nodes, edges, observed, know_pairs, expected_rules in CURATED_RULE_CASES:
        dag = build_dag(nodes, edges)
        know = (
            BackgroundKnowledge(non_ancestor_pairs=set(know_pairs))
            if know_pairs
            else None
        )
        res = fci_run(
            CiOracle(dag, tuple(observed)), knowledge=know, cfg=FciConfig(test="oracle")
        )
        members = mag_equivalence_class(dag, observed, know_pairs)
        assert members, name
        expected = class_pag(members)
        assert res.graph.edge_mark_pairs() == expected.edge_mark_pairs(), name
        fired = set(res.diagnostics.rule_firings)
        assert expected_rules <= fired, (name, fired)
        fired_total |= fired
    assert {"R0", "R1", "R2", "R3", "R4", "R9", "R10"} <= fired_total


@pytest.mark.parametrize("seed", range(20))
def test_oracle_pag_is_the_class_pag_of_a_random_latent_dag(seed):
    # latent confounding on graphs small enough to enumerate every member MAG
    dag, observed = random_latent_dag(seed, n=7, n_edges=9, n_latent=2)
    res = fci_run(CiOracle(dag, observed), cfg=FciConfig(test="oracle"))
    expected = class_pag(mag_equivalence_class(dag, list(observed)))
    assert res.graph.edge_mark_pairs() == expected.edge_mark_pairs()


def test_r4_notes_a_skipped_discriminating_path_once():
    # forbidden adjacencies leave sepset(X4, X3) from knowledge; R4 meets that
    # pair on several passes and through several b
    dag, observed = random_latent_dag(5, n=8, n_edges=11, n_latent=2)
    know = BackgroundKnowledge(
        forbidden_adjacencies={frozenset(("X4", "X6")), frozenset(("X3", "X4"))}
    )
    res = fci_run(CiOracle(dag, observed), knowledge=know, cfg=FciConfig(test="oracle"))
    assert res.diagnostics.notes == ["R4 skipped: no tested separating set for ('X4', 'X3')"]


# -- full runs ---------------------------------------------------------------------------------


def test_fci_run_oracle_recovers_learned_graph():
    res = fci_run(shapes_oracle(), cfg=FciConfig(test="oracle"), target="Yhat")
    assert res.graph.edge_mark_pairs() == learned_pag().edge_mark_pairs()
    assert validate(res.graph) == []
    assert res.diagnostics.stage_edge_counts["initial"] == 6
    assert res.diagnostics.stage_edge_counts["post_skeleton"] == 4
    assert res.diagnostics.stage_edge_counts["final"] == 4
    assert res.diagnostics.tests_run > 0


def test_fci_run_two_independent_columns():
    rng = np.random.default_rng(0)
    d = Dataset(
        [
            Column("a", "cat", rng.integers(0, 2, 4000), 2),
            Column("b", "cat", rng.integers(0, 2, 4000), 2),
        ]
    )
    res = fci_run(d, cfg=FciConfig(test="chi2"))
    assert res.graph.n_edges == 0


def test_fci_run_substantial_fraction_of_sample_runs_recover_graph():
    # The generating process leaves the marginal association between R and the
    # prediction close to the detection floor at n=5000 (its two open routes
    # nearly cancel), so exact recovery sits near a coin flip per seed rather
    # than at a comfortable majority.  The acceptance suite asserts the strict
    # pinned thresholds and reports the measured rate.
    from pagaudit.simgen import simulate

    hits = 0
    for seed in range(1, 21):
        d = simulate(5000, seed, include_c=False, mode="logistic")
        res = fci_run(d, cfg=FciConfig(test="chi2"), target="Yhat")
        hits += res.graph.edge_mark_pairs() == learned_pag().edge_mark_pairs()
    assert hits >= 5


def test_fci_run_order_invariant_on_oracle():
    base = None
    for perm in itertools.permutations(OBS4):
        oracle = CiOracle(truth_dag(outcome_name="Yhat"), perm)
        res = fci_run(oracle, cfg=FciConfig(test="oracle"), target="Yhat")
        marks = {
            frozenset((a, b)): {a: res.graph.mark_at(a, b), b: res.graph.mark_at(b, a)}
            for a, b in [(e.a, e.b) for e in res.graph.edges()]
        }
        if base is None:
            base = marks
        else:
            assert marks == base


def test_fci_run_knowledge_soundness_and_monotone_refinement():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(3, 6))
        dag = random_dag(rng, n, p_edge=0.5)
        names = list(dag.names)
        target = names[int(rng.integers(n))]
        if descendants(dag, target):
            continue  # knowledge must be true in the generating graph
        oracle = CiOracle(dag, tuple(names))
        cfg = FciConfig(test="oracle")
        sk, seps = skeleton_search(CiTester(oracle, cfg))
        post_skeleton = {(e.a, e.b) for e in sk.edges()}
        res = fci_run(oracle, cfg=cfg, target=target)
        final = {(e.a, e.b) for e in res.graph.edges()}
        assert final <= post_skeleton
        assert descendants(res.graph, target) == set()
        assert validate(res.graph) == []


def test_fci_run_deterministic():
    from pagaudit.simgen import simulate

    d = simulate(2000, 3, include_c=False, mode="logistic")
    a = fci_run(d, cfg=FciConfig(test="chi2"), target="Yhat")
    b = fci_run(d, cfg=FciConfig(test="chi2"), target="Yhat")
    assert a.graph.edge_mark_pairs() == b.graph.edge_mark_pairs()
    assert a.diagnostics.tests_run == b.diagnostics.tests_run


def test_fci_run_disable_possible_dsep():
    case = PDS_REQUIRED_CASE
    dag = build_dag(case["nodes"], case["edges"])
    oracle = CiOracle(dag, tuple(case["observed"]))
    lite = fci_run(oracle, cfg=FciConfig(test="oracle", enable_possible_dsep=False))
    full = fci_run(oracle, cfg=FciConfig(test="oracle"))
    x, y = case["pair"]
    assert lite.graph.adjacent(x, y)
    assert not full.graph.adjacent(x, y)


def test_fci_run_returns_its_testers_diagnostics(monkeypatch):
    testers = []

    class Recorded(CiTester):
        def __init__(self, *args):
            super().__init__(*args)
            testers.append(self)

    monkeypatch.setattr(fci_module, "CiTester", Recorded)
    res = fci_run(shapes_oracle(), cfg=FciConfig(test="oracle"), target="Yhat")
    [tester] = testers
    assert res.diagnostics is tester.diagnostics
    assert res.diagnostics.tests_run > 0


def test_fci_run_rejects_unknown_target_and_knowledge_names():
    with pytest.raises(InputError):
        fci_run(shapes_oracle(), cfg=FciConfig(test="oracle"), target="nope")
    know = BackgroundKnowledge(non_ancestor_pairs={("Yhat", "ghost")})
    with pytest.raises(InputError):
        fci_run(shapes_oracle(), knowledge=know, cfg=FciConfig(test="oracle"))


# -- knowledge files ------------------------------------------------------------------------------


def test_parse_knowledge_full_format():
    text = """
    # prediction column cannot cause features
    nonancestor Yhat *
    forbid H V
    require R Yhat
    """
    know = parse_knowledge(text, OBS4)
    assert know.non_ancestor_pairs == {("Yhat", "H"), ("Yhat", "V"), ("Yhat", "R")}
    assert know.forbidden_adjacencies == {frozenset(("H", "V"))}
    assert know.required_adjacencies == {frozenset(("R", "Yhat"))}


def test_parse_knowledge_errors():
    for bad in (
        "nonancestor Yhat",
        "banish H V",
        "nonancestor ghost *",
        "forbid H ghost",
        "require H H",
    ):
        with pytest.raises(InputError):
            parse_knowledge(bad, OBS4)
    with pytest.raises(InputError):
        BackgroundKnowledge(
            forbidden_adjacencies={frozenset(("H", "V"))},
            required_adjacencies={frozenset(("H", "V"))},
        )


def _three_columns():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, 300)
    b = (a + (rng.random(300) < 0.2)) % 2
    c = rng.integers(0, 2, 300)
    return Dataset([Column(name, "cat", v, 2) for name, v in zip("abc", (a, b, c))])


@pytest.mark.parametrize(
    "entry", [frozenset(("a",)), frozenset("abc"), "ab", ("a", 1)], ids=["one", "three", "str", "int"]
)
@pytest.mark.parametrize("field", ["forbidden_adjacencies", "required_adjacencies"])
def test_an_adjacency_entry_must_name_two_nodes(field, entry):
    # a one- or three-name entry once reached fci_run and died there
    # unpacking it, with a builtins ValueError
    with pytest.raises(InputError, match=r"adjacency entry .* is not a pair of names"):
        fci_run(_three_columns(), BackgroundKnowledge(**{field: {entry}}))


@pytest.mark.parametrize(
    "entry", ["ab", ("a", "b", "c"), ("a",), frozenset("ab")], ids=["str", "three", "one", "set"]
)
def test_a_non_ancestor_entry_must_be_an_ordered_pair_of_names(entry):
    with pytest.raises(InputError, match=r"non-ancestor entry .* is not a pair of names"):
        fci_run(_three_columns(), BackgroundKnowledge(non_ancestor_pairs={entry}))


def test_knowledge_entries_are_normalized_before_the_clash_check():
    # a forbidden tuple and a required frozenset of one pair once passed the
    # check, and the forbidden entry removed a-b with a knowledge sepset
    with pytest.raises(InputError, match=r"adjacency \['a', 'b'\] both forbidden and required"):
        BackgroundKnowledge(forbidden_adjacencies={("a", "b")}, required_adjacencies={frozenset("ab")})
    know = BackgroundKnowledge({("c", "a")}, {("b", "c"), frozenset("ac")}, {("b", "a")})
    assert know.non_ancestor_pairs == {("c", "a")}
    assert know.forbidden_adjacencies == {frozenset("bc"), frozenset("ac")}
    assert know.required_adjacencies == {frozenset("ab")}
    assert fci_run(_three_columns(), know).graph.adjacent("a", "b")


def test_sepset_map_contract():
    seps = SepSetMap()
    with pytest.raises(InternalConsistencyError):
        seps.set(0, 1, frozenset({0}))
    seps.set(2, 1, frozenset({3}))
    assert seps.get(1, 2).nodes == frozenset({3})


def test_dof_zero_queries_are_counted():
    rng = np.random.default_rng(1)
    d = Dataset(
        [
            Column("a", "cat", rng.integers(0, 2, 100), 2),
            Column("b", "cat", np.zeros(100, dtype=int), 2),  # constant column
            Column("c", "cat", rng.integers(0, 2, 100), 2),
        ]
    )
    res = fci_run(d, cfg=FciConfig(test="chi2"))
    assert res.diagnostics.dof_zero_warnings > 0
    assert not res.graph.adjacent("a", "b")

import itertools
import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_chi_square_batch, scipy_stratified_chi2
from pagaudit import citests as citests_module
from pagaudit.citests import (
    GSQUARED,
    PEARSON,
    CiOracle,
    chi_square_batch,
    chi_square_independent,
    chi_square_test,
    d_separated,
    fisher_z_test,
    oracle_test,
)
from pagaudit.tails import chi2_sf
from pagaudit.data import Column, Dataset
from pagaudit.errors import DegenerateInputError, InputError
from pagaudit.fci import CiTester, FciConfig
from pagaudit.graph import GraphKind, Mark, MixedGraph
from pagaudit.simgen import sample_dataset, truth_dag


def dataset_from_table(table):
    """Two categorical columns whose cross-tab equals ``table``."""
    xs, ys = [], []
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            xs.extend([i] * count)
            ys.extend([j] * count)
    return Dataset(
        [
            Column("x", "cat", np.array(xs), len(table)),
            Column("y", "cat", np.array(ys), len(table[0])),
        ]
    )


def test_chi2_uniform_table_is_independent():
    d = dataset_from_table([[25, 25], [25, 25]])
    r = chi_square_test(d, "x", "y", (), 0.05)
    assert r.statistic == pytest.approx(0.0, abs=1e-12)
    assert r.dof == 1
    assert r.p_value == pytest.approx(1.0)
    assert r.independent


def test_chi2_diagonal_table_value():
    # all expected counts are 20, so the statistic is 4 * (10^2 / 20) = 20
    d = dataset_from_table([[30, 10], [10, 30]])
    r = chi_square_test(d, "x", "y", (), 0.05)
    assert r.statistic == pytest.approx(20.0, rel=1e-12)
    assert r.dof == 1
    assert not r.independent


def test_chi2_symmetry_in_arguments():
    rng = np.random.default_rng(0)
    d = Dataset(
        [
            Column("x", "cat", rng.integers(0, 3, 400), 3),
            Column("y", "cat", rng.integers(0, 2, 400), 2),
            Column("s", "cat", rng.integers(0, 2, 400), 2),
        ]
    )
    a = chi_square_test(d, "x", "y", ("s",), 0.05)
    b = chi_square_test(d, "y", "x", ("s",), 0.05)
    assert a.statistic == pytest.approx(b.statistic, rel=1e-12)
    assert a.dof == b.dof
    assert a.p_value == pytest.approx(b.p_value, rel=1e-12)


def test_chi2_degenerate_strata_contribute_nothing():
    # stratum s=1 has a single observed y level: zero dof from that cell block
    d = Dataset(
        [
            Column("x", "cat", np.array([0, 0, 1, 1, 0, 1]), 2),
            Column("y", "cat", np.array([0, 1, 0, 1, 0, 0]), 2),
            Column("s", "cat", np.array([0, 0, 0, 0, 1, 1]), 2),
        ]
    )
    r = chi_square_test(d, "x", "y", ("s",), 0.05)
    assert r.dof == 1  # only stratum 0 is informative


def test_chi2_all_degenerate_reports_independent_with_zero_dof():
    d = Dataset(
        [
            Column("x", "cat", np.array([0, 1, 0, 1]), 2),
            Column("y", "cat", np.array([0, 0, 0, 0]), 2),  # constant
        ]
    )
    r = chi_square_test(d, "x", "y", (), 0.05)
    assert (r.statistic, r.dof, r.p_value, r.independent) == (0.0, 0, 1.0, True)


def test_chi2_unused_level_dropped_from_dof():
    # y has arity 3 but level 2 never occurs: effective table is 2x2
    d = Dataset(
        [
            Column("x", "cat", np.array([0, 0, 1, 1] * 10), 2),
            Column("y", "cat", np.array([0, 1, 0, 1] * 10), 3),
        ]
    )
    assert chi_square_test(d, "x", "y", (), 0.05).dof == 1


def test_chi2_gsquared_variant_close_to_pearson_under_null():
    rng = np.random.default_rng(1)
    d = Dataset(
        [
            Column("x", "cat", rng.integers(0, 2, 2000), 2),
            Column("y", "cat", rng.integers(0, 2, 2000), 2),
        ]
    )
    p = chi_square_test(d, "x", "y", (), 0.05, variant="pearson")
    g = chi_square_test(d, "x", "y", (), 0.05, variant="gsquared")
    assert g.dof == p.dof
    assert g.statistic == pytest.approx(p.statistic, abs=1.0)


def test_chi2_input_errors():
    d = dataset_from_table([[5, 5], [5, 5]])
    with pytest.raises(InputError):
        chi_square_test(d, "x", "x", (), 0.05)
    with pytest.raises(InputError):
        chi_square_test(d, "x", "y", ("x",), 0.05)
    cont = Dataset(
        [
            Column("x", "cat", np.array([0, 1]), 2),
            Column("y", "cont", np.array([0.5, 1.5])),
        ]
    )
    with pytest.raises(InputError):
        chi_square_test(cont, "x", "y", (), 0.05)


def ten_level_columns(declared=10):
    """7 ten-level columns of 200 rows sharing one hidden cause, each
    declared at ``declared`` levels."""
    rng = np.random.default_rng(3)
    hidden = rng.integers(0, 10, 200)
    return Dataset([
        Column(f"v{i}", "cat", (hidden + rng.integers(0, 2, 200)) % 10, declared) for i in range(7)
    ])


@pytest.mark.parametrize("variant", [PEARSON, GSQUARED])
def test_chi2_cells_follow_the_strata_that_occur(variant):
    # 10**6 cells by declared arity, of which the 200 rows occupy at most
    # 200 strata; sized by declared arity this peaked at 25.7 MB (Pearson)
    d = ten_level_columns()
    tracemalloc.start()
    try:
        r = chi_square_test(d, "v0", "v1", ["v2", "v3", "v4", "v5"], 0.05, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert r.dof > 0


@pytest.mark.parametrize("variant", [PEARSON, GSQUARED])
def test_chi2_result_does_not_depend_on_declared_arities(variant):
    # arities of 2**62 once overflowed the cell index, and 2**40 asked for
    # 16 TiB of cells
    small, huge = ten_level_columns(10), ten_level_columns(2**62)
    for s in ([], ["v2"], ["v2", "v3", "v4"]):
        assert chi_square_test(huge, "v0", "v1", s, 0.05, variant) == chi_square_test(
            small, "v0", "v1", s, 0.05, variant
        )


def noisy_chain(rng, n, arities, noise=0.4):
    """Categorical columns c0, c1, ... of the given arities, each a noisy
    copy of the one before, so that some pairs stay dependent."""
    columns = [rng.integers(0, arities[0], n)]
    for a in arities[1:]:
        columns.append(np.where(rng.random(n) < noise, rng.integers(0, a, n), columns[-1] % a))
    return Dataset([Column(f"c{i}", "cat", v, a) for i, (v, a) in enumerate(zip(columns, arities))])


def test_chi2_statistic_is_fci_statistic_on_a_pinned_query():
    # scored on one column of the strata that occur, this query once read
    # 26.89260461760461, a bit off FCI's 26.892604617604615
    d = noisy_chain(np.random.default_rng(3), 60, [3, 3, 2, 3, 2])
    r = chi_square_test(d, "c0", "c1", ["c2", "c3"])
    assert (r.statistic, r.dof) == (26.892604617604615, 11)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(30, 2_000),
    levels=st.integers(2, 4),
    k=st.integers(0, 4),
    extra=st.integers(0, 2),
    wide=st.booleans(),
    test=st.sampled_from(["chi2", "g2"]),
)
def test_chi2_statistic_equals_the_one_fci_scores(seed, n, levels, k, extra, wide, test):
    # FCI's tester scores the query first in a batch of every set of its
    # size; twelve-level columns take a set of 3 or 4 members past a kernel
    # call's cap, onto the strata that occur
    rng = np.random.default_rng(seed)
    if wide:
        n, k = max(n, 150), max(k, 3)
        arities = [12] * (k + 2 + extra)
    else:
        arities = rng.integers(2, levels + 1, k + 2 + extra).tolist()
    d = noisy_chain(rng, n, arities)
    x, y, *rest = rng.permutation(len(d.names)).tolist()
    s = tuple(rest[:k])
    sets = [s] + [c for c in itertools.combinations(sorted(rest), k) if c != s]
    kernel, calls = citests_module.chi_square_batch, []

    def recorded(*args):
        calls.append((args, kernel(*args)))
        return calls[-1][1]

    with mock.patch.object(citests_module, "chi_square_batch", recorded):
        CiTester(d, FciConfig(test=test)).first_independent(x, y, sets)
    args, (stats, dofs) = calls[0]
    if wide:
        # one member column: the strata that occur
        assert len(args[4]) == 1
    names = d.names
    variant = GSQUARED if test == "g2" else PEARSON
    r = chi_square_test(d, names[x], names[y], [names[v] for v in s], 0.05, variant)
    assert (r.statistic, r.dof) == (stats[0], dofs[0])


@pytest.mark.parametrize("alpha", [5, -1, math.nan, True])
@pytest.mark.parametrize("kind", ["cat", "cont"])
def test_public_tests_reject_an_alpha_outside_0_1(kind, alpha):
    # alpha 5 once read every query dependent, -1 every query independent
    rng = np.random.default_rng(0)
    if kind == "cat":
        test = chi_square_test
        d = Dataset([Column(name, "cat", rng.integers(0, 2, 100), 2) for name in "ab"])
    else:
        test = fisher_z_test
        d = Dataset([_cont(name, rng.normal(size=100)) for name in "ab"])
    with pytest.raises(InputError, match="alpha"):
        test(d, "a", "b", (), alpha)


def test_chi2_separates_generated_pair_given_blocker():
    # population independence given the blocking variable holds for most seeds
    hits = 0
    for seed in range(20):
        d = sample_dataset(5000, seed, include_c=True)
        r = chi_square_test(d, "H", "Y", ("V",), 0.05)
        hits += r.independent
    assert hits >= 16


def test_chi2_calibration_quick():
    rng = np.random.default_rng(7)
    rejects = 0
    trials = 400
    for _ in range(trials):
        d = Dataset(
            [
                Column("x", "cat", rng.integers(0, 2, 500), 2),
                Column("y", "cat", rng.integers(0, 2, 500), 2),
            ]
        )
        rejects += not chi_square_test(d, "x", "y", (), 0.05).independent
    rate = rejects / trials
    assert 0.02 <= rate <= 0.09  # 3-sigma-ish band for 400 trials


# -- fisher-z ------------------------------------------------------------------


def _cont(name, values):
    return Column(name, "cont", np.asarray(values, dtype=float))


def test_fisherz_near_copy_is_dependent():
    rng = np.random.default_rng(2)
    x = rng.normal(size=500)
    d = Dataset([_cont("x", x), _cont("y", x + 1e-6 * rng.normal(size=500))])
    r = fisher_z_test(d, "x", "y", (), 0.05)
    assert not r.independent
    assert r.p_value < 1e-10


def test_fisherz_chain_blocked_by_middle():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2000)
        z = 0.9 * x + rng.normal(size=2000)
        y = 0.9 * z + rng.normal(size=2000)
        d = Dataset([_cont("x", x), _cont("y", y), _cont("z", z)])
        assert not fisher_z_test(d, "x", "y", (), 0.05).independent
        hits += fisher_z_test(d, "x", "y", ("z",), 0.05).independent
    assert hits >= 16


def test_fisherz_calibration_quick():
    rng = np.random.default_rng(3)
    rejects = 0
    trials = 400
    for _ in range(trials):
        d = Dataset(
            [_cont("x", rng.normal(size=300)), _cont("y", rng.normal(size=300))]
        )
        rejects += not fisher_z_test(d, "x", "y", (), 0.05).independent
    assert 0.02 <= rejects / trials <= 0.09


def test_fisherz_errors():
    rng = np.random.default_rng(4)
    small = Dataset([_cont("x", [1.0, 2.0, 3.0]), _cont("y", [2.0, 1.0, 0.5])])
    with pytest.raises(InputError):
        fisher_z_test(small, "x", "y", (), 0.05)  # n <= |s| + 3
    const = Dataset(
        [_cont("x", np.ones(50)), _cont("y", rng.normal(size=50))]
    )
    with pytest.raises(DegenerateInputError):
        fisher_z_test(const, "x", "y", (), 0.05)
    x = rng.normal(size=50)
    dup = Dataset([_cont("x", x), _cont("y", rng.normal(size=50)), _cont("z", x)])
    with pytest.raises(DegenerateInputError):
        fisher_z_test(dup, "x", "y", ("z",), 0.05)  # x and z perfectly collinear
    cat = Dataset(
        [
            Column("x", "cat", np.zeros(50, dtype=int), 2),
            _cont("y", rng.normal(size=50)),
        ]
    )
    with pytest.raises(InputError):
        fisher_z_test(cat, "x", "y", (), 0.05)


def test_fisherz_statistic_nonnegative_and_dof_recorded():
    rng = np.random.default_rng(5)
    d = Dataset(
        [
            _cont("x", rng.normal(size=100)),
            _cont("y", rng.normal(size=100)),
            _cont("z", rng.normal(size=100)),
        ]
    )
    r = fisher_z_test(d, "x", "y", ("z",), 0.05)
    assert r.statistic >= 0
    assert r.dof == 100 - 1 - 3


# -- oracle ---------------------------------------------------------------------


def test_oracle_on_generating_dag():
    o = CiOracle(truth_dag(), ("H", "V", "R", "Y"))
    assert oracle_test(o, "V", "R", ("H",)) is True
    for s in [(), ("H",), ("V",), ("H", "V")]:
        assert oracle_test(o, "R", "Y", s) is False
    assert oracle_test(o, "H", "V", ()) is False


def test_oracle_rejects_latent_queries():
    o = CiOracle(truth_dag(), ("H", "V", "R", "Y"))
    with pytest.raises(InputError):
        oracle_test(o, "H", "C", ())
    with pytest.raises(InputError):
        oracle_test(o, "H", "Y", ("U1",))


def test_oracle_rejects_repeated_observed_nodes():
    # position i of observed is node i of the oracle's masks, so a name may
    # hold only one position
    with pytest.raises(InputError, match=r"duplicate observed nodes: \['H', 'H', 'V'\]"):
        CiOracle(truth_dag(), ("H", "V", "H"))


def test_oracle_requires_dag():
    from pagaudit.graph import GraphKind, MixedGraph

    g = MixedGraph(["A", "B"], GraphKind.PAG)
    g.add_circle_edge("A", "B")
    with pytest.raises(InputError):
        CiOracle(g, ("A", "B"))


def test_oracle_rejects_a_truth_that_is_not_a_dag():
    from pagaudit.graph import GraphKind, Mark, MixedGraph

    cycle = MixedGraph(["A", "B", "C"], GraphKind.DAG)
    for a, b in [("A", "B"), ("B", "C"), ("C", "A")]:
        cycle.add_directed_edge(a, b)
    with pytest.raises(InputError, match="directed cycle"):
        CiOracle(cycle, ("A", "B", "C"))

    marks = MixedGraph(["A", "B", "C"], GraphKind.DAG)
    marks.add_circle_edge("A", "B")
    marks.add_edge("B", "C", Mark.ARROW, Mark.ARROW)
    with pytest.raises(InputError, match="non-directed edge in DAG: A o-o B"):
        CiOracle(marks, ("A", "B", "C"))


def test_oracle_answers_from_the_truth_at_construction():
    from pagaudit.graph import GraphKind, MixedGraph

    g = MixedGraph(["A", "B", "C"], GraphKind.DAG)
    g.add_directed_edge("A", "B")
    g.add_directed_edge("B", "C")
    o = CiOracle(g, ("A", "B", "C"))
    g.remove_edge("B", "C")
    g.add_directed_edge("C", "A")
    assert oracle_test(o, "A", "C", ()) is False
    assert oracle_test(o, "A", "C", ("B",)) is True
    assert oracle_test(o, "B", "C", ("A",)) is False


def test_oracle_rejects_degenerate_queries():
    o = CiOracle(truth_dag(), ("H", "V", "R", "Y"))
    with pytest.raises(InputError, match="distinct"):
        oracle_test(o, "H", "H", ())
    with pytest.raises(InputError, match="conditioning set"):
        oracle_test(o, "H", "Y", ("V", "Y"))


@pytest.mark.parametrize("selector", ["nonsense", "", "CHI2", "gsquared", None])
def test_an_unknown_test_selector_is_an_input_error(selector):
    # a name outside auto/chi2/g2/fisherz once fell through to Pearson chi-square
    d = Dataset([Column(name, "cat", np.array([0, 1, 1, 0] * 10), 2) for name in "abc"])
    known = "choose one of auto, chi2, g2, fisherz"
    with pytest.raises(InputError, match=known):
        citests_module.select_test(d, selector)
    with pytest.raises(InputError, match=known):
        citests_module.decider(d, selector, 0.05)
    with pytest.raises(InputError, match=known + ", oracle"):
        citests_module.decider(CiOracle(truth_dag(), ("H", "V")), selector, 0.05)
    with pytest.raises(InputError, match=known + ", oracle"):
        FciConfig(test=selector)
    with pytest.raises(InputError, match="oracle test selected but source is a dataset"):
        citests_module.select_test(d, "oracle")
    for name in ("auto", "chi2", "g2"):
        assert citests_module.select_test(d, name) == ("chi2" if name == "auto" else name)


def _fronts():
    """Each public CI front, asked of (a, b, S) on a source over a, b, c."""
    rng = np.random.default_rng(6)
    cat = Dataset([Column(name, "cat", rng.integers(0, 2, 200), 2) for name in "abc"])
    c = rng.normal(size=200)
    cont = Dataset([_cont(name, c + rng.normal(size=200)) for name in "ab"] + [_cont("c", c)])
    dag = MixedGraph(["a", "b", "c"], GraphKind.DAG)
    dag.add_directed_edge("c", "a")
    dag.add_directed_edge("c", "b")
    return {
        "chi2": partial(chi_square_test, cat),
        "fisherz": partial(fisher_z_test, cont),
        "oracle": partial(oracle_test, CiOracle(dag, dag.names)),
        "d_separated": partial(d_separated, dag),
    }


@pytest.mark.parametrize("front", ["chi2", "fisherz", "oracle", "d_separated"])
def test_every_front_checks_a_query_alike(front):
    # one check serves every front: a repeated member is taken once (Fisher-z
    # once read [c, c] as a singular correlation submatrix), and a degenerate
    # query raises the same text everywhere
    ask = _fronts()[front]
    assert ask("a", "b", ["c", "c"]) == ask("a", "b", ["c"])
    for query, problem in [
        (("a", "a", ()), "x and y must be distinct"),
        (("a", "b", ["c", "a"]), "x and y must not appear in the conditioning set"),
        (("a", "b", ["b"]), "x and y must not appear in the conditioning set"),
    ]:
        with pytest.raises(InputError) as raised:
            ask(*query)
        assert str(raised.value) == problem


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    p_edge=st.sampled_from([0.25, 0.4, 0.55]),
)
def test_oracle_matches_path_enumeration(seed, n, p_edge):
    import helpers

    rng = np.random.default_rng(seed)
    g = helpers.random_dag(rng, n, p_edge)
    names = list(g.names)
    x, y = (names[int(v)] for v in rng.choice(n, size=2, replace=False))
    # a random latent subset, never x or y, and the observed in shuffled order
    observed = [v for v in names if v in (x, y) or rng.random() < 0.7]
    observed = [observed[int(i)] for i in rng.permutation(len(observed))]
    # colliders and their descendants enter Z often, so collider paths open
    parents = {v: 0 for v in range(n)}
    for e in g.edges():
        parents[g.index(e.b if e.mark_b is Mark.ARROW else e.a)] += 1
    near_collider = set()
    for v, count in parents.items():
        if count >= 2:
            near_collider |= helpers._descendants_brute(g, v)
    z = [
        v for v in observed
        if v not in (x, y) and rng.random() < (0.6 if g.index(v) in near_collider else 0.25)
    ]
    o = CiOracle(g, tuple(observed))
    expected = helpers.separated_by_paths(g, x, y, z)
    assert oracle_test(o, x, y, z) == expected
    assert oracle_test(o, y, x, z) == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(9, 20),
    p_edge=st.sampled_from([0.15, 0.25, 0.4]),
)
def test_a_warm_oracle_answers_as_a_fresh_one(seed, n, p_edge):
    # one oracle asked many queries fills its frontier maps; masks of 9-20
    # nodes span one and two bytes, with the latent nodes numbered last
    import helpers

    rng = np.random.default_rng(seed)
    g = helpers.random_dag(rng, n, p_edge)
    # at least two observed nodes, in shuffled order; the rest are latent
    order = [g.names[int(i)] for i in rng.permutation(n)]
    observed = order[:2] + [v for v in order[2:] if rng.random() < 0.75]
    truth = g.copy()
    o = CiOracle(g, tuple(observed))
    queries = []
    for _ in range(40):
        x, y = (observed[int(v)] for v in rng.choice(len(observed), size=2, replace=False))
        z = [v for v in observed if v not in (x, y) and rng.random() < 0.3]
        queries.append((x, y, z))
    answers = [oracle_test(o, *q) for q in queries]
    assert o.parents and o.children  # the maps were filled
    for (x, y, z), answer in zip(queries, answers):
        assert answer == oracle_test(CiOracle(truth, tuple(observed)), x, y, z)
        if n <= 10:
            assert answer == helpers.separated_by_paths(truth, x, y, z)
    # edits to the truth after construction reach neither the masks nor the maps
    for e in g.edges():
        g.remove_edge(e.a, e.b)
    assert [oracle_test(o, *q) for q in queries] == answers


def test_oracle_agrees_with_exact_joint_independence():
    import helpers

    rng = np.random.default_rng(12)
    for _ in range(10):
        g = helpers.random_dag(rng, 4)
        cpts = helpers.random_binary_cpts(g, rng)
        joint = helpers.joint_distribution(g, cpts)
        o = CiOracle(g, tuple(g.names))
        names = list(g.names)
        for xi, yi in itertools.combinations(range(4), 2):
            rest = [v for v in range(4) if v not in (xi, yi)]
            for k in range(len(rest) + 1):
                for zz in itertools.combinations(rest, k):
                    if oracle_test(o, names[xi], names[yi], [names[v] for v in zz]):
                        assert helpers.exactly_independent(joint, 4, xi, yi, zz)


def test_results_deterministic():
    d = sample_dataset(1000, 9, include_c=True)
    a = chi_square_test(d, "H", "R", ("C",), 0.05)
    b = chi_square_test(d, "H", "R", ("C",), 0.05)
    assert a == b


# -- batch kernel ------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    arities=st.lists(st.integers(1, 4), min_size=3, max_size=6),
    constant=st.integers(0, 63),
    k=st.integers(0, 3),
    variant=st.sampled_from([PEARSON, GSQUARED]),
    alpha=st.sampled_from([0.01, 0.05, 0.5, 0.95]),
)
def test_batch_kernel_matches_single_sets_and_scipy(
    seed, n, arities, constant, k, variant, alpha
):
    # column i is constant when bit i of ``constant`` is set; small n leaves
    # strata empty
    rng = np.random.default_rng(seed)
    columns = [
        np.zeros(n, dtype=np.int64) if constant >> i & 1 else rng.integers(0, a, n)
        for i, a in enumerate(arities)
    ]
    names = [f"c{i}" for i in range(len(arities))]
    d = Dataset([Column(nm, "cat", v, a) for nm, v, a in zip(names, columns, arities)])
    k = min(k, len(arities) - 2)
    sets = list(itertools.combinations(range(2, len(arities)), k))
    stats, dofs = chi_square_batch(
        columns[0], arities[0], columns[1], arities[1],
        [np.stack([columns[s[j]] for s in sets]) for j in range(k)],
        [[arities[v] for v in s] for s in sets], variant,
    )
    assert len(stats) == len(dofs) == len(sets)
    for s, stat, dof in zip(sets, stats.tolist(), dofs.tolist()):
        single = chi_square_test(d, "c0", "c1", [names[v] for v in s], alpha, variant)
        assert dof == single.dof
        assert chi_square_independent(stat, dof, alpha) == single.independent
        assert stat == pytest.approx(single.statistic, rel=1e-12, abs=0.0)
        ref_stat, ref_dof = scipy_stratified_chi2(columns, arities, 0, 1, s, variant)
        assert dof == ref_dof
        assert stat == pytest.approx(ref_stat, rel=1e-9, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 80),
    arities=st.lists(st.integers(1, 4), min_size=3, max_size=6),
    constant=st.integers(0, 63),
    k=st.integers(0, 3),
    variant=st.sampled_from([PEARSON, GSQUARED]),
)
def test_batch_kernel_on_counted_distinct_rows_equals_the_rows(
    seed, n, arities, constant, k, variant
):
    # column i is constant when bit i of ``constant`` is set; small n leaves
    # strata empty; skewed levels make rows repeat
    rng = np.random.default_rng(seed)
    columns = np.stack([
        np.zeros(n, dtype=np.int64) if constant >> i & 1
        else np.minimum(rng.geometric(0.6, n) - 1, a - 1)
        for i, a in enumerate(arities)
    ])
    distinct, inverse = np.unique(columns.T, axis=0, return_inverse=True)
    distinct, counts = distinct.T, np.bincount(inverse.ravel())
    k = min(k, len(arities) - 2)
    sets = list(itertools.combinations(range(2, len(arities)), k))

    def kernel(cols, weights):
        return chi_square_batch(
            cols[0], arities[0], cols[1], arities[1],
            [np.stack([cols[s[j]] for s in sets]) for j in range(k)],
            [[arities[v] for v in s] for s in sets], variant, weights,
        )

    stats, dofs = kernel(distinct, np.tile(counts.astype(np.float64), len(sets)))
    row_stats, row_dofs = kernel(columns, None)
    assert stats.tolist() == row_stats.tolist()
    assert dofs.tolist() == row_dofs.tolist()


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 80),
    rx=st.integers(1, 3),
    ry=st.integers(1, 3),
    set_arities=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    k=st.integers(0, 3),
    n_sets=st.integers(1, 8),
    weighted=st.booleans(),
    variant=st.sampled_from([PEARSON, GSQUARED]),
)
def test_batch_kernel_over_mixed_pairs_equals_the_per_pair_calls(
    seed, n, rx, ry, set_arities, k, n_sets, weighted, variant
):
    # three candidate x columns of arity rx, three y columns of arity ry, and
    # conditioning columns; every set of the batch draws its own (x, y) pair
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, rx, (3, n)).astype(np.uint8)
    ys = rng.integers(0, ry, (3, n)).astype(np.uint8)
    zs = np.stack([rng.integers(0, a, n) for a in set_arities]).astype(np.uint8)
    k = min(k, len(set_arities))
    sets = [tuple(rng.choice(len(set_arities), size=k, replace=False)) for _ in range(n_sets)]
    px, py = rng.integers(0, 3, n_sets), rng.integers(0, 3, n_sets)
    counts = rng.integers(1, 5, n).astype(np.float64)

    def kernel(x, y, batch):
        weights = np.tile(counts, len(batch)) if weighted else None
        return chi_square_batch(
            x, rx, y, ry,
            [zs[[s[j] for s in batch]] for j in range(k)],
            [[set_arities[v] for v in s] for s in batch], variant, weights,
        )

    stats, dofs = kernel(xs[px], ys[py], sets)
    for b, s in enumerate(sets):
        one_stat, one_dof = kernel(xs[px[b]], ys[py[b]], [s])
        assert stats[b] == one_stat[0]
        assert dofs[b] == one_dof[0]
    # rows per set of one shared pair equal that pair's single row
    shared, shared_dofs = kernel(xs[0], ys[0], sets)
    stacked, stacked_dofs = kernel(xs[[0] * n_sets], ys[[0] * n_sets], sets)
    assert shared.tolist() == stacked.tolist()
    assert shared_dofs.tolist() == stacked_dofs.tolist()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    rx=st.integers(1, 3),
    ry=st.integers(1, 9),
    set_arities=st.lists(st.integers(1, 3), min_size=4, max_size=6),
    k=st.integers(0, 4),
    n_sets=st.integers(1, 6),
    per_set=st.booleans(),
    weighted=st.booleans(),
    variant=st.sampled_from([PEARSON, GSQUARED]),
)
def test_batch_kernel_statistics_equal_a_per_set_reference_bit_for_bit(
    seed, n, rx, ry, set_arities, k, n_sets, per_set, weighted, variant
):
    # the 27-column stand-in's shapes: x of arity up to 3, a 9-class y, and
    # up to 4 members of arity up to 3; a pair shared by the batch or one per set
    rng = np.random.default_rng(seed)
    shape = (n_sets, n) if per_set else (n,)
    x = rng.integers(0, rx, shape).astype(np.uint8)
    y = ((x + rng.integers(0, 2, shape)) % ry).astype(np.uint8)
    zs = np.stack([rng.integers(0, a, n) for a in set_arities]).astype(np.uint8)
    sets = [rng.choice(len(set_arities), size=k, replace=False) for _ in range(n_sets)]
    members = [zs[[s[j] for s in sets]] for j in range(k)]
    arities = [[set_arities[v] for v in s] for s in sets]
    weights = np.tile(rng.integers(1, 5, n).astype(np.float64), n_sets) if weighted else None
    stats, dofs = chi_square_batch(x, rx, y, ry, members, arities, variant, weights)
    ref_stats, ref_dofs = reference_chi_square_batch(
        x, rx, y, ry, members, arities, variant, weights
    )
    assert stats.tolist() == ref_stats
    assert dofs.tolist() == ref_dofs


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.5, 0.99])
@pytest.mark.parametrize("dof", [1, 2, 3, 7, 40, 300])
def test_independence_decision_equals_the_tail_comparison(dof, alpha):
    # a grid across the critical value and a dense sweep through its band
    lo, hi = 0.0, 10.0 * dof + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if chi2_sf(mid, dof) > alpha else (lo, mid)
    crit = lo
    grid = np.concatenate(
        [
            crit * np.linspace(0.0, 2.0, 201),
            crit * (1.0 + np.linspace(-2e-6, 2e-6, 401)),
            np.nextafter(crit, [0.0, np.inf]),
            [crit],
        ]
    )
    for stat in grid.tolist():
        assert chi_square_independent(stat, dof, alpha) == (chi2_sf(stat, dof) > alpha)
    assert chi_square_independent(123.0, 0, alpha)



def test_critical_band_brackets_the_crossing_closely():
    # dofs and alphas where the Wilson-Hilferty start is poor or negative
    from pagaudit.citests import _critical_band

    for dof in [1, 2, 3, 5, 9, 17, 60, 250, 2000]:
        for alpha in [1e-12, 1e-6, 0.01, 0.05, 0.3, 0.9, 0.999]:
            lo, hi = _critical_band(dof, alpha)
            assert chi2_sf(lo, dof) > alpha >= chi2_sf(hi, dof)
            assert 0.0 < hi - lo <= 1e-6 * hi

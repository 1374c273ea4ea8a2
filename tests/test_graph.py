import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exactly_independent,
    joint_distribution,
    random_binary_cpts,
    random_dag,
    separated_by_paths,
)
from pagaudit.errors import InputError
from pagaudit.graph import (
    BackgroundKnowledge,
    EdgeClass,
    GraphKind,
    Mark,
    MixedGraph,
    ancestors,
    classify_edge,
    d_separated,
    descendants,
    from_dot,
    from_json,
    m_separated,
    to_dot,
    to_json,
    validate,
)
from pagaudit.simgen import truth_dag


# -- construction -------------------------------------------------------------


def test_duplicate_names_rejected():
    with pytest.raises(InputError):
        MixedGraph(["A", "A"], GraphKind.DAG)


def test_self_loop_and_duplicate_edge_rejected():
    g = MixedGraph(["A", "B"], GraphKind.PAG)
    with pytest.raises(InputError):
        g.add_circle_edge("A", "A")
    g.add_circle_edge("A", "B")
    with pytest.raises(InputError):
        g.add_edge("B", "A", Mark.TAIL, Mark.ARROW)


def test_unknown_node_is_input_error():
    g = truth_dag()
    with pytest.raises(InputError):
        d_separated(g, "H", "nope", set())
    with pytest.raises(InputError):
        ancestors(g, "nope")


def test_mark_accessors():
    g = MixedGraph(["A", "B"], GraphKind.PAG)
    g.add_edge("A", "B", Mark.CIRCLE, Mark.ARROW)
    assert g.mark_at("A", "B") is Mark.CIRCLE
    assert g.mark_at("B", "A") is Mark.ARROW
    g.set_mark("A", "B", Mark.TAIL)
    assert g.mark_at("A", "B") is Mark.TAIL
    assert g.mark_at("B", "A") is Mark.ARROW


# -- d-separation on the built-in generating DAG ---------------------------------


def test_dsep_h_y_given_v():
    g = truth_dag()
    assert d_separated(g, "H", "Y", {"V"}) is True


def test_dsep_y_r_marginal_is_connected():
    g = truth_dag()
    assert d_separated(g, "Y", "R", set()) is False


def test_dsep_y_r_given_c_goes_through_shared_latent():
    # Conditioning on C blocks the common-cause route, but the path through
    # the latent behind H and V stays open, so the pair remains connected.
    g = truth_dag()
    assert separated_by_paths(g, "Y", "R", {"C"}) is False
    assert d_separated(g, "Y", "R", {"C"}) is False
    # blocking that second route as well separates the pair
    assert d_separated(g, "Y", "R", {"C", "V"}) is True
    assert d_separated(g, "Y", "R", {"C", "U1"}) is True


def test_dsep_requires_dag_kind():
    g = MixedGraph(["A", "B"], GraphKind.PAG)
    g.add_circle_edge("A", "B")
    with pytest.raises(InputError):
        d_separated(g, "A", "B", set())


def test_dsep_rejects_a_dag_kind_graph_that_is_not_a_dag():
    # only tail->arrow edges enter the parent masks, so these would be misread
    cycle = MixedGraph(["A", "B", "C"], GraphKind.DAG)
    for a, b in [("A", "B"), ("B", "C"), ("C", "A")]:
        cycle.add_directed_edge(a, b)
    with pytest.raises(InputError, match="directed cycle"):
        d_separated(cycle, "A", "C", {"B"})
    circle = MixedGraph(["A", "B"], GraphKind.DAG)
    circle.add_circle_edge("A", "B")
    with pytest.raises(InputError, match="non-directed edge"):
        d_separated(circle, "A", "B", set())


def test_dsep_rejects_degenerate_queries():
    g = truth_dag()
    with pytest.raises(InputError):
        d_separated(g, "H", "H", set())
    with pytest.raises(InputError):
        d_separated(g, "H", "Y", {"H"})


# -- m-separation ------------------------------------------------------------------


def _projected_mag():
    # latent projection of the generating process onto (H, V, R, Y)
    g = MixedGraph(["H", "V", "R", "Y"], GraphKind.MAG)
    g.add_bidirected_edge("H", "V")
    g.add_directed_edge("H", "R")
    g.add_directed_edge("V", "Y")
    g.add_bidirected_edge("R", "Y")
    return g


def test_msep_projected_mag_matches_latent_dag():
    mag = _projected_mag()
    assert m_separated(mag, "H", "Y", {"V"}) is True
    assert m_separated(mag, "H", "Y", set()) is False
    # agreement with the latent DAG on every observed query
    dag = truth_dag()
    for x, y in itertools.combinations(["H", "V", "R", "Y"], 2):
        rest = [v for v in ["H", "V", "R", "Y"] if v not in (x, y)]
        for k in range(len(rest) + 1):
            for s in itertools.combinations(rest, k):
                assert m_separated(mag, x, y, s) == d_separated(dag, x, y, s)


def test_msep_adjacent_never_separated():
    g = MixedGraph(["X", "Y"], GraphKind.MAG)
    g.add_bidirected_edge("X", "Y")
    assert m_separated(g, "X", "Y", set()) is False


def test_msep_isolated_nodes_separated():
    g = MixedGraph(["X", "Y"], GraphKind.MAG)
    assert m_separated(g, "X", "Y", set()) is True


def test_msep_collider_opened_by_descendant():
    # X -> C <- Y with C -> D: conditioning on D alone opens the collider
    g = MixedGraph(["X", "Y", "C", "D"], GraphKind.MAG)
    g.add_directed_edge("X", "C")
    g.add_directed_edge("Y", "C")
    g.add_directed_edge("C", "D")
    assert m_separated(g, "X", "Y", set()) is True
    assert m_separated(g, "X", "Y", {"D"}) is False


def test_msep_blocked_paths_through_circle_marks():
    # the walk N4, N1, N3, N0, N3, N2 bounces off the collider N0 in z and
    # re-enters N3 through a circle mark, but every simple path is blocked
    g = MixedGraph([f"N{i}" for i in range(5)], GraphKind.PAG)
    g.add_directed_edge("N0", "N2")
    g.add_edge("N0", "N3", Mark.ARROW, Mark.CIRCLE)
    g.add_edge("N1", "N3", Mark.CIRCLE, Mark.ARROW)
    g.add_bidirected_edge("N1", "N4")
    g.add_directed_edge("N2", "N3")
    assert separated_by_paths(g, "N4", "N2", {"N0"})
    assert m_separated(g, "N4", "N2", {"N0"}) is True


# -- ancestry ------------------------------------------------------------------------


def test_descendants_of_root():
    g = truth_dag()
    assert descendants(g, "U1") == {"H", "V", "R", "Y"}


def test_ancestors_of_outcome():
    g = truth_dag()
    assert ancestors(g, "Y") == {"V", "C", "U1", "U2"}


def test_ancestry_edgeless_and_chain():
    g = MixedGraph(["A", "B", "C"], GraphKind.DAG)
    assert descendants(g, "A") == set()
    g.add_directed_edge("A", "B")
    g.add_directed_edge("B", "C")
    assert descendants(g, "A") == {"B", "C"}
    assert ancestors(g, "C") == {"A", "B"}


def test_pag_ancestry_counts_definite_edges_only():
    g = MixedGraph(["A", "B", "C"], GraphKind.PAG)
    g.add_directed_edge("A", "B")
    g.add_edge("B", "C", Mark.CIRCLE, Mark.ARROW)
    assert descendants(g, "A") == {"B"}


# -- edge classification ---------------------------------------------------------------


def _learned_pag():
    g = MixedGraph(["H", "V", "R", "Yhat"], GraphKind.PAG)
    g.add_circle_edge("H", "V")
    g.add_edge("H", "R", Mark.CIRCLE, Mark.ARROW)
    g.add_edge("V", "Yhat", Mark.CIRCLE, Mark.ARROW)
    g.add_bidirected_edge("R", "Yhat")
    return g


def test_classify_learned_graph():
    g = _learned_pag()
    assert classify_edge(g, "V", "Yhat") is EdgeClass.POSSIBLE_CAUSE
    assert classify_edge(g, "R", "Yhat") is EdgeClass.CONFOUNDED_ONLY
    assert classify_edge(g, "H", "Yhat") is EdgeClass.NO_RELATION


def test_classify_definite_cause_and_reverse_warning():
    g = MixedGraph(["Z", "T"], GraphKind.PAG)
    g.add_directed_edge("Z", "T")
    assert classify_edge(g, "Z", "T") is EdgeClass.DEFINITE_CAUSE
    # reverse orientation against declared knowledge warns and reports no relation
    back = MixedGraph(["Z", "T"], GraphKind.PAG)
    back.add_directed_edge("T", "Z")
    know = BackgroundKnowledge(non_ancestor_pairs={("T", "Z")})
    with pytest.warns(UserWarning):
        assert classify_edge(back, "Z", "T", knowledge=know) is EdgeClass.NO_RELATION


def test_classify_is_total_over_mark_combinations():
    marks = [Mark.TAIL, Mark.ARROW, Mark.CIRCLE]
    for mf, mt in itertools.product(marks, repeat=2):
        if mf is Mark.TAIL and mt is Mark.TAIL:
            continue  # rejected by PAG validation, not classification
        g = MixedGraph(["F", "T"], GraphKind.PAG)
        g.add_edge("F", "T", mf, mt)
        assert classify_edge(g, "F", "T") in EdgeClass


# -- validation ------------------------------------------------------------------------


def test_validate_cycle_in_dag():
    g = MixedGraph(["A", "B", "C"], GraphKind.DAG)
    g.add_directed_edge("A", "B")
    g.add_directed_edge("B", "C")
    g.add_directed_edge("C", "A")
    assert any("cycle" in p for p in validate(g))


def test_validate_learned_pag_clean():
    assert validate(_learned_pag()) == []


def test_validate_circle_in_mag():
    g = MixedGraph(["X", "Y"], GraphKind.MAG)
    g.add_circle_edge("X", "Y")
    assert any("circle" in p for p in validate(g))


def test_validate_undirected_edge_rejected_in_pag():
    g = MixedGraph(["X", "Y"], GraphKind.PAG)
    g.add_edge("X", "Y", Mark.TAIL, Mark.TAIL)
    assert any("undirected" in p for p in validate(g))


# -- serialization -----------------------------------------------------------------------


def test_dot_round_trip():
    g = _learned_pag()
    text = to_dot(g)
    assert text.count(" -> ") == g.n_edges
    for token in ("arrowtail=odot", "arrowhead=normal", "dir=both"):
        assert token in text
    back = from_dot(text)
    assert back.same_structure(g)
    assert back.kind is g.kind


def test_json_round_trip():
    for g in (_learned_pag(), truth_dag(), _projected_mag()):
        back = from_json(to_json(g))
        assert back.same_structure(g)
        assert back.kind is g.kind


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        from_json("{not json")
    with pytest.raises(InputError):
        from_json('{"nodes": ["A"]}')


# -- properties ----------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_dsep_symmetric_and_matches_path_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    g = random_dag(rng, n)
    names = list(g.names)
    x, y = rng.choice(n, size=2, replace=False)
    x, y = names[x], names[y]
    rest = [v for v in names if v not in (x, y)]
    z = [v for v in rest if rng.random() < 0.4]
    got = d_separated(g, x, y, z)
    assert got == d_separated(g, y, x, z)
    assert got == separated_by_paths(g, x, y, z)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_msep_matches_path_enumeration_on_mixed_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    g = MixedGraph([f"N{i}" for i in range(n)], GraphKind.PAG)
    mark_pool = [Mark.TAIL, Mark.ARROW, Mark.CIRCLE]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                ma, mb = rng.choice(3, size=2)
                if mark_pool[ma] is Mark.TAIL and mark_pool[mb] is Mark.TAIL:
                    mb = 1
                g.add_edge(i, j, mark_pool[ma], mark_pool[mb])
    names = list(g.names)
    x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
    rest = [v for v in names if v not in (names[x], names[y])]
    z = [v for v in rest if rng.random() < 0.4]
    assert m_separated(g, names[x], names[y], z) == separated_by_paths(
        g, names[x], names[y], z
    )


def test_adjacent_pairs_never_dseparated():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_dag(rng, 5)
        for e in g.edges():
            assert d_separated(g, e.a, e.b, set()) is False


def test_no_node_is_its_own_ancestor_in_dag():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_dag(rng, 6)
        for name in g.names:
            assert name not in descendants(g, name)
            assert name not in ancestors(g, name)


def test_dsep_implies_exact_conditional_independence_small():
    # spot version of the full soundness sweep in the acceptance suite
    rng = np.random.default_rng(3)
    for _ in range(15):
        g = random_dag(rng, 4)
        cpts = random_binary_cpts(g, rng)
        joint = joint_distribution(g, cpts)
        names = list(g.names)
        for xi, yi in itertools.combinations(range(4), 2):
            rest = [v for v in range(4) if v not in (xi, yi)]
            for k in range(len(rest) + 1):
                for zz in itertools.combinations(rest, k):
                    if d_separated(g, names[xi], names[yi], [names[v] for v in zz]):
                        assert exactly_independent(joint, 4, xi, yi, zz)

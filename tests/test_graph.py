import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exactly_independent,
    from_dot,
    joint_distribution,
    random_binary_cpts,
    random_dag,
    separated_by_paths,
)
from pagaudit.citests import d_separated
from pagaudit.errors import InputError
from pagaudit.graph import (
    BackgroundKnowledge,
    Edge,
    EdgeClass,
    GraphKind,
    Mark,
    MixedGraph,
    ancestors,
    bits,
    classify_edge,
    descendants,
    directed_masks,
    from_json,
    to_dot,
    to_json,
    validate,
)
from pagaudit.simgen import truth_dag


# -- construction -------------------------------------------------------------


def test_duplicate_names_rejected():
    with pytest.raises(InputError):
        MixedGraph(["A", "A"], GraphKind.DAG)


@pytest.mark.parametrize("name", [0, 2, None, 1.5, b"a", ("a",)])
def test_a_node_name_that_is_not_a_str_is_rejected(name):
    # a name 0 once shared the index map with node index 0, so index(0)
    # gave node "b"
    with pytest.raises(InputError, match=rf"node name {re.escape(repr(name))} is not a string"):
        MixedGraph(["b", name, "c"], GraphKind.PAG)
    g = MixedGraph(["b", "0", "c"], GraphKind.PAG)
    assert (g.index("0"), g.index(0)) == (1, 0)


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
    assert separated_by_paths(mag, "H", "Y", {"V"}) is True
    assert separated_by_paths(mag, "H", "Y", set()) is False
    # agreement with the latent DAG on every observed query
    dag = truth_dag()
    for x, y in itertools.combinations(["H", "V", "R", "Y"], 2):
        rest = [v for v in ["H", "V", "R", "Y"] if v not in (x, y)]
        for k in range(len(rest) + 1):
            for s in itertools.combinations(rest, k):
                assert separated_by_paths(mag, x, y, s) == d_separated(dag, x, y, s)


def test_msep_adjacent_never_separated():
    g = MixedGraph(["X", "Y"], GraphKind.MAG)
    g.add_bidirected_edge("X", "Y")
    assert separated_by_paths(g, "X", "Y", set()) is False


def test_msep_isolated_nodes_separated():
    g = MixedGraph(["X", "Y"], GraphKind.MAG)
    assert separated_by_paths(g, "X", "Y", set()) is True


def test_msep_collider_opened_by_descendant():
    # X -> C <- Y with C -> D: conditioning on D alone opens the collider
    g = MixedGraph(["X", "Y", "C", "D"], GraphKind.MAG)
    g.add_directed_edge("X", "C")
    g.add_directed_edge("Y", "C")
    g.add_directed_edge("C", "D")
    assert separated_by_paths(g, "X", "Y", set()) is True
    assert separated_by_paths(g, "X", "Y", {"D"}) is False


def test_msep_blocked_paths_through_circle_marks():
    # the walk N4, N1, N3, N0, N3, N2 bounces off the collider N0 in z and
    # re-enters N3 through a circle mark, but every simple path is blocked
    g = MixedGraph([f"N{i}" for i in range(5)], GraphKind.PAG)
    g.add_directed_edge("N0", "N2")
    g.add_edge("N0", "N3", Mark.ARROW, Mark.CIRCLE)
    g.add_edge("N1", "N3", Mark.CIRCLE, Mark.ARROW)
    g.add_bidirected_edge("N1", "N4")
    g.add_directed_edge("N2", "N3")
    assert separated_by_paths(g, "N4", "N2", {"N0"}) is True


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


# node names as a CSV header can give them: any text without a line break,
# rich in the two characters DOT quoting must handle, not ending in \
_NODE_NAMES = st.text(
    st.sampled_from('"\\') | st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")),
    max_size=6,
).filter(lambda s: not s.endswith("\\"))


@settings(max_examples=150, deadline=None)
@given(
    names=st.lists(_NODE_NAMES, min_size=1, max_size=5, unique=True),
    seed=st.integers(0, 10_000),
)
def test_dot_round_trip_quotes_every_name(names, seed):
    rng = np.random.default_rng(seed)
    g = MixedGraph(names, GraphKind.PAG)
    marks = [Mark.CIRCLE, Mark.ARROW, Mark.TAIL]
    for i, j in itertools.combinations(range(len(names)), 2):
        if rng.random() < 0.5:
            g.add_edge(i, j, marks[rng.integers(3)], marks[rng.integers(3)])
    back = from_dot(to_dot(g))
    assert back.names == g.names and back.same_structure(g)


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


@settings(max_examples=200, deadline=None)
@given(
    mask=st.one_of(
        st.just(0),
        st.integers(0, 130).map(lambda v: 1 << v),
        st.integers(0, 2**64 - 1),
        st.integers(2**64, 2**140),
    )
)
def test_bits_are_the_set_bits_in_order(mask):
    expected = tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
    assert bits(mask) == expected
    assert type(bits(mask)) is tuple  # the second call is answered by the cache


def test_bits_cache_is_bounded_and_neighbors_stay_a_list():
    maxsize = bits.cache_info().maxsize
    assert maxsize is not None
    for mask in range(1, 2 * maxsize):
        bits(mask)
    assert bits.cache_info().currsize <= maxsize
    g = MixedGraph(["A", "B", "C"], GraphKind.PAG)
    g.add_circle_edge("A", "B")
    g.add_circle_edge("A", "C")
    nbrs = g.neighbors("A")
    assert type(nbrs) is list and nbrs == [1, 2]
    nbrs.append(0)  # the caller's list is its own: the cached tuple is untouched
    assert g.neighbors("A") == [1, 2] and bits(0b110) == (1, 2)


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


# A plain reference model of the graph storage: {node index: {neighbour index:
# mark at the node}}, driven by the same random edits as a MixedGraph.  A node
# argument is a name or an index, and may be unknown or out of range.
_MARKS = st.sampled_from(list(Mark))
_NODE = st.one_of(st.integers(-1, 6), st.sampled_from(["N0", "N1", "N2", "N3", "N4", "nope"]))
_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _NODE, _NODE, _MARKS, _MARKS),
        st.tuples(st.just("remove"), _NODE, _NODE),
        st.tuples(st.just("set"), _NODE, _NODE, _MARKS),
        st.tuples(st.just("copy")),
    ),
    max_size=40,
)


def _model_index(node, n: int) -> int | None:
    if isinstance(node, int):
        return node if 0 <= node < n else None
    return int(node[1:]) if node != "nope" else None


def _assert_matches_model(g: MixedGraph, model: dict[int, dict[int, Mark]]) -> None:
    n = g.n_nodes
    pairs = {
        (i, j): (model[i][j], model[j][i]) for i in range(n) for j in sorted(model[i]) if i < j
    }
    assert g.edge_mark_pairs() == pairs
    assert list(g.edge_mark_pairs()) == sorted(pairs)
    assert g.edges() == [Edge(g.names[i], g.names[j], mi, mj) for (i, j), (mi, mj) in pairs.items()]
    assert g.n_edges == len(pairs)
    parents, children = [0] * n, [0] * n
    for i in range(n):
        assert g.neighbors(i) == g.neighbors(g.names[i]) == sorted(model[i])
        for j in range(n):
            assert g.adjacent(i, j) == g.adjacent(g.names[i], j) == (j in model[i])
            if j in model[i]:
                assert g.mark_at(i, j) is g.mark_at(g.names[i], g.names[j]) is model[i][j]
                if model[i][j] is Mark.TAIL and model[j][i] is Mark.ARROW:
                    parents[j] |= 1 << i
                    children[i] |= 1 << j
            else:
                with pytest.raises(InputError):
                    g.mark_at(i, j)
    assert directed_masks(g) == (parents, children)
    # the same edges added fresh, in reverse order, make the same structure
    fresh = MixedGraph(g.names, g.kind)
    for (i, j), (mi, mj) in reversed(pairs.items()):
        fresh.add_edge(j, i, mj, mi)
    assert g.same_structure(fresh) and fresh.same_structure(g)
    if pairs:
        (i, j), (mi, _) = next(iter(pairs.items()))
        fresh.set_mark(i, j, Mark.ARROW if mi is not Mark.ARROW else Mark.TAIL)
        assert not g.same_structure(fresh)
        fresh.remove_edge(i, j)
        assert not g.same_structure(fresh)
    for bad in (-1, n, "nope"):
        for call in (g.neighbors, g.index):
            with pytest.raises(InputError):
                call(bad)
        for call in (g.adjacent, g.mark_at, g.remove_edge):
            with pytest.raises(InputError):
                call(bad, 0)
            with pytest.raises(InputError):
                call(0, bad)


@settings(max_examples=150, deadline=None)
@given(edits=_EDITS)
def test_graph_storage_matches_a_dict_model(edits):
    n = 5
    g = MixedGraph([f"N{i}" for i in range(n)], GraphKind.PAG)
    model: dict[int, dict[int, Mark]] = {i: {} for i in range(n)}
    copies = []  # (copy, the model when it was taken)
    for op, *args in edits:
        if op == "copy":
            copies.append((g.copy(), {i: dict(nbrs) for i, nbrs in model.items()}))
            continue
        i, j = (_model_index(a, n) for a in args[:2])
        if op == "add":
            valid = None not in (i, j) and i != j and j not in model[i]
        else:
            valid = None not in (i, j) and j in model[i]
        if not valid:
            with pytest.raises(InputError):
                getattr(g, f"{op}_edge" if op != "set" else "set_mark")(*args)
            continue
        if op == "add":
            g.add_edge(*args)
            model[i][j], model[j][i] = args[2], args[3]
        elif op == "remove":
            g.remove_edge(*args)
            del model[i][j], model[j][i]
        else:
            g.set_mark(*args)
            model[i][j] = args[2]
    _assert_matches_model(g, model)
    for copied, snapshot in copies:
        # later edits of the original never reach a copy, nor a copy's the original
        _assert_matches_model(copied, snapshot)
        for i, j in copied.edge_mark_pairs():
            copied.set_mark(i, j, Mark.ARROW)
            copied.remove_edge(j, i)
    _assert_matches_model(g, model)

"""Mixed graphs with endpoint marks: DAGs, MAGs and PAGs.

A graph holds an immutable ordered node list and at most one edge per node
pair.  Each edge carries one mark per endpoint (tail, arrow, circle).  It is
stored as one adjacency bitmask per node and an n x n mark table, so that
neighbour sets, reachability and separation are bit operations on masks
(``bits``, ``directed_masks``, ``bayes_ball_separated``).  This module keeps
the Bayes-ball primitive on masks; the d-separation query by name,
``citests.d_separated``, is a CI front like the others.  All query
operations are read-only and safe to call concurrently; construction and
mutation are single-owner.  Two caches fill as queries run: ``bits`` keeps
the node tuples of recent masks, and each oracle's frontier maps
(``_Unions``) keep the union of every frontier mask a Bayes-ball query has
stepped from.  Both fills are idempotent (a mask's entry is a function of
the mask alone), so concurrent reads stay safe.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import InputError

__all__ = [
    "Mark",
    "GraphKind",
    "EdgeClass",
    "Edge",
    "MixedGraph",
    "BackgroundKnowledge",
    "bayes_ball_separated",
    "bits",
    "directed_masks",
    "ancestors",
    "descendants",
    "classify_edge",
    "validate",
    "to_dot",
    "to_json",
    "from_json",
]


class Mark(str, Enum):
    """Mark at one endpoint of an edge."""

    TAIL = "tail"
    ARROW = "arrow"
    CIRCLE = "circle"

    def __repr__(self) -> str:  # compact in test diffs
        return self.value


class GraphKind(str, Enum):
    DAG = "dag"
    MAG = "mag"
    PAG = "pag"


class EdgeClass(Enum):
    """Relation of a feature to the target implied by a PAG edge."""

    DEFINITE_CAUSE = "definite_cause"
    POSSIBLE_CAUSE = "possible_cause"
    CONFOUNDED_ONLY = "confounded_only"
    NO_RELATION = "no_relation"


@dataclass(frozen=True)
class Edge:
    """Edge between nodes ``a`` and ``b`` with a mark at each end.

    ``a`` and ``b`` are node names; ``mark_a`` sits at the ``a`` end.
    """

    a: str
    b: str
    mark_a: Mark
    mark_b: Mark

    def __str__(self) -> str:
        left = {Mark.TAIL: "-", Mark.ARROW: "<", Mark.CIRCLE: "o"}[self.mark_a]
        right = {Mark.TAIL: "-", Mark.ARROW: ">", Mark.CIRCLE: "o"}[self.mark_b]
        return f"{self.a} {left}-{right} {self.b}"


class MixedGraph:
    """Node-ordered mixed graph.

    Node identity is the index into the ordered, unique, case-sensitive name
    list fixed at construction.  Public methods accept names or indices and
    check them.  The graph is stored as two structures indexed by node
    index, which FCI reads and writes directly, without checks: ``adj[i]``
    is the bitmask of i's neighbours, and ``marks[i][j]`` is the mark at i on
    the edge between i and j, or None when there is no edge.  A writer keeps
    them consistent: bit j of ``adj[i]``, bit i of ``adj[j]`` and a mark in
    ``marks[i][j]`` and ``marks[j][i]`` are set together or not at all.
    """

    def __init__(self, names: list[str] | tuple[str, ...], kind: GraphKind | str = GraphKind.PAG):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError(f"duplicate node names: {sorted(names)}")
        self.names = names
        self.kind = GraphKind(kind)
        self._index = {name: i for i, name in enumerate(names)}
        self._index.update((i, i) for i in range(len(names)))  # an index maps to itself
        self.adj: list[int] = [0] * len(names)
        self.marks: list[list[Mark | None]] = [[None] * len(names) for _ in names]

    # -- node handling -----------------------------------------------------

    def index(self, node: str | int) -> int:
        try:
            return self._index[node]
        except KeyError:
            if isinstance(node, int):
                raise InputError(f"node index {node} out of range") from None
            raise InputError(f"unknown node {node!r}") from None

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    # -- edge construction and mutation -------------------------------------

    def _edge(self, a: str | int, b: str | int) -> tuple[int, int]:
        """The indices of an existing edge's endpoints."""
        i, j = self.index(a), self.index(b)
        if not self.adj[i] >> j & 1:
            raise InputError(f"no edge {self.names[i]!r}--{self.names[j]!r}")
        return i, j

    def add_edge(self, a: str | int, b: str | int, mark_a: Mark, mark_b: Mark) -> None:
        i, j = self.index(a), self.index(b)
        if i == j:
            raise InputError(f"self-loop on {self.names[i]!r}")
        if self.adj[i] >> j & 1:
            raise InputError(f"duplicate edge {self.names[i]!r}--{self.names[j]!r}")
        self.marks[i][j], self.marks[j][i] = Mark(mark_a), Mark(mark_b)
        self.adj[i] |= 1 << j
        self.adj[j] |= 1 << i

    def add_directed_edge(self, a: str | int, b: str | int) -> None:
        """Add ``a -> b`` (tail at ``a``, arrow at ``b``)."""
        self.add_edge(a, b, Mark.TAIL, Mark.ARROW)

    def add_circle_edge(self, a: str | int, b: str | int) -> None:
        """Add ``a o-o b``."""
        self.add_edge(a, b, Mark.CIRCLE, Mark.CIRCLE)

    def add_bidirected_edge(self, a: str | int, b: str | int) -> None:
        """Add ``a <-> b``."""
        self.add_edge(a, b, Mark.ARROW, Mark.ARROW)

    def remove_edge(self, a: str | int, b: str | int) -> None:
        i, j = self._edge(a, b)
        self.marks[i][j] = self.marks[j][i] = None
        self.adj[i] &= ~(1 << j)
        self.adj[j] &= ~(1 << i)

    def set_mark(self, at: str | int, other: str | int, mark: Mark) -> None:
        """Set the mark at node ``at`` on the edge between ``at`` and ``other``."""
        i, j = self._edge(at, other)
        self.marks[i][j] = Mark(mark)

    # -- queries -------------------------------------------------------------

    def adjacent(self, a: str | int, b: str | int) -> bool:
        return bool(self.adj[self.index(a)] >> self.index(b) & 1)

    def mark_at(self, at: str | int, other: str | int) -> Mark:
        """Mark at node ``at`` on the edge between ``at`` and ``other``."""
        i, j = self._edge(at, other)
        return self.marks[i][j]

    def neighbors(self, node: str | int) -> list[int]:
        """Adjacent node indices in node order."""
        return list(bits(self.adj[self.index(node)]))

    def edges(self) -> list[Edge]:
        """Edges sorted by node-index pair."""
        return [
            Edge(self.names[i], self.names[j], mi, mj)
            for (i, j), (mi, mj) in self.edge_mark_pairs().items()
        ]

    @property
    def n_edges(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def edge_mark_pairs(self) -> dict[tuple[int, int], tuple[Mark, Mark]]:
        """(i, j) with i < j -> (mark at i, mark at j), sorted by pair."""
        marks = self.marks
        return {
            (i, j): (marks[i][j], marks[j][i])
            for i, mask in enumerate(self.adj)
            for j in bits(mask >> (i + 1) << (i + 1))
        }

    def copy(self) -> "MixedGraph":
        g = MixedGraph(self.names, self.kind)
        g.adj = self.adj[:]
        g.marks = [row[:] for row in self.marks]
        return g

    def same_structure(self, other: "MixedGraph") -> bool:
        return self.names == other.names and self.marks == other.marks

    def is_acyclic(self) -> bool:
        """No definite directed cycle (only tail->arrow edges count)."""
        _, children = directed_masks(self)
        return not any(_closure(children[i], children) >> i & 1 for i in range(self.n_nodes))


# -- directed reachability over bitmasks ---------------------------------------


@lru_cache(maxsize=1 << 10)
def bits(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, as node indices in ascending order.

    FCI's walks and rules ask for the same few adjacency masks over and
    over, so the most recent masks' tuples are kept.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def directed_masks(g: MixedGraph) -> tuple[list[int], list[int]]:
    """Parent and child bitmasks per node over definite tail->arrow edges.

    Bit j of ``parents[i]`` is set iff ``j -> i``; other edges are skipped.
    """
    parents = [0] * g.n_nodes
    children = [0] * g.n_nodes
    for i, row in enumerate(g.marks):
        for j in bits(g.adj[i]):
            if row[j] is Mark.TAIL and g.marks[j][i] is Mark.ARROW:
                parents[j] |= 1 << i
                children[i] |= 1 << j
    return parents, children


def _union(mask: int, step: list[int]) -> int:
    """OR of ``step[v]`` over the set bits v of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= step[low.bit_length() - 1]
        mask ^= low
    return out


class _Unions(dict):
    """Frontier mask -> ``_union(mask, step)``, each mask's union computed on
    its first lookup and kept; ``step`` is a parent or child mask per node."""

    __slots__ = ("step",)

    def __init__(self, step: list[int]):
        super().__init__()
        self.step = step

    def __missing__(self, mask: int) -> int:
        self[mask] = out = _union(mask, self.step)
        return out


def _closure(mask: int, step: list[int]) -> int:
    """``mask`` and every node reachable from it by repeated ``step``."""
    seen = frontier = mask
    while frontier:
        frontier = _union(frontier, step) & ~seen
        seen |= frontier
    return seen


def bayes_ball_separated(parents: _Unions, children: _Unions, x: int, y: int, z: int) -> bool:
    """d-separation of nodes ``x`` and ``y`` given the node bitmask ``z``.

    ``parents`` and ``children`` map a node mask to the union of its nodes'
    parents (children) in the DAG: the ``_Unions`` of the DAG's masks from
    ``directed_masks``, as a ``citests.CiOracle`` holds them, so each
    frontier a query reaches is unioned once per oracle and then looked up.
    A list of per-node masks is not such a map.  Neither ``x`` nor ``y`` may
    be in ``z``.

    Bayes-ball (Shachter 1998): the ball starts at ``x`` as if passed up
    from a child.  A node outside ``z`` passes a ball from a child on to its
    parents and children, and a ball from a parent on to its children; a
    node in ``z`` stops a ball from a child and bounces one from a parent
    back up to its parents.  The bounce opens a collider with a descendant
    in ``z``: the ball runs down to that descendant and back up.  Both
    frontiers advance as masks, one lookup each per step, and ``y`` reached
    means d-connected.
    """
    target = 1 << y
    up = up_front = 1 << x  # nodes a ball was passed up to, from a child
    down = down_front = 0  # nodes a ball was passed down to, from a parent
    while up_front or down_front:
        free = up_front & ~z
        up_front = parents[free | down_front & z] & ~up
        down_front = children[free | down_front & ~z] & ~down
        if (up_front | down_front) & target:
            return False
        up |= up_front
        down |= down_front
    return True


def _names(g: MixedGraph, mask: int, but: int) -> set[str]:
    return {name for v, name in enumerate(g.names) if mask >> v & 1 and v != but}


def descendants(g: MixedGraph, x: str | int) -> set[str]:
    """Nodes reachable from ``x`` via chains of definite tail->arrow edges.

    ``x`` itself is excluded.  In a PAG only definite directed edges count.
    """
    i = g.index(x)
    _, children = directed_masks(g)
    return _names(g, _closure(children[i], children), i)


def ancestors(g: MixedGraph, x: str | int) -> set[str]:
    """Nodes with a definite directed path into ``x`` (``x`` excluded)."""
    i = g.index(x)
    parents, _ = directed_masks(g)
    return _names(g, _closure(parents[i], parents), i)


# -- edge classification --------------------------------------------------------


def classify_edge(
    g: MixedGraph,
    feature: str | int,
    target: str | int,
    knowledge: "BackgroundKnowledge | None" = None,
) -> EdgeClass:
    """Classify the feature--target relation implied by a PAG.

    tail->arrow means the feature is a definite cause; circle->arrow a
    possible cause; arrow-arrow association due to latent confounding only;
    no edge, no relation.  A tail at the target (target causes feature) maps
    to NO_RELATION and, when the target was declared a non-ancestor, raises a
    warning since it contradicts that declaration.
    """
    fi, ti = g.index(feature), g.index(target)
    if fi == ti:
        raise InputError("feature and target must be distinct")
    if not g.adjacent(fi, ti):
        return EdgeClass.NO_RELATION
    mf, mt = g.mark_at(fi, ti), g.mark_at(ti, fi)
    if mt is Mark.TAIL:
        if knowledge is not None and knowledge.declares_non_ancestor(g.names[ti], g.names[fi]):
            warnings.warn(
                f"edge {g.names[fi]!r}--{g.names[ti]!r} directs the declared "
                f"non-ancestor {g.names[ti]!r} into {g.names[fi]!r}",
                stacklevel=2,
            )
        return EdgeClass.NO_RELATION
    if mf is Mark.TAIL:
        # feature is an ancestor of the target in every member of the class
        return EdgeClass.DEFINITE_CAUSE
    if mf is Mark.CIRCLE:
        return EdgeClass.POSSIBLE_CAUSE
    return EdgeClass.CONFOUNDED_ONLY


# -- validation -----------------------------------------------------------------


def validate(g: MixedGraph) -> list[str]:
    """Kind-specific invariant violations; empty list when the graph is legal."""
    problems: list[str] = []
    if g.kind is GraphKind.DAG:
        for e in g.edges():
            if not (e.mark_a is Mark.TAIL and e.mark_b is Mark.ARROW) and not (
                e.mark_a is Mark.ARROW and e.mark_b is Mark.TAIL
            ):
                problems.append(f"non-directed edge in DAG: {e}")
        if not g.is_acyclic():
            problems.append("directed cycle in DAG")
    elif g.kind is GraphKind.MAG:
        for e in g.edges():
            if Mark.CIRCLE in (e.mark_a, e.mark_b):
                problems.append(f"circle mark in MAG: {e}")
            if e.mark_a is Mark.TAIL and e.mark_b is Mark.TAIL:
                problems.append(f"undirected edge (selection bias) not supported: {e}")
    else:
        for e in g.edges():
            if e.mark_a is Mark.TAIL and e.mark_b is Mark.TAIL:
                problems.append(f"undirected edge (selection bias) not supported: {e}")
    return problems


# -- background knowledge ---------------------------------------------------------


@dataclass
class BackgroundKnowledge:
    """Orientation and adjacency constraints applied during discovery.

    ``non_ancestor_pairs`` holds ordered pairs (a, b): a has no directed path
    into b.  Adjacency constraints are unordered pairs.  Each entry is
    stored as two distinct names, a tuple for an ordered pair and a
    frozenset for an unordered one; any other entry is an InputError.
    """

    non_ancestor_pairs: set[tuple[str, str]] = field(default_factory=set)
    forbidden_adjacencies: set[frozenset[str]] = field(default_factory=set)
    required_adjacencies: set[frozenset[str]] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.non_ancestor_pairs = {_pair(p, ordered=True) for p in self.non_ancestor_pairs}
        self.forbidden_adjacencies = {_pair(p) for p in self.forbidden_adjacencies}
        self.required_adjacencies = {_pair(p) for p in self.required_adjacencies}
        clash = self.forbidden_adjacencies & self.required_adjacencies
        if clash:
            pair = sorted(next(iter(clash)))
            raise InputError(f"adjacency {pair} both forbidden and required")

    def declares_non_ancestor(self, a: str, b: str) -> bool:
        return (a, b) in self.non_ancestor_pairs

    def check_names(self, names) -> None:
        known = set(names)
        used = {n for p in self.non_ancestor_pairs for n in p}
        used |= {n for p in self.forbidden_adjacencies | self.required_adjacencies for n in p}
        unknown = used - known
        if unknown:
            raise InputError(f"knowledge references unknown variables: {sorted(unknown)}")

    @classmethod
    def non_ancestor_of_all(cls, target: str, names) -> "BackgroundKnowledge":
        """Target cannot cause any other variable (the prediction-column case)."""
        return cls(non_ancestor_pairs={(target, n) for n in names if n != target})

    def merged_with(self, other: "BackgroundKnowledge | None") -> "BackgroundKnowledge":
        if other is None:
            return self
        return BackgroundKnowledge(
            self.non_ancestor_pairs | other.non_ancestor_pairs,
            self.forbidden_adjacencies | other.forbidden_adjacencies,
            self.required_adjacencies | other.required_adjacencies,
        )


def _pair(entry, ordered: bool = False) -> tuple[str, str] | frozenset[str]:
    """A knowledge entry as two distinct names: a tuple, or, unordered, a
    frozenset taken from a tuple or a set.  A string is no pair."""
    what = "non-ancestor" if ordered else "adjacency"
    kinds = tuple if ordered else (tuple, set, frozenset)
    pair = tuple(entry) if isinstance(entry, kinds) else ()
    if len(pair) != 2 or not all(isinstance(name, str) for name in pair):
        raise InputError(f"{what} entry {entry!r} is not a pair of names")
    if pair[0] == pair[1]:
        raise InputError(f"{what} constraint on identical nodes {pair[0]!r}")
    return pair if ordered else frozenset(pair)


# -- serialization -----------------------------------------------------------------

_DOT_MARK = {Mark.TAIL: "none", Mark.ARROW: "normal", Mark.CIRCLE: "odot"}


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT ID, ``"`` escaped as ``\\"`` (DOT's one escape
    there); a trailing ``\\`` would escape the closing quote."""
    if name.endswith("\\"):
        raise InputError(f"node name {name!r} ends in a backslash, which DOT cannot quote")
    return '"' + name.replace('"', '\\"') + '"'


def to_dot(g: MixedGraph) -> str:
    """DOT text, one edge per line; marks become arrowtail/arrowhead attributes."""
    ids = [_dot_id(name) for name in g.names]
    lines = ["digraph mixedgraph {", f'  graph [kind="{g.kind.value}"];']
    lines += [f"  {node};" for node in ids]
    for (a, b), (ma, mb) in g.edge_mark_pairs().items():
        lines.append(
            f"  {ids[a]} -> {ids[b]} [dir=both, "
            f"arrowtail={_DOT_MARK[ma]}, arrowhead={_DOT_MARK[mb]}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_obj(g: MixedGraph) -> dict:
    return {
        "kind": g.kind.value,
        "nodes": list(g.names),
        "edges": [
            {"a": e.a, "b": e.b, "mark_a": e.mark_a.value, "mark_b": e.mark_b.value}
            for e in g.edges()
        ],
    }


def to_json(g: MixedGraph) -> str:
    return json.dumps(to_json_obj(g), indent=2, sort_keys=True) + "\n"


def from_json_obj(obj: dict) -> MixedGraph:
    """The graph of a JSON object: ``nodes`` a list of strings, ``edges`` a
    list of objects with string fields ``a``, ``b``, ``mark_a`` and
    ``mark_b``, and an optional ``kind`` (pag by default).  A field that is
    missing or of the wrong type is an InputError naming it."""
    if not isinstance(obj, dict):
        raise InputError("malformed graph JSON: not a JSON object")
    for key, item, kind in (("nodes", str, "a list of strings"), ("edges", dict, "a list of objects")):
        value = obj.get(key)
        if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
            raise _field_error("", obj, key, kind)
    for i, e in enumerate(obj["edges"]):
        for key in ("a", "b", "mark_a", "mark_b"):
            if not isinstance(e.get(key), str):
                raise _field_error(f"edge {i} field ", e, key, "str")
    try:
        g = MixedGraph(obj["nodes"], GraphKind(obj.get("kind", "pag")))
        for e in obj["edges"]:
            g.add_edge(e["a"], e["b"], Mark(e["mark_a"]), Mark(e["mark_b"]))
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed graph JSON: {exc}") from exc
    return g


def _field_error(where: str, obj: dict, key: str, kind: str) -> InputError:
    got = repr(obj[key]) if key in obj else "no value"
    return InputError(f"malformed graph JSON: {where}{key!r} must be {kind}, got {got}")


def from_json(text: str) -> MixedGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return from_json_obj(obj)

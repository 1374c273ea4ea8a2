"""Mixed graphs with endpoint marks: DAGs, MAGs and PAGs plus separation queries.

A graph holds an immutable ordered node list and at most one edge per node
pair.  Each edge carries one mark per endpoint (tail, arrow, circle).  All
query operations are read-only and safe to call concurrently; construction
and mutation are single-owner.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum

from .errors import InputError

__all__ = [
    "Mark",
    "GraphKind",
    "EdgeClass",
    "Edge",
    "MixedGraph",
    "BackgroundKnowledge",
    "bayes_ball_separated",
    "d_separated",
    "directed_masks",
    "m_separated",
    "ancestors",
    "descendants",
    "classify_edge",
    "validate",
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
    list fixed at construction.  Public methods accept names or indices.
    """

    def __init__(self, names: list[str] | tuple[str, ...], kind: GraphKind | str = GraphKind.PAG):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError(f"duplicate node names: {sorted(names)}")
        self.names = names
        self.kind = GraphKind(kind)
        self._index = {name: i for i, name in enumerate(names)}
        # marks[(i, j)] with i < j -> (mark at i, mark at j)
        self._marks: dict[tuple[int, int], tuple[Mark, Mark]] = {}
        self._adj: list[set[int]] = [set() for _ in names]

    # -- node handling -----------------------------------------------------

    def index(self, node: str | int) -> int:
        if isinstance(node, int):
            if not 0 <= node < len(self.names):
                raise InputError(f"node index {node} out of range")
            return node
        try:
            return self._index[node]
        except KeyError:
            raise InputError(f"unknown node {node!r}") from None

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    # -- edge construction and mutation -------------------------------------

    def add_edge(self, a: str | int, b: str | int, mark_a: Mark, mark_b: Mark) -> None:
        i, j = self.index(a), self.index(b)
        if i == j:
            raise InputError(f"self-loop on {self.names[i]!r}")
        key = (i, j) if i < j else (j, i)
        if key in self._marks:
            raise InputError(f"duplicate edge {self.names[i]!r}--{self.names[j]!r}")
        pair = (mark_a, mark_b) if i < j else (mark_b, mark_a)
        self._marks[key] = (Mark(pair[0]), Mark(pair[1]))
        self._adj[i].add(j)
        self._adj[j].add(i)

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
        i, j = self.index(a), self.index(b)
        key = (i, j) if i < j else (j, i)
        if key not in self._marks:
            raise InputError(f"no edge {self.names[i]!r}--{self.names[j]!r}")
        del self._marks[key]
        self._adj[i].discard(j)
        self._adj[j].discard(i)

    def set_mark(self, at: str | int, other: str | int, mark: Mark) -> None:
        """Set the mark at node ``at`` on the edge between ``at`` and ``other``."""
        i, j = self.index(at), self.index(other)
        key = (i, j) if i < j else (j, i)
        if key not in self._marks:
            raise InputError(f"no edge {self.names[i]!r}--{self.names[j]!r}")
        mi, mj = self._marks[key]
        if key[0] == i:
            self._marks[key] = (Mark(mark), mj)
        else:
            self._marks[key] = (mi, Mark(mark))

    # -- queries -------------------------------------------------------------

    def adjacent(self, a: str | int, b: str | int) -> bool:
        i, j = self.index(a), self.index(b)
        return j in self._adj[i]

    def mark_at(self, at: str | int, other: str | int) -> Mark:
        """Mark at node ``at`` on the edge between ``at`` and ``other``."""
        i, j = self.index(at), self.index(other)
        key = (i, j) if i < j else (j, i)
        try:
            mi, mj = self._marks[key]
        except KeyError:
            raise InputError(f"no edge {self.names[i]!r}--{self.names[j]!r}") from None
        return mi if key[0] == i else mj

    def neighbors(self, node: str | int) -> list[int]:
        """Adjacent node indices in node order."""
        return sorted(self._adj[self.index(node)])

    def edges(self) -> list[Edge]:
        """Edges sorted by node-index pair."""
        out = []
        for (i, j) in sorted(self._marks):
            mi, mj = self._marks[(i, j)]
            out.append(Edge(self.names[i], self.names[j], mi, mj))
        return out

    @property
    def n_edges(self) -> int:
        return len(self._marks)

    def edge_mark_pairs(self) -> dict[tuple[int, int], tuple[Mark, Mark]]:
        """Copy of the internal (i < j) -> (mark_i, mark_j) map."""
        return dict(self._marks)

    def copy(self, kind: GraphKind | str | None = None) -> "MixedGraph":
        g = MixedGraph(self.names, self.kind if kind is None else kind)
        g._marks = dict(self._marks)
        g._adj = [set(s) for s in self._adj]
        return g

    def same_structure(self, other: "MixedGraph") -> bool:
        return self.names == other.names and self._marks == other._marks

    def is_acyclic(self) -> bool:
        """No definite directed cycle (only tail->arrow edges count)."""
        _, children = directed_masks(self)
        return not any(_closure(children[i], children) >> i & 1 for i in range(self.n_nodes))


# -- directed reachability over bitmasks ---------------------------------------


def directed_masks(g: MixedGraph) -> tuple[list[int], list[int]]:
    """Parent and child bitmasks per node over definite tail->arrow edges.

    Bit j of ``parents[i]`` is set iff ``j -> i``; other edges are skipped.
    """
    parents = [0] * g.n_nodes
    children = [0] * g.n_nodes
    for (i, j), (mi, mj) in g._marks.items():
        if mi is Mark.TAIL and mj is Mark.ARROW:
            parents[j] |= 1 << i
            children[i] |= 1 << j
        elif mi is Mark.ARROW and mj is Mark.TAIL:
            parents[i] |= 1 << j
            children[j] |= 1 << i
    return parents, children


def _union(mask: int, step: list[int]) -> int:
    """OR of ``step[v]`` over the set bits v of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= step[low.bit_length() - 1]
        mask ^= low
    return out


def _closure(mask: int, step: list[int]) -> int:
    """``mask`` and every node reachable from it by repeated ``step``."""
    seen = frontier = mask
    while frontier:
        frontier = _union(frontier, step) & ~seen
        seen |= frontier
    return seen


def bayes_ball_separated(parents: list[int], children: list[int], x: int, y: int, z: int) -> bool:
    """d-separation of nodes ``x`` and ``y`` given the node bitmask ``z``.

    ``parents`` and ``children`` are the DAG's masks from ``directed_masks``;
    neither ``x`` nor ``y`` may be in ``z``.  Bayes-ball (Shachter 1998): the
    ball starts at ``x`` as if passed up from a child.  A node outside ``z``
    passes a ball from a child on to its parents and children, and a ball
    from a parent on to its children; a node in ``z`` stops a ball from a
    child and bounces one from a parent back up to its parents.  The bounce
    opens a collider with a descendant in ``z``: the ball runs down to that
    descendant and back up.  Both frontiers advance as masks, and ``y``
    reached means d-connected.
    """
    target = 1 << y
    up = up_front = 1 << x  # nodes a ball was passed up to, from a child
    down = down_front = 0  # nodes a ball was passed down to, from a parent
    while up_front or down_front:
        free = up_front & ~z
        up_front = _union(free | down_front & z, parents) & ~up
        down_front = _union(free | down_front & ~z, children) & ~down
        if (up_front | down_front) & target:
            return False
        up |= up_front
        down |= down_front
    return True


# -- separation ---------------------------------------------------------------


def _check_query(g: MixedGraph, x: str | int, y: str | int, z) -> tuple[int, int, set[int]]:
    xi, yi = g.index(x), g.index(y)
    zi = {g.index(v) for v in z}
    if xi == yi:
        raise InputError("x and y must be distinct")
    if xi in zi or yi in zi:
        raise InputError("x and y must not be in the conditioning set")
    return xi, yi, zi


def d_separated(g: MixedGraph, x: str | int, y: str | int, z=()) -> bool:
    """d-separation of ``x`` and ``y`` given ``z`` in a DAG.

    True iff every path between them is blocked: a non-collider blocks when it
    is in ``z``; a collider blocks unless it or one of its descendants is in
    ``z``.  A graph of kind DAG that fails ``validate`` is rejected.  The
    parent and child masks are built per call; ``CiOracle`` builds them once
    for its many queries.
    """
    if g.kind is not GraphKind.DAG:
        raise InputError(f"d_separated requires a DAG, got kind {g.kind.value!r}")
    problems = validate(g)
    if problems:
        raise InputError(f"d_separated requires a valid DAG: {problems[0]}")
    xi, yi, zi = _check_query(g, x, y, z)
    parents, children = directed_masks(g)
    return bayes_ball_separated(parents, children, xi, yi, sum(1 << v for v in zi))


def m_separated(g: MixedGraph, x: str | int, y: str | int, z=()) -> bool:
    """m-separation of ``x`` and ``y`` given ``z`` in a MAG or PAG.

    Colliders are nodes with arrowheads from both path neighbors; they open
    only when they or a definite descendant lie in ``z``.  Non-colliders block
    when in ``z``.
    """
    xi, yi, zi = _check_query(g, x, y, z)
    open_colliders = _closure(sum(1 << v for v in zi), directed_masks(g)[0])

    # Depth-first over simple paths: a walk that revisits a node can enter it
    # through a circle mark and pass it as a non-collider, though every path
    # through it is blocked, so a search over (node, entry mark) states is
    # unsound here.
    def open_path(prev: int, v: int, on_path: set[int]) -> bool:
        if v == yi:
            return True
        entry = g.mark_at(v, prev)
        for w in g.neighbors(v):
            if w in on_path:
                continue
            collider = entry is Mark.ARROW and g.mark_at(v, w) is Mark.ARROW
            if not (open_colliders >> v & 1 if collider else v not in zi):
                continue
            if open_path(v, w, on_path | {w}):
                return True
        return False

    return not any(open_path(xi, w, {xi, w}) for w in g.neighbors(xi))


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
    into b.  Adjacency constraints are unordered pairs.
    """

    non_ancestor_pairs: set[tuple[str, str]] = field(default_factory=set)
    forbidden_adjacencies: set[frozenset[str]] = field(default_factory=set)
    required_adjacencies: set[frozenset[str]] = field(default_factory=set)

    def __post_init__(self) -> None:
        for a, b in self.non_ancestor_pairs:
            if a == b:
                raise InputError(f"non-ancestor constraint on identical nodes {a!r}")
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


# -- serialization -----------------------------------------------------------------

_DOT_MARK = {Mark.TAIL: "none", Mark.ARROW: "normal", Mark.CIRCLE: "odot"}
_DOT_MARK_BACK = {v: k for k, v in _DOT_MARK.items()}

_DOT_EDGE_RE = re.compile(
    r'^\s*"(?P<a>[^"]+)"\s*->\s*"(?P<b>[^"]+)"\s*'
    r"\[dir=both,\s*arrowtail=(?P<ta>\w+),\s*arrowhead=(?P<hb>\w+)\];$"
)
_DOT_NODE_RE = re.compile(r'^\s*"(?P<name>[^"]+)";$')
_DOT_KIND_RE = re.compile(r'^\s*graph \[kind="(?P<kind>\w+)"\];$')


def to_dot(g: MixedGraph) -> str:
    """DOT text, one edge per line; marks become arrowtail/arrowhead attributes."""
    lines = ["digraph mixedgraph {", f'  graph [kind="{g.kind.value}"];']
    for name in g.names:
        lines.append(f'  "{name}";')
    for e in g.edges():
        lines.append(
            f'  "{e.a}" -> "{e.b}" [dir=both, '
            f"arrowtail={_DOT_MARK[e.mark_a]}, arrowhead={_DOT_MARK[e.mark_b]}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def from_dot(text: str) -> MixedGraph:
    """Parse DOT produced by :func:`to_dot`."""
    kind = GraphKind.PAG
    names: list[str] = []
    edges: list[tuple[str, str, Mark, Mark]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("digraph") or line == "}":
            continue
        m = _DOT_KIND_RE.match(line)
        if m:
            kind = GraphKind(m.group("kind"))
            continue
        m = _DOT_EDGE_RE.match(line)
        if m:
            try:
                ta, hb = _DOT_MARK_BACK[m.group("ta")], _DOT_MARK_BACK[m.group("hb")]
            except KeyError:
                raise InputError(f"unknown arrow style in DOT line: {line}") from None
            edges.append((m.group("a"), m.group("b"), ta, hb))
            continue
        m = _DOT_NODE_RE.match(line)
        if m:
            names.append(m.group("name"))
            continue
        raise InputError(f"unparseable DOT line: {line}")
    g = MixedGraph(names, kind)
    for a, b, ma, mb in edges:
        g.add_edge(a, b, ma, mb)
    return g


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
    try:
        g = MixedGraph(obj["nodes"], GraphKind(obj.get("kind", "pag")))
        for e in obj["edges"]:
            g.add_edge(e["a"], e["b"], Mark(e["mark_a"]), Mark(e["mark_b"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph JSON: {exc}") from exc
    return g


def from_json(text: str) -> MixedGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return from_json_obj(obj)

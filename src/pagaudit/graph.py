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
from collections import deque
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
    "d_separated",
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

    # -- directed reachability ------------------------------------------------

    def _directed_children(self, i: int) -> list[int]:
        # j such that i -> j is a definite directed edge (tail at i, arrow at j)
        out = []
        for j in sorted(self._adj[i]):
            if self.mark_at(i, j) is Mark.TAIL and self.mark_at(j, i) is Mark.ARROW:
                out.append(j)
        return out

    def _directed_parents(self, i: int) -> list[int]:
        out = []
        for j in sorted(self._adj[i]):
            if self.mark_at(j, i) is Mark.TAIL and self.mark_at(i, j) is Mark.ARROW:
                out.append(j)
        return out

    def _reach(self, start: set[int], step) -> set[int]:
        seen = set(start)
        todo = deque(start)
        while todo:
            v = todo.popleft()
            for w in step(v):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    def is_acyclic(self) -> bool:
        """No definite directed cycle (only tail->arrow edges count)."""
        for i in range(self.n_nodes):
            if i in self._reach(set(self._directed_children(i)), self._directed_children):
                return False
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
    ``z``.
    """
    if g.kind is not GraphKind.DAG:
        raise InputError(f"d_separated requires a DAG, got kind {g.kind.value!r}")
    xi, yi, zi = _check_query(g, x, y, z)
    # Reachability over (node, entry mark) states: a walk continues through v
    # entered with mark m iff v is a collider there (m and the outgoing mark
    # are both arrows) with a descendant in z (itself included), or v is a
    # non-collider outside z.  In a DAG an open walk implies an open path.
    open_colliders = g._reach(set(zi), g._directed_parents)
    seen: set[tuple[int, Mark]] = set()
    todo: deque[tuple[int, Mark]] = deque()
    for w in g.neighbors(xi):
        state = (w, g.mark_at(w, xi))
        if w == yi:
            return False
        seen.add(state)
        todo.append(state)
    while todo:
        v, entry = todo.popleft()
        for w in g.neighbors(v):
            out = g.mark_at(v, w)
            if entry is Mark.ARROW and out is Mark.ARROW:
                passable = v in open_colliders
            else:
                passable = v not in zi
            if not passable:
                continue
            state = (w, g.mark_at(w, v))
            if w == yi:
                return False
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return True


def m_separated(g: MixedGraph, x: str | int, y: str | int, z=()) -> bool:
    """m-separation of ``x`` and ``y`` given ``z`` in a MAG or PAG.

    Colliders are nodes with arrowheads from both path neighbors; they open
    only when they or a definite descendant lie in ``z``.  Non-colliders block
    when in ``z``.
    """
    xi, yi, zi = _check_query(g, x, y, z)
    open_colliders = g._reach(set(zi), g._directed_parents)

    # Depth-first over simple paths: a walk that revisits a node can enter it
    # through a circle mark and pass it as a non-collider, though every path
    # through it is blocked, so d_separated's walk search is unsound here.
    def open_path(prev: int, v: int, on_path: set[int]) -> bool:
        if v == yi:
            return True
        entry = g.mark_at(v, prev)
        for w in g.neighbors(v):
            if w in on_path:
                continue
            collider = entry is Mark.ARROW and g.mark_at(v, w) is Mark.ARROW
            if not (v in open_colliders if collider else v not in zi):
                continue
            if open_path(v, w, on_path | {w}):
                return True
        return False

    return not any(open_path(xi, w, {xi, w}) for w in g.neighbors(xi))


def descendants_indices(g: MixedGraph, x: str | int) -> set[int]:
    i = g.index(x)
    return g._reach(set(g._directed_children(i)), g._directed_children) - {i}


def ancestors_indices(g: MixedGraph, x: str | int) -> set[int]:
    i = g.index(x)
    return g._reach(set(g._directed_parents(i)), g._directed_parents) - {i}


def descendants(g: MixedGraph, x: str | int) -> set[str]:
    """Nodes reachable from ``x`` via chains of definite tail->arrow edges.

    ``x`` itself is excluded.  In a PAG only definite directed edges count.
    """
    return {g.names[i] for i in descendants_indices(g, x)}


def ancestors(g: MixedGraph, x: str | int) -> set[str]:
    """Nodes with a definite directed path into ``x`` (``x`` excluded)."""
    return {g.names[i] for i in ancestors_indices(g, x)}


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

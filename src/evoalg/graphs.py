"""Finite simple graphs, component decomposition and lattice boxes.

Vertices are dense integer labels ``0..n-1``.  External descriptors may use
arbitrary string labels; those are mapped to dense indices at load time.
All objects are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import ValidationError, shown

__all__ = [
    "Graph",
    "ComponentPartition",
    "LatticeBox",
    "components",
    "graph_from_json",
]


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: no loops, no multi-edges.

    Edges are stored as a frozenset of ``(x, y)`` tuples with ``x < y``.
    """

    vertex_count: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValidationError("vertex_count: must be a positive integer")
        normalized = set()
        for e in self.edges:
            x, y = e
            if x == y:
                raise ValidationError(f"edges: loop edge ({x},{y}) not allowed")
            if not (0 <= x < self.vertex_count and 0 <= y < self.vertex_count):
                raise ValidationError(f"edges: endpoint out of range in ({x},{y})")
            normalized.add((min(x, y), max(x, y)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    def neighbors(self, v: int) -> list:
        return sorted({y for x, y in self.edges if x == v} | {x for x, y in self.edges if y == v})


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of the vertex set into maximal connected blocks.

    Blocks are ordered by their smallest vertex label and each block is a
    sorted tuple of vertices.
    """

    blocks: tuple

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def components(g: Graph) -> ComponentPartition:
    """Decompose ``g`` into maximal connected subgraphs.

    Uses BFS from the smallest unvisited vertex, so blocks come out ordered
    by smallest contained label.
    """
    adjacency = {v: [] for v in g.vertices}
    for x, y in g.edges:
        adjacency[x].append(y)
        adjacency[y].append(x)
    seen = [False] * g.vertex_count
    blocks = []
    for start in g.vertices:
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        block = []
        while queue:
            v = queue.pop()
            block.append(v)
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        blocks.append(tuple(sorted(block)))
    return ComponentPartition(tuple(blocks))


@dataclass(frozen=True)
class LatticeBox:
    """The centered box ``{-n..n}^d`` with nearest-neighbor edges.

    Sites are enumerated lexicographically; ``site_index`` maps a coordinate
    tuple to its graph vertex.  Boxes of increasing radius are nested as
    coordinate sets.
    """

    dimension: int
    radius: int
    sites: tuple = field(init=False)
    graph: Graph = field(init=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValidationError("dimension: must be 1 or 2")
        if self.radius < 0:
            raise ValidationError("radius: must be nonnegative")
        axis = range(-self.radius, self.radius + 1)
        sites = tuple(product(axis, repeat=self.dimension))
        index = {c: i for i, c in enumerate(sites)}
        edges = set()
        for c in sites:
            for d in range(self.dimension):
                step = tuple(x + (1 if i == d else 0) for i, x in enumerate(c))
                if step in index:
                    edges.add((index[c], index[step]))
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "graph", Graph(len(sites), frozenset(edges)))

    @property
    def site_count(self) -> int:
        return len(self.sites)

    def site_index(self, coord) -> int:
        key = (coord,) if isinstance(coord, int) else tuple(coord)
        if len(key) != self.dimension:
            raise ValidationError(f"coordinate {key} does not match dimension {self.dimension}")
        try:
            return self._index[key]
        except KeyError:
            raise ValidationError(f"coordinate {key} outside box of radius {self.radius}") from None


def graph_from_json(descriptor: dict):
    """Build a graph from ``{"vertices": [...], "edges": [[a, b], ...]}``.

    Returns ``(graph, labels)`` where ``labels[i]`` is the external name of
    vertex ``i``.  Duplicate edges, loops and unknown endpoints are load-time
    errors.
    """
    if not isinstance(descriptor, dict):
        raise ValidationError("graph: descriptor must be an object")
    labels = descriptor.get("vertices")
    if not isinstance(labels, list) or not labels:
        raise ValidationError("graph.vertices: nonempty list required")
    labels = [str(v) for v in labels]
    if len(set(labels)) != len(labels):
        raise ValidationError("graph.vertices: duplicate labels")
    index = {v: i for i, v in enumerate(labels)}
    raw_edges = descriptor.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValidationError(f"graph.edges: list required, got {shown(raw_edges)}")
    edges = set()
    for raw in raw_edges:
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ValidationError(f"graph.edges: malformed edge {raw!r}")
        a, b = str(raw[0]), str(raw[1])
        if a not in index or b not in index:
            raise ValidationError(f"graph.edges: unknown endpoint in [{a}, {b}]")
        if a == b:
            raise ValidationError(f"graph.edges: loop edge [{a}, {b}]")
        key = (min(index[a], index[b]), max(index[a], index[b]))
        if key in edges:
            raise ValidationError(f"graph.edges: duplicate edge [{a}, {b}]")
        edges.add(key)
    return Graph(len(labels), frozenset(edges)), tuple(labels)

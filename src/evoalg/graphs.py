"""Finite simple graphs, component decomposition and lattice boxes.

Vertices are dense integer labels ``0..n-1``.  External descriptors may use
arbitrary string labels; those are mapped to dense indices at load time.
All objects are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError, check_budget, cut, is_index, shown, written

__all__ = [
    "Graph",
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
        for x, y in self.edges:
            if x == y:
                raise ValidationError(f"edges: loop edge ({x},{y}) not allowed")
            if not (0 <= x < self.vertex_count and 0 <= y < self.vertex_count):
                raise ValidationError(f"edges: endpoint out of range in ({x},{y})")
            normalized.add((min(x, y), max(x, y)))
        object.__setattr__(self, "edges", frozenset(normalized))


def components(g: Graph) -> tuple:
    """The vertex sets of ``g``'s maximal connected subgraphs, as sorted tuples.

    A search from the smallest unvisited vertex finds each, so they come out
    ordered by their smallest vertex.
    """
    adjacency = {v: [] for v in range(g.vertex_count)}
    for x, y in g.edges:
        adjacency[x].append(y)
        adjacency[y].append(x)
    seen = [False] * g.vertex_count
    blocks = []
    for start in range(g.vertex_count):
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
    return tuple(blocks)


@dataclass(frozen=True)
class LatticeBox:
    """The centered box ``{-n..n}^d`` with nearest-neighbor edges.

    Sites are enumerated lexicographically, so ``site_index`` is arithmetic:
    the box is ``2n+1`` contiguous runs of ``width = (2n+1)^(d-1)`` sites,
    one site each in 1-D.  This is the box's one neighbour rule: site ``j``
    meets ``j+1`` inside a run, where ``(j+1) % width != 0``, and ``j+width``
    in the next run, where ``j < site_count - width``.  ``edges_meeting``
    reads it for any sites, ``graph`` for all of them, and ``edge_count`` is
    its count, ``2n * width * d``.  ``graph`` is built on first read, for at
    most ``ENUMERATION_BUDGET`` sites; a box costs O(1) until then.
    Boxes of increasing radius are nested as coordinate sets.
    """

    dimension: int
    radius: int

    def __post_init__(self):
        if not is_index(self.dimension) or self.dimension not in (1, 2):
            raise ValidationError(f"dimension: must be 1 or 2, got {shown(self.dimension)}")
        if not is_index(self.radius) or self.radius < 0:
            raise ValidationError(f"radius: must be a nonnegative integer, got {shown(self.radius)}")
        for name in ("dimension", "radius"):  # Python ints, so no box size overflows
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def site_count(self) -> int:
        return (2 * self.radius + 1) ** self.dimension

    @property
    def width(self) -> int:
        return (2 * self.radius + 1) ** (self.dimension - 1)

    @property
    def edge_count(self) -> int:
        return 2 * self.radius * self.width * self.dimension

    def edges_meeting(self, sites) -> set:
        """The box edges ``(j, j+1)`` and ``(j, j+width)`` with an end among the site indices ``sites``."""
        width, across = self.width, self.site_count - self.width
        edges = {(j, j + 1) for i in sites for j in (i - 1, i) if (j + 1) % width}  # none in 1-D
        edges.update((j, j + width) for i in sites for j in (i - width, i) if 0 <= j < across)
        return edges

    @cached_property
    def graph(self) -> Graph:
        check_budget(self.site_count, f"lattice box: (2r+1)^{self.dimension}", "sites")
        return Graph(self.site_count, frozenset(self.edges_meeting(range(self.site_count))))

    def site_index(self, coord) -> int:
        key = coordinate(coord, "coordinate")
        if len(key) != self.dimension:
            raise ValidationError(f"coordinate {site_text(key)} does not match dimension {self.dimension}")
        if any(abs(x) > self.radius for x in key):
            raise ValidationError(f"coordinate {site_text(key)} outside box of radius {self.radius}")
        return sum((x + self.radius) * (2 * self.radius + 1) ** place for place, x in enumerate(reversed(key)))


def site_text(key: tuple) -> str:
    """A site as its tuple prints, every coordinate cut as ``errors.written`` cuts it; a site of more than
    eight coordinates shows its first three, then ``…`` and its coordinate count."""
    if len(key) > 8:
        return f"({', '.join(map(written, key[:3]))}, … {len(key)} coordinates)"
    return f"({', '.join(map(written, key))}{',' * (len(key) == 1)})"


def coordinate(coord, name: str) -> tuple:
    """A lattice site as a tuple of ints, from one integer or a tuple or list of them."""
    key = tuple(coord) if isinstance(coord, (tuple, list)) else (coord,)
    for x in key:
        if not is_index(x):
            raise ValidationError(f"{name}: expected an integer, got {shown(x)}")
    return tuple(int(x) for x in key)


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
            raise ValidationError(f"graph.edges: malformed edge {cut(repr(raw))}")
        a, b = str(raw[0]), str(raw[1])
        if a not in index or b not in index:
            raise ValidationError(f"graph.edges: unknown endpoint in [{cut(a)}, {cut(b)}]")
        if a == b:
            raise ValidationError(f"graph.edges: loop edge [{cut(a)}, {cut(b)}]")
        key = (min(index[a], index[b]), max(index[a], index[b]))
        if key in edges:
            raise ValidationError(f"graph.edges: duplicate edge [{cut(a)}, {cut(b)}]")
        edges.add(key)
    return Graph(len(labels), frozenset(edges)), tuple(labels)

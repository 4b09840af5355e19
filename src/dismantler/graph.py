"""Undirected simple graphs: representation, file I/O, generators, connectivity.

Graphs are immutable after construction and store adjacency in a compressed
row layout (offsets + flat neighbor array, neighbors sorted per node).
Node ids are dense integers 0..N-1; original labels are kept for reports.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

_TOKEN_SPLIT = re.compile(r"[,\s]+")
_COMMENT_PREFIXES = ("#", "%")


class EdgeListError(ValueError):
    """Raised for malformed edge-list files."""


class Graph:
    """Immutable undirected simple graph.

    Self-loops are dropped and parallel edges collapsed at construction,
    so every instance satisfies the simple-graph invariants.
    """

    __slots__ = ("num_nodes", "num_edges", "offsets", "neighbors", "labels", "_edge_src")

    def __init__(self, num_nodes: int, edges, labels: Sequence[str] | None = None):
        n = int(num_nodes)
        if n < 0:
            raise ValueError("num_nodes must be non-negative")
        pairs = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise ValueError("edge endpoint out of range")
            lo = np.minimum(pairs[:, 0], pairs[:, 1])
            hi = np.maximum(pairs[:, 0], pairs[:, 1])
            keep = lo != hi
            uv = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
        else:
            uv = np.empty((0, 2), dtype=np.int64)

        src = np.concatenate([uv[:, 0], uv[:, 1]])
        dst = np.concatenate([uv[:, 1], uv[:, 0]])
        order = np.lexsort((dst, src))
        self.neighbors = dst[order]
        counts = np.bincount(src, minlength=n) if n else np.zeros(0, dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.num_nodes = n
        self.num_edges = int(len(uv))
        if labels is not None:
            if len(labels) != n:
                raise ValueError("labels length must equal num_nodes")
            self.labels = tuple(str(x) for x in labels)
        else:
            self.labels = tuple(str(i) for i in range(n))
        # directed edge arrays: (edge_src[e], neighbors[e]) lists every edge twice
        self._edge_src = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        for arr in (self.neighbors, self.offsets, self._edge_src):
            arr.flags.writeable = False

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def edge_src(self) -> np.ndarray:
        """Source node of each directed edge, aligned with `neighbors`."""
        return self._edge_src

    def neighbors_of(self, i: int) -> np.ndarray:
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]

    def edge_list(self) -> np.ndarray:
        """Canonical (u, v) pairs with u < v, sorted."""
        mask = self._edge_src < self.neighbors
        return np.stack([self._edge_src[mask], self.neighbors[mask]], axis=1)

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size.

    `max_comp` tracks the largest set size seen so far; with no unions it
    is 1 (all singletons), or 0 for an empty universe.
    """

    __slots__ = ("parent", "size", "max_comp")

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.max_comp = 1 if n else 0

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> int:
        """Merge the sets of a and b; returns the resulting set size."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return int(self.size[ra])
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        if self.size[ra] > self.max_comp:
            self.max_comp = int(self.size[ra])
        return int(self.size[ra])

    def size_of(self, x: int) -> int:
        return int(self.size[self.find(x)])


def load_edge_list(path) -> Graph:
    """Load an undirected graph from a whitespace/comma separated edge list.

    Lines starting with '#' or '%' and blank lines are skipped. Node labels
    may be arbitrary tokens; they are re-indexed densely in first-seen order
    and preserved as `Graph.labels`. Self-loops are dropped and parallel
    edges collapsed.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            tokens = [t for t in _TOKEN_SPLIT.split(line) if t]
            if len(tokens) != 2:
                raise EdgeListError(
                    f"{path}: line {lineno}: expected 2 node tokens, got {len(tokens)}")
            u = index.setdefault(tokens[0], len(index))
            v = index.setdefault(tokens[1], len(index))
            edges.append((u, v))
    if not index:
        raise EdgeListError(f"{path}: empty graph (no nodes found)")
    return Graph(len(index), edges, labels=list(index))


def save_edge_list(g: Graph, path) -> None:
    """Write the graph as one `label label` line per edge, deterministic order.

    Isolated nodes are written as self-loop lines: the loader registers the
    label and drops the loop, so the node count round-trips.
    """
    deg = g.degrees
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edge_list():
            fh.write(f"{g.labels[u]} {g.labels[v]}\n")
        for i in range(g.num_nodes):
            if deg[i] == 0:
                fh.write(f"{g.labels[i]} {g.labels[i]}\n")


def generate_er(n: int, avg_degree: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with p chosen to hit the requested mean degree."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 < avg_degree <= n - 1:
        raise ValueError("avg_degree must be in (0, n-1]")
    p = avg_degree / (n - 1)
    rng = np.random.default_rng(seed)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for i in range(n - 1):
        hits = np.nonzero(rng.random(n - 1 - i) < p)[0]
        if hits.size:
            srcs.append(np.full(hits.size, i, dtype=np.int64))
            dsts.append(hits.astype(np.int64) + i + 1)
    if srcs:
        edges = np.stack([np.concatenate(srcs), np.concatenate(dsts)], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return Graph(n, edges)


def _preferential_attachment(n: int, m: int, p: float, rng: np.random.Generator) -> Graph:
    """Growth with preferential attachment, optional triangle-closure step.

    Starts from a star on m+1 nodes (node 0 is the hub). Each arriving node
    attaches to m distinct existing nodes, sampled proportional to current
    degree with rejection of duplicates. With probability p each attachment
    after the first instead closes a triangle through the previous target
    (falling back to preferential attachment when impossible). p == 0 takes
    the plain preferential-attachment path with identical random draws.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    for j in range(1, m + 1):
        edges.append((0, j))
        adj[0].add(j)
        adj[j].add(0)
    # one entry per unit of degree
    repeated: list[int] = [0] * m + list(range(1, m + 1))

    for v in range(m + 1, n):
        targets: list[int] = []
        tset: set[int] = set()
        last: int | None = None
        while len(targets) < m:
            t: int | None = None
            if p > 0.0 and last is not None and rng.random() < p:
                cands = sorted(adj[last] - tset - {v})
                if cands:
                    t = cands[int(rng.integers(len(cands)))]
            if t is None:
                while True:
                    c = repeated[int(rng.integers(len(repeated)))]
                    if c not in tset:
                        t = c
                        break
            targets.append(t)
            tset.add(t)
            last = t
        for t in targets:
            edges.append((v, t))
            adj[v].add(t)
            adj[t].add(v)
            repeated.append(t)
        repeated.extend([v] * m)
    return Graph(n, edges)


def generate_ba(n: int, m: int, seed: int) -> Graph:
    """Barabasi-Albert scale-free graph, m edges per arriving node."""
    if not 1 <= m < n:
        raise ValueError("require 1 <= m < n")
    return _preferential_attachment(n, m, 0.0, np.random.default_rng(seed))


def generate_plc(n: int, m: int, p: float, seed: int) -> Graph:
    """Powerlaw-cluster (Holme-Kim) graph: BA plus probability-p triangle step."""
    if not 1 <= m < n:
        raise ValueError("require 1 <= m < n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return _preferential_attachment(n, m, p, np.random.default_rng(seed))


def generate_ws(n: int, m: int, p: float, seed: int) -> Graph:
    """Watts-Strogatz small world: ring lattice of degree m, rewiring prob p.

    m counts total ring-lattice degree (m/2 neighbors per side), so it must
    be even.
    """
    if not 0 < m < n:
        raise ValueError("require 0 < m < n")
    if m % 2 != 0:
        raise ValueError("m must be even (ring-lattice degree)")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for j in range(1, m // 2 + 1):
        for i in range(n):
            t = (i + j) % n
            adj[i].add(t)
            adj[t].add(i)
    for j in range(1, m // 2 + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            if old not in adj[i] or len(adj[i]) >= n - 1:
                continue
            while True:
                w = int(rng.integers(n))
                if w != i and w not in adj[i]:
                    break
            adj[i].discard(old)
            adj[old].discard(i)
            adj[i].add(w)
            adj[w].add(i)
    edges = [(i, j) for i in range(n) for j in adj[i] if i < j]
    return Graph(n, edges)


def gcc_size(g: Graph) -> int:
    """Size of the largest connected component (0 for an empty graph)."""
    if g.num_nodes == 0:
        return 0
    uf = UnionFind(g.num_nodes)
    for u, v in g.edge_list():
        uf.union(int(u), int(v))
    return uf.max_comp

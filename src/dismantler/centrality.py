"""Classical one-pass centrality baselines.

Every function returns a dense float score vector of length N. The global
ranking convention is descending score with ties broken by ascending node
id (see dismantler.dismantle.rank_nodes).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from dismantler.graph import Graph


def _grouped_neighbors(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of `nodes` (vectorized slice gather)."""
    counts = g.offsets[nodes + 1] - g.offsets[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = g.offsets[nodes]
    shift = np.repeat(starts - np.concatenate(([0], np.cumsum(counts[:-1]))), counts)
    return g.neighbors[np.arange(total, dtype=np.int64) + shift]


def _bfs_levels(g: Graph, source: int) -> np.ndarray:
    """Hop distances from source; -1 for unreachable nodes."""
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        nxt = _grouped_neighbors(g, frontier)
        nxt = np.unique(nxt[dist[nxt] < 0])
        d += 1
        dist[nxt] = d
        frontier = nxt
    return dist


def degree(g: Graph) -> np.ndarray:
    return g.degrees.astype(np.float64)


def betweenness(g: Graph) -> np.ndarray:
    """Shortest-path betweenness (Brandes), unnormalized.

    Each unordered pair contributes once; endpoints are excluded.
    """
    n = g.num_nodes
    bc = np.zeros(n, dtype=np.float64)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.neighbors_of(v):
                w = int(w)
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n, dtype=np.float64)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    # undirected accumulation counts each pair from both endpoints
    return bc / 2.0


def closeness(g: Graph) -> np.ndarray:
    """Within-component closeness: (|C|-1) / sum of distances inside C."""
    n = g.num_nodes
    scores = np.zeros(n, dtype=np.float64)
    for i in range(n):
        dist = _bfs_levels(g, i)
        reached = dist > 0
        total = dist[reached].sum()
        if total > 0:
            scores[i] = reached.sum() / float(total)
    return scores


def harmonic(g: Graph) -> np.ndarray:
    """Sum of reciprocal distances; unreachable pairs contribute 0."""
    n = g.num_nodes
    scores = np.zeros(n, dtype=np.float64)
    for i in range(n):
        dist = _bfs_levels(g, i)
        reached = dist > 0
        scores[i] = (1.0 / dist[reached]).sum()
    return scores


def eigenvector_iteration(g: Graph, max_iter: int = 1000,
                          tol: float = 1e-10) -> tuple[np.ndarray, bool]:
    """Power iteration for the dominant adjacency eigenvector.

    Iterates on A + I (same eigenvectors, shifted spectrum) so bipartite
    graphs, whose +/- eigenvalue pairs stall plain A-iteration, converge.
    Returns (scores, converged); on non-convergence the last iterate is
    returned.
    """
    n = g.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.float64), True
    x = np.ones(n, dtype=np.float64) / np.sqrt(n)
    src, dst = g.edge_src, g.neighbors
    for _ in range(max_iter):
        y = np.bincount(src, weights=x[dst], minlength=n) + x
        norm = np.linalg.norm(y)
        if norm == 0:
            return x, True
        y /= norm
        if np.max(np.abs(y - x)) < tol:
            return y, True
        x = y
    return x, False


def eigenvector(g: Graph, max_iter: int = 1000, tol: float = 1e-10) -> np.ndarray:
    scores, _ = eigenvector_iteration(g, max_iter, tol)
    return scores


def collective_influence(g: Graph, ell: int = 2) -> np.ndarray:
    """CI_l(i) = (k_i - 1) * sum of (k_j - 1) over the distance-l frontier."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    n = g.num_nodes
    km1 = g.degrees.astype(np.float64) - 1.0
    scores = np.zeros(n, dtype=np.float64)
    for i in range(n):
        if km1[i] <= 0:
            continue
        dist = np.full(n, -1, dtype=np.int64)
        dist[i] = 0
        frontier = np.array([i], dtype=np.int64)
        for _ in range(ell):
            if frontier.size == 0:
                break
            nxt = _grouped_neighbors(g, frontier)
            nxt = np.unique(nxt[dist[nxt] < 0])
            dist[nxt] = 1
            frontier = nxt
        scores[i] = km1[i] * km1[frontier].sum() if frontier.size else 0.0
    return scores


def pagerank(g: Graph, damping: float = 0.85, max_iter: int = 200,
             tol: float = 1e-8) -> np.ndarray:
    """PageRank with uniform teleport; isolated nodes redistribute uniformly."""
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    n = g.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    deg = g.degrees.astype(np.float64)
    isolated = deg == 0
    safe_deg = np.where(isolated, 1.0, deg)
    src, dst = g.edge_src, g.neighbors
    x = np.ones(n, dtype=np.float64) / n
    for _ in range(max_iter):
        contrib = x / safe_deg
        y = np.bincount(src, weights=contrib[dst], minlength=n)
        dangling = x[isolated].sum()
        x_new = (1.0 - damping) / n + damping * (y + dangling / n)
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    return x


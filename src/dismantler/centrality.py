"""Classical one-pass centrality baselines.

Every function returns a dense float score vector of length N. The global
ranking convention is descending score with ties broken by ascending node
id (see dismantler.dismantle.rank_nodes).

Betweenness, closeness, harmonic and collective influence traverse the
graph the same way: a level-synchronous BFS from a block of B sources at
once, whose frontier is a flat list of (node, source) pairs expanded
through the compressed adjacency. Betweenness is Brandes' algorithm run
level by level (path counts forward, dependencies backward); the others
only count the pairs on each level. The three all-sources measures cost
O(N*E) work; collective influence only walks `ell` hops. B is chosen from
the graph size so that one level expands at most about `_BLOCK_ENTRIES`
pairs, which bounds memory by the block, not by N^2.

Harmonic centrality is the sum over hop distances d of n_d / d, where n_d
counts the nodes at distance d. It is computed exactly and rounded once
whenever every distance is at most `top` (about 30 for N = 1000, 24 for
N = 10^6; see `harmonic`), so nodes with equal sums get bitwise-equal
scores and their ranking is decided by node id, never by rounding. Beyond
`top` the remaining terms are added in increasing d, so nodes with the same
distance profile still tie exactly.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from dismantler.graph import Graph

# Bound on the (node, source) pairs one BFS level may expand, B * 2E, and on
# the dense per-block visited state, B * N.
_BLOCK_ENTRIES = 1 << 16


def _block_size(g: Graph, num_sources: int) -> int:
    """Sources per block: as many as the entry bound allows, at least one."""
    per_source = max(2 * g.num_edges, g.num_nodes, 1)
    return max(1, min(num_sources, _BLOCK_ENTRIES // per_source))


def _expand(g: Graph, scaled: np.ndarray, nodes: np.ndarray,
            cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (neighbor, source) pair one hop from the (node, source) pairs.

    `scaled` is `g.neighbors * b`. Returns the flat keys neighbor * b + col,
    grouped by input pair, and each input pair's degree (its repeat count).
    """
    lo = g.offsets[nodes]
    counts = g.offsets[nodes + 1] - lo
    idx = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    idx += np.arange(len(idx), dtype=np.int64)
    keys = scaled[idx]
    keys += np.repeat(cols, counts)
    return keys, counts


def _first_of_each(keys: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Mask picking exactly one entry per distinct key, without a sort.

    Writes into `marks[keys]`, so those entries become non-negative.
    """
    seq = np.arange(len(keys), dtype=np.int64)
    marks[keys] = seq
    return marks[keys] == seq


def _levels(g: Graph, sources: np.ndarray,
            depth: int) -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray]]:
    """BFS from every source, one block of sources at a time.

    Yields (block, d, nodes, cols) for each hop distance d = 1..depth that a
    block reaches: `nodes[i]` lies at distance d from `block[cols[i]]`, and
    each (node, source) pair appears once.
    """
    n = g.num_nodes
    b = _block_size(g, len(sources))
    scaled = g.neighbors * b
    seen = np.full(n * b, -1, dtype=np.int64)
    for start in range(0, len(sources), b):
        block = sources[start:start + b]
        nodes, cols = block, np.arange(len(block), dtype=np.int64)
        visited = [nodes * b + cols]
        seen[visited[0]] = 0
        for d in range(1, depth + 1):
            keys, _ = _expand(g, scaled, nodes, cols)
            keys = keys[seen[keys] < 0]
            if not len(keys):
                break
            keys = keys[_first_of_each(keys, seen)]
            visited.append(keys)
            nodes, cols = np.divmod(keys, b)
            yield block, d, nodes, cols
        seen[np.concatenate(visited)] = -1


def degree(g: Graph) -> np.ndarray:
    return g.degrees.astype(np.float64)


def betweenness(g: Graph) -> np.ndarray:
    """Shortest-path betweenness (Brandes), unnormalized.

    Each unordered pair contributes once; endpoints are excluded.
    """
    n = g.num_nodes
    bc = np.zeros(n, dtype=np.float64)
    b = _block_size(g, n)
    scaled = g.neighbors * b
    # slot of each (node, source) pair in its block's level order; -1 unseen
    slot = np.full(n * b, -1, dtype=np.int64)
    for start in range(0, n, b):
        block = np.arange(start, min(start + b, n), dtype=np.int64)
        cols = block - start
        levels = [(block, cols)]
        sigma = [np.ones(len(block))]
        offs = [0, len(block)]
        visited = [block * b + cols]
        slot[visited[0]] = np.arange(len(block))
        while True:  # forward: shortest-path counts, level by level
            keys, counts = _expand(g, scaled, *levels[-1])
            new = slot[keys] < 0
            keys = keys[new]
            if not len(keys):
                break
            paths = np.repeat(sigma[-1], counts)[new]
            first = keys[_first_of_each(keys, slot)]
            slot[first] = np.arange(offs[-1], offs[-1] + len(first))
            sigma.append(np.bincount(slot[keys] - offs[-1], weights=paths))
            offs.append(offs[-1] + len(first))
            visited.append(first)
            levels.append(np.divmod(first, b))
        delta = [np.zeros(len(s)) for s in sigma]
        # backward: dependencies; the sources' own (level 0) are never used
        for d in range(len(levels) - 1, 1, -1):
            keys, counts = _expand(g, scaled, *levels[d])
            at = slot[keys]
            # neighbors of level d lie on levels d-1..d+1, all of them reached
            pred = at < offs[d]
            share = np.repeat((1.0 + delta[d]) / sigma[d], counts)[pred]
            delta[d - 1] = sigma[d - 1] * np.bincount(
                at[pred] - offs[d - 1], weights=share, minlength=len(sigma[d - 1]))
        if len(levels) > 1:
            bc += np.bincount(np.concatenate([v for v, _ in levels[1:]]),
                              weights=np.concatenate(delta[1:]), minlength=n)
        slot[np.concatenate(visited)] = -1
    # undirected accumulation counts each pair from both endpoints
    return bc / 2.0


def closeness(g: Graph) -> np.ndarray:
    """Within-component closeness: (|C|-1) / sum of distances inside C."""
    n = g.num_nodes
    reached = np.zeros(n, dtype=np.int64)
    total = np.zeros(n, dtype=np.int64)
    for block, d, _, cols in _levels(g, np.arange(n, dtype=np.int64), n):
        count = np.bincount(cols, minlength=len(block))
        reached[block] += count
        total[block] += d * count
    scores = np.zeros(n, dtype=np.float64)
    np.divide(reached, total, out=scores, where=total > 0)
    return scores


def harmonic(g: Graph) -> np.ndarray:
    """Sum of reciprocal distances; unreachable pairs contribute 0.

    Levels d <= top are summed exactly, as the integer sum of n_d * (L / d)
    with L = lcm(1..top), the largest such L with (N - 1) * L < 2^53; one
    division then rounds it once. Farther levels, which only graphs with
    long shortest paths have, add n_d / d in increasing d.
    """
    n = g.num_nodes
    top, lcm = 0, 1
    while top < n - 1 and (n - 1) * math.lcm(lcm, top + 1) < 2 ** 53:
        top += 1
        lcm = math.lcm(lcm, top)
    exact = np.zeros(n, dtype=np.int64)
    tail = np.zeros(n, dtype=np.float64)
    for block, d, _, cols in _levels(g, np.arange(n, dtype=np.int64), n):
        count = np.bincount(cols, minlength=len(block))
        if d <= top:
            exact[block] += count * (lcm // d)
        else:
            tail[block] += count / d
    return exact / lcm + tail


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
    sources = np.flatnonzero(km1 > 0)
    for block, d, nodes, cols in _levels(g, sources, ell):
        if d == ell:
            frontier = np.bincount(cols, weights=km1[nodes], minlength=len(block))
            scores[block] = km1[block] * frontier
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


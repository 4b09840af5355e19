"""Shared test helpers: tiny graph builders and independent brute-force oracles.

The graph oracles here deliberately avoid the package's traversal code: they
are plain dict-of-sets adjacency plus deque BFS, so they can catch bugs in the
compressed-adjacency implementations. `validate_graph` checks the structural
invariants of a Graph, and `remove_nodes` rebuilds the induced subgraph for
forward-recomputation oracles. The full-width encoders are the model's
unfolded reference: every layer of the diffusion encoder, layer 0 included,
runs softmax attention, which the model replaces by its closed form there.
The per-source loop centralities are the reference that the block-of-sources
traversal in `dismantler.centrality` must match.
"""

from collections import deque
from typing import Iterable

import numpy as np

from dismantler import autodiff as ad
from dismantler.graph import Graph
from dismantler.model import LEAKY_SLOPE


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Graph:
    """Star with node 0 at the center and `leaves` spokes."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def validate_graph(g: Graph) -> None:
    """Check the structural invariants; raises ValueError on violation."""
    if len(g.offsets) != g.num_nodes + 1 or g.offsets[0] != 0:
        raise ValueError("bad offsets")
    if int(g.offsets[-1]) != len(g.neighbors):
        raise ValueError("offsets do not cover neighbor array")
    if len(g.neighbors) != 2 * g.num_edges:
        raise ValueError("neighbor list length != 2 * num_edges")
    if g.num_nodes and len(g.neighbors):
        if g.neighbors.min() < 0 or g.neighbors.max() >= g.num_nodes:
            raise ValueError("neighbor id out of range")
    seen = set()
    for i in range(g.num_nodes):
        nb = g.neighbors_of(i)
        if np.any(nb == i):
            raise ValueError(f"self-loop at node {i}")
        if len(nb) > 1 and np.any(np.diff(nb) <= 0):
            raise ValueError(f"neighbors of {i} not sorted/unique")
        for j in nb:
            seen.add((min(i, int(j)), max(i, int(j))))
            if i not in g.neighbors_of(int(j)):
                raise ValueError(f"asymmetric edge ({i}, {j})")
    if len(seen) != g.num_edges:
        raise ValueError("edge count mismatch")


def remove_nodes(g: Graph, victims: Iterable[int]) -> Graph:
    """Induced subgraph on the surviving nodes; original labels carried over."""
    victim_set = set(int(v) for v in victims)
    if victim_set and (min(victim_set) < 0 or max(victim_set) >= g.num_nodes):
        raise ValueError("victim id out of range")
    keep = [i for i in range(g.num_nodes) if i not in victim_set]
    new_id = {old: new for new, old in enumerate(keep)}
    edges = [(new_id[u], new_id[v]) for u, v in g.edge_list()
             if u in new_id and v in new_id]
    return Graph(len(keep), edges, labels=[g.labels[i] for i in keep])


def adjacency_sets(g: Graph) -> dict[int, set[int]]:
    return {i: {int(j) for j in g.neighbors_of(i)} for i in range(g.num_nodes)}


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.num_nodes, g.num_nodes), dtype=np.float64)
    for u, v in g.edge_list():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def bfs_distances(adj: dict[int, set[int]], source: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_path_counts(adj: dict[int, set[int]], source: int, n: int):
    """(distances, number of shortest paths) from source."""
    dist = [-1] * n
    sigma = [0] * n
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    return dist, sigma


def brute_betweenness(g: Graph) -> np.ndarray:
    """Pair-by-pair betweenness from per-source distance/count tables."""
    n = g.num_nodes
    adj = adjacency_sets(g)
    tables = [bfs_path_counts(adj, s, n) for s in range(n)]
    bc = np.zeros(n, dtype=np.float64)
    for s in range(n):
        dist_s, sigma_s = tables[s]
        for t in range(s + 1, n):
            if dist_s[t] < 0:
                continue
            dist_t, sigma_t = tables[t]
            for v in range(n):
                if v in (s, t):
                    continue
                if dist_s[v] >= 0 and dist_t[v] >= 0 and dist_s[v] + dist_t[v] == dist_s[t]:
                    bc[v] += sigma_s[v] * sigma_t[v] / sigma_s[t]
    return bc


def _loop_neighbors(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of `nodes` (vectorized slice gather)."""
    counts = g.offsets[nodes + 1] - g.offsets[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = g.offsets[nodes]
    shift = np.repeat(starts - np.concatenate(([0], np.cumsum(counts[:-1]))), counts)
    return g.neighbors[np.arange(total, dtype=np.int64) + shift]


def _loop_bfs_levels(g: Graph, source: int) -> np.ndarray:
    """Hop distances from source; -1 for unreachable nodes."""
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        nxt = _loop_neighbors(g, frontier)
        nxt = np.unique(nxt[dist[nxt] < 0])
        d += 1
        dist[nxt] = d
        frontier = nxt
    return dist


def loop_betweenness(g: Graph) -> np.ndarray:
    """Per-source Brandes with a deque, unnormalized, each pair once."""
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
    return bc / 2.0


def loop_closeness(g: Graph) -> np.ndarray:
    """Per-source BFS closeness: (|C|-1) / sum of distances inside C."""
    n = g.num_nodes
    scores = np.zeros(n, dtype=np.float64)
    for i in range(n):
        dist = _loop_bfs_levels(g, i)
        reached = dist > 0
        total = dist[reached].sum()
        if total > 0:
            scores[i] = reached.sum() / float(total)
    return scores


def loop_harmonic(g: Graph) -> np.ndarray:
    """Per-source BFS harmonic centrality, reciprocals summed by numpy."""
    n = g.num_nodes
    scores = np.zeros(n, dtype=np.float64)
    for i in range(n):
        dist = _loop_bfs_levels(g, i)
        reached = dist > 0
        scores[i] = (1.0 / dist[reached]).sum()
    return scores


def loop_collective_influence(g: Graph, ell: int = 2) -> np.ndarray:
    """Per-source truncated BFS: (k_i - 1) * sum of (k_j - 1) at distance ell."""
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
            nxt = _loop_neighbors(g, frontier)
            nxt = np.unique(nxt[dist[nxt] < 0])
            dist[nxt] = 1
            frontier = nxt
        scores[i] = km1[i] * km1[frontier].sum() if frontier.size else 0.0
    return scores


def brute_gcc_size(g: Graph) -> int:
    n = g.num_nodes
    adj = adjacency_sets(g)
    seen = [False] * n
    best = 0
    for s in range(n):
        if seen[s]:
            continue
        size = 0
        queue = deque([s])
        seen[s] = True
        while queue:
            u = queue.popleft()
            size += 1
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        best = max(best, size)
    return best


def permute_graph(g: Graph, perm: np.ndarray) -> Graph:
    """Relabel node i as perm[i]."""
    edges = [(int(perm[u]), int(perm[v])) for u, v in g.edge_list()]
    return Graph(g.num_nodes, edges)


def brute_role_graph(big_r: np.ndarray, k: int, chunk: int = 512) -> Graph:
    """Role graph by a full stable sort of each row's similarities.

    Similarities are computed exactly as `build_role_graph` computes them
    (same unit rows, same chunked product), then each row is argsorted,
    descending with smaller ids first among equals, and node i proposes the
    first min(k, N-1) entries other than itself.
    """
    big_r = np.asarray(big_r, dtype=np.float64)
    n = big_r.shape[0]
    k_eff = min(k, n - 1)
    norms = np.linalg.norm(big_r, axis=1)
    unit = np.divide(big_r, norms[:, None], out=np.zeros_like(big_r),
                     where=norms[:, None] > 0)
    edges: list[tuple[int, int]] = []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        sims = unit[start:stop] @ unit.T
        order = np.argsort(-sims, axis=1, kind="stable")
        for local, i in enumerate(range(start, stop)):
            row = order[local]
            picks = row[row != i][:k_eff]
            edges.extend((i, int(j)) for j in picks)
    return Graph(n, edges)


def add_first_layer_attention(store) -> None:
    """Register random layer-0 attention parameters (W1, W2, beta).

    The model has none, since attention on its all-ones input is uniform;
    `full_width_gdn_forward` reads them to check exactly that.
    """
    d = store["gdn0.w3"].shape[0]
    store.glorot("gdn0.w1", d, d)
    store.glorot("gdn0.w2", d, d)
    store.glorot("gdn0.beta", d, 1)


def full_width_gdn_forward(g: Graph, store, num_layers: int,
                           weights_out: list[np.ndarray] | None = None):
    """`model.gdn_forward` with softmax attention in every layer, layer 0 included.

    Layer 0 runs on the full (E, d) all-ones block with the attention
    parameters that `add_first_layer_attention` registers; every layer
    gathers both endpoint embeddings and sums weighted messages of width d.
    """
    n = g.num_nodes
    src, dst = g.edge_src, g.neighbors
    hidden_dim = store["gdn0.w3"].shape[0]
    h = ad.constant(np.ones((n, hidden_dim)))
    for layer in range(num_layers):
        w1 = store[f"gdn{layer}.w1"]
        w2 = store[f"gdn{layer}.w2"]
        beta = store[f"gdn{layer}.beta"]
        w3 = store[f"gdn{layer}.w3"]
        b3 = store[f"gdn{layer}.b3"]
        hi = ad.row_gather(h, src)
        hj = ad.row_gather(h, dst)
        logits = ad.matmul(ad.leaky_relu(ad.add(ad.matmul(hi, w1), ad.matmul(hj, w2)),
                                         LEAKY_SLOPE), beta)
        weights = ad.segment_softmax(logits, src, n)
        if weights_out is not None:
            weights_out.append(weights.values.copy())
        messages = ad.mul(weights, ad.row_gather(h, src))
        aggregated = ad.segment_sum(messages, dst, n)
        h = ad.relu(ad.add_bias(ad.matmul(aggregated, w3), b3))
    return h


def full_width_gcn_forward(role_graph, store, num_layers: int):
    """`model.gcn_forward` with every layer, layer 0 included, propagating
    the full (E, d) block of coefficient-weighted messages."""
    rg = role_graph.graph
    n = rg.num_nodes
    loops = np.arange(n, dtype=np.int64)
    src = np.concatenate([rg.edge_src, loops])
    dst = np.concatenate([rg.neighbors, loops])
    deg_tilde = rg.degrees + 1.0
    coeff = ad.constant((1.0 / np.sqrt(deg_tilde[src] * deg_tilde[dst])).reshape(-1, 1))
    hidden_dim = store["gcn0.w"].shape[0]
    z = ad.constant(np.ones((n, hidden_dim)))
    for layer in range(num_layers):
        propagated = ad.segment_sum(ad.mul(coeff, ad.row_gather(z, src)), dst, n)
        z = ad.relu(ad.matmul(propagated, store[f"gcn{layer}.w"]))
    return z

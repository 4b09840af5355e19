"""Structural role discovery: egonet features, NMF role embeddings, role graph.

Each node gets a small vector of egonet statistics, optionally enriched by
recursive neighbor aggregation. Non-negative matrix factorization of the
(column-scaled) feature matrix yields a soft role membership matrix R; the
role graph links every node to its k most role-similar peers by cosine
similarity of R rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dismantler.autodiff import scatter_rows
from dismantler.graph import Graph

BASE_FEATURE_NAMES = ("degree", "clustering", "egonet_degree_sum", "egonet_edge_ratio")

# two constant columns are treated as perfectly correlated; a constant vs a
# varying column as uncorrelated
PRUNE_CORRELATION = 0.99

_MU_EPS = 1e-12


@dataclass
class FeatureMatrix:
    """Dense non-negative node-feature matrix with column labels."""

    values: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if self.values.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length must match column count")


@dataclass
class RoleModel:
    """NMF factors: role membership R (N x r) and contributions M (r x d)."""

    R: np.ndarray
    M: np.ndarray
    r: int
    mdl_cost: float | None = None
    feature_names: tuple[str, ...] = ()
    objective_history: list[float] = field(default_factory=list, repr=False)


@dataclass
class RoleGraph:
    """Top-k role-similarity graph over the same node ids as the original."""

    graph: Graph
    k: int


def egonet_features(g: Graph) -> FeatureMatrix:
    """Four egonet statistics per node.

    Columns: degree; local clustering coefficient (0 below degree 2);
    total degree over the closed egonet; edges inside the egonet divided
    by (1 + edges leaving it), the +1 guarding closed egonets.
    """
    n = g.num_nodes
    deg = g.degrees
    vals = np.zeros((n, 4), dtype=np.float64)
    member = np.zeros(n, dtype=bool)
    for i in range(n):
        nb = g.neighbors_of(i)
        ego = np.append(nb, i)
        member[ego] = True
        inside_twice = 0
        for u in ego:
            inside_twice += int(member[g.neighbors_of(int(u))].sum())
        member[ego] = False
        deg_sum = int(deg[ego].sum())
        inside = inside_twice // 2
        leaving = deg_sum - inside_twice
        k = int(deg[i])
        triangles = inside - k
        clustering = 2.0 * triangles / (k * (k - 1)) if k >= 2 else 0.0
        vals[i] = (k, clustering, deg_sum, inside / (1.0 + leaving))
    return FeatureMatrix(vals, BASE_FEATURE_NAMES)


def _column_correlation(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa == 0.0 and sb == 0.0:
        return 1.0
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def _prune_correlated(vals: np.ndarray, names: list[str]) -> tuple[np.ndarray, list[str]]:
    keep: list[int] = []
    for j in range(vals.shape[1]):
        if any(_column_correlation(vals[:, j], vals[:, k]) > PRUNE_CORRELATION
               for k in keep):
            continue
        keep.append(j)
    return vals[:, keep], [names[j] for j in keep]


def recursive_aggregate(feat: FeatureMatrix, g: Graph, levels: int = 1) -> FeatureMatrix:
    """Append neighbor-mean and neighbor-sum of every column, `levels` times.

    Isolated nodes aggregate to 0. After each level, columns that correlate
    above PRUNE_CORRELATION with an earlier retained column are dropped.
    levels=0 returns the input unchanged.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    vals = feat.values
    names = list(feat.feature_names)
    deg = g.degrees.astype(np.float64)
    safe_deg = np.where(deg > 0, deg, 1.0)
    for _ in range(levels):
        sums = scatter_rows(vals[g.neighbors], g.edge_src, vals.shape[0])
        means = sums / safe_deg[:, None]
        vals = np.hstack([vals, means, sums])
        names = (names
                 + [f"{nm}_nbr_mean" for nm in names]
                 + [f"{nm}_nbr_sum" for nm in names])
        vals, names = _prune_correlated(vals, names)
    return FeatureMatrix(vals, tuple(names))


def minmax_scale(feat: FeatureMatrix) -> FeatureMatrix:
    """Min-max scale each column into [0, 1]; constant columns become 0."""
    vals = feat.values
    lo = vals.min(axis=0)
    span = vals.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    return FeatureMatrix((vals - lo) / safe, feat.feature_names)


def nmf(feat: FeatureMatrix, r: int, iters: int = 200, tol: float = 1e-6,
        seed: int = 0) -> RoleModel:
    """Multiplicative-update NMF of the feature matrix into R (N x r), M (r x d).

    The Frobenius objective is non-increasing at every iteration. Stops when
    the relative objective decrease falls below `tol` or after `iters`
    iterations. Deterministic for a fixed seed (uniform (0, 1] init).
    """
    values = feat.values
    if not np.all(np.isfinite(values)):
        raise ValueError("feature matrix contains non-finite values")
    if np.any(values < 0):
        raise ValueError("feature matrix must be non-negative")
    n, f = values.shape
    if r < 1:
        raise ValueError("rank must be >= 1")
    if r > min(n, f):
        raise ValueError(f"rank {r} exceeds min(N, f) = {min(n, f)}")
    rng = np.random.default_rng(seed)
    big_r = 1.0 - rng.random((n, r))
    big_m = 1.0 - rng.random((r, f))
    prev = float(np.linalg.norm(values - big_r @ big_m) ** 2)
    history = [prev]
    for _ in range(iters):
        big_r *= (values @ big_m.T) / np.maximum(big_r @ (big_m @ big_m.T), _MU_EPS)
        big_m *= (big_r.T @ values) / np.maximum((big_r.T @ big_r) @ big_m, _MU_EPS)
        obj = float(np.linalg.norm(values - big_r @ big_m) ** 2)
        history.append(obj)
        if __debug__ and obj > prev + 1e-9 * max(1.0, history[0]):
            raise AssertionError("NMF objective increased")
        if prev - obj < tol * max(prev, _MU_EPS):
            prev = obj
            break
        prev = obj
    return RoleModel(big_r, big_m, r, feature_names=feat.feature_names,
                     objective_history=history)


def mdl_cost(feat: FeatureMatrix, model: RoleModel, bits: int = 4) -> float:
    """Description length: model bits plus quantized reconstruction-error bits."""
    n, f = feat.values.shape
    err = float(np.linalg.norm(feat.values - model.R @ model.M) ** 2)
    return bits * model.r * (n + f) + n * f * float(np.log2(1.0 + err / (n * f)))


def select_rank_mdl(feat: FeatureMatrix, r_min: int, r_max: int, bits: int = 4,
                    iters: int = 200, tol: float = 1e-6, seed: int = 0) -> int:
    """Rank minimizing the description length; ties go to the smaller rank."""
    n, f = feat.values.shape
    if not 1 <= r_min <= r_max <= min(n, f):
        raise ValueError("require 1 <= r_min <= r_max <= min(N, f)")
    best_rank = r_min
    best_cost = np.inf
    for r in range(r_min, r_max + 1):
        cost = mdl_cost(feat, nmf(feat, r, iters, tol, seed), bits)
        if cost < best_cost:
            best_cost = cost
            best_rank = r
    return best_rank


def build_role_graph(big_r: np.ndarray, k: int, chunk: int = 512) -> RoleGraph:
    """Link every node to its k most role-similar nodes (cosine, id tiebreak).

    Node i proposes the min(k, N-1) nodes j != i that come first when
    ordered by cosine similarity of R rows, higher first, then by smaller
    id; an all-zero row has similarity 0 to every node. Proposed edges from
    all nodes are merged into one undirected simple graph, so an edge
    exists whenever either endpoint proposed it.

    Cost: O(N^2 r) arithmetic for the similarities, computed `chunk` rows
    at a time in O(chunk N) memory. Each row's k-th largest similarity is
    found by selection, not a sort; only rows with more than k candidates
    at that value pay a scan of their ties.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    big_r = np.asarray(big_r, dtype=np.float64)
    # a NaN similarity would fall out of the >= selection below
    if not np.all(np.isfinite(big_r)):
        raise ValueError("role matrix contains non-finite values")
    n = big_r.shape[0]
    k_eff = min(k, n - 1)
    if k_eff < 1:
        return RoleGraph(Graph(n, []), k)
    norms = np.linalg.norm(big_r, axis=1)
    unit = np.divide(big_r, norms[:, None], out=np.zeros_like(big_r),
                     where=norms[:, None] > 0)
    edges: list[np.ndarray] = []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        sims = unit[start:stop] @ unit.T
        np.fill_diagonal(sims[:, start:stop], -np.inf)
        kth = np.partition(sims, n - k_eff, axis=1)[:, n - k_eff, None]
        pick = sims >= kth
        over = np.flatnonzero(pick.sum(axis=1) > k_eff)
        if over.size:
            # too many ties at the k-th value: keep the smallest-id ones
            rows, row_kth = sims[over], kth[over]
            above = rows > row_kth
            ties = rows == row_kth
            room = k_eff - above.sum(axis=1, keepdims=True)
            pick[over] = above | (ties & (np.cumsum(ties, axis=1) <= room))
        src, dst = np.nonzero(pick)
        edges.append(np.stack([src + start, dst], axis=1))
    return RoleGraph(Graph(n, np.concatenate(edges)), k)


def discover_role_graph(g: Graph, k: int = 10, levels: int = 1,
                        rank_range: tuple[int, int] = (2, 8), bits: int = 4,
                        iters: int = 200, tol: float = 1e-6,
                        seed: int = 0) -> tuple[RoleModel, RoleGraph]:
    """Full pipeline: features -> aggregation -> scaling -> MDL rank -> role graph."""
    feat = minmax_scale(recursive_aggregate(egonet_features(g), g, levels))
    cap = min(g.num_nodes, feat.values.shape[1])
    r_min = max(1, min(rank_range[0], cap))
    r_max = max(1, min(rank_range[1], cap))
    rank = select_rank_mdl(feat, r_min, r_max, bits, iters, tol, seed)
    model = nmf(feat, rank, iters, tol, seed)
    model.mdl_cost = mdl_cost(feat, model, bits)
    role_graph = build_role_graph(model.R, k)
    return model, role_graph


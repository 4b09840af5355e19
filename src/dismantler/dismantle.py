"""Attack-set evaluation: prefix thresholds, collapse curves, areas.

A ranking is attacked by removing its prefix; the target attack set is the
shortest prefix that drags the largest connected component at or below a
fraction theta of the original node count. Collapse trajectories are
computed by reverse insertion with union-find (add nodes from the worst
rank upward, recording the running max component), which matches a naive
forward recomputation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dismantler.graph import Graph, UnionFind


@dataclass
class DismantleReport:
    """Ranked attack outcome for one (graph, scores, theta) evaluation."""

    ranking: np.ndarray
    tas_size: int
    rho: float
    theta: float
    ngcc_curve: np.ndarray = field(repr=False)
    auc: float = 0.0

    def tas(self) -> np.ndarray:
        return self.ranking[:self.tas_size]


def rank_nodes(scores: np.ndarray) -> np.ndarray:
    """Node order by descending score; ties broken by ascending node id."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError(f"scores must be finite; {int((~np.isfinite(scores)).sum())} are not")
    return np.lexsort((np.arange(scores.size), -scores))


def gcc_trajectory(g: Graph, ranking: np.ndarray) -> np.ndarray:
    """trajectory[t] = size of the largest component after removing ranking[:t].

    Length N+1; trajectory[0] is the intact GCC and trajectory[N] is 0.
    Computed by inserting nodes in reverse rank order into a union-find.
    """
    n = g.num_nodes
    ranking = np.asarray(ranking, dtype=np.int64)
    if ranking.size != n or len(set(ranking.tolist())) != n:
        raise ValueError("ranking must be a permutation of all nodes")
    traj = np.zeros(n + 1, dtype=np.int64)
    active = np.zeros(n, dtype=bool)
    uf = UnionFind(n)
    current_max = 0
    for t in range(n - 1, -1, -1):
        v = int(ranking[t])
        active[v] = True
        current_max = max(current_max, 1)
        for u in g.neighbors_of(v):
            if active[u]:
                current_max = max(current_max, uf.union(int(u), v))
        traj[t] = current_max
    return traj


def reports_at(g: Graph, scores: np.ndarray,
               thetas: list[float]) -> list[DismantleReport]:
    """The attack outcome at each threshold, all read off one trajectory.

    The attack set for theta is the shortest ranking prefix k with
    traj[k] <= theta * N; every theta > 0 has one, since traj[N] = 0. Its
    curve is the normalized GCC after each of the k removals, and its area
    the curve's sum.
    """
    n = g.num_nodes
    ranking = rank_nodes(scores)
    traj = gcc_trajectory(g, ranking)
    reports = []
    for theta in thetas:
        k = int(np.argmax(traj <= theta * n))
        curve = traj[1:k + 1] / n
        reports.append(DismantleReport(ranking=ranking, tas_size=k, rho=k / n, theta=theta,
                                       ngcc_curve=curve, auc=float(curve.sum())))
    return reports


def minimal_prefix_tas(g: Graph, scores: np.ndarray, theta: float) -> DismantleReport:
    """Smallest ranking prefix whose removal caps the GCC at theta * N.

    The threshold uses the original node count N. If the intact graph
    already satisfies the bound, the attack set is empty and rho = 0.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    if g.num_nodes == 0:
        raise ValueError("cannot dismantle an empty graph")
    return reports_at(g, scores, [theta])[0]


def random_scores(num_nodes: int, seed: int) -> np.ndarray:
    """Scores of a seeded uniformly random ranking (calibration baseline)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(num_nodes).astype(np.float64)

from fractions import Fraction

import numpy as np
import pytest

from dismantler import centrality
from dismantler.centrality import (
    betweenness,
    closeness,
    collective_influence,
    degree,
    eigenvector,
    eigenvector_iteration,
    harmonic,
    pagerank,
)
from dismantler.dismantle import rank_nodes
from dismantler.graph import Graph, generate_ba, generate_er

from util import (
    adjacency_matrix,
    adjacency_sets,
    bfs_distances,
    brute_betweenness,
    complete,
    cycle,
    loop_betweenness,
    loop_closeness,
    loop_collective_influence,
    loop_harmonic,
    path_graph,
    permute_graph,
    random_graph,
    star,
    triangle,
)


def oracle_closeness(g):
    n = g.num_nodes
    adj = adjacency_sets(g)
    out = np.zeros(n)
    for i in range(n):
        dist = bfs_distances(adj, i, n)
        reach = [d for d in dist if d > 0]
        if reach:
            out[i] = len(reach) / sum(reach)
    return out


def oracle_harmonic(g):
    n = g.num_nodes
    adj = adjacency_sets(g)
    out = np.zeros(n)
    for i in range(n):
        dist = bfs_distances(adj, i, n)
        out[i] = sum(1.0 / d for d in dist if d > 0)
    return out


def oracle_pagerank(g, damping=0.85):
    """Dense linear solve of the teleporting random walk."""
    n = g.num_nodes
    a = adjacency_matrix(g)
    deg = a.sum(axis=1)
    p = np.where(deg[:, None] > 0, a / np.where(deg[:, None] > 0, deg[:, None], 1.0),
                 1.0 / n)
    x = np.linalg.solve(np.eye(n) - damping * p.T, np.full(n, (1 - damping) / n))
    return x


def test_degree_star_and_triangle():
    assert degree(star(4)).tolist() == [4, 1, 1, 1, 1]
    assert degree(triangle()).tolist() == [2, 2, 2]


def test_betweenness_path():
    assert betweenness(path_graph(3)).tolist() == [0, 1, 0]


def test_betweenness_star_center():
    bc = betweenness(star(4))
    assert bc[0] == 6.0
    assert np.all(bc[1:] == 0.0)


def test_betweenness_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(4, 31))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.4)))
        assert np.allclose(betweenness(g), brute_betweenness(g), atol=1e-9)


def test_closeness_path_middle():
    assert closeness(path_graph(3))[1] == 1.0


def test_harmonic_disjoint_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    assert np.all(harmonic(g) == 1.0)


def test_closeness_harmonic_match_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(4, 31))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        assert np.allclose(closeness(g), oracle_closeness(g), atol=1e-9)
        assert np.allclose(harmonic(g), oracle_harmonic(g), atol=1e-9)


def test_eigenvector_complete_uniform():
    ec = eigenvector(complete(5), max_iter=2000, tol=1e-13)
    assert np.allclose(ec, ec[0])


def test_eigenvector_star_ratio():
    ec = eigenvector(star(4), max_iter=5000, tol=1e-13)
    assert ec[0] / ec[1] == pytest.approx(2.0, abs=1e-6)


def test_eigenvector_convergence_flag():
    _, converged = eigenvector_iteration(star(4), max_iter=2, tol=1e-13)
    assert not converged
    _, converged = eigenvector_iteration(star(4), max_iter=5000, tol=1e-13)
    assert converged


def test_eigenvector_disconnected_mass_on_denser_component():
    # K4 plus a disjoint edge: spectral radius 3 vs 1
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(4, 5)]
    g = Graph(6, edges)
    ec = eigenvector(g, max_iter=5000, tol=1e-13)
    assert ec[:4].min() > 100 * ec[4:].max()


def test_eigenvector_matches_dense_oracle():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(4, 21))
        g = random_graph(rng, n, 0.35)
        a = adjacency_matrix(g)
        w, v = np.linalg.eigh(a)
        if w[-1] - w[-2] < 1e-6:  # (near-)degenerate dominant eigenvalue
            continue
        ref = v[:, -1]
        ref = ref * np.sign(ref[np.argmax(np.abs(ref))])
        got = eigenvector(g, max_iter=20000, tol=1e-14)
        got = got / np.linalg.norm(got)
        assert np.allclose(got, ref, atol=1e-6)
        checked += 1
    assert checked >= 20


def test_collective_influence_path():
    ci = collective_influence(path_graph(5), ell=1)
    assert ci[2] == 2.0


def test_collective_influence_star_empty_frontier():
    assert collective_influence(star(4), ell=2)[0] == 0.0


def test_collective_influence_degree_one_nodes():
    g = path_graph(6)
    ci = collective_influence(g, ell=3)
    assert ci[0] == 0.0 and ci[5] == 0.0


def test_pagerank_cycle_uniform():
    pr = pagerank(cycle(6))
    assert np.allclose(pr, 1.0 / 6.0, atol=1e-9)


def test_pagerank_star_ordering():
    pr = pagerank(star(4))
    assert pr[0] > pr[1]


def test_pagerank_sums_to_one():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, 25, 0.15)
        assert pagerank(g).sum() == pytest.approx(1.0, abs=1e-6)


def test_pagerank_matches_dense_solve():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 21))
        g = random_graph(rng, n, 0.25)
        got = pagerank(g, max_iter=500, tol=1e-13)
        assert np.allclose(got, oracle_pagerank(g), atol=1e-8)


def test_pagerank_rejects_bad_damping():
    with pytest.raises(ValueError):
        pagerank(triangle(), damping=1.0)


def test_permutation_equivariance_all_centralities():
    rng = np.random.default_rng(6)
    funcs = [degree, betweenness, closeness, harmonic,
             lambda g: eigenvector(g, max_iter=5000, tol=1e-13),
             lambda g: collective_influence(g, ell=2),
             pagerank]
    for _ in range(5):
        n = int(rng.integers(6, 25))
        g = random_graph(rng, n, 0.3)
        perm = rng.permutation(n)
        gp = permute_graph(g, perm)
        for fn in funcs:
            base = fn(g)
            permuted = fn(gp)
            assert np.allclose(permuted[perm], base, atol=1e-8)


TRAVERSALS = [
    (betweenness, loop_betweenness),
    (closeness, loop_closeness),
    (harmonic, loop_harmonic),
    (collective_influence, loop_collective_influence),
]


def assert_matches_loops(g):
    """The block traversal against the per-source loops it replaced."""
    assert np.allclose(betweenness(g), loop_betweenness(g), atol=1e-9)
    assert np.array_equal(closeness(g), loop_closeness(g))
    assert np.allclose(harmonic(g), loop_harmonic(g), atol=1e-12)
    for ell in (1, 2, 3):
        assert np.array_equal(collective_influence(g, ell=ell),
                              loop_collective_influence(g, ell=ell))


@pytest.mark.parametrize("make", [
    lambda: generate_er(300, 6, seed=1),
    lambda: generate_er(300, 4, seed=2),
    lambda: generate_ba(300, 3, seed=1),
    lambda: generate_ba(300, 2, seed=2),
], ids=["er6-s1", "er4-s2", "ba3-s1", "ba2-s2"])
def test_block_traversal_matches_loops_at_n300(make):
    g = make()
    bc, ref = betweenness(g), loop_betweenness(g)
    assert np.allclose(bc, ref, atol=1e-9)
    assert np.array_equal(rank_nodes(bc), rank_nodes(ref))
    assert np.array_equal(closeness(g), loop_closeness(g))
    assert np.array_equal(collective_influence(g, ell=2), loop_collective_influence(g, ell=2))
    assert np.allclose(harmonic(g), loop_harmonic(g), atol=1e-12)


def test_block_traversal_matches_loops_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        assert_matches_loops(random_graph(rng, n, float(rng.uniform(0.02, 0.4))))


@pytest.mark.parametrize("fn,loop", TRAVERSALS)
def test_graphs_without_edges_score_zero(fn, loop):
    for g in (Graph(0, []), Graph(1, []), Graph(7, [])):
        got = fn(g)
        assert got.shape == (g.num_nodes,) and got.dtype == np.float64
        assert np.array_equal(got, np.zeros(g.num_nodes))
        assert np.array_equal(got, loop(g))


def test_isolated_nodes_and_components():
    # a path, a triangle, a star and two isolated nodes in one graph
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4),
             (7, 8), (7, 9), (7, 10), (7, 11)]
    g = Graph(14, edges)
    assert_matches_loops(g)
    assert betweenness(g).tolist() == [0, 2, 2, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0]
    cc = closeness(g)
    assert cc[12] == cc[13] == 0.0
    assert cc[4] == cc[5] == cc[6] == 1.0
    assert harmonic(g)[12] == 0.0 and harmonic(g)[7] == 4.0
    assert collective_influence(g, ell=1)[7] == 0.0  # leaves carry k - 1 = 0


@pytest.mark.parametrize("block", [1, 2, 4, 5, 7, 22])
def test_ragged_source_blocks(monkeypatch, block):
    """Entry bounds that split 23 sources into blocks that do not divide N."""
    rng = np.random.default_rng(11)
    g = random_graph(rng, 23, 0.15)
    monkeypatch.setattr(centrality, "_BLOCK_ENTRIES", block * 2 * g.num_edges)
    assert centrality._block_size(g, g.num_nodes) == block
    assert_matches_loops(g)


def exact_harmonic(g):
    """Harmonic centrality as exact fractions."""
    n = g.num_nodes
    adj = adjacency_sets(g)
    return [sum((Fraction(1, d) for d in bfs_distances(adj, i, n) if d > 0), Fraction(0))
            for i in range(n)]


def test_harmonic_ties_are_exact_on_a_cycle():
    hc = harmonic(cycle(101))
    assert np.all(hc == hc[0])
    assert hc[0] == pytest.approx(2.0 * sum(1.0 / d for d in range(1, 51)), abs=1e-12)


def test_harmonic_is_the_correctly_rounded_exact_sum():
    rng = np.random.default_rng(17)
    graphs = [random_graph(rng, int(rng.integers(2, 60)), float(rng.uniform(0.03, 0.3)))
              for _ in range(20)]
    graphs += [generate_er(300, 6, seed=804), generate_ba(300, 2, seed=5)]
    for g in graphs:
        exact = exact_harmonic(g)
        hc = harmonic(g)
        assert hc.tolist() == [float(x) for x in exact]
        order = sorted(range(g.num_nodes), key=lambda i: (-exact[i], i))
        assert rank_nodes(hc).tolist() == order


def test_harmonic_long_paths_keep_profile_ties():
    # distances up to 119 run past the exact levels; mirror nodes still tie
    hc = harmonic(path_graph(120))
    assert np.array_equal(hc, hc[::-1])
    assert np.allclose(hc, loop_harmonic(path_graph(120)), atol=1e-12)


def test_networkx_oracle():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(13)
    graphs = [random_graph(rng, int(rng.integers(2, 35)), float(rng.uniform(0.03, 0.3)))
              for _ in range(12)]
    graphs += [generate_ba(200, 2, seed=3), Graph(5, [(0, 1), (2, 3)])]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.num_nodes))
        h.add_edges_from(g.edge_list().tolist())
        ref_bc = nx.betweenness_centrality(h, normalized=False)
        ref_cc = nx.closeness_centrality(h, wf_improved=False)
        ref_hc = nx.harmonic_centrality(h)
        order = range(g.num_nodes)
        assert np.allclose(betweenness(g), [ref_bc[i] for i in order], atol=1e-9)
        assert np.allclose(closeness(g), [ref_cc[i] for i in order], atol=1e-12)
        assert np.allclose(harmonic(g), [ref_hc[i] for i in order], atol=1e-12)

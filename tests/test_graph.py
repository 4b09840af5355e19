import numpy as np
import pytest

from dismantler.graph import (
    EdgeListError,
    Graph,
    UnionFind,
    gcc_size,
    generate_ba,
    generate_er,
    generate_plc,
    generate_ws,
    load_edge_list,
    save_edge_list,
)

from util import (
    brute_gcc_size,
    random_graph,
    remove_nodes,
    star,
    triangle,
    validate_graph,
)


def write(tmp_path, text):
    p = tmp_path / "edges.txt"
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadEdgeList:
    def test_triangle(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n2 0\n"))
        assert g.num_nodes == 3
        assert g.num_edges == 3
        validate_graph(g)

    def test_dedup_and_self_loop(self, tmp_path):
        g = load_edge_list(write(tmp_path, "a b\nb a\na a\n"))
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.labels == ("a", "b")

    def test_comments_commas_tabs(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n% other\nx,y\ny\tz\n\n"))
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_first_seen_relabeling(self, tmp_path):
        g = load_edge_list(write(tmp_path, "7 3\n3 5\n"))
        assert g.labels == ("7", "3", "5")
        assert set(map(tuple, g.edge_list().tolist())) == {(0, 1), (1, 2)}

    def test_bad_token_count_names_line(self, tmp_path):
        with pytest.raises(EdgeListError, match="line 2"):
            load_edge_list(write(tmp_path, "0 1\n2\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(EdgeListError):
            load_edge_list(write(tmp_path, "# nothing\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_edge_list(tmp_path / "nope.txt")

    def test_roundtrip(self, tmp_path):
        g = generate_ba(50, 3, seed=9)
        out = tmp_path / "g.txt"
        save_edge_list(g, out)
        g2 = load_edge_list(out)
        assert g2.num_nodes == g.num_nodes
        assert g2.num_edges == g.num_edges


class TestGenerators:
    def test_er_forced_edge(self):
        g = generate_er(2, 1.0, seed=0)
        assert g.num_edges == 1

    def test_er_determinism(self):
        a = generate_er(200, 6.0, seed=11)
        b = generate_er(200, 6.0, seed=11)
        assert np.array_equal(a.edge_list(), b.edge_list())

    def test_er_mean_degree_band(self):
        for seed in range(20):
            g = generate_er(1000, 6.0, seed=seed)
            mean_deg = 2.0 * g.num_edges / g.num_nodes
            assert 5.4 <= mean_deg <= 6.6

    def test_er_rejects_bad_params(self):
        with pytest.raises(ValueError):
            generate_er(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_er(10, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_er(10, 9.5, seed=0)

    def test_ba_edge_count(self):
        g = generate_ba(1000, 4, seed=3)
        assert 3984 <= g.num_edges <= 3990
        validate_graph(g)

    def test_ba_determinism(self):
        a = generate_ba(300, 4, seed=5)
        b = generate_ba(300, 4, seed=5)
        assert np.array_equal(a.edge_list(), b.edge_list())

    def test_ba_rejects_bad_m(self):
        with pytest.raises(ValueError):
            generate_ba(5, 5, seed=0)
        with pytest.raises(ValueError):
            generate_ba(5, 0, seed=0)

    def test_ws_ring_lattice(self):
        g = generate_ws(10, 4, 0.0, seed=1)
        assert np.all(g.degrees == 4)
        assert g.num_edges == 20

    def test_ws_rewired_stays_simple(self):
        for seed in range(5):
            g = generate_ws(60, 6, 0.8, seed=seed)
            validate_graph(g)
            assert g.num_nodes == 60

    def test_ws_rejects_odd_m(self):
        with pytest.raises(ValueError):
            generate_ws(10, 3, 0.1, seed=0)

    def test_plc_p0_equals_ba(self):
        a = generate_plc(1000, 3, 0.0, seed=5)
        b = generate_ba(1000, 3, seed=5)
        assert np.array_equal(a.edge_list(), b.edge_list())

    def test_plc_valid_simple(self):
        for seed in range(5):
            g = generate_plc(300, 3, 0.4, seed=seed)
            validate_graph(g)

    def test_generators_satisfy_invariants(self):
        validate_graph(generate_er(150, 5.0, seed=2))
        validate_graph(generate_ba(150, 4, seed=2))
        validate_graph(generate_ws(150, 6, 0.3, seed=2))
        validate_graph(generate_plc(150, 4, 0.2, seed=2))


class TestRemoveAndGcc:
    def test_star_minus_center(self):
        g = remove_nodes(star(4), {0})
        assert g.num_nodes == 4
        assert g.num_edges == 0
        assert gcc_size(g) == 1

    def test_remove_nothing_is_identity(self):
        g = triangle()
        g2 = remove_nodes(g, set())
        assert np.array_equal(g2.edge_list(), g.edge_list())

    def test_path_split(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        g2 = remove_nodes(g, {1})
        assert g2.num_nodes == 3
        assert gcc_size(g2) == 2
        assert g2.labels == ("0", "2", "3")

    def test_gcc_triangle(self):
        assert gcc_size(triangle()) == 3

    def test_gcc_two_disjoint_edges(self):
        assert gcc_size(Graph(4, [(0, 1), (2, 3)])) == 2

    def test_gcc_empty(self):
        assert gcc_size(Graph(0, [])) == 0

    def test_gcc_matches_bfs_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            g = random_graph(rng, n, float(rng.uniform(0.005, 0.1)))
            assert gcc_size(g) == brute_gcc_size(g)

    def test_gcc_monotone_under_superset_victims(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, 60, 0.06)
            order = rng.permutation(60)
            prev = gcc_size(g)
            for k in (5, 15, 30, 50):
                cur = gcc_size(remove_nodes(g, set(order[:k].tolist())))
                assert cur <= prev
                prev = cur


class TestUnionFind:
    def test_max_comp_tracks_largest_set(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 80))
            uf = UnionFind(n)
            groups = {i: {i} for i in range(n)}
            for _ in range(int(rng.integers(0, 120))):
                a, b = int(rng.integers(n)), int(rng.integers(n))
                uf.union(a, b)
                ga = next(g for g in groups.values() if a in g)
                gb = next(g for g in groups.values() if b in g)
                if ga is not gb:
                    ga |= gb
                    for x in gb:
                        groups[x] = ga
            uniq = {id(g): len(g) for g in groups.values()}
            assert uf.max_comp == max(uniq.values())

    def test_path_compression_preserves_membership(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) == uf.find(4)
        assert uf.find(0) != uf.find(3)
        assert uf.size_of(2) == 3

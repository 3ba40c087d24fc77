import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiadapt.graph import (
    Network,
    generate_ba,
    spectral_radius,
    topology_stats,
)
from epiadapt.harness import load_network, save_network
from reference import clustering_loop


def complete_graph(n: int) -> Network:
    w0 = np.ones((n, n)) - np.eye(n)
    return Network(w0)


def star_graph(n: int) -> Network:
    w0 = np.zeros((n, n))
    w0[0, 1:] = w0[1:, 0] = 1.0
    return Network(w0)


def path_graph(n: int) -> Network:
    w0 = np.zeros((n, n))
    for i in range(n - 1):
        w0[i, i + 1] = w0[i + 1, i] = 1.0
    return Network(w0)


class TestGenerateBA:
    def test_reference_instance_edge_count(self):
        for seed in range(10):
            net = generate_ba(20, 5, 5, seed=seed)
            assert net.edge_count == 85

    def test_seed_clique_only(self):
        net = generate_ba(5, 5, 5, seed=3)
        assert net.edge_count == 10
        np.testing.assert_array_equal(net.w0, complete_graph(5).w0)

    @given(
        n=st.integers(2, 30),
        m0=st.integers(1, 8),
        m=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_count_formula(self, n, m0, m, seed):
        if not (m <= m0 <= n):
            with pytest.raises(ValueError):
                generate_ba(n, m0, m, seed)
            return
        net = generate_ba(n, m0, m, seed)
        assert net.edge_count == m0 * (m0 - 1) // 2 + (n - m0) * m

    def test_fewer_than_two_nodes_rejected(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="at least 2 nodes"):
                generate_ba(n, 1, 1, seed=0)

    def test_reproducible(self):
        a = generate_ba(20, 5, 5, seed=123)
        b = generate_ba(20, 5, 5, seed=123)
        np.testing.assert_array_equal(a.w0, b.w0)

    def test_binary_symmetric_weights(self):
        net = generate_ba(25, 4, 3, seed=9)
        assert set(np.unique(net.w0)) <= {0.0, 1.0}
        np.testing.assert_array_equal(net.w0, net.w0.T)
        assert np.all(np.diag(net.w0) == 0.0)

    def test_connected(self):
        net = generate_ba(30, 3, 2, seed=5)
        # BFS reachability from node 0
        adj = net.w0 > 0
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in np.nonzero(adj[v])[0]:
                if int(u) not in seen:
                    seen.add(int(u))
                    frontier.append(int(u))
        assert len(seen) == net.n

    def test_clustering_band_over_seeds(self):
        # Monte Carlo over seeds; the reported instance sits at 0.519.
        values = [
            topology_stats(generate_ba(20, 5, 5, seed=s)).avg_clustering
            for s in range(100)
        ]
        assert 0.35 <= float(np.mean(values)) <= 0.65


class TestTopologyStats:
    def test_complete_graph(self):
        st5 = topology_stats(complete_graph(5))
        assert st5.avg_degree == pytest.approx(4.0)
        assert st5.avg_clustering == pytest.approx(1.0)
        assert st5.density == pytest.approx(1.0)

    def test_path_has_no_triangles(self):
        assert topology_stats(path_graph(3)).avg_clustering == 0.0

    def test_reference_instance_density(self):
        st20 = topology_stats(generate_ba(20, 5, 5, seed=0))
        assert st20.avg_degree == pytest.approx(8.5)
        assert st20.density == pytest.approx(85 / 190)
        assert round(st20.density, 3) == 0.447

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            topology_stats(Network(np.zeros((1, 1))))

    @pytest.mark.parametrize("family", ["ba", "small"])
    def test_clustering_matches_the_neighbourhood_scan(self, family):
        if family == "ba":
            nets = [generate_ba(20, 5, 5, seed=s) for s in range(200)]
        else:
            nets = [make(n) for make in (complete_graph, path_graph, star_graph)
                    for n in (2, 3, 4, 7)]
            nets += [Network(np.zeros((n, n))) for n in (2, 5)]
        for net in nets:
            got = topology_stats(net).avg_clustering
            assert got.hex() == float(clustering_loop(net).mean()).hex()


class TestSpectralRadius:
    def test_two_cycle(self):
        assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_complete_graph(self):
        assert spectral_radius(complete_graph(5).w0) == pytest.approx(4.0)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = rng.random((n, n))
            expected = float(np.max(np.abs(np.linalg.eigvals(a))))
            assert spectral_radius(a) == pytest.approx(expected, abs=1e-8)

    def test_symmetric_instances_match_eigvalsh(self):
        for seed in range(20):
            w0 = generate_ba(20, 5, 5, seed=seed).w0
            expected = float(np.linalg.eigvalsh(w0)[-1])
            assert spectral_radius(w0) == pytest.approx(expected, abs=1e-8)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="square"):
            spectral_radius(np.zeros((2, 3)))

    def test_imprimitive_cycle(self):
        # Weighted 3-cycle: all eigenvalues share one modulus, so a power
        # iteration would oscillate instead of converging.
        a = np.array([[0, 0.3, 0], [0, 0, 0.7], [0.9, 0, 0]])
        assert spectral_radius(a) == pytest.approx((0.3 * 0.7 * 0.9) ** (1 / 3), rel=1e-12)

    @pytest.mark.parametrize("left,right,expected", [
        (1, 3, np.sqrt(3.0)),   # star K1,3
        (2, 3, np.sqrt(6.0)),   # K2,3
    ])
    def test_complete_bipartite(self, left, right, expected):
        # Bipartite spectra are symmetric about 0; the radius is sqrt(left * right).
        w0 = np.zeros((left + right, left + right))
        w0[:left, left:] = w0[left:, :left] = 1.0
        assert spectral_radius(w0) == pytest.approx(expected, rel=1e-12)


class TestEpidemicThreshold:
    # The mean-field SIS threshold is 1 / spectral_radius(w0).
    def test_complete_graph(self):
        assert 1.0 / spectral_radius(complete_graph(5).w0) == pytest.approx(0.25)

    def test_two_cycle(self):
        assert 1.0 / spectral_radius(path_graph(2).w0) == pytest.approx(1.0)

    def test_effective_rate_exceeds_threshold(self):
        # beta/gamma = 4/3 while every instance's threshold is below 0.12.
        tau = 0.4 / 0.3
        for seed in range(30):
            assert tau > 1.0 / spectral_radius(generate_ba(20, 5, 5, seed=seed).w0)


class TestNetworkValidation:
    def test_nonzero_diagonal_rejected(self):
        w0 = np.eye(3)
        with pytest.raises(ValueError, match="diagonal"):
            Network(w0)
        with pytest.raises(ValueError, match="square"):
            Network(np.zeros((2, 3)))

    def test_asymmetric_support_rejected(self):
        w0 = np.zeros((3, 3))
        w0[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            Network(w0)

    def test_weights_above_one_rejected(self):
        w0 = np.zeros((2, 2))
        w0[0, 1] = w0[1, 0] = 1.5
        with pytest.raises(ValueError, match="0, 1"):
            Network(w0)

    def test_nan_weight_rejected(self):
        # NaN is neither positive nor outside [0, 1] by comparison, so it
        # would pass as a missing edge.
        w0 = np.zeros((2, 2))
        w0[0, 1] = w0[1, 0] = np.nan
        with pytest.raises(ValueError, match="0, 1"):
            Network(w0)

    def test_w0_is_immutable(self):
        net = generate_ba(6, 3, 2, seed=0)
        with pytest.raises(ValueError):
            net.w0[0, 1] = 0.5


class TestNetworkCsv:
    def test_round_trip(self, tmp_path):
        net = generate_ba(20, 5, 5, seed=4)
        path = tmp_path / "net.csv"
        save_network(net, path)
        loaded = load_network(path)
        np.testing.assert_array_equal(loaded.w0, net.w0)

    def test_both_directions_present(self, tmp_path):
        net = generate_ba(10, 3, 2, seed=0)
        path = tmp_path / "net.csv"
        save_network(net, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,j,w"
        assert len(lines) - 1 == 2 * net.edge_count

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,w\n0,0,1.0\n")
        with pytest.raises(ValueError, match="self-loop"):
            load_network(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,w\n0,1,1.0\n1,0,1.0\n0,1,0.5\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_network(path)

    def test_missing_reverse_direction_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,w\n0,1,1.0\n")
        with pytest.raises(ValueError, match="symmetric"):
            load_network(path)

    def test_out_of_range_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,w\n0,1,2.0\n1,0,2.0\n")
        with pytest.raises(ValueError, match="outside"):
            load_network(path)

    def test_negative_node_id_rejected(self, tmp_path):
        # Read as an index, -1 would land on node n-1 and slip past the
        # duplicate check.
        path = tmp_path / "bad.csv"
        path.write_text("i,j,w\n0,1,1.0\n1,0,1.0\n-1,0,1.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:4: node ids must be nonnegative"):
            load_network(path)

    def test_row_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,w\n0,1,1.0\n1,0,x\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: "):
            load_network(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_network(path)

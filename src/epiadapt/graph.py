"""Scale-free contact networks: generation, topology metrics, spectral radius.

Networks are undirected with a nonnegative weight matrix; generated instances
carry binary weights (1 on every edge). The spectral radius of the weight
matrix sets the epidemic threshold of the mean-field SIS dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Network:
    """Undirected contact network given by its initial weight matrix.

    ``w0`` is the full N x N weight matrix: zero diagonal, entries in
    [0, 1], and a symmetric nonzero pattern (each edge in both directions).
    """

    w0: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        w0 = np.asarray(self.w0, dtype=float)
        if w0.ndim != 2 or w0.shape[0] != w0.shape[1]:
            raise ValueError(f"w0 must be a square matrix, got shape {w0.shape}")
        if np.any(np.diag(w0) != 0.0):
            raise ValueError("w0 must have a zero diagonal (no self-loops)")
        if not np.all((w0 >= 0.0) & (w0 <= 1.0)):
            raise ValueError("w0 entries must lie in [0, 1]")
        support = w0 > 0.0
        if not np.array_equal(support, support.T):
            raise ValueError("w0 support must be symmetric (both directions present)")
        w0.setflags(write=False)
        object.__setattr__(self, "w0", w0)

    @property
    def n(self) -> int:
        return self.w0.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(np.triu(self.w0 > 0.0, k=1)))


@dataclass(frozen=True)
class TopologyStats:
    avg_degree: float
    avg_clustering: float
    density: float


def generate_ba(n: int, m0: int, m: int, seed: int) -> Network:
    """Grow a Barabasi-Albert network with a fully connected seed clique.

    Starts from ``m0`` fully connected nodes; every later node attaches to
    ``m`` distinct existing nodes drawn with probability proportional to
    current degree (collisions redrawn). The edge count is therefore exactly
    m0*(m0-1)/2 + (n-m0)*m for every seed. Weights are 1 on every edge.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if m > m0:
        raise ValueError(f"m={m} must not exceed m0={m0}")
    if m0 > n:
        raise ValueError(f"m0={m0} must not exceed n={n}")
    if m < 1 or m0 < 1:
        raise ValueError("m and m0 must be positive")
    rng = np.random.default_rng(seed)

    w0 = np.zeros((n, n))
    w0[:m0, :m0] = 1.0
    np.fill_diagonal(w0, 0.0)
    degree = np.zeros(n)
    degree[:m0] = m0 - 1

    for v in range(m0, n):
        targets: set[int] = set()
        weights = degree[:v]
        total = weights.sum()
        while len(targets) < m:
            # m0=1 starts from a degree-0 seed; fall back to uniform there.
            u = int(rng.choice(v, p=weights / total) if total > 0 else rng.integers(v))
            targets.add(u)
        for u in targets:
            w0[v, u] = w0[u, v] = 1.0
            degree[u] += 1
        degree[v] = m

    return Network(w0)


def topology_stats(net: Network) -> TopologyStats:
    """Average degree, Watts-Strogatz average local clustering, and density.

    Nodes of degree < 2 contribute 0 to the clustering average.
    """
    if net.n < 2:
        raise ValueError("topology stats need at least 2 nodes")
    adj = (net.w0 > 0.0).astype(float)
    degree = adj.sum(axis=1)
    # Row v sums to twice the links among v's neighbours.
    twice_links = ((adj @ adj) * adj).sum(axis=1)
    coeffs = np.divide(twice_links, degree * (degree - 1), out=np.zeros(net.n),
                       where=degree >= 2)
    m_edges = net.edge_count
    return TopologyStats(
        avg_degree=2.0 * m_edges / net.n,
        avg_clustering=float(coeffs.mean()),
        density=2.0 * m_edges / (net.n * (net.n - 1)),
    )


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus of a nonnegative matrix, from a dense eigensolver.

    By Perron-Frobenius this is the Perron root, also on bipartite or other
    imprimitive inputs, where a power iteration oscillates.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("matrix must be square and nonempty")
    if np.any(a < 0.0):
        raise ValueError("matrix must be nonnegative")
    return float(np.max(np.abs(np.linalg.eigvals(a))))


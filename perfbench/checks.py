"""Result checks and guard-band counters that share no code with the solver.

Everything here works on plain numpy arrays taken from the library's
public results (ray coordinates, edge and triad index lists, witness
values, ensemble counts), so a bug in the search or in the simulation
cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

import math

import numpy as np

# An edge is "clean" when its rays are orthogonal to rounding error; the
# library's own edge tolerance is 1e-7, so edges between the two are loose.
CLEAN_EDGE_DOT = 1e-12
# Statistical checks fail beyond five standard deviations.
SIGMAS = 5.0


def ray_matrix(rays) -> np.ndarray:
    """(n, 3) array of the rays' unit vectors."""
    return np.array([(r.x, r.y, r.z) for r in rays], dtype=float).reshape(-1, 3)


def guard_band(vecs: np.ndarray, edges) -> dict[str, float]:
    """Loose-edge count, largest edge |dot| and smallest non-edge |dot|.

    These show how close the graph's edge set sits to the tolerance that
    decides it; they are reported, not treated as failures.
    """
    n = len(vecs)
    dots = np.abs(vecs @ vecs.T)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edge_dots = dots[e[:, 0], e[:, 1]]
    is_edge = np.zeros((n, n), dtype=bool)
    is_edge[e[:, 0], e[:, 1]] = True
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    nonedge = dots[upper & ~is_edge]
    return {
        "loose_edges": int(np.count_nonzero(edge_dots > CLEAN_EDGE_DOT)),
        "edge_margin": float(edge_dots.max()) if len(edge_dots) else 0.0,
        "nonedge_margin": float(nonedge.min()) if len(nonedge) else 0.0,
    }


def triangle_count(n: int, edges) -> int:
    """Number of triangles of the graph, from its adjacency matrix."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = np.zeros((n, n), dtype=bool)
    adj[e[:, 0], e[:, 1]] = True
    adj[e[:, 1], e[:, 0]] = True
    common = np.count_nonzero(adj[e[:, 0]] & adj[e[:, 1]])
    return int(common) // 3


def witness_ok(n: int, edges, triads, witness: dict[int, int]) -> bool:
    """Both coloring rules hold: each triad has exactly one 1, and no edge
    joins two 1s."""
    if sorted(witness) != list(range(n)) or set(witness.values()) - {0, 1}:
        return False
    w = np.array([witness[i] for i in range(n)], dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    t = np.asarray(triads, dtype=np.int64).reshape(-1, 3)
    return bool(np.all(w[t].sum(axis=1) == 1) and not np.any(w[e[:, 0]] & w[e[:, 1]]))


def context_frequencies_ok(picks: np.ndarray, probabilities: np.ndarray) -> bool:
    """Each context column picks member k with frequency within SIGMAS
    binomial standard deviations of probabilities[column, k]."""
    n = picks.shape[0]
    if picks.min() < 0 or picks.max() > 2:
        return False
    freq = np.stack([(picks == k).mean(axis=0) for k in range(3)], axis=1)
    sigma = np.sqrt(probabilities * (1.0 - probabilities) / n)
    return bool(np.all(np.abs(freq - probabilities) <= SIGMAS * sigma + 1e-12))


def additivity_ok(residual: float, sigma: float) -> bool:
    return math.isfinite(residual) and abs(residual) <= SIGMAS * sigma

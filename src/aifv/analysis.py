"""Compression-rate analysis of a code-tree set under an i.i.d. source.

Tree switching makes the encoder a Markov chain over tree ids: the
chance of hopping from tree k to tree j is the total probability of
the symbols tree k sends to j.  The expected code length per source
symbol is the stationary average of each tree's mean codeword length.
A Monte Carlo path through the chain gives an empirical rate to check
the closed-form number against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NoConvergence

STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITER = 10 ** 6
# monte_carlo_rate draws symbols in blocks of this size, so memory stays
# bounded however long the sample; the generator yields the same
# sequence whatever the block size
MC_BLOCK = 1 << 16


def _check_dist(tree_set, dist):
    dist = [float(p) for p in dist]
    if len(dist) != tree_set.symbol_count:
        raise DimensionMismatch(
            f"{len(dist)} probabilities for {tree_set.symbol_count} symbols")
    if any(p < 0 for p in dist) or abs(sum(dist) - 1.0) > 1e-9:
        raise ValueError("probabilities must be non-negative and sum to 1")
    return dist


def transition_matrix(tree_set, dist):
    """Row-stochastic matrix of tree-to-tree hop probabilities."""
    dist = _check_dist(tree_set, dist)
    n = tree_set.tree_count
    matrix = np.zeros((n, n))
    for k, tree in enumerate(tree_set.trees):
        for a, point in enumerate(tree.points):
            matrix[k, point] += dist[a]
    return matrix


def stationary(matrix, tol=STATIONARY_TOL, max_iter=STATIONARY_MAX_ITER):
    """A stationary distribution of a row-stochastic matrix.

    Power iteration from the point mass on state 0, accepting either a
    settled iterate or a settled running (Cesaro) average; the average
    also converges for periodic chains, where the raw iterates cannot.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch("transition matrix must be square")
    if np.any(matrix < 0) or np.any(np.abs(matrix.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("matrix rows must be probability distributions")
    n = matrix.shape[0]
    vec = np.zeros(n)
    vec[0] = 1.0
    total = vec.copy()
    for step in range(1, max_iter + 1):
        nxt = vec @ matrix
        if np.abs(nxt - vec).sum() < tol:
            return nxt / nxt.sum()
        total += nxt
        mean = total / (step + 1)
        if np.abs(mean @ matrix - mean).sum() < tol:
            return mean / mean.sum()
        vec = nxt
    raise NoConvergence(f"no stationary vector after {max_iter} steps")


def expected_code_length(tree_set, dist):
    """Mean body bits per source symbol in the long run."""
    tree_set.ensure_valid()
    dist = _check_dist(tree_set, dist)
    pi = stationary(transition_matrix(tree_set, dist))
    per_tree = [sum(p * w.length for p, w in zip(dist, tree.cwords))
                for tree in tree_set.trees]
    return float(np.dot(pi, per_tree))


def entropy(dist):
    """Shannon entropy of a distribution, in bits per symbol."""
    dist = [float(p) for p in dist]
    if any(p < 0 for p in dist) or abs(sum(dist) - 1.0) > 1e-9:
        raise ValueError("probabilities must be non-negative and sum to 1")
    return -sum(p * math.log2(p) for p in dist if p > 0)


def monte_carlo_rate(tree_set, dist, n_symbols, seed=0):
    """Empirical body bits per symbol over one random i.i.d. sequence."""
    tree_set.ensure_valid()
    dist = _check_dist(tree_set, dist)
    if n_symbols < 0:
        raise ValueError("sample size must be non-negative")
    if n_symbols == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    lengths = [[w.length for w in tree.cwords] for tree in tree_set.trees]
    points = [list(tree.points) for tree in tree_set.trees]
    bits = 0
    k = 0
    for start in range(0, n_symbols, MC_BLOCK):
        size = min(MC_BLOCK, n_symbols - start)
        for x in rng.choice(len(dist), size=size, p=dist).tolist():
            bits += lengths[k][x]
            k = points[k][x]
    return bits / n_symbols

"""Compression-rate analysis of a code-tree set under an i.i.d. source.

Tree switching makes the encoder a Markov chain over tree ids: the
chance of hopping from tree k to tree j is the total probability of
the symbols tree k sends to j.  The expected code length per source
symbol is the long-run average of each tree's mean codeword length,
weighted by the share of time the encoder spends in each tree.  That
share is the Cesaro limit of the chain started in tree 0, solved
exactly from the chain's closed classes, so periodic and slowly mixing
chains need no iteration.  The transitive closure of the chain's
support, one boolean reachability matrix, says which trees are
transient and which closed class each of the others belongs to.  A
Monte Carlo path through the chain gives an empirical rate to check
the closed-form number against.  The path is not walked one symbol at
a time: its draws are cut into chunks of ``MC_CHUNK`` symbols, numpy
walks every chunk from every tree at once, and the chunks are joined
in order, each from the tree the one before it ended in.  A set of one
tree just sums its lengths, and a set of more than eight trees, where
stepping from every tree costs more than it saves, keeps the walk.
The bits are summed as integers over the same draws, so the rate
equals the per-symbol walk's exactly.  The draws are
``Generator.choice``'s, computed through a guide table of 2^12 cells
over its cumulative distribution; a draw whose cell holds a cdf
boundary is recounted by ``searchsorted``, as ``choice`` counts every
draw.

numpy is imported inside the functions that compute a rate, so
importing the package, and every CLI command but ``analyze``, does not
pay numpy's start-up cost.
"""

from __future__ import annotations

import math
import sys

from .errors import DimensionMismatch

# monte_carlo_rate draws symbols in blocks of this size, so memory stays
# bounded however long the sample; the generator yields the same
# sequence whatever the block size.  Each block is walked in chunks of
# MC_CHUNK symbols from every tree at once, and its last size % MC_CHUNK
# symbols one at a time; neither size changes the rate
MC_BLOCK = 1 << 16
MC_CHUNK = 32
# the draws read a guide table of this many cells over [0, 1); a power
# of two, so a draw's cell is exact
MC_GUIDE = 1 << 12


def _check_probabilities(dist):
    """``dist`` as floats; ValueError unless they form a distribution."""
    # an integer too large for a float fails as NaN does; the test is
    # written so that NaN fails it, and a subnormal probability is
    # refused because the linear solves in stationary turn it into NaN
    try:
        dist = [float(p) for p in dist]
    except OverflowError:
        dist = [math.nan]
    if not (all(p == 0 or p >= sys.float_info.min for p in dist)
            and abs(sum(dist) - 1.0) <= 1e-9):
        raise ValueError("probabilities must be zero or normal positive "
                         "floats and sum to 1")
    return dist


def _check_dist(tree_set, dist):
    if len(dist) != tree_set.symbol_count:
        raise DimensionMismatch(
            f"{len(dist)} probabilities for {tree_set.symbol_count} symbols")
    return _check_probabilities(dist)


def transition_matrix(tree_set, dist):
    """Row-stochastic matrix of tree-to-tree hop probabilities."""
    import numpy as np
    dist = _check_dist(tree_set, dist)
    n = tree_set.tree_count
    # float additions in row order, as numpy's own += would make them,
    # without a numpy scalar per symbol
    matrix = []
    for row in tree_set.rows:
        hops = [0.0] * n
        for a, _, _, point, _ in row:
            hops[point] += dist[a]
        matrix.append(hops)
    return np.array(matrix)


def stationary(matrix):
    """Long-run share of time in each state of a chain started in state 0.

    This is the Cesaro limit of row 0 of P^t, which exists for every
    finite chain, periodic and reducible ones included (Kemeny & Snell,
    *Finite Markov Chains*, 1960).  The support ``matrix > 0`` alone
    decides which states are transient and which form closed classes.
    Its transitive closure (Warshall, 1962), taken by repeated squaring,
    says which states each state reaches: a state is transient iff it
    reaches one that does not reach it back, and the states it reaches
    both ways are its class.  Transient states get 0, and each closed
    class gets its own stationary vector scaled by the chance that the
    chain, started in state 0, is absorbed into it.  Both come from
    direct linear solves, with no iteration and no tolerance.
    """
    import numpy as np
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch("transition matrix must be square")
    if not matrix.size:
        raise DimensionMismatch("transition matrix has no states")
    # as in _check_probabilities, NaN and subnormal entries fail
    if not (np.all((matrix == 0) | (matrix >= sys.float_info.min))
            and np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("matrix rows must be probability distributions")
    n = len(matrix)
    # reach[i, j] says state i leads to state j in some number of steps;
    # each squaring doubles the number of steps covered
    reach = (matrix > 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        hops = reach.astype(float)
        reach = hops @ hops > 0
    transient = (reach & ~reach.T).any(axis=1)
    closed = ~transient
    # P - I, with each diagonal entry taken as minus the rest of its row,
    # so a small chance of moving is not lost by rounding against 1
    step = matrix.copy()
    np.fill_diagonal(step, 0.0)
    np.fill_diagonal(step, -step.sum(axis=1))
    start = np.zeros(n)
    start[0] = 1.0
    # where the chain first enters the closed states, from state 0
    absorb = np.linalg.solve(-step[np.ix_(transient, transient)],
                             matrix[np.ix_(transient, closed)])
    entry = start[closed] + start[transient] @ absorb
    # the balance equations of the closed states, where the equation of
    # each class's label state, its lowest, gives way to the mass
    # entering the class
    label = (reach & reach.T)[closed].argmax(axis=1)
    head = label == np.flatnonzero(closed)
    members = label[head, None] == label
    system = step[np.ix_(closed, closed)].T
    system[head] = members
    rhs = np.zeros(len(label))
    rhs[head] = members @ entry
    pi = np.zeros(n)
    pi[closed] = np.linalg.solve(system, rhs)
    return pi


def expected_code_length(tree_set, dist):
    """Mean body bits per source symbol in the long run."""
    return rate_and_stationary(tree_set, dist)[0]


def rate_and_stationary(tree_set, dist):
    """The expected code length and the stationary vector, one solve."""
    import numpy as np
    tree_set.ensure_valid()
    dist = _check_dist(tree_set, dist)
    pi = stationary(transition_matrix(tree_set, dist))
    per_tree = [sum(p * clen for p, (_, clen, *_) in zip(dist, row))
                for row in tree_set.rows]
    return float(np.dot(pi, per_tree)), pi


def entropy(dist):
    """Shannon entropy of a distribution, in bits per symbol."""
    dist = _check_probabilities(dist)
    return -sum(p * math.log2(p) for p in dist if p > 0)


def _draw_blocks(rng, dist, n_symbols):
    """``rng.choice(len(dist), n_symbols, p=dist)`` in blocks of MC_BLOCK.

    ``Generator.choice`` returns ``cdf.searchsorted(rng.random(size),
    side='right')`` for ``cdf = p.cumsum(); cdf /= cdf[-1]``.  A guide
    table (Chen & Asau, 1974) gives the same indices: ``bounds[c]`` is
    the search's answer for ``c / MC_GUIDE``, and scaling by a power of
    two is exact, so a draw u in cell ``c = floor(u * MC_GUIDE)`` lies
    in ``[c / MC_GUIDE, (c + 1) / MC_GUIDE)`` and its answer lies
    between ``bounds[c]`` and ``bounds[c + 1]``.  Where those differ, a
    cdf boundary falls in the cell and the draw is searched for again.
    The generator advances by the same ``random(size)`` calls, so the
    blocks join into one stream.
    """
    import numpy as np
    cdf = np.cumsum(dist)
    cdf /= cdf[-1]
    bounds = cdf.searchsorted(np.arange(MC_GUIDE + 1) / MC_GUIDE,
                              side="right")
    split = bounds[1:] != bounds[:-1]
    for start in range(0, n_symbols, MC_BLOCK):
        u = rng.random(min(MC_BLOCK, n_symbols - start))
        cell = (u * MC_GUIDE).astype(np.intp)
        draws = bounds[cell]
        again = np.flatnonzero(split[cell])
        draws[again] = cdf.searchsorted(u[again], side="right")
        yield draws


def monte_carlo_rate(tree_set, dist, n_symbols, seed=0):
    """Empirical body bits per symbol over one random i.i.d. sequence.

    The draws are ``numpy.random.default_rng(seed).choice(m, n_symbols,
    p=dist)``, computed through a guide table of ``MC_GUIDE`` cells, in
    which a draw whose cell holds a cdf boundary is searched for again
    (``_draw_blocks``).  ``test_draws_equal_generator_choice`` and a CI
    step on each supported Python compare the draws with numpy's own
    ``choice``, so a numpy that draws differently fails there.
    """
    import numpy as np
    tree_set.ensure_valid()
    dist = _check_dist(tree_set, dist)
    if n_symbols < 0:
        raise ValueError("sample size must be non-negative")
    if n_symbols == 0:
        return 0.0
    m = len(dist)
    trees = tree_set.tree_count
    lengths = [[clen for _, clen, _, _, _ in row] for row in tree_set.rows]
    points = [[point for _, _, _, point, _ in row] for row in tree_set.rows]
    # entry k * m + x is symbol x at tree k; a successor is stored as the
    # offset of its own entries, so a step adds the next symbol to it
    flat_lengths = np.array(lengths, dtype=np.int64).ravel()
    flat_next = np.array(points, dtype=np.int64).ravel() * m
    offsets = np.arange(0, trees * m, m)[:, None]
    bits = 0
    k = 0
    for draws in _draw_blocks(np.random.default_rng(seed), dist, n_symbols):
        size = len(draws)
        if trees == 1:
            bits += int(flat_lengths[draws].sum())
            continue
        # a chunk costs one step per tree, so past about a dozen trees
        # the walk of one symbol at a time is the faster one
        cut = size - size % MC_CHUNK if trees <= 8 else 0
        if cut:
            # column c walks chunk c from every tree at once
            at = np.repeat(offsets, cut // MC_CHUNK, axis=1)
            used = np.zeros_like(at)
            columns = draws[:cut].reshape(-1, MC_CHUNK).T
            for column in np.ascontiguousarray(columns):
                step = at + column
                used += flat_lengths[step]
                at = flat_next[step]
            # each chunk goes on from the tree the one before it ended in
            ends = (at // m).tolist()
            for c, chunk_bits in enumerate(zip(*used.tolist())):
                bits += chunk_bits[k]
                k = ends[k][c]
        for x in draws[cut:].tolist():
            bits += lengths[k][x]
            k = points[k][x]
    return bits / n_symbols

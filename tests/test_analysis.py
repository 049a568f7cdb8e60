"""Markov-chain rate analysis: matrices, stationary vectors, rates."""

import random
import time

from hypothesis import Phase, find, given, settings, strategies as st
import numpy as np
import pytest

from aifv import analysis
from aifv.analysis import (entropy, expected_code_length, monte_carlo_rate,
                           stationary, transition_matrix)
from aifv.codetree import CodeTree, CodeTreeSet
from aifv.errors import DimensionMismatch
from aifv.formats import parse_conventional
from aifv.transform import import_aifvm
from aifv import examples

from conftest import (bits, closed_classes_oracle, mc_oracle,
                      random_valid_tree_set, stationary_oracle,
                      transition_matrix_oracle)

UNIFORM2 = [0.5, 0.5]


def skewed_import():
    kind, m, convention, symbols, trees = parse_conventional(
        examples.skewed_aifv3_doc())
    return import_aifvm(trees, m, symbols, convention)


def test_transition_matrix_binary_uniform():
    P = transition_matrix(examples.binary_delay3_set(), UNIFORM2)
    assert P.tolist() == [
        [0.0, 0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5, 0.5],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
    ]
    assert np.allclose(P.sum(axis=1), 1.0)


def test_transition_matrix_rejects_bad_distributions():
    ts = examples.binary_delay3_set()
    with pytest.raises(DimensionMismatch):
        transition_matrix(ts, [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        transition_matrix(ts, [0.7, 0.4])
    with pytest.raises(ValueError):
        transition_matrix(ts, [1.2, -0.2])


def test_stationary_binary_uniform():
    P = transition_matrix(examples.binary_delay3_set(), UNIFORM2)
    pi = stationary(P)
    assert pi == pytest.approx([0.4, 0.2, 0.2, 0.1, 0.1], abs=1e-9)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_handles_periodic_and_absorbing_chains():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert stationary(swap) == pytest.approx([0.5, 0.5], abs=1e-9)
    # an identity chain never leaves the start tree
    assert stationary(np.eye(3)) == pytest.approx([1.0, 0.0, 0.0])


def test_stationary_rejects_bad_matrices():
    with pytest.raises(DimensionMismatch):
        stationary(np.zeros((2, 3)))
    # the empty matrix is square; it once died with an IndexError
    with pytest.raises(DimensionMismatch, match="no states"):
        stationary(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        stationary(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_stationary_long_and_reducible_chains():
    # past the sizes the chains() strategy draws, and without the
    # Fraction oracle, which is cubic in pure Python
    started = time.perf_counter()
    n = 300
    path = np.eye(n, k=1)
    path[-1, -1] = 1.0
    assert stationary(path) == pytest.approx(np.eye(n)[-1], abs=1e-12)
    cycle = np.roll(np.eye(n), 1, axis=1)
    assert stationary(cycle) == pytest.approx(np.full(n, 1 / n), abs=1e-12)
    # state 0 enters each of 100 two-state swap classes with equal chance
    fan = np.zeros((201, 201))
    fan[0, 1::2] = 0.01
    fan[np.arange(1, 201, 2), np.arange(2, 201, 2)] = 1.0
    fan[np.arange(2, 201, 2), np.arange(1, 201, 2)] = 1.0
    expected = np.full(201, 1 / 200)
    expected[0] = 0.0
    assert stationary(fan) == pytest.approx(expected, abs=1e-12)
    assert time.perf_counter() - started < 1.0


def test_stationary_exact_on_slow_mixing_chain():
    # each tree stays put on 'a' and hops to the other on 'b', so a
    # rare 'b' makes the chain mix slowly
    ts = CodeTreeSet([
        CodeTree([bits("0"), bits("1")], [0, 1], [bits("")]),
        CodeTree([bits("0"), bits("1")], [1, 0], [bits("")]),
    ])
    dist = [1 - 1e-7, 1e-7]
    started = time.perf_counter()
    rate = expected_code_length(ts, dist)
    elapsed = time.perf_counter() - started
    assert rate == pytest.approx(1.0, abs=1e-9)
    assert elapsed < 0.1
    P = transition_matrix(ts, dist)
    assert stationary(P) == pytest.approx(
        [float(p) for p in stationary_oracle(P)], abs=1e-9)


@pytest.mark.parametrize("matrix, expected", [
    # one periodic class through all four states
    ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [.25, 0, .75, 0]],
     [.1, .1, .4, .4]),
    # a transient start that feeds a period-2 class, directly and
    # through two more transient states
    ([[.125, .25, .125, .25, .25], [0, 0, 0, 0, 1], [0, 1, 0, 0, 0],
      [0, 0, 0, 0, 1], [0, 1, 0, 0, 0]],
     [0, .5, 0, 0, .5]),
    # two closed classes, one of them periodic, entered 3:1 from state 0
    ([[0, .75, 0, .25], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
     [0, .375, .375, .25]),
])
def test_stationary_explicit_chains(matrix, expected):
    assert stationary(matrix) == pytest.approx(expected, abs=1e-12)
    assert [float(p) for p in stationary_oracle(matrix)] == expected


@pytest.mark.parametrize("matrix, expected", [
    ([[1.0, 1e-17], [1e-17, 1.0]], [0.5, 0.5]),
    ([[1.0, 1e-17], [0.0, 1.0]], [0.0, 1.0]),
])
def test_stationary_keeps_probabilities_below_rounding(matrix, expected):
    # 1 - 1e-17 rounds to 1, yet the support says both chains move on
    assert stationary(matrix) == pytest.approx(expected, abs=1e-12)


@st.composite
def chains(draw):
    """Row-stochastic matrices with dyadic entries and many zeros.

    Each state draws a group: a state of group 0 may hop anywhere, one
    of group g > 0 only inside group g, sometimes along a single cycle.
    That gives several closed classes, periodic classes and transient
    states, state 0 among them, alongside arbitrary supports.
    """
    n = draw(st.integers(1, 7))
    group = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    matrix = []
    for s in range(n):
        allowed = [t for t in range(n)
                   if group[s] == 0 or group[t] == group[s]]
        if group[s] and draw(st.booleans()):
            later = [t for t in allowed if t > s]
            support = [later[0] if later else allowed[0]]
        else:
            support = draw(st.lists(st.sampled_from(allowed), min_size=1,
                                    max_size=len(allowed), unique=True))
        cuts = draw(st.lists(st.integers(1, 63), min_size=len(support) - 1,
                             max_size=len(support) - 1, unique=True))
        bounds = [0] + sorted(cuts) + [64]
        row = [0.0] * n
        for t, lo, hi in zip(support, bounds, bounds[1:]):
            row[t] = (hi - lo) / 64
        matrix.append(row)
    return matrix


@settings(deadline=None)
@given(chains())
def test_stationary_matches_exact_oracle(matrix):
    expected = [float(p) for p in stationary_oracle(matrix)]
    assert stationary(matrix) == pytest.approx(expected, abs=1e-9)


def _cycle_class(matrix, members):
    return len(members) > 1 and all(
        sum(p > 0 for p in matrix[s]) == 1 for s in members)


@pytest.mark.parametrize("feature", [
    lambda m, classes: len(classes) >= 3,
    lambda m, classes: any(_cycle_class(m, c) for c in classes),
    lambda m, classes: not any(0 in c for c in classes) and len(classes) > 1,
], ids=["three-closed-classes", "periodic-class", "transient-start"])
def test_chains_cover_the_hard_cases(feature):
    # the strategy above reaches each case, so the oracle test sees it
    find(chains(), lambda m: feature(m, closed_classes_oracle(m)),
         settings=settings(database=None, phases=[Phase.generate]))


def test_nan_probabilities_are_rejected():
    nan = float("nan")
    with pytest.raises(ValueError):
        entropy([nan, nan])
    with pytest.raises(ValueError):
        expected_code_length(examples.binary_delay3_set(), [nan, nan])
    with pytest.raises(ValueError):
        stationary([[nan, nan], [0.5, 0.5]])


def test_probabilities_beyond_float_range_are_rejected():
    ts = examples.binary_delay3_set()
    huge = [10 ** 400, 0]
    for call in (lambda: entropy(huge),
                 lambda: transition_matrix(ts, huge),
                 lambda: expected_code_length(ts, huge),
                 lambda: monte_carlo_rate(ts, huge, 10)):
        with pytest.raises(ValueError, match="probabilities"):
            call()


def test_subnormal_probabilities_are_rejected():
    # tree 0 leaves for tree 1 on 'b', and trees 1 and 2 swap on 'b';
    # a subnormal chance of 'b' once made the solve return NaN
    ts = CodeTreeSet([
        CodeTree([bits("0"), bits("1")], [0, 1], [bits("")]),
        CodeTree([bits("0"), bits("1")], [1, 2], [bits("")]),
        CodeTree([bits("0"), bits("1")], [2, 1], [bits("")]),
    ])
    tiny = [1.0, 1e-300]
    assert stationary(transition_matrix(ts, tiny)) \
        == pytest.approx([0, 0.5, 0.5], abs=1e-12)
    assert expected_code_length(ts, tiny) == pytest.approx(1.0, abs=1e-12)
    subnormal = [1.0, 5e-324]
    for call in (lambda: entropy(subnormal),
                 lambda: transition_matrix(ts, subnormal),
                 lambda: expected_code_length(ts, subnormal),
                 lambda: monte_carlo_rate(ts, subnormal, 10),
                 lambda: stationary([[1.0, 0.0, 5e-324], [0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]])):
        with pytest.raises(ValueError):
            call()


def test_expected_code_length_binary_uniform():
    E = expected_code_length(examples.binary_delay3_set(), UNIFORM2)
    assert E == pytest.approx(1.05, abs=1e-9)


def test_expected_code_length_skewed_pinned():
    dist = examples.skewed_distribution()
    E = expected_code_length(examples.skewed_delay3_set(), dist)
    assert E == pytest.approx(0.6041692352, abs=1e-9)
    E3 = expected_code_length(skewed_import(), dist)
    assert E3 == pytest.approx(0.6551328413, abs=1e-9)
    pi = stationary(transition_matrix(examples.skewed_delay3_set(), dist))
    assert pi == pytest.approx(
        [0.2521692, 0.2759523, 0.2483571, 0.2235214], abs=1e-6)


def test_entropy_values():
    assert entropy([1.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0)  # 0 log 0 = 0
    assert entropy(examples.skewed_distribution()) \
        == pytest.approx(0.5760676207, abs=1e-9)
    with pytest.raises(ValueError):
        entropy([0.5, 0.6])


def test_monte_carlo_is_deterministic_per_seed():
    sk = examples.skewed_delay3_set()
    dist = examples.skewed_distribution()
    a = monte_carlo_rate(sk, dist, 20_000, seed=11)
    b = monte_carlo_rate(sk, dist, 20_000, seed=11)
    c = monte_carlo_rate(sk, dist, 20_000, seed=12)
    assert a == b
    assert a != c
    assert monte_carlo_rate(sk, dist, 0, seed=1) == 0.0


def test_monte_carlo_block_size_does_not_change_rate(monkeypatch):
    # the generator yields the same symbols whatever the block size
    sk = examples.skewed_delay3_set()
    dist = examples.skewed_distribution()
    rate = monte_carlo_rate(sk, dist, 3000, seed=7)
    for block in (1, 7):
        monkeypatch.setattr(analysis, "MC_BLOCK", block)
        assert monte_carlo_rate(sk, dist, 3000, seed=7) == rate


def test_monte_carlo_chunk_size_does_not_change_rate(monkeypatch):
    # 3001 symbols leave a tail after the chunks of every block but the
    # 1-symbol chunks; blocks of 7 and 100 are no multiple of 3 or 32
    sk = examples.skewed_delay3_set()
    dist = examples.skewed_distribution()
    rate = mc_oracle(sk, dist, 3001, seed=7)
    for chunk in (1, 3, 32):
        for block in (7, 100, analysis.MC_BLOCK):
            monkeypatch.setattr(analysis, "MC_CHUNK", chunk)
            monkeypatch.setattr(analysis, "MC_BLOCK", block)
            assert monte_carlo_rate(sk, dist, 3001, seed=7) == rate, \
                (chunk, block)


MC_SIZES = [0, 1, 31, 32, 33, 1000,
            analysis.MC_BLOCK - 1, analysis.MC_BLOCK, analysis.MC_BLOCK + 1]


def mc_case(rng):
    """A valid set and a distribution over its alphabet.

    One case in four is a set of one tree, one in eight the three trees
    of a chain that leaves tree 0 for one of two closed classes, which
    charge different lengths, and one in eight a set of up to 12 trees.
    """
    pick = rng.random()
    if pick < 0.125:
        # tree 0 is transient: its first symbol decides the class
        ts = CodeTreeSet([
            CodeTree([bits("0"), bits("1")], [1, 2], [bits("")]),
            CodeTree([bits("0"), bits("1")], [1, 1], [bits("")]),
            CodeTree([bits("00"), bits("01")], [2, 2], [bits("")])])
    else:
        m = rng.choice([1, 2, 3, 4, 8, rng.randint(1, 256)])
        max_trees = 1 if pick < 0.375 else 12 if pick < 0.5 else 6
        ts = random_valid_tree_set(rng, max_trees=max_trees, symbol_count=m)
    weights = [rng.randint(0, 9) for _ in range(ts.symbol_count)]
    weights[rng.randrange(len(weights))] += 1
    return ts, [w / sum(weights) for w in weights]


@pytest.mark.parametrize("n", MC_SIZES)
@settings(deadline=None, max_examples=20)
@given(st.randoms(use_true_random=False))
def test_monte_carlo_matches_per_symbol_walk(n, rng):
    ts, dist = mc_case(rng)
    seed = rng.randrange(1000)
    assert monte_carlo_rate(ts, dist, n, seed=seed) \
        == mc_oracle(ts, dist, n, seed=seed)


# the seed's first uniform is a cdf value of the on-a-draw
# distributions, so their first draw lands exactly on a boundary and
# only side='right' counts it as choice does
EDGE_SEED = 4
EDGE = float(np.random.default_rng(EDGE_SEED).random())
CROWDED = [1.0] * 3 + [1e-6] * 250 + [1.0] * 3
DRAW_DISTS = {
    "one": [1.0],
    "halves": [0.5, 0.5],
    # every cdf value is a cell edge
    "cell-edges": [0.25, 0.25, 0.5],
    "zero-first": [0.0, 0.3, 0.7],
    "zero-middle": [0.3, 0.0, 0.0, 0.7],
    "zero-last": [0.6, 0.4, 0.0],
    # 250 boundaries crowd into the cells around 1/2
    "crowded": [w / sum(CROWDED) for w in CROWDED],
    "on-a-draw": [EDGE, 1 - EDGE],
    "on-a-draw-zeros": [0.0, EDGE, 0.0, 1 - EDGE],
}
DRAW_SIZES = [0, 1, 4095,
              analysis.MC_BLOCK - 1, analysis.MC_BLOCK, analysis.MC_BLOCK + 1]


def check_draws(dist, size, seed):
    rng = np.random.default_rng(seed)
    blocks = list(analysis._draw_blocks(rng, dist, size))
    want = np.random.default_rng(seed)
    assert [x for block in blocks for x in block.tolist()] \
        == want.choice(len(dist), size, p=dist).tolist()
    assert all(len(block) <= analysis.MC_BLOCK for block in blocks)
    # the generator is left where choice leaves it
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("size", DRAW_SIZES)
@pytest.mark.parametrize("dist", DRAW_DISTS.values(), ids=DRAW_DISTS)
def test_draws_equal_generator_choice(dist, size):
    for seed in (EDGE_SEED, 9):
        check_draws(dist, size, seed)


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_draws_equal_generator_choice_on_generated_sets(rng):
    _, dist = mc_case(rng)
    check_draws(dist, rng.choice([1, 4095, rng.randint(0, 3000)]),
                rng.randrange(1000))


def test_transition_matrix_is_the_entrywise_sum():
    # the M=256 sets send nearly every symbol to a tree of two, in an
    # order of addition that changes the sum's last bits
    rng = random.Random(5)
    cases = [mc_case(rng) for _ in range(200)]
    for _ in range(20):
        ts = random_valid_tree_set(rng, max_trees=2, symbol_count=256)
        weights = [rng.random() for _ in range(256)]
        cases.append((ts, [w / sum(weights) for w in weights]))
    for ts, dist in cases:
        got = transition_matrix(ts, dist)
        want = transition_matrix_oracle(ts, dist)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_monte_carlo_exact_on_constant_length_code():
    ts = CodeTreeSet([CodeTree([bits("00"), bits("01")], [0, 0],
                               [bits("")])])
    for seed in (0, 5):
        assert monte_carlo_rate(ts, UNIFORM2, 1000, seed=seed) == 2.0


def test_monte_carlo_tracks_expected_length():
    sk = examples.skewed_delay3_set()
    dist = examples.skewed_distribution()
    E = expected_code_length(sk, dist)
    rate = monte_carlo_rate(sk, dist, 50_000, seed=11)
    assert abs(rate - E) < 0.01


def test_monte_carlo_refuses_a_negative_sample_size():
    sk = examples.skewed_delay3_set()
    with pytest.raises(ValueError, match="sample size must be "
                                         "non-negative"):
        monte_carlo_rate(sk, examples.skewed_distribution(), -1)

"""Markov-chain rate analysis: matrices, stationary vectors, rates."""

import numpy as np
import pytest

from aifv import analysis
from aifv.analysis import (entropy, expected_code_length, monte_carlo_rate,
                           stationary, transition_matrix)
from aifv.codetree import CodeTree, CodeTreeSet
from aifv.errors import DimensionMismatch, NoConvergence
from aifv.formats import parse_conventional
from aifv.transform import import_aifvm
from aifv import examples

from conftest import bits

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
    with pytest.raises(ValueError):
        stationary(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_stationary_reports_nonconvergence():
    # a slow-mixing chain cannot settle in a handful of iterations
    slow = np.array([[0.99, 0.01], [0.01, 0.99]])
    with pytest.raises(NoConvergence):
        stationary(slow, max_iter=3)
    assert stationary(slow) == pytest.approx([0.5, 0.5], abs=1e-9)


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

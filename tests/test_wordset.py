"""Word-set operations against pinned values and the interval oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aifv.bitstring import BitString
from aifv.errors import CapExceeded, InvalidSet
from aifv.wordset import (all_strings, common_prefix, enumerate_basic_modes,
                          in_full_closure, is_prefix_free, reduce,
                          to_basic_mode)
from aifv import examples

from conftest import (bits, closure_oracle, interval, random_word_set,
                      reduce_oracle, texts, words)

SEED = 20240812


def test_common_prefix_examples():
    assert common_prefix(words("011", "010")) == bits("01")
    assert common_prefix(words("011", "10")) == bits("")
    assert common_prefix(words("0110")) == bits("0110")
    assert common_prefix(words("", "0")) == bits("")
    with pytest.raises(InvalidSet):
        common_prefix([])


def test_is_prefix_free_examples():
    assert is_prefix_free(words("00", "01", "1"))
    assert not is_prefix_free(words("0", "01"))
    assert is_prefix_free(words(""))
    assert not is_prefix_free(words("", "1"))


def test_reduce_pinned_fixture():
    ws = examples.uneven_word_set()
    assert texts(reduce(ws)) == ["0", "10", "110"]
    assert in_full_closure(ws, bits("0"))
    assert not in_full_closure(ws, bits("1"))
    # adding the missing cover makes the closure total
    assert texts(reduce(ws | words("11"))) == [""]


def test_reduce_small_cases():
    assert texts(reduce(words("00", "01"))) == ["0"]
    assert texts(reduce(words("0", "1"))) == [""]
    assert texts(reduce(words(""))) == [""]
    assert texts(reduce(words("0", "00"))) == ["0"]
    assert texts(reduce(words("000", "001", "010"))) == ["00", "010"]


def test_closure_membership_against_oracle():
    rng = random.Random(SEED)
    for _ in range(300):
        ws = random_word_set(rng, max_len=5, max_words=6)
        for _ in range(8):
            n = rng.randint(0, 5)
            probe = BitString(rng.getrandbits(n) if n else 0, n)
            assert in_full_closure(ws, probe) == closure_oracle(ws, probe)


def test_reduce_against_oracle():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        ws = random_word_set(rng, max_len=5, max_words=6)
        assert reduce(ws) == reduce_oracle(ws)


@st.composite
def sparse_word_sets(draw, max_len=64):
    """Few long members, some with siblings that let subtrees fill up."""
    out = set()
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, max_len))
        w = BitString(draw(st.integers(0, (1 << n) - 1)), n)
        out.add(w)
        # siblings of w's prefixes at levels fill..n make w.prefix(fill - 1)
        # full; a few more at random levels cover parts of the path
        fill = draw(st.integers(1, n + 1))
        levels = set(range(fill, n + 1))
        levels |= draw(st.sets(st.integers(1, max(n, 1)), max_size=3))
        for level in levels:
            if level <= n:
                p = w.prefix(level)
                out.add(BitString(p.value ^ 1, level))
        if draw(st.booleans()):
            k = draw(st.integers(0, 8))
            out.add(w + BitString(draw(st.integers(0, (1 << k) - 1)), k))
    return frozenset(out)


def union_measure(word_set):
    total, reach = Fraction(0), Fraction(0)
    for lo, hi in sorted(interval(w) for w in word_set):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


@settings(deadline=None)
@given(sparse_word_sets())
def test_reduce_long_sparse_sets_against_fractions(ws):
    red = reduce(ws)
    for r in red:
        assert closure_oracle(ws, r)
        if r.length:
            assert not closure_oracle(ws, r.prefix(r.length - 1))
    assert sum(Fraction(1, 1 << r.length) for r in red) == union_measure(ws)


def test_reduce_deep_member_needs_no_recursion():
    ws = words("1", "0" * 2000)
    assert reduce(ws) == ws
    assert in_full_closure(ws, bits("0" * 2001))
    assert not in_full_closure(ws, bits("0" * 1999))


def test_reduce_is_prefix_free_and_idempotent():
    rng = random.Random(SEED + 2)
    for _ in range(300):
        ws = random_word_set(rng)
        red = reduce(ws)
        assert is_prefix_free(red)
        assert reduce(red) == red


def test_to_basic_mode_examples():
    assert texts(to_basic_mode(words("000", "001", "010"))) == ["0", "10"]
    assert texts(to_basic_mode(words("011", "100", "101"))) == ["011", "10"]
    assert texts(to_basic_mode(words("11", "10"))) == [""]
    assert texts(to_basic_mode(words(""))) == [""]


def test_to_basic_mode_properties():
    rng = random.Random(SEED + 3)
    for _ in range(200):
        ws = random_word_set(rng)
        basic = to_basic_mode(ws)
        assert common_prefix(basic) == bits("")
        assert reduce(basic) == basic
        assert to_basic_mode(basic) == basic


def test_all_strings():
    assert texts(all_strings(0)) == [""]
    assert texts(all_strings(2)) == ["00", "01", "10", "11"]
    assert len(all_strings(6)) == 64
    with pytest.raises(CapExceeded):
        all_strings(21)
    with pytest.raises(CapExceeded):
        all_strings(5, cap=4)
    with pytest.raises(ValueError):
        all_strings(-1)


def test_enumerate_basic_modes_census():
    modes = enumerate_basic_modes(2)
    assert len(modes) == 9
    expected = [
        [""],
        ["0", "10"], ["0", "11"], ["00", "1"], ["00", "10"], ["00", "11"],
        ["01", "1"], ["01", "10"], ["01", "11"],
    ]
    assert sorted(texts(m) for m in modes) == sorted(expected)


def test_enumerate_basic_modes_three_bits():
    modes = enumerate_basic_modes(3)
    assert len(modes) > 9
    for m in modes:
        assert common_prefix(m) == bits("")
        assert reduce(m) == m
        assert all(w.length <= 3 for w in m)


def test_enumerate_basic_modes_limits():
    with pytest.raises(ValueError):
        enumerate_basic_modes(1)
    with pytest.raises(CapExceeded):
        enumerate_basic_modes(4)

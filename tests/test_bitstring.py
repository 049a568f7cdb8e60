"""Bit strings, prefix relations, and their exact interval images."""

import random
import re
import time
from fractions import Fraction

import pytest

from aifv.bitstring import (BitString, comparable, is_prefix,
                            longest_common_prefix, strip_prefix)
from aifv.errors import NotAPrefix

from conftest import bits, interval

SEED = 20240811


def random_bits(rng, max_len=10):
    n = rng.randint(0, max_len)
    return BitString(rng.getrandbits(n) if n else 0, n)


def test_construction_and_text():
    assert BitString().text() == ""
    assert bits("011").value == 3
    assert bits("011").length == 3
    assert bits("011").text() == "011"
    assert bits("0010").text() == "0010"
    assert len(bits("0010")) == 4


def test_str_is_the_text_and_only_bit_strings_add():
    assert str(bits("0010")) == "0010"
    assert str(BitString()) == ""
    with pytest.raises(TypeError):
        bits("01") + 1


def test_construction_rejects_out_of_range():
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 2)
    with pytest.raises(ValueError):
        BitString(0, -1)
    with pytest.raises(ValueError):
        BitString.from_text("01x")


def test_from_text_accepts_only_bit_characters():
    assert BitString.from_text("") == BitString()
    assert BitString.from_text("0" * 5000 + "1") == BitString(1, 5001)
    # int(text, 2) would accept each of these
    for text, bad in [("0b1", "b"), ("1_0", "_"), (" 1", " "), ("1 ", " "),
                      ("01\n", "\n"), ("0١", "١"), ("01x0y", "x")]:
        message = f"invalid bit character {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BitString.from_text(text)


def test_concat_prefix_suffix():
    assert bits("01") + bits("10") == bits("0110")
    assert bits("") + bits("1") == bits("1")
    assert bits("1") + BitString(0, 1) == bits("10")
    assert bits("0110").prefix(2) == bits("01")
    assert bits("0110").prefix(4) == bits("0110")
    assert bits("0110").prefix(0) == bits("")
    with pytest.raises(ValueError):
        bits("0110").prefix(5)
    # the suffix after a prefix is what strip_prefix leaves
    assert strip_prefix(bits("01"), bits("0110")) == bits("10")


def test_prefix_relation_examples():
    assert is_prefix(bits(""), bits("01101"))
    assert is_prefix(bits("01"), bits("011"))
    assert not is_prefix(bits("01"), bits("001"))
    assert not is_prefix(bits("011"), bits("01"))
    assert is_prefix(bits("01"), bits("01"))


def test_comparable_examples():
    assert comparable(bits("0"), bits(""))
    assert comparable(bits(""), bits("1"))
    assert not comparable(bits("0"), bits("1"))
    assert not comparable(bits("01"), bits("001"))


def test_strip_prefix():
    assert strip_prefix(bits("01"), bits("011")) == bits("1")
    assert strip_prefix(bits(""), bits("011")) == bits("011")
    assert strip_prefix(bits("011"), bits("011")) == bits("")
    with pytest.raises(NotAPrefix):
        strip_prefix(bits("1"), bits("011"))


def test_longest_common_prefix():
    assert longest_common_prefix(bits("0110"), bits("0111")) == bits("011")
    assert longest_common_prefix(bits("0"), bits("1")) == bits("")
    assert longest_common_prefix(bits("01"), bits("0110")) == bits("01")
    rng = random.Random(SEED + 3)
    for _ in range(500):
        w1, w2 = random_bits(rng), random_bits(rng)
        t1, t2 = w1.text(), w2.text()
        n = 0
        while n < min(len(t1), len(t2)) and t1[n] == t2[n]:
            n += 1
        assert longest_common_prefix(w1, w2) == bits(t1[:n])


def test_longest_common_prefix_is_linear_in_word_length():
    # two 400,000-bit words that differ in their first bit; one bit a
    # step takes seconds here
    n = 400_000
    w1 = BitString((1 << n) - 1, n)
    w2 = BitString(0, n)
    w3 = BitString(((1 << n) - 1) ^ 1, n)
    start = time.perf_counter()
    assert longest_common_prefix(w1, w2) == BitString()
    assert longest_common_prefix(w1, w3) == w1.prefix(n - 1)
    assert time.perf_counter() - start < 0.5


def test_prefix_is_a_partial_order():
    rng = random.Random(SEED + 2)
    for _ in range(300):
        w1, w2, w3 = (random_bits(rng, 6) for _ in range(3))
        assert is_prefix(w1, w1)
        if is_prefix(w1, w2) and is_prefix(w2, w1):
            assert w1 == w2
        if is_prefix(w1, w2) and is_prefix(w2, w3):
            assert is_prefix(w1, w3)


def test_comparable_is_reflexive_symmetric_not_transitive():
    rng = random.Random(SEED + 3)
    for _ in range(300):
        w1, w2 = random_bits(rng), random_bits(rng)
        assert comparable(w1, w1)
        assert comparable(w1, w2) == comparable(w2, w1)
    # the standard counterexample to transitivity
    assert comparable(bits("0"), bits(""))
    assert comparable(bits(""), bits("1"))
    assert not comparable(bits("0"), bits("1"))


def test_interval_view_agrees_with_prefix_relations():
    # comparability is overlap and the prefix relation is containment
    # of the exact Fraction intervals
    rng = random.Random(SEED + 4)
    for _ in range(2000):
        w1, w2 = random_bits(rng, 8), random_bits(rng, 8)
        (lo1, hi1), (lo2, hi2) = interval(w1), interval(w2)
        assert (lo1 < hi2 and lo2 < hi1) == comparable(w1, w2)
        assert (lo1 <= lo2 and hi2 <= hi1) == is_prefix(w1, w2)
        assert hi1 - lo1 == Fraction(1, 1 << w1.length)
    assert interval(bits("011")) == (Fraction(3, 8), Fraction(1, 2))
    assert interval(bits("")) == (0, 1)


def test_strip_prefix_inverts_concatenation():
    rng = random.Random(SEED + 5)
    for _ in range(500):
        p, s = random_bits(rng), random_bits(rng)
        assert strip_prefix(p, p + s) == s
        assert is_prefix(p, p + s)


def test_hash_and_equality_distinguish_lengths():
    assert bits("0") != bits("00")
    assert bits("") != bits("0")
    assert len({bits("01"), BitString(1, 2)}) == 1
    assert bits("1") != "1"

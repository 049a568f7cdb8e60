"""Code-tree sets: expansion, validation, delay, fullness."""

import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from aifv.bitstring import BitString, is_prefix, strip_prefix
from aifv.codetree import (CodeTree, CodeTreeSet, check_delay_budget,
                           decoding_delay, expand, expands, is_full,
                           reachable_trees, validate)
from aifv.errors import (DimensionMismatch, IndexOutOfRange, InvalidSet,
                         Unvalidated)
from aifv import examples
from aifv.codec import encode

from conftest import (bits, mutate_tree_set, random_valid_tree_set, texts,
                      validate_oracle)

SEED = 20240813


def tree(mode, rows):
    return CodeTree([bits(w) for w, _ in rows], [p for _, p in rows],
                    [bits(q) for q in mode])


def broken_variant():
    # the running example with tree 2's mode changed to {'0','11'}
    return CodeTreeSet([
        tree([""], [("", 1), ("0", 2)]),
        tree(["1", "011"], [("1", 4), ("", 3)]),
        tree(["0", "11"], [("0", 0), ("10", 0)]),
        tree(["011", "100"], [("011", 0), ("100", 0)]),
        tree(["1", "01"], [("1", 0), ("01", 0)]),
    ])


def test_constructor_checks():
    with pytest.raises(DimensionMismatch):
        CodeTree([bits("0")], [0, 1], [bits("")])
    with pytest.raises(DimensionMismatch):
        CodeTree([], [], [bits("")])
    with pytest.raises(InvalidSet):
        CodeTree([bits("0")], [0], [])
    with pytest.raises(InvalidSet):
        CodeTreeSet([])
    with pytest.raises(IndexOutOfRange):
        CodeTreeSet([tree([""], [("0", 1)])])
    with pytest.raises(DimensionMismatch):
        CodeTreeSet([tree([""], [("0", 0)]),
                     tree([""], [("0", 0), ("1", 0)])])
    with pytest.raises(DimensionMismatch):
        CodeTreeSet([tree([""], [("0", 0)])], symbols=["a", "b"])
    with pytest.raises(DimensionMismatch):
        CodeTreeSet([tree([""], [("0", 0)])], tree_names=["x", "y"])


def test_default_symbol_names():
    ts = examples.binary_delay3_set()
    assert ts.symbols == ("a", "b")
    assert ts.symbol_name(1) == "b"
    many = CodeTreeSet([CodeTree([bits("")] * 30, [0] * 30, [bits("")])])
    assert many.symbols[0] == "a"
    assert many.symbols[25] == "z"
    assert many.symbols[26] == "s26"


def test_expand_pinned_values():
    ts = examples.binary_delay3_set()
    assert texts(expand(ts, 0, 0)) == ["011", "1"]
    assert texts(expand(ts, 0, 1)) == ["00", "010"]
    assert [texts(w) for w in expands(ts, 1)] \
        == [["101", "11"], ["011", "100"]]
    with pytest.raises(IndexOutOfRange):
        expand(ts, 0, 2)
    with pytest.raises(IndexOutOfRange):
        expands(ts, 5)


def test_examples_validate_under_both_methods():
    sets = [examples.binary_delay3_set(), examples.instantaneous_huffman_set(),
            examples.ternary_full_set(), examples.skewed_delay3_set()]
    for ts in sets:
        direct = validate(ts, "direct")
        interval = validate(ts, "interval")
        assert direct.ok and interval.ok
        assert direct.violations == interval.violations


def test_validate_rejects_unknown_method():
    with pytest.raises(ValueError):
        validate(examples.binary_delay3_set(), "guess")


def test_broken_variant_locates_both_failures():
    ts = broken_variant()
    report = validate(ts)
    assert not report.ok
    rules = {(v.rule, v.tree) for v in report.violations}
    # changing tree 2's mode breaks separation back at tree 0 and
    # leaves one of tree 2's own expansions uncovered
    assert ("overlap", 0) in rules
    assert ("coverage", 2) in rules
    overl = [v for v in report.violations if v.rule == "overlap"]
    assert any(v.words == ("011", "011") and v.symbols == ("a", "b")
               for v in overl)
    cover = [v for v in report.violations
             if v.rule == "coverage" and v.tree == 2]
    assert any(v.words == ("10",) and v.symbols == ("b",) for v in cover)
    # the interval method reports the same list
    assert validate(ts, "interval").violations == report.violations


def test_unreachable_tree_reported():
    ts = CodeTreeSet([
        tree([""], [("0", 0), ("10", 0)]),
        tree([""], [("0", 1), ("10", 1)]),
    ])
    assert reachable_trees(ts) == {0}
    report = validate(ts)
    assert [v.rule for v in report.violations] == ["unreachable"]
    assert report.violations[0].tree == 1
    with pytest.raises(Unvalidated):
        ts.ensure_valid()


def test_unvalidated_carries_report():
    ts = broken_variant()
    with pytest.raises(Unvalidated) as err:
        encode(ts, [0])
    assert err.value.report is not None
    assert not err.value.report.ok


def test_methods_agree_on_random_mutations():
    rng = random.Random(SEED)
    valid = invalid = 0
    for _ in range(150):
        ts = mutate_tree_set(rng, random_valid_tree_set(rng))
        direct = validate(ts, "direct")
        interval = validate(ts, "interval")
        assert direct.violations == interval.violations
        if direct.ok:
            valid += 1
        else:
            invalid += 1
    # the mutation pool must actually exercise both outcomes
    assert valid > 10 and invalid > 10


def test_decoding_delay_pinned_values():
    assert decoding_delay(examples.binary_delay3_set()) == 3
    assert decoding_delay(examples.instantaneous_huffman_set()) == 0
    assert decoding_delay(examples.ternary_full_set()) == 3
    assert decoding_delay(examples.skewed_delay3_set()) == 3


def test_is_full_examples():
    assert is_full(examples.binary_delay3_set())
    assert is_full(examples.instantaneous_huffman_set())
    assert is_full(examples.ternary_full_set())
    # a tree that can never emit '11...' does not fill the code space
    sparse = CodeTreeSet([tree([""], [("0", 0), ("10", 0)])])
    assert not is_full(sparse)
    # a start mode other than {λ} is never full
    shifted = CodeTreeSet([tree(["0", "1"], [("00", 0), ("01", 0)])])
    assert validate(shifted).ok
    assert not is_full(shifted)


def test_check_delay_budget():
    ts = examples.binary_delay3_set()
    assert check_delay_budget(ts, 3)
    assert not check_delay_budget(ts, 2)
    assert check_delay_budget(examples.instantaneous_huffman_set(), 0)
    with pytest.raises(ValueError):
        check_delay_budget(ts, -1)


def test_random_sets_valid_by_construction():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        ts = random_valid_tree_set(rng)
        assert validate(ts).ok


def test_exactly_one_symbol_matches_each_expansion():
    # the decoder's match rule picks a unique symbol for every stream a
    # tree can emit: replay the rule on each expanded codeword
    rng = random.Random(SEED + 2)
    sets = [examples.binary_delay3_set(), examples.ternary_full_set(),
            examples.skewed_delay3_set()] \
        + [random_valid_tree_set(rng) for _ in range(30)]
    for ts in sets:
        for k in range(ts.tree_count):
            for a in range(ts.symbol_count):
                for word in expand(ts, k, a):
                    matched = []
                    for cand in range(ts.symbol_count):
                        cw = ts.trees[k].cwords[cand]
                        if not is_prefix(cw, word):
                            continue
                        rest = strip_prefix(cw, word)
                        mode = ts.trees[ts.trees[k].points[cand]].mode
                        if any(is_prefix(q, rest) for q in mode):
                            matched.append(cand)
                    assert matched == [a]


# a 1400-bit word for the long explicit cases below
LONG = "01" * 700


@st.composite
def arbitrary_tree_sets(draw):
    # short words make duplicates, nested modes and crossings common;
    # some sets also put one long shared stem in front of some words, so
    # that the validator's integers run to 64-1500 bits
    word = st.text("01", max_size=3).map(bits)
    stem_len = draw(st.sampled_from([0, 64, 1500]))
    if stem_len:
        stem = BitString(draw(st.integers(0, (1 << stem_len) - 1)), stem_len)
        word = word | word.map(lambda w: stem + w)
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    trees = [CodeTree(draw(st.lists(word, min_size=m, max_size=m)),
                      draw(st.lists(st.integers(0, k - 1),
                                    min_size=m, max_size=m)),
                      draw(st.frozensets(word, min_size=1, max_size=3)))
             for _ in range(k)]
    return CodeTreeSet(trees)


def assert_reports_match_oracle(ts):
    expected = tuple(validate_oracle(ts))
    assert validate(ts, "direct").violations \
        == validate(ts, "interval").violations == expected


@settings(deadline=None)
@given(arbitrary_tree_sets())
# the same expanded word '0' for symbols a and b
@example(CodeTreeSet([tree([""], [("0", 0), ("0", 0), ("1", 0)])]))
# a's three expanded words cross two words of b and one of c
@example(CodeTreeSet([
    tree([""], [("", 1), ("0", 0), ("1", 0)]),
    tree(["00", "01", "10"], [("00", 0), ("01", 0), ("10", 0)]),
]))
# nested mode members: '' and '01' both open under '011'
@example(CodeTreeSet([
    tree(["", "01"], [("0", 1), ("011", 0)]),
    tree(["", "01"], [("1", 0), ("", 1)]),
]))
# the same long expanded word for symbols a and b, and a long mode
# member nested under the empty one
@example(CodeTreeSet([
    tree([""], [(LONG, 1), (LONG, 1), ("1", 0)]),
    tree(["", LONG], [("", 0), (LONG + "0", 0), (LONG + "1", 1)]),
]))
def test_validate_matches_pair_oracle(ts):
    assert_reports_match_oracle(ts)


def stretch(ts, rng, width):
    """ts with every bit b replaced by a width-bit block ``zero`` or ``one``.

    The blocks are complements of each other, so they have equal length
    and differ in their first bit: the map keeps every prefix and
    comparability relation, so a valid set stays valid and its delay
    grows width-fold.
    """
    zero = BitString(rng.getrandbits(width), width)
    one = BitString(zero.value ^ ((1 << width) - 1), width)

    def blocks(w):
        out = BitString()
        for b in w:
            out = out + (one if b else zero)
        return out

    return CodeTreeSet([CodeTree([blocks(w) for w in t.cwords], t.points,
                                 [blocks(q) for q in t.mode])
                        for t in ts.trees], ts.symbols)


@settings(deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([1, 64, 300]))
def test_validate_and_delay_match_oracles_on_generated_sets(rng, width):
    # width 64 and 300 stretch the words to 64-1500 bits
    base = random_valid_tree_set(rng)
    ts = stretch(base, rng, width)
    assert_reports_match_oracle(ts)
    assert decoding_delay(ts) == width * decoding_delay(base) == max(
        q.length for k, t in enumerate(ts.trees) for q in t.mode
        if any(is_prefix(q, w) for ws in expands(ts, k) for w in ws))
    assert_reports_match_oracle(mutate_tree_set(rng, ts))


def test_validate_scales_to_large_trees():
    # the all-pairs loop needs seconds on the 4096-leaf tree alone
    leaves12 = [BitString(v, 12) for v in range(4096)]
    leaves10 = [BitString(v, 10) for v in range(1024)]
    alternate = [a % 2 for a in range(1024)]
    sets = [
        CodeTreeSet([CodeTree(leaves12, [0] * 4096, [bits("")])]),
        CodeTreeSet([CodeTree(leaves10, alternate, [bits("")]),
                     CodeTree(leaves10, alternate, [bits("0"), bits("1")])]),
    ]
    start = time.perf_counter()
    reports = [validate(ts, method) for ts in sets
               for method in ("direct", "interval")]
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in reports)
    assert elapsed < 1.0, f"validation took {elapsed:.2f} s"

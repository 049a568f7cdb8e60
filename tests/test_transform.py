"""Transforms: basic-mode conversion, VV tables, conventional imports."""

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from aifv.bitstring import is_prefix
from aifv.codec import decode, encode
from aifv.codetree import CodeTree, CodeTreeSet, decoding_delay, validate
from aifv.errors import (AifvError, DepthExceeded, NormalizationFailed,
                         StructureViolation)
from aifv.formats import (dumps_document, parse_conventional,
                          parse_vv_table, tree_set_to_doc)
from aifv.transform import (VVCodeTable, _infer_modes, _normalize_vv,
                            equivalent_up_to_termination, import_aifv2,
                            import_aifvm, to_basic, vv_to_tree_set)
from aifv import examples

from conftest import (bits, doc_oracle, import_oracle, imported_examples,
                      infer_modes_oracle, long_codeword_doc,
                      random_valid_tree_set, texts, to_basic_oracle)

SEED = 20240815


def tree(mode, rows):
    return CodeTree([bits(w) for w, _ in rows], [p for _, p in rows],
                    [bits(q) for q in mode])


def load_conventional(doc):
    kind, m, convention, symbols, trees = parse_conventional(doc)
    if kind == "aifv2":
        return import_aifv2(trees, symbols)
    return import_aifvm(trees, m, symbols, convention)


def test_to_basic_pinned_conversion():
    ts = examples.ternary_full_set()
    basic = to_basic(ts)
    assert [texts(t.mode) for t in basic.trees] \
        == [[""], ["0", "10"], ["011", "10"]]
    assert [w.text() for w in basic.trees[0].cwords] == ["0", "", "11"]
    assert [w.text() for w in basic.trees[1].cwords] == ["00", "01", "10"]
    assert [w.text() for w in basic.trees[2].cwords] == ["011", "100", "101"]
    assert [t.points for t in basic.trees] == [t.points for t in ts.trees]
    # encoding 'ca' drops one bit
    assert encode(ts, [2, 0]).bits == bits("11000")
    assert encode(basic, [2, 0]).bits == bits("1100")
    assert validate(basic).ok
    assert equivalent_up_to_termination(ts, basic, max_len=4)


def test_to_basic_matches_the_bit_string_oracle():
    rng = random.Random(SEED + 5)
    sets = [examples.binary_delay3_set(), examples.instantaneous_huffman_set(),
            examples.ternary_full_set(), examples.skewed_delay3_set(),
            *imported_examples(),
            vv_to_tree_set(parse_vv_table(examples.tunstall_vv_doc()))]
    sets += [random_valid_tree_set(rng) for _ in range(100)]
    for ts in sets:
        basic, want = to_basic(ts), to_basic_oracle(ts)
        assert (basic.rows, basic.queries, basic.symbols, basic.tree_names) \
            == (want.rows, want.queries, want.symbols, want.tree_names)
        assert dumps_document(tree_set_to_doc(basic)) \
            == dumps_document(doc_oracle(want))
        # a basic set is its own basic form
        assert to_basic(basic).rows == basic.rows


def test_to_basic_keeps_already_basic_sets():
    ts = examples.binary_delay3_set()
    basic = to_basic(ts)
    for before, after in zip(ts.trees, basic.trees):
        assert before.cwords == after.cwords
        assert before.mode == after.mode
        assert before.points == after.points


def test_to_basic_shifts_mode_prefix_across_trees():
    ts = CodeTreeSet([
        tree([""], [("1", 1), ("0", 0)]),
        tree(["10", "11"], [("11", 0), ("10", 0)]),
    ])
    assert validate(ts).ok
    basic = to_basic(ts)
    assert texts(basic.trees[1].mode) == [""]
    assert [w.text() for w in basic.trees[0].cwords] == ["11", "0"]
    assert [w.text() for w in basic.trees[1].cwords] == ["1", "0"]
    assert validate(basic).ok
    assert equivalent_up_to_termination(ts, basic, max_len=5)


def test_to_basic_random_sets_stay_equivalent():
    from aifv.wordset import common_prefix
    rng = random.Random(SEED)
    compared = dropped = 0
    for _ in range(40):
        ts = random_valid_tree_set(rng)
        basic = to_basic(ts)
        assert validate(basic).ok
        for t in basic.trees:
            assert common_prefix(t.mode) == bits("")
        head = common_prefix(ts.trees[0].mode)
        if head == bits(""):
            assert equivalent_up_to_termination(ts, basic, max_len=4)
            compared += 1
        else:
            # start modes with a constant prefix lose it wholesale;
            # every original encoding starts with those bits
            for seq in itertools.product(range(ts.symbol_count), repeat=2):
                assert is_prefix(head, encode(ts, seq).bits)
            dropped += 1
    assert compared > 20 and dropped >= 2


def test_to_basic_drops_constant_leading_bits():
    ts = CodeTreeSet([tree(["10", "11"], [("10", 0), ("11", 0)])])
    assert validate(ts).ok
    basic = to_basic(ts)
    assert texts(basic.trees[0].mode) == [""]
    assert [w.text() for w in basic.trees[0].cwords] == ["01", "11"]
    # the original spends a constant '1' up front plus termination bits
    assert encode(ts, [0]).bits == bits("1010")
    assert encode(basic, [0]).bits == bits("01")
    assert encode(ts, [1, 0]).bits == bits("111010")
    assert encode(basic, [1, 0]).bits == bits("1101")
    assert decode(basic, encode(basic, (1, 0, 0, 1)).bits, 4).symbols \
        == (1, 0, 0, 1)


def test_equivalence_tolerates_diverging_terminations():
    # same bodies, different termination words: equal after truncation
    one = CodeTreeSet([tree(["0", "1"], [("0", 0), ("10", 0)])])
    other = CodeTreeSet([tree(["1", "00", "01"], [("0", 0), ("10", 0)])])
    assert validate(one).ok and validate(other).ok
    assert equivalent_up_to_termination(one, other, max_len=5)


def test_equivalence_rejects_different_codes():
    ts = examples.binary_delay3_set()
    flat = CodeTreeSet([tree([""], [("0", 0), ("1", 0)])])
    assert not equivalent_up_to_termination(ts, flat, max_len=3)
    # alphabet size mismatch is an immediate mismatch
    assert not equivalent_up_to_termination(
        ts, examples.ternary_full_set(), max_len=2)


def test_vv_pair_huffman_pinned():
    table = parse_vv_table(examples.pair_huffman_vv_doc())
    ts = vv_to_tree_set(table)
    assert ts.tree_names == ("", "a", "b", "c")
    assert [w.text() for w in ts.trees[0].cwords] == ["0", "1", "1"]
    assert ts.trees[0].points == (1, 2, 3)
    assert [w.text() for w in ts.trees[1].cwords] == ["0", "10", "11"]
    assert ts.trees[1].points == (0, 0, 0)
    assert texts(ts.trees[2].mode) == ["01", "100", "110"]
    assert encode(ts, [0, 0, 0]).bits == bits("000")
    assert encode(ts, [2, 0, 0, 1, 2]).bits == bits("100010100")


def test_vv_tunstall_pinned():
    table = parse_vv_table(examples.tunstall_vv_doc())
    ts = vv_to_tree_set(table)
    assert ts.tree_names == ("", "a", "b", "aa", "ab", "ba", "aaa")
    assert encode(ts, [1, 0, 1, 0]).bits == bits("1100")
    assert encode(ts, [0, 1, 0, 1, 0]).bits == bits("011101")
    assert decoding_delay(ts) == 3
    # the per-tree structure mirrors the table
    by_name = dict(zip(ts.tree_names, ts.trees))
    assert [w.text() for w in by_name["aa"].cwords] == ["0", "10"]
    assert by_name["aa"].points == (6, 0)
    assert [w.text() for w in by_name["aaa"].cwords] == ["0", "1"]
    assert texts(by_name["ba"].mode) == ["01", "10"]


def test_vv_round_trip_random_sequences():
    rng = random.Random(SEED + 1)
    for doc in [examples.pair_huffman_vv_doc(), examples.tunstall_vv_doc()]:
        ts = vv_to_tree_set(parse_vv_table(doc))
        assert validate(ts).ok
        for _ in range(50):
            n = rng.randint(0, 10)
            seq = tuple(rng.randrange(ts.symbol_count) for _ in range(n))
            result = encode(ts, seq)
            assert decode(ts, result.bits, n).symbols == seq


def test_vv_normalization_raises_understated_prefixes():
    # a state entered with fewer declared bits than its parent
    # guarantees gets lifted onto the parent's prefix
    doc = examples.tunstall_vv_doc()
    doc["states"]["ba"] = {"lcword": "", "follow": ["101", "110"]}
    lifted = vv_to_tree_set(parse_vv_table(doc))
    reference = vv_to_tree_set(parse_vv_table(examples.tunstall_vv_doc()))
    assert lifted.tree_names == reference.tree_names
    for a, b in zip(lifted.trees, reference.trees):
        assert a.cwords == b.cwords
        assert a.points == b.points
        assert a.mode == b.mode


def test_vv_normalization_lowers_overstated_prefixes():
    # a block codeword shorter than its parent's declared guarantee
    # pushes the surplus bits into the parent's follow set
    table = VVCodeTable(
        depth=2, symbols=["a", "b"],
        lcwords={(): bits(""), (0,): bits("00")},
        follows={(): [bits("")], (0,): [bits("0"), bits("1")]},
        blocks={(0, 0): bits("000"), (0, 1): bits("0"), (1,): bits("1")})
    lcwords, follows = _normalize_vv(table)
    assert lcwords[(0,)] == bits("0")
    assert follows[(0,)] == frozenset([bits("00"), bits("01")])
    # the full conversion still rejects this table: symbol b's block
    # word is a prefix of every stream symbol a can produce
    with pytest.raises(NormalizationFailed):
        vv_to_tree_set(table)


def test_vv_normalization_lowers_a_parent_onto_a_shorter_child_state():
    # state "ab" guarantees only "0", and "0" + its follow "1" leaves
    # the parent's "00", so the parent "a" is lowered onto "0" rather
    # than the child raised
    table = VVCodeTable(
        depth=3, symbols=["a", "b"],
        lcwords={(): bits(""), (0,): bits("00"), (0, 1): bits("0")},
        follows={(): [bits("")], (0,): [bits("0"), bits("1")],
                 (0, 1): [bits("1")]},
        blocks={(0, 0): bits("000"), (0, 1, 0): bits("010"),
                (0, 1, 1): bits("011"), (1,): bits("1")})
    lcwords, follows = _normalize_vv(table)
    assert lcwords == {(): bits(""), (0,): bits("0"), (0, 1): bits("0")}
    assert follows == {(): frozenset([bits("")]),
                       (0,): frozenset([bits("00"), bits("01")]),
                       (0, 1): frozenset([bits("1")])}
    with pytest.raises(NormalizationFailed) as err:
        vv_to_tree_set(table)
    assert str(err.value) == "normalized table is not decodable: tree 1: " \
        "expanded codeword '1' (b) has no prefix in the tree's mode"


def test_vv_normalization_refuses_a_parent_lowered_by_two_children():
    # child state "aa" lowers state "a" from "000" to "0"; block "ab"
    # then asks to lower "a" to "00", which it is already lowered past
    table = VVCodeTable(
        depth=3, symbols=["a", "b"],
        lcwords={(): bits(""), (0,): bits("000"), (0, 0): bits("0")},
        follows={(): [bits("")], (0,): [bits("")], (0, 0): [bits("1")]},
        blocks={(0, 0, 0): bits("010"), (0, 0, 1): bits("011"),
                (0, 1): bits("00"), (1,): bits("1")})
    with pytest.raises(NormalizationFailed) as err:
        vv_to_tree_set(table)
    assert str(err.value) == "normalized table is not decodable: " \
        "tree 1: expanded codeword '1' (a) has no prefix in the tree's " \
        "mode; tree 1: expanded codeword '0' (b) has no prefix in the " \
        "tree's mode"


def test_vv_normalization_rejects_an_incomparable_child_state():
    table = VVCodeTable(
        depth=3, symbols=["a", "b"],
        lcwords={(): bits(""), (0,): bits("00"), (0, 0): bits("01")},
        follows={(): [bits("")], (0,): [bits("0"), bits("1")],
                 (0, 0): [bits("0"), bits("1")]},
        blocks={(0, 0, 0): bits("010"), (0, 0, 1): bits("011"),
                (0, 1): bits("01"), (1,): bits("1")})
    with pytest.raises(NormalizationFailed) as err:
        _normalize_vv(table)
    assert str(err.value) == \
        "state (0, 0): guaranteed bits '01' conflict with '00'"


def test_vv_normalization_rejects_incomparable_words():
    table = VVCodeTable(
        depth=2, symbols=["a", "b"],
        lcwords={(): bits(""), (0,): bits("01")},
        follows={(): [bits("")], (0,): [bits("")]},
        blocks={(0, 0): bits("010"), (0, 1): bits("1"), (1,): bits("1")})
    with pytest.raises(NormalizationFailed):
        vv_to_tree_set(table)


def test_vv_table_structural_checks():
    root = {(): bits("")}
    root_f = {(): [bits("")]}
    with pytest.raises(StructureViolation):  # missing root
        VVCodeTable(2, ["a", "b"], {}, {}, {(0,): bits("0"),
                                            (1,): bits("1")})
    with pytest.raises(StructureViolation):  # root carries bits
        VVCodeTable(2, ["a", "b"], {(): bits("1")}, root_f,
                    {(0,): bits("0"), (1,): bits("1")})
    with pytest.raises(StructureViolation):  # incomplete state
        VVCodeTable(2, ["a", "b"], root, root_f, {(0,): bits("0")})
    with pytest.raises(StructureViolation):  # orphan block
        VVCodeTable(2, ["a", "b"], root, root_f,
                    {(0,): bits("0"), (1,): bits("1"),
                     (0, 0): bits("00")})
    with pytest.raises(StructureViolation):  # unknown recurrence target
        VVCodeTable(2, ["a", "b"], root, root_f,
                    {(0,): bits("0"), (1,): bits("1")},
                    recurrences={(0,): (1,)})
    with pytest.raises(DepthExceeded):  # state as long as the depth
        VVCodeTable(1, ["a", "b"],
                    {(): bits(""), (0,): bits("0")},
                    {(): [bits("")], (0,): [bits("")]},
                    {(0, 0): bits("00"), (0, 1): bits("01"),
                     (1,): bits("1")})
    with pytest.raises(DepthExceeded):  # block past the depth
        VVCodeTable(1, ["a", "b"], root, root_f,
                    {(0,): bits("0"), (1, 0): bits("10")})
    full = {(0,): bits("0"), (1,): bits("1")}
    for args, message in [
            (([], root, root_f, {}), "a VV code needs at least one symbol"),
            ((["a", "b"], root, {(): [bits("")], (0,): [bits("")]}, full),
             "states with codewords and states with follow sets differ"),
            ((["a", "b"], {(): bits(""), (2,): bits("")},
              {(): [bits("")], (2,): [bits("")]}, full),
             "state (2,) uses unknown symbols"),
            ((["a", "b"], root, {(): []}, full),
             "state () has an empty follow set"),
            ((["a", "b"], root, root_f, full, {(0, 0): ()}),
             "recurrence on unknown block (0, 0)")]:
        with pytest.raises(StructureViolation) as err:
            VVCodeTable(2, *args)
        assert str(err.value) == message


def test_import_aifv2_pinned():
    ts = load_conventional(examples.quaternary_aifv2_doc())
    assert ts.symbols == ("a", "b", "c", "d")
    assert [texts(t.mode) for t in ts.trees] == [[""], ["01", "1"]]
    assert [t.points for t in ts.trees] \
        == [(0, 0, 1, 0), (0, 0, 1, 0)]
    assert decoding_delay(ts) == 2
    result = encode(ts, [0, 2, 2, 0])
    assert result.bits == bits("0111101")
    assert decode(ts, result.bits, 4).symbols == (0, 2, 2, 0)


def test_import_aifv2_accepts_raw_codeword_lists():
    ts = import_aifv2([
        [bits("0"), bits("10"), bits("11"), bits("1100")],
        [bits("01"), bits("10"), bits("11"), bits("1100")],
    ])
    assert ts.symbols == ("a", "b", "c", "d")
    assert decoding_delay(ts) == 2


def test_import_aifvm_degree_convention_pinned():
    ts = load_conventional(examples.quaternary_aifv3_doc())
    assert [texts(t.mode) for t in ts.trees] \
        == [[""], ["01", "1"], ["001", "1"]]
    assert [t.points for t in ts.trees] \
        == [(0, 0, 1, 0), (0, 0, 2, 0), (0, 0, 1, 0)]
    assert decoding_delay(ts) == 3


def test_import_aifvm_complement_convention_pinned():
    ts = load_conventional(examples.skewed_aifv3_doc())
    assert [texts(t.mode) for t in ts.trees] \
        == [[""], ["001", "01", "1"], ["01", "1"]]
    assert [t.points for t in ts.trees] \
        == [(1, 0, 1, 0), (2, 0, 1, 0), (0, 0, 1, 0)]
    assert decoding_delay(ts) == 3
    rng = random.Random(SEED + 2)
    for _ in range(30):
        n = rng.randint(0, 8)
        seq = tuple(rng.randrange(4) for _ in range(n))
        assert decode(ts, encode(ts, seq).bits, n).symbols == seq


def test_import_rejects_bad_structure():
    fig_t1 = [bits("01"), bits("10"), bits("11"), bits("1100")]
    with pytest.raises(StructureViolation):  # symbol on a complete node
        import_aifv2([[bits("0"), bits("00"), bits("01"), bits("1")],
                      fig_t1])
    with pytest.raises(StructureViolation):  # two symbols on one node
        import_aifv2([[bits("0"), bits("0"), bits("1"), bits("11")],
                      fig_t1])
    with pytest.raises(StructureViolation):  # master hangs on a '1' edge
        import_aifv2([[bits("0"), bits("10"), bits("11"), bits("111")],
                      fig_t1])
    with pytest.raises(StructureViolation):  # wrong tree count
        import_aifv2([fig_t1])
    # tree 1's root rule: the '0' side must be a bare '1'-linked node
    with pytest.raises(StructureViolation):
        import_aifv2([[bits("0"), bits("10"), bits("11"), bits("1100")],
                      [bits("00"), bits("01"), bits("10"), bits("11")]])


def test_import_aifv2_refusal_messages():
    fig = examples.quaternary_aifv2_doc()["trees"]
    fig_t0, fig_t1 = ([bits(w) for w in t["codewords"]] for t in fig)
    # symbol 1 sits on '1' whose single '0' child is itself a symbol
    with pytest.raises(StructureViolation) as err:
        import_aifv2([[bits("0"), bits("1"), bits("10")], fig_t1])
    assert str(err.value) == \
        "tree 0: symbol 1 is not two '0' edges above its subtree"
    with pytest.raises(StructureViolation) as err:
        import_aifv2([fig_t0, [bits("00"), bits("01")]])
    assert str(err.value) == "tree 1: the root must have both children"


def test_importers_refuse_an_empty_tree():
    # a tree with no codeword is a root leaf that carries no symbol
    for trees in ([[], []], [[bits("0"), bits("1")], []]):
        with pytest.raises(StructureViolation, match="carries no symbol"):
            import_aifv2(trees)
        with pytest.raises(StructureViolation, match="carries no symbol"):
            import_aifvm(trees, 2)


def test_import_aifvm_rejects_deep_chains_and_bad_m():
    # a chain of two bare '0'-linked nodes needs at least three trees
    deep = [bits(""), bits("000")]
    with pytest.raises(StructureViolation):
        import_aifvm([deep, deep], 2)
    with pytest.raises(StructureViolation):
        import_aifvm([deep], 1)
    with pytest.raises(StructureViolation):  # tree count != m
        import_aifvm([[bits("0"), bits("1")]], 3)
    with pytest.raises(ValueError):
        import_aifvm([[bits("0"), bits("1")]], 1, convention="sideways")


def test_import_rejects_undecodable_trees():
    # both symbols funnel into the same bit patterns
    same = [bits("0"), bits("00")]
    with pytest.raises(StructureViolation) as err:
        import_aifvm([same, same], 2)
    assert "not decodable" in str(err.value)


def import_outcome(run):
    try:
        return dumps_document(tree_set_to_doc(run()))
    except AifvError as exc:
        return type(exc), str(exc)


CONVENTIONAL_DOCS = [examples.quaternary_aifv2_doc(),
                     examples.quaternary_aifv3_doc(),
                     examples.skewed_aifv3_doc()]


@st.composite
def conventional_trees(draw):
    # random codeword lists, or an example's trees with a few words
    # edited; m may differ from the tree count
    word = st.text("01", max_size=5)
    if draw(st.booleans()):
        n = draw(st.integers(0, 5))
        trees = draw(st.lists(st.lists(word, min_size=n, max_size=n),
                              min_size=1, max_size=4))
    else:
        doc = draw(st.sampled_from(CONVENTIONAL_DOCS))
        trees = [list(tree["codewords"]) for tree in doc["trees"]]
        for _ in range(draw(st.integers(1, 3))):
            tree = trees[draw(st.integers(0, len(trees) - 1))]
            a = draw(st.integers(0, len(tree) - 1))
            w = tree[a]
            tree[a] = draw(st.sampled_from([w[:-1], w + "0", w + "00",
                                            w + "1"]) | word)
    m = draw(st.integers(1, len(trees) + 1))
    return [[bits(w) for w in tree] for tree in trees], m


@settings(deadline=None, max_examples=300)
@given(conventional_trees(), st.sampled_from(["degree", "complement"]))
def test_importers_match_node_walk(case, convention):
    trees, m = case
    assert import_outcome(lambda: import_aifv2(trees)) \
        == import_outcome(lambda: import_oracle("aifv2", trees))
    assert import_outcome(lambda: import_aifvm(trees, m, None, convention)) \
        == import_outcome(lambda: import_oracle("aifvm", trees, m, None,
                                                convention))


def test_imports_of_a_long_codeword_finish_quickly():
    _, _, _, _, trees = parse_conventional(long_codeword_doc())
    for run in (lambda: import_aifv2(trees), lambda: import_aifvm(trees, 2)):
        started = time.perf_counter()
        with pytest.raises(StructureViolation, match="cannot be reached"):
            run()
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"import took {elapsed:.2f} s"


@st.composite
def codeword_tables(draw):
    # [k] -> [(codeword, successor)], as the importers build them; short
    # and empty codewords make cycles that add no bits
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    entry = st.tuples(st.text("01", max_size=5).map(bits),
                      st.integers(0, k - 1))
    tables = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                           min_size=k, max_size=k))
    return tables, draw(st.integers(1, 6))


def codeword_rows(*rows):
    return [[(bits(w), point) for w, point in row] for row in rows]


@settings(deadline=None)
@given(codeword_tables())
# a cycle of empty codewords emits nothing: both modes are {''}
@example((codeword_rows([("", 1)], [("", 0)]), 2))
# tree 0 emits '1' and hands over to a tree that never emits a bit
@example((codeword_rows([("1", 1)], [("", 1)]), 2))
# tree 0 reaches tree 2's bits through two empty codewords
@example((codeword_rows([("", 1), ("00", 0)], [("", 2)], [("1", 0)]), 3))
def test_infer_modes_matches_walk(case):
    tables, n_bits = case
    assert _infer_modes(tables, n_bits) == infer_modes_oracle(tables, n_bits)


def test_mode_inference_is_not_exponential():
    # every stream of 16 two-leaf trees can start with each of the 2**16
    # patterns; walking them all took about 10 s
    tables = codeword_rows(*[[("0", 0), ("1", 0)]] * 16)
    assert _infer_modes(tables, 16) == [frozenset([bits("")])] * 16
    started = time.perf_counter()
    # only tree 0 is reachable, so the import ends in a refusal
    with pytest.raises(StructureViolation, match="cannot be reached"):
        import_aifvm([[bits("0"), bits("1")]] * 16, 16)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"import took {elapsed:.2f} s"

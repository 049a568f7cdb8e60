"""Serialization: JSON documents and the framed bit-stream container."""

import json
import sys
import random

import pytest
from hypothesis import given, settings, strategies as st

from aifv.bitstring import BitString
from aifv.codetree import CodeTreeSet, check_delay_budget, validate
from aifv.errors import FormatError
from aifv.formats import (dumps_document, loads_document, parse_conventional,
                          parse_distribution, parse_tree_set, parse_vv_table,
                          read_bitstream, tree_set_to_doc, write_bitstream)
from aifv.transform import to_basic
from aifv import examples

from conftest import (bits, doc_oracle, json_values, mutate_tree_set,
                      random_valid_tree_set, small_headers)

SEED = 20240816


def test_document_round_trip_is_byte_identical():
    ts = examples.binary_delay3_set()
    doc = tree_set_to_doc(ts)
    text = dumps_document(doc)
    again = dumps_document(tree_set_to_doc(parse_tree_set(loads_document(text))))
    assert again == text
    assert text.endswith("\n")
    # canonical form: keys sorted, stable indentation
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_document_round_trip_random_sets():
    rng = random.Random(SEED)
    for _ in range(25):
        ts = random_valid_tree_set(rng)
        doc = tree_set_to_doc(ts)
        back = parse_tree_set(doc)
        assert back.symbols == ts.symbols
        for a, b in zip(back.trees, ts.trees):
            assert a.cwords == b.cwords
            assert a.points == b.points
            assert a.mode == b.mode


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_writer_and_delay_budget_match_tree_oracles(rng):
    ts = random_valid_tree_set(rng)
    broken = mutate_tree_set(rng, ts)
    sets = [ts, broken, to_basic(ts)]
    if validate(broken).ok:
        sets.append(to_basic(broken))
    for plain in sets:
        names = [f"T{k}" for k in range(plain.tree_count)]
        for named in (plain, CodeTreeSet(plain.trees, plain.symbols, names)):
            assert dumps_document(tree_set_to_doc(named)) \
                == dumps_document(doc_oracle(named))
        longest = max(q.length for t in plain.trees for q in t.mode)
        for n in range(longest + 2):
            assert check_delay_budget(plain, n) == (longest <= n)


def test_document_preserves_names_and_references():
    doc = {
        "alphabet": ["x", "y"],
        "trees": [
            {"name": "start", "mode": [""],
             "codewords": ["0", "1"], "next": ["other", "start"]},
            {"name": "other", "mode": ["0", "1"],
             "codewords": ["00", "11"], "next": [0, "start"]},
        ],
    }
    ts = parse_tree_set(doc)
    assert ts.symbols == ("x", "y")
    assert ts.tree_names == ("start", "other")
    assert ts.trees[0].points == (1, 0)
    assert ts.trees[1].points == (0, 0)
    out = tree_set_to_doc(ts)
    assert out["trees"][0]["name"] == "start"
    assert out["trees"][0]["next"] == [1, 0]


def test_document_parse_errors():
    good = tree_set_to_doc(examples.binary_delay3_set())

    def broken(mutate):
        doc = json.loads(dumps_document(good))
        mutate(doc)
        with pytest.raises(FormatError):
            parse_tree_set(doc)

    broken(lambda d: d.pop("trees"))
    broken(lambda d: d.__setitem__("trees", []))
    broken(lambda d: d.__setitem__("alphabet", "ab"))
    broken(lambda d: d.__setitem__("alphabet", 0))
    broken(lambda d: d.__setitem__("alphabet", ["a", "a"]))
    broken(lambda d: d["trees"][0].__setitem__("mode", []))
    broken(lambda d: d["trees"][0].__setitem__("mode", ["012"]))
    broken(lambda d: d["trees"][0].__setitem__("codewords", ["0"]))
    broken(lambda d: d["trees"][0].__setitem__("next", [0]))
    broken(lambda d: d["trees"][0]["next"].__setitem__(0, 99))
    broken(lambda d: d["trees"][0]["next"].__setitem__(0, "nowhere"))
    broken(lambda d: d["trees"][0].__setitem__("name", "dup") or
           d["trees"][1].__setitem__("name", "dup"))
    broken(lambda d: d["trees"][0].__setitem__("name", "only-one"))
    # bools are not bits
    broken(lambda d: d["trees"][0].__setitem__("codewords",
                                               [True, "1"]))
    # bools are not symbol counts, even where a count of 1 would fit
    one = {"alphabet": 1,
           "trees": [{"mode": [""], "codewords": [""], "next": [0]}]}
    assert parse_tree_set(one).symbol_count == 1
    for flag in (True, False):
        with pytest.raises(FormatError):
            parse_tree_set(dict(one, alphabet=flag))
    with pytest.raises(FormatError):
        loads_document("{not json")
    with pytest.raises(FormatError):
        loads_document("[1, 2]")


@settings(deadline=None, max_examples=300)
@given(json_values)
def test_parsers_end_in_a_result_or_format_error(doc):
    for parse in (parse_tree_set, parse_vv_table, parse_conventional):
        try:
            parse(doc)
        except FormatError:
            pass


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int string-digit limit")
def test_oversized_integer_is_a_format_error():
    text = '{"alphabet": ' + "9" * 5000 + ', "trees": []}'
    with pytest.raises(FormatError, match="unreadable JSON value"):
        loads_document(text)


def test_parse_distribution():
    assert parse_distribution({"probs": [0.25, 0.75]}) == [0.25, 0.75]
    assert parse_distribution([0.5, 0.5]) == [0.5, 0.5]
    with pytest.raises(FormatError):
        parse_distribution({"probs": "half"})
    with pytest.raises(FormatError):
        parse_distribution({})
    with pytest.raises(FormatError):
        parse_distribution({"probs": [0.5, True]})


def test_parse_distribution_refuses_an_integer_beyond_float_range():
    with pytest.raises(FormatError, match="too large"):
        parse_distribution([10 ** 400, 0])
    with pytest.raises(FormatError, match="too large"):
        parse_distribution({"probs": [0.5, -10 ** 400]})


def test_parse_conventional_documents():
    kind, m, convention, symbols, trees = parse_conventional(
        examples.quaternary_aifv2_doc())
    assert (kind, m) == ("aifv2", 2)
    assert symbols == ["a", "b", "c", "d"]
    assert len(trees) == 2
    assert [w.text() for w in trees[0]] == ["0", "10", "11", "1100"]

    kind, m, convention, symbols, trees = parse_conventional(
        examples.skewed_aifv3_doc())
    assert (kind, m, convention) == ("aifvm", 3, "complement")

    with pytest.raises(FormatError):
        parse_conventional({"kind": "huffman",
                            "trees": [{"codewords": ["0"]}]})
    with pytest.raises(FormatError):
        parse_conventional({"kind": "aifv2", "trees": []})
    with pytest.raises(FormatError):  # alphabet sizes disagree
        parse_conventional({"kind": "aifv2",
                            "trees": [{"codewords": ["0", "1"]},
                                      {"codewords": ["0"]}]})
    with pytest.raises(FormatError):
        parse_conventional({"kind": "aifvm", "m": "three",
                            "trees": [{"codewords": ["0", "1"]}]})


def test_parse_vv_table_documents():
    table = parse_vv_table(examples.tunstall_vv_doc())
    assert table.depth == 4
    assert table.symbols == ("a", "b")
    assert table.lcwords[(1, 0)] == bits("1")
    assert table.follows[(1, 0)] == frozenset([bits("01"), bits("10")])
    assert table.blocks[(0, 0, 0, 0)] is not None
    # recurrence entries name the state the encoder returns to
    doc = examples.tunstall_vv_doc()
    doc["blocks"]["aaab"] = {"codeword": doc["blocks"]["aaab"],
                             "recurrence": "a"}
    table = parse_vv_table(doc)
    assert table.recurrences[(0, 0, 0, 1)] == (0,)

    with pytest.raises(FormatError):
        parse_vv_table({"depth": "x", "symbols": ["a"],
                        "states": {}, "blocks": {}})
    bad = examples.tunstall_vv_doc()
    bad["states"]["zz"] = {"lcword": "", "follow": [""]}
    with pytest.raises(FormatError):
        parse_vv_table(bad)
    bad = examples.tunstall_vv_doc()
    bad["states"]["a"]["follow"] = []
    with pytest.raises(FormatError):
        parse_vv_table(bad)
    # structural violations surface as format errors too
    bad = examples.tunstall_vv_doc()
    del bad["states"][""]
    with pytest.raises(FormatError):
        parse_vv_table(bad)


def test_parse_vv_table_rejects_two_spellings_of_one_key():
    # "a a" and "aa" both name the sequence (0, 0); neither may silently
    # replace the other
    bad = examples.tunstall_vv_doc()
    bad["states"]["a a"] = {"lcword": "1", "follow": ["0"]}
    with pytest.raises(FormatError, match="'a a'"):
        parse_vv_table(bad)
    bad = examples.tunstall_vv_doc()
    bad["blocks"]["b b"] = bad["blocks"]["bb"]
    with pytest.raises(FormatError, match="'b b'"):
        parse_vv_table(bad)


def test_bad_bit_strings_are_one_format_error():
    # whatever is wrong with a word, the message is the same
    for word in ["01x", "0b1", "1_0", " 1", "1 ", "0\u0661", 1, True, None,
                 ["0"]]:
        doc = {"kind": "aifv2", "trees": [{"codewords": ["0", word]},
                                          {"codewords": ["0", "1"]}]}
        message = f"tree 0: expected a string of bits, got {word!r}"
        with pytest.raises(FormatError) as err:
            parse_conventional(doc)
        assert str(err.value) == message
    doc = {"kind": "aifv2", "trees": [{"codewords": ["", "0" * 3000]}]}
    assert parse_conventional(doc)[4][0][1] == BitString(0, 3000)
    # a code-tree set document names the tree and the list, once
    good = tree_set_to_doc(examples.binary_delay3_set())
    for key, word in [("codewords", "x"), ("mode", 5)]:
        doc = json.loads(dumps_document(good))
        doc["trees"][1][key][-1] = word
        with pytest.raises(FormatError) as err:
            parse_tree_set(doc)
        assert str(err.value) == \
            f"tree 1 {key}: expected a string of bits, got {word!r}"


def test_bitstream_round_trip_all_small_lengths():
    rng = random.Random(SEED + 1)
    for nbits in range(0, 66):
        value = rng.getrandbits(nbits) if nbits else 0
        b = BitString(value, nbits)
        blob = write_bitstream(b, symbol_count=nbits * 3 + 1)
        back, count = read_bitstream(blob)
        assert back == b
        assert count == nbits * 3 + 1
        assert blob[:4] == b"AIFV"
        assert blob[4] == 1
        assert len(blob) == 21 + (nbits + 7) // 8


def test_bitstream_corruption_detected():
    blob = write_bitstream(bits("10110"), symbol_count=3)
    with pytest.raises(FormatError):
        read_bitstream(blob[:10])
    with pytest.raises(FormatError):
        read_bitstream(b"JUNK" + blob[4:])
    with pytest.raises(FormatError):
        read_bitstream(blob[:4] + bytes([9]) + blob[5:])
    with pytest.raises(FormatError):
        read_bitstream(blob[:-1])
    # flip one of the zero padding bits
    with pytest.raises(FormatError):
        read_bitstream(blob[:-1] + bytes([blob[-1] | 0x01]))
    # extra trailing bytes are not part of the frame
    with pytest.raises(FormatError):
        read_bitstream(blob + b"\x00")


@settings(deadline=None)
@given(st.one_of(st.sampled_from([b"", b"AIFV", b"AIFV\x01", b"AIFV\x02"]),
                 small_headers),
       st.binary(max_size=40))
def test_read_bitstream_ends_in_a_result_or_format_error(lead, rest):
    data = lead + rest
    try:
        bits_read, count = read_bitstream(data)
    except FormatError:
        return
    assert write_bitstream(bits_read, count) == data


def test_symbol_names_must_read_back():
    # the CLI prints decoded names joined by spaces and splits symbol
    # text on whitespace, so each parser refuses names it cannot read
    # back
    tree_doc = {"trees": [{"mode": [""], "codewords": ["0", "1"],
                           "next": [0, 0]}]}
    parsers = [
        (parse_tree_set, lambda names: dict(tree_doc, alphabet=names)),
        (parse_conventional,
         lambda names: dict(examples.quaternary_aifv2_doc(), symbols=names)),
        (parse_vv_table,
         lambda names: dict(examples.tunstall_vv_doc(), symbols=names)),
    ]
    cases = [
        (["a", "a"], "symbol names must be unique"),
        (["", "b"], "symbol name '' must be non-empty and hold no "
                    "whitespace"),
        (["a b", "c"], "symbol name 'a b' must be non-empty and hold no "
                       "whitespace"),
        (["a", "b\n"], "symbol name 'b\\n' must be non-empty and hold no "
                       "whitespace"),
    ]
    for parse, doc in parsers:
        for names, message in cases:
            with pytest.raises(FormatError) as err:
                parse(doc(names))
            assert str(err.value) == message
    assert parse_tree_set(dict(tree_doc, alphabet=["x1", "é"])).symbols \
        == ("x1", "é")


def test_parse_tree_set_refusals():
    one = {"alphabet": 2,
           "trees": [{"mode": [""], "codewords": ["0", "1"],
                      "next": [0, 0]}]}
    named = dict(one, trees=[dict(one["trees"][0], name="t"),
                             dict(one["trees"][0], name="t")])
    cases = [
        (dict(one, trees=[5]), "tree 0 must be an object"),
        (named, "tree names must be unique"),
        (dict(one, trees=[dict(one["trees"][0], next=[True, 0])]),
         "tree 0: bad tree reference True"),
    ]
    for doc, message in cases:
        with pytest.raises(FormatError) as err:
            parse_tree_set(doc)
        assert str(err.value) == message


def test_parse_conventional_refusals():
    good = examples.quaternary_aifv2_doc()
    cases = [
        (dict(good, symbols=["a", "b", "c", 4]),
         "'symbols' must be a list of names"),
        (dict(good, convention="sideways"),
         "'convention' must be \"degree\" or \"complement\""),
        (dict(good, trees=[{"codewords": []}]),
         "tree 0: 'codewords' must be a non-empty list"),
        (dict(good, symbols=["a", "b", "c"]),
         "tree 0: expected one codeword per symbol"),
    ]
    for doc, message in cases:
        with pytest.raises(FormatError) as err:
            parse_conventional(doc)
        assert str(err.value) == message


def test_parse_vv_table_refusals():
    def broken(mutate):
        doc = examples.tunstall_vv_doc()
        mutate(doc)
        return doc

    cases = [
        (broken(lambda d: d["blocks"].__setitem__(
            "aaab", {"codeword": "001", "recurrence": 0})),
         "block 'aaab': keys must be strings"),
        (broken(lambda d: d["states"].__setitem__("a", "0")),
         "state 'a' must be an object"),
        (broken(lambda d: d["blocks"].__setitem__("bb", 7)),
         "block 'bb' must be a codeword or an object"),
        (broken(lambda d: d.__setitem__("depth", 0)),
         "parse depth must be at least 1"),
        (broken(lambda d: d.__setitem__("symbols", [])),
         "'symbols' must be a non-empty list of names"),
        (broken(lambda d: d["states"].__setitem__(
            "bbb", {"lcword": "11", "follow": ["1"]})),
         "state (1, 1, 1) has no parent state"),
        (broken(lambda d: d["states"].__setitem__(
            "bb", {"lcword": "11", "follow": ["1"]})),
         "(1, 1) is both a state and a block"),
    ]
    for doc, message in cases:
        with pytest.raises(FormatError) as err:
            parse_vv_table(doc)
        assert str(err.value) == message


def test_write_bitstream_refuses_a_negative_count():
    with pytest.raises(ValueError, match="symbol count must be "
                                         "non-negative"):
        write_bitstream(bits("01"), -1)


def test_write_bitstream_refuses_a_count_past_64_bits():
    # the header holds the count in an unsigned 64-bit field; a larger
    # count once escaped as a struct.error
    top = 2 ** 64 - 1
    assert read_bitstream(write_bitstream(bits("01"), top)) \
        == (bits("01"), top)
    with pytest.raises(ValueError, match="fit in 64 bits"):
        write_bitstream(bits("01"), 2 ** 64)

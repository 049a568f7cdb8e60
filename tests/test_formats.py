"""Serialization: JSON documents and the framed bit-stream container."""

import json
import sys
import random

import pytest
from hypothesis import given, settings, strategies as st

from aifv.bitstring import BitString
from aifv.errors import FormatError
from aifv.formats import (dumps_document, loads_document, parse_conventional,
                          parse_distribution, parse_tree_set, parse_vv_table,
                          read_bitstream, tree_set_to_doc, write_bitstream)
from aifv import examples

from conftest import bits, random_valid_tree_set

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


# keys the three parsers read, so that generated documents get past the
# first checks; any other string is a key too
PARSER_KEYS = ["alphabet", "trees", "name", "mode", "codewords", "next",
               "kind", "m", "convention", "symbols", "depth", "states",
               "blocks", "lcword", "follow", "codeword", "recurrence"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text("01", max_size=4) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(PARSER_KEYS) | st.text(), inner, max_size=5),
    max_leaves=30)


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


def test_parse_conventional_documents():
    kind, m, convention, symbols, trees = parse_conventional(
        examples.quaternary_aifv2_doc())
    assert (kind, m) == ("aifv2", 2)
    assert symbols == ["a", "b", "c", "d"]
    assert len(trees) == 2
    assert [w.text() for w in trees[0].cwords] == ["0", "10", "11", "1100"]

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

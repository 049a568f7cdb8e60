"""End-to-end command-line checks, driven through main(argv)."""

import contextlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from aifv.cli import _WHITESPACE, _parse_symbol_text, build_parser, main
from aifv.errors import FormatError
from aifv.formats import (dumps_document, loads_document, parse_tree_set,
                          tree_set_to_doc)
from aifv import examples

from conftest import (PARSER_KEYS, json_values, long_codeword_doc,
                      mutate_tree_set, random_valid_tree_set, small_headers,
                      symbol_text_oracle)


@pytest.fixture
def trees_path(tmp_path):
    path = tmp_path / "trees.json"
    path.write_text(dumps_document(tree_set_to_doc(
        examples.binary_delay3_set())))
    return str(path)


@pytest.fixture
def broken_path(tmp_path):
    doc = tree_set_to_doc(examples.binary_delay3_set())
    doc["trees"][2]["mode"] = ["0", "11"]
    path = tmp_path / "broken.json"
    path.write_text(dumps_document(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, trees_path):
    code, out, err = run(capsys, "validate", trees_path)
    assert code == 0
    assert out == "valid\n"
    code, out, _ = run(capsys, "validate", trees_path, "--method", "both")
    assert code == 0 and out == "valid\n"


def test_validate_both_methods_disagreeing_exits_1(capsys, trees_path,
                                                   monkeypatch):
    from aifv import cli
    reports = {"direct": types.SimpleNamespace(ok=True, violations=[]),
               "interval": types.SimpleNamespace(ok=False,
                                                 violations=["overlap"])}
    monkeypatch.setattr(cli, "validate", lambda ts, method: reports[method])
    code, out, err = run(capsys, "validate", trees_path, "--method", "both")
    assert (code, out, err) == (1, "", "error: validation methods "
                                "disagree\n")


def test_validate_invalid_set(capsys, broken_path):
    code, out, _ = run(capsys, "validate", broken_path)
    assert code == 1
    assert out.startswith("invalid: 2 violation(s)")
    code, out, _ = run(capsys, "validate", broken_path, "--json",
                       "--method", "interval")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert {v["rule"] for v in report["violations"]} \
        == {"overlap", "coverage"}


def test_validate_delay_budget(capsys, trees_path):
    code, out, _ = run(capsys, "validate", trees_path, "--delay", "3")
    assert code == 0 and "delay budget 3: ok" in out
    code, out, _ = run(capsys, "validate", trees_path, "--delay", "2")
    assert code == 1 and "delay budget 2: exceeded" in out
    code, out, _ = run(capsys, "validate", trees_path, "--delay", "2",
                       "--json")
    assert code == 1
    assert json.loads(out)["delay_budget"] == {"bits": 2, "ok": False}


def test_encode_text_argument(capsys, trees_path):
    code, out, _ = run(capsys, "encode", trees_path,
                       "--text", "a b b a a")
    assert (code, out) == (0, "10011\n")
    # single-letter names may be run together
    code, out, _ = run(capsys, "encode", trees_path, "--text", "abbaa")
    assert (code, out) == (0, "10011\n")


def test_encode_reads_stdin(capsys, trees_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("b a\nb"))
    code, out, _ = run(capsys, "encode", trees_path)
    assert code == 0
    assert out.endswith("\n") and set(out.strip()) <= {"0", "1"}


def test_encode_unknown_symbol(capsys, trees_path):
    code, _, err = run(capsys, "encode", trees_path, "--text", "a q")
    assert code == 2
    assert "unknown symbol" in err


def test_symbol_text_run_on_and_spaced(capsys, tmp_path, trees_path):
    # one-character names may run on, be spaced, or both
    for text in ("abbaa", "a b b a a", "ab  ba\na", " a bba a "):
        code, out, _ = run(capsys, "encode", trees_path, "--text", text)
        assert (code, out) == (0, "10011\n"), text
    # an unknown character is named alone, whatever token it is in
    for text in ("abq", "a b q", "ab qa"):
        code, _, err = run(capsys, "encode", trees_path, "--text", text)
        assert code == 2 and "unknown symbol 'q'" in err, text
    # longer names must be spaced
    path = tmp_path / "named.json"
    doc = tree_set_to_doc(examples.binary_delay3_set())
    doc["alphabet"] = ["x0", "x1"]
    path.write_text(dumps_document(doc))
    code, out, _ = run(capsys, "encode", str(path), "--text",
                       "x0 x1 x1 x0 x0")
    assert (code, out) == (0, "10011\n")
    code, _, err = run(capsys, "encode", str(path), "--text", "x0 x1x1")
    assert code == 2 and "unknown symbol 'x1x1'" in err


SPACES = [c for c in map(chr, range(0x110000)) if c.isspace()]
# one-character names: every latin-1 character that is not whitespace,
# then some that latin-1 cannot encode, an astral one last
LATIN1_NAMES = [c for c in map(chr, range(256)) if not c.isspace()]
WIDE_NAMES = [chr(0x3B1 + i) for i in range(12)] + ["\U0001F600"]


def test_whitespace_table_is_what_split_splits_on():
    assert _WHITESPACE == "".join(SPACES)


@st.composite
def names_and_symbol_text(draw):
    if draw(st.booleans()):
        size = draw(st.sampled_from([1, 4, 5, 244, 256, 257]))
        pool = LATIN1_NAMES + WIDE_NAMES
        if size <= len(LATIN1_NAMES) and draw(st.booleans()):
            pool = LATIN1_NAMES
        names = draw(st.permutations(pool))[:size]
    else:
        names = draw(st.lists(st.text("ab\x01\xe9\u03b1", min_size=1,
                                      max_size=3),
                              min_size=1, max_size=6, unique=True))
    pieces = names + SPACES
    if draw(st.booleans()):
        # characters that equal chr(id) without being names, wide and
        # astral characters, lone surrogates
        pieces += [chr(a) for a in range(len(names))] + [
            "q", "\xe9", "\u0100", "\u03b1", "\U0001F600", "\ud800",
            "\udfff"]
    return names, "".join(draw(st.lists(st.sampled_from(pieces),
                                        max_size=30)))


@settings(max_examples=300, deadline=None)
@given(names_and_symbol_text())
def test_symbol_text_parse_matches_oracle(case):
    names, text = case
    tree_set = types.SimpleNamespace(symbols=tuple(names))
    try:
        expected = symbol_text_oracle(text, names)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            _parse_symbol_text(text, tree_set)
        assert str(info.value) == str(exc)
    else:
        assert list(_parse_symbol_text(text, tree_set)) == expected


@pytest.mark.parametrize("names, message", [
    (["a", "b", "c", "d", "e"], [4, 0, 3, 3, 1, 2]),
    (["\xe9", "a"], [0, 1, 1, 0]),
    (["\u03b1", "\u03b2"], [1, 0, 0, 1]),
    (["x0", "x1", "yy"], [2, 0, 1, 2]),
    (LATIN1_NAMES, [243, 0, 127, 128, 200]),
    (LATIN1_NAMES + WIDE_NAMES[:12], [255, 0, 128, 243, 244, 255]),
])
def test_decode_output_is_the_names_joined_by_spaces(capsysbinary, tmp_path,
                                                     names, message):
    # one tree of fixed-length codewords names every symbol
    width = max(1, (len(names) - 1).bit_length())
    path = tmp_path / "named.json"
    path.write_text(dumps_document({
        "alphabet": names,
        "trees": [{"mode": [""], "next": [0] * len(names),
                   "codewords": [format(a, f"0{width}b")
                                 for a in range(len(names))]}]}),
        encoding="utf-8")
    for msg in (message, []):
        text = " ".join(names[a] for a in msg)
        assert main(["encode", str(path), "--text", text]) == 0
        stream = capsysbinary.readouterr().out.decode().strip()
        assert main(["decode", str(path), "--bits", stream,
                     "--length", str(len(msg))]) == 0
        assert capsysbinary.readouterr().out == (text + "\n").encode()


def test_decode_bits_argument(capsys, trees_path):
    code, out, _ = run(capsys, "decode", trees_path,
                       "--bits", "10011", "--length", "5")
    assert (code, out) == (0, "a b b a a\n")
    code, _, err = run(capsys, "decode", trees_path, "--bits", "10011")
    assert code == 2 and "--length" in err
    code, _, err = run(capsys, "decode", trees_path,
                       "--bits", "10z", "--length", "1")
    assert code == 2


def test_bad_word_in_a_set_exits_2_naming_the_tree_once(capsys, tmp_path):
    good = tree_set_to_doc(examples.binary_delay3_set())
    path = tmp_path / "bad.json"
    for key, word in [("codewords", "x"), ("mode", 5)]:
        doc = json.loads(dumps_document(good))
        doc["trees"][1][key][-1] = word
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: tree 1 {key}: expected a string of bits, "
                       f"got {word!r}\n")


def test_decode_truncated_stream_fails(capsys, trees_path):
    code, _, err = run(capsys, "decode", trees_path,
                       "--bits", "10", "--length", "3")
    assert code == 1
    assert "error:" in err


def test_binary_round_trip_via_files(capsys, trees_path, tmp_path):
    blob_path = str(tmp_path / "stream.bin")
    code, _, _ = run(capsys, "encode", trees_path,
                     "--text", "a b b a a",
                     "--format", "binary", "--output", blob_path)
    assert code == 0
    blob = (tmp_path / "stream.bin").read_bytes()
    assert blob[:4] == b"AIFV"
    # auto format sniffs the magic and takes the length from the header
    code, out, _ = run(capsys, "decode", trees_path, "--input", blob_path)
    assert (code, out) == (0, "a b b a a\n")
    code, out, _ = run(capsys, "decode", trees_path, "--input", blob_path,
                       "--format", "binary", "--length", "3")
    assert (code, out) == (0, "a b b\n")


def test_binary_round_trip_via_stdout_and_stdin(capsysbinary, trees_path,
                                                monkeypatch):
    assert main(["encode", trees_path, "--text", "a b b a a",
                 "--format", "binary"]) == 0
    blob = capsysbinary.readouterr().out
    assert blob[:4] == b"AIFV"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(blob)))
    assert main(["decode", trees_path, "--input", "-"]) == 0
    assert capsysbinary.readouterr().out == b"a b b a a\n"


def test_ascii_file_round_trip(capsys, trees_path, tmp_path):
    bits_path = str(tmp_path / "stream.txt")
    code, _, _ = run(capsys, "encode", trees_path, "--text", "b a b",
                     "--output", bits_path)
    assert code == 0
    code, out, _ = run(capsys, "decode", trees_path, "--input", bits_path,
                       "--length", "3")
    assert (code, out) == (0, "b a b\n")
    (tmp_path / "stream.txt").write_text("10 1\n")
    code, _, err = run(capsys, "decode", trees_path, "--input", bits_path,
                       "--length", "3")
    assert code == 2 and "error:" in err


def test_reduce_outputs_basic_document(capsys, tmp_path):
    path = tmp_path / "full.json"
    path.write_text(dumps_document(tree_set_to_doc(
        examples.ternary_full_set())))
    code, out, _ = run(capsys, "reduce", str(path))
    assert code == 0
    doc = loads_document(out)
    # mode words are serialized shortest first
    assert [t["mode"] for t in doc["trees"]] \
        == [[""], ["0", "10"], ["10", "011"]]
    parse_tree_set(doc)  # stays loadable and valid


def test_analyze_text_and_json(capsys, trees_path, tmp_path):
    dist_path = tmp_path / "dist.json"
    dist_path.write_text('{"probs": [0.5, 0.5]}\n')
    code, out, _ = run(capsys, "analyze", trees_path,
                       "--dist", str(dist_path))
    assert code == 0
    assert "expected code length: 1.050000" in out
    assert "decoding delay: 3" in out
    code, out, _ = run(capsys, "analyze", trees_path,
                       "--dist", str(dist_path), "--mc", "2000",
                       "--seed", "9")
    assert code == 0
    line = out.splitlines()[-1]
    assert line.startswith("monte carlo rate: ")
    assert line.endswith(" (n=2000, seed=9)")
    assert abs(float(line.split()[3]) - 1.05) < 0.1
    code, out, _ = run(capsys, "analyze", trees_path,
                       "--dist", str(dist_path), "--json",
                       "--mc", "2000", "--seed", "9")
    assert code == 0
    stats = json.loads(out)
    assert stats["expected_code_length"] == pytest.approx(1.05, abs=1e-9)
    assert stats["entropy"] == pytest.approx(1.0)
    assert stats["stationary"] == pytest.approx([0.4, 0.2, 0.2, 0.1, 0.1],
                                                abs=1e-9)
    assert stats["monte_carlo"]["n"] == 2000
    assert abs(stats["monte_carlo"]["rate"] - 1.05) < 0.1


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_analyze_solves_the_chain_once(capsys, trees_path, tmp_path,
                                       monkeypatch, fmt):
    from aifv import analysis, cli
    calls = []
    solve = analysis.stationary

    def counted(matrix):
        calls.append(1)
        return solve(matrix)

    # also where the command would hold its own reference
    for module in (analysis, cli):
        monkeypatch.setattr(module, "stationary", counted, raising=False)
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[0.5, 0.5]\n")
    code, out, _ = run(capsys, "analyze", trees_path,
                       "--dist", str(dist_path), *fmt)
    assert code == 0 and "1.05" in out
    assert len(calls) == 1


def test_analyze_takes_a_bare_list_distribution(capsys, trees_path,
                                                tmp_path):
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[0.5, 0.5]\n")
    code, out, _ = run(capsys, "analyze", trees_path,
                       "--dist", str(dist_path))
    assert code == 0
    assert "expected code length: 1.050000" in out
    # any other top level is still a format error, and so is a set
    # document that is not an object
    dist_path.write_text('"half"\n')
    code, _, err = run(capsys, "analyze", trees_path,
                       "--dist", str(dist_path))
    assert code == 2 and "list of probabilities" in err
    set_path = tmp_path / "list.json"
    set_path.write_text("[]\n")
    code, _, err = run(capsys, "analyze", str(set_path),
                       "--dist", str(dist_path))
    assert code == 2 and "JSON object" in err


def test_analyze_periodic_set(capsys, tmp_path):
    # tree 0 leaves for tree 1 or 2 for good, and those two swap on
    # every symbol: a valid set whose chain has period 2
    trees = tmp_path / "periodic.json"
    trees.write_text(json.dumps({"alphabet": ["a", "b"], "trees": [
        {"mode": [""], "codewords": ["0", "1"], "next": [1, 2]},
        {"mode": [""], "codewords": ["0", "1"], "next": [2, 2]},
        {"mode": [""], "codewords": ["00", "1"], "next": [1, 1]},
    ]}))
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[0.75, 0.25]\n")
    started = time.perf_counter()
    code, out, _ = run(capsys, "analyze", str(trees), "--dist",
                       str(dist_path), "--json")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    stats = json.loads(out)
    assert stats["expected_code_length"] == pytest.approx(1.375, abs=1e-12)
    assert stats["stationary"] == pytest.approx([0, 0.5, 0.5], abs=1e-12)


def test_analyze_reducible_set(capsys, tmp_path):
    # tree 0 leaves for tree 1 or tree 2, and each of those stays put:
    # two closed classes, each entered with chance 1/2
    trees = tmp_path / "split.json"
    trees.write_text(json.dumps({"alphabet": ["a", "b"], "trees": [
        {"mode": [""], "codewords": ["0", "1"], "next": [1, 2]},
        {"mode": [""], "codewords": ["0", "1"], "next": [1, 1]},
        {"mode": [""], "codewords": ["0", "1"], "next": [2, 2]},
    ]}))
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[0.5, 0.5]\n")
    code, out, _ = run(capsys, "analyze", str(trees), "--dist",
                       str(dist_path), "--json")
    assert code == 0
    stats = json.loads(out)
    assert stats["stationary"] == [0.0, 0.5, 0.5]
    assert stats["expected_code_length"] == 1.0


def test_analyze_rejects_nan_probabilities(capsys, trees_path, tmp_path):
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[NaN, NaN]\n")
    code, _, err = run(capsys, "analyze", trees_path,
                       "--dist", str(dist_path))
    assert code == 2 and "probabilities" in err


def test_analyze_rejects_subnormal_probabilities(capsys, tmp_path):
    # the solve once turned a chance below 2.2e-308 into NaN output
    trees = tmp_path / "swap.json"
    trees.write_text(json.dumps({"alphabet": ["a", "b"], "trees": [
        {"mode": [""], "codewords": ["0", "1"], "next": [0, 1]},
        {"mode": [""], "codewords": ["0", "1"], "next": [1, 2]},
        {"mode": [""], "codewords": ["0", "1"], "next": [2, 1]},
    ]}))
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[1.0, 5e-324]\n")
    code, out, err = run(capsys, "analyze", str(trees),
                         "--dist", str(dist_path))
    assert code == 2 and "probabilities" in err and out == ""


def test_analyze_rejects_probabilities_beyond_float_range(capsys, trees_path,
                                                          tmp_path):
    # a 401-digit integer once escaped as an OverflowError traceback
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[" + "9" * 401 + ", 0]\n")
    code, out, err = run(capsys, "analyze", trees_path,
                         "--dist", str(dist_path))
    assert code == 2 and "too large" in err and out == ""


def test_import_and_validate_output(capsys, tmp_path):
    src = tmp_path / "conventional.json"
    src.write_text(dumps_document(examples.quaternary_aifv2_doc()))
    out_path = tmp_path / "imported.json"
    code, _, _ = run(capsys, "import", str(src),
                     "--output", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(out_path))
    assert (code, out) == (0, "valid\n")
    code, out, _ = run(capsys, "encode", str(out_path),
                       "--text", "a c c a")
    assert (code, out) == (0, "0111101\n")


def test_import_refuses_duplicate_symbol_names(capsys, tmp_path):
    doc = examples.quaternary_aifv2_doc()
    doc["symbols"] = ["a", "a", "c", "d"]
    src = tmp_path / "conventional.json"
    src.write_text(dumps_document(doc))
    code, out, err = run(capsys, "import", str(src))
    assert (code, out, err) == (2, "", "error: symbol names must be unique\n")


def test_import_of_a_long_codeword_is_refused_quickly(capsys, tmp_path):
    src = tmp_path / "long.json"
    src.write_text(dumps_document(long_codeword_doc()))
    started = time.perf_counter()
    code, out, err = run(capsys, "import", str(src))
    elapsed = time.perf_counter() - started
    assert (code, out) == (1, "")
    assert err == "error: imported trees are not decodable: tree 1 " \
        "cannot be reached from tree 0\n"
    assert elapsed < 1.0, f"import took {elapsed:.2f} s"


def test_symbol_names_the_cli_cannot_read_back_exit_2(capsys, tmp_path):
    # '' would vanish from decoded text, and 'a b' would read back as
    # two symbols
    for names in (["", "b"], ["a b", "c"]):
        path = tmp_path / "names.json"
        path.write_text(dumps_document({
            "alphabet": names,
            "trees": [{"mode": [""], "codewords": ["0", "1"],
                       "next": [0, 0]}]}))
        code, out, err = run(capsys, "decode", str(path), "--bits", "01",
                             "--length", "2")
        assert (code, out) == (2, "")
        assert err == f"error: symbol name {names[0]!r} must be " \
            f"non-empty and hold no whitespace\n"


def test_duplicate_tree_names_exit_2(capsys, tmp_path):
    tree = {"name": "t", "mode": [""], "codewords": ["0", "1"],
            "next": [0, 0]}
    path = tmp_path / "named.json"
    path.write_text(dumps_document({"alphabet": 2, "trees": [tree, tree]}))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", "error: tree names must be unique\n")


def test_reduce_long_mode_member_is_fast(capsys, tmp_path):
    # tree 1's one mode member is a random 100,000-bit word
    word = format(random.Random(5).getrandbits(100_000), "0100000b")
    path = tmp_path / "long.json"
    path.write_text(dumps_document({
        "alphabet": 2,
        "trees": [{"mode": [""], "codewords": ["0", "1"], "next": [0, 1]},
                  {"mode": [word], "codewords": [word + "0", word + "1"],
                   "next": [0, 0]}]}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "reduce", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = loads_document(out)
    assert [t["mode"] for t in doc["trees"]] == [[""], [""]]
    assert doc["trees"][0]["codewords"] == ["0", "1" + word]
    assert doc["trees"][1]["codewords"] == ["0", "1"]


def test_reduce_words_sharing_no_first_bit_is_fast(capsys, tmp_path):
    # tree 1's two 400,000-bit words differ in their first bit; finding
    # their common prefix one bit at a time takes seconds
    zeros, ones = "0" * 400_000, "1" * 400_000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "alphabet": ["a", "b"],
        "trees": [{"mode": [""], "codewords": ["", "01"], "next": [1, 0]},
                  {"mode": [zeros, ones], "codewords": [zeros, ones],
                   "next": [0, 0]}]}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "reduce", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    parse_tree_set(loads_document(out))  # stays loadable and valid


RAISE_LOWER_CYCLE_VV_DOC = {
    "depth": 4, "symbols": ["a", "b"],
    "states": {"": {"lcword": "", "follow": [""]},
               "a": {"lcword": "01", "follow": [""]},
               "aa": {"lcword": "0", "follow": ["1"]},
               "aaa": {"lcword": "0", "follow": ["0"]}},
    "blocks": {"aaaa": "000", "aaab": "001", "aab": "010", "ab": "011",
               "b": "1"}}


def test_convert_vv_command(capsys, tmp_path):
    src = tmp_path / "table.json"
    src.write_text(dumps_document(examples.pair_huffman_vv_doc()))
    code, out, _ = run(capsys, "convert-vv", str(src))
    assert code == 0
    ts = parse_tree_set(loads_document(out))
    assert ts.tree_count == 4
    bad = tmp_path / "bad.json"
    bad.write_text('{"depth": 2, "symbols": ["a"], "states": 5}\n')
    code, _, err = run(capsys, "convert-vv", str(bad))
    assert code == 2 and "error:" in err
    # a table whose raise/lower rewriting never settles
    bad.write_text(json.dumps(RAISE_LOWER_CYCLE_VV_DOC))
    code, out, err = run(capsys, "convert-vv", str(bad))
    assert (code, out, err) == (1, "", "error: table rewriting did not "
                                "settle\n")


def test_convert_vv_refuses_two_spellings_of_one_key(capsys, tmp_path):
    doc = examples.tunstall_vv_doc()
    doc["states"]["a a"] = {"lcword": "1", "follow": ["0"]}
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_document(doc))
    code, out, err = run(capsys, "convert-vv", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: states: keys 'a a' and 'aa' name the same " \
        "sequence\n"


def test_delay_command(capsys, trees_path):
    code, out, _ = run(capsys, "delay", trees_path)
    assert (code, out) == (0, "3\n")


def test_delay_command_refuses_a_broken_set(capsys, broken_path):
    code, out, err = run(capsys, "delay", broken_path)
    assert (code, out) == (1, "")
    assert err.startswith("error: code-tree set fails the decodability")


def test_delay_cap_environment(capsys, trees_path, monkeypatch):
    monkeypatch.setenv("AIFV_MAX_DELAY", "3")
    assert run(capsys, "delay", trees_path)[0] == 0
    monkeypatch.setenv("AIFV_MAX_DELAY", "2")
    code, _, err = run(capsys, "delay", trees_path)
    assert code == 1 and "AIFV_MAX_DELAY" in err
    monkeypatch.setenv("AIFV_MAX_DELAY", "many")
    code, _, err = run(capsys, "delay", trees_path)
    assert code == 2


def test_usage_and_io_failures(capsys, trees_path, tmp_path):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    not_json = tmp_path / "notes.txt"
    not_json.write_text("hello\n")
    code, _, err = run(capsys, "validate", str(not_json))
    assert code == 2 and "error:" in err


def test_one_parser_serves_every_call(capsys, trees_path):
    assert build_parser() is build_parser()
    good = ("decode", trees_path, "--bits", "10011", "--length", "5")
    first = run(capsys, *good)
    assert first == (0, "a b b a a\n", "")
    # argparse refuses these inside parse_args; the shared parser must
    # come out of each refusal as it went in, and refuse alike again
    refusals = [run(capsys, *argv) for argv in 2 * [
        ("frobnicate",),
        ("decode", trees_path, "--bits", "10011", "--length", "x")]]
    assert refusals[:2] == refusals[2:]
    assert [code for code, _, _ in refusals] == [2] * 4
    assert "invalid choice: 'frobnicate'" in refusals[0][2]
    assert "invalid int value: 'x'" in refusals[1][2]
    assert run(capsys, *good) == first


def test_deeply_nested_json_is_a_format_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "validate", str(deep))
    assert code == 2 and "nested too deeply" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int string-digit limit")
def test_oversized_integer_is_a_format_error(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text('{"alphabet": ' + "9" * 5000 + ', "trees": []}')
    code, _, err = run(capsys, "validate", str(huge))
    assert code == 2 and "unreadable JSON value" in err


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src")

# runs main() on each argv in a fresh interpreter, then reports the exit
# codes and whether numpy was loaded
COLD_START = """
import json, sys
import aifv, aifv.cli
codes = [aifv.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def cold_run(tmp_path, commands):
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_without_a_rate_never_load_numpy(trees_path, tmp_path):
    conventional = tmp_path / "conventional.json"
    conventional.write_text(dumps_document(examples.quaternary_aifv2_doc()))
    table = tmp_path / "table.json"
    table.write_text(dumps_document(examples.pair_huffman_vv_doc()))
    stream = str(tmp_path / "stream.bin")
    result = cold_run(tmp_path, [
        ["validate", trees_path, "--method", "both"],
        ["encode", trees_path, "--text", "a b b a a", "--format", "binary",
         "--output", stream],
        ["decode", trees_path, "--input", stream],
        ["delay", trees_path],
        ["reduce", trees_path],
        ["import", str(conventional)],
        ["convert-vv", str(table)],
    ])
    assert result == {"codes": [0] * 7, "numpy": False}


def test_analyze_loads_numpy(trees_path, tmp_path):
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[0.5, 0.5]\n")
    result = cold_run(tmp_path, [
        ["analyze", trees_path, "--dist", str(dist_path), "--mc", "100"]])
    assert result == {"codes": [0], "numpy": True}


def _random_set_doc(seed):
    rng = random.Random(seed)
    tree_set = random_valid_tree_set(rng)
    if rng.random() < 0.5:
        tree_set = mutate_tree_set(rng, tree_set)
    return tree_set_to_doc(tree_set)


def _with_key(docs):
    """An example document with one top-level key set to any JSON value."""
    return st.builds(lambda doc, key, value: {**doc, key: value},
                     st.sampled_from(docs), st.sampled_from(PARSER_KEYS),
                     json_values)


def _json_file(docs):
    return st.one_of(st.sampled_from(docs), _with_key(docs),
                     json_values).map(json.dumps) | st.text(max_size=20)


set_files = st.one_of(
    st.integers(0, 2 ** 32 - 1).map(_random_set_doc).map(json.dumps),
    _json_file([tree_set_to_doc(examples.binary_delay3_set()),
                tree_set_to_doc(examples.skewed_delay3_set()),
                tree_set_to_doc(examples.ternary_full_set())]))
table_files = _json_file([examples.pair_huffman_vv_doc()])
conventional_files = _json_file([examples.quaternary_aifv2_doc(),
                                 examples.skewed_aifv3_doc()])
dist_files = st.one_of(
    st.sampled_from([[1.0], [0.5, 0.5], [1.0, 1e-300], [1.0, 5e-324],
                     [0.25, 0.25, 0.5], [0.0, 1.0, 0.0], [0.25] * 4,
                     examples.skewed_distribution()]),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 5e-324, -0.5,
                              float("nan"), float("inf")]), max_size=4),
    st.lists(st.floats(), max_size=4),
    json_values).map(json.dumps)
stream_files = st.one_of(
    st.binary(max_size=40),
    st.builds(operator.add, small_headers, st.binary(max_size=6)),
    st.text("01 \n", max_size=40).map(str.encode))


@st.composite
def command_lines(draw, paths):
    """One argv for any subcommand, with files and small flag values."""
    command = draw(st.sampled_from(["validate", "encode", "decode", "reduce",
                                    "analyze", "import", "convert-vv",
                                    "delay"]))
    flags = []

    def maybe(*flag):
        if draw(st.booleans()):
            flags.extend(flag)

    if command == "import":
        maybe("--kind", draw(st.sampled_from(["aifv2", "aifvm"])))
        return [command, paths["conventional"]] + flags
    if command == "convert-vv":
        return [command, paths["table"]] + flags
    if command == "validate":
        maybe("--method", draw(st.sampled_from(["direct", "interval",
                                                "both"])))
        maybe("--delay", str(draw(st.integers(-2, 8))))
        maybe("--json")
    elif command == "encode":
        if draw(st.booleans()):
            flags += ["--text=" + draw(st.text("ab c\n", max_size=12)
                                       | st.text(max_size=6))]
        else:
            flags += ["--input", paths["message"]]
        maybe("--format", draw(st.sampled_from(["ascii", "binary"])))
        flags += ["--output", paths["out"]]
    elif command == "decode":
        if draw(st.booleans()):
            flags += ["--bits=" + draw(st.text("01", max_size=30)
                                       | st.text(max_size=4))]
        else:
            flags += ["--input", paths["stream"]]
            maybe("--format", draw(st.sampled_from(["ascii", "binary",
                                                    "auto"])))
        flags += ["--length", str(draw(st.integers(-1, 1000)))]
    elif command == "analyze":
        flags += ["--dist", paths["dist"]]
        maybe("--mc", str(draw(st.integers(-1, 1000))))
        maybe("--seed", str(draw(st.integers(-1, 2 ** 70))))
        maybe("--json")
    return [command, paths["trees"]] + flags


# Two inputs are left out because they are known not to end, and no cap
# exists for either (both are FOUND lines in CHANGES.md): decode always
# gets --length <= 1000, since a 0-bit container that claims 2^63
# symbols of an empty codeword decodes forever, and --mc stays <= 1000,
# since --mc 10**13 takes about 10^13 loop steps.
@settings(deadline=None, max_examples=300)
@given(st.data(), set_files, table_files, conventional_files, dist_files,
       stream_files, st.text("ab \n", max_size=12))
def test_every_command_exits_0_1_or_2(tmp_path_factory, data, trees, table,
                                      conventional, dist, stream, message):
    work = tmp_path_factory.mktemp("cli")
    paths = {name: str(work / name) for name in (
        "trees", "table", "conventional", "dist", "stream", "message",
        "out")}
    for name, text in (("trees", trees), ("table", table),
                       ("conventional", conventional), ("dist", dist),
                       ("message", message)):
        (work / name).write_text(text, encoding="utf-8")
    (work / "stream").write_bytes(stream)
    argv = data.draw(command_lines(paths))
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

"""End-to-end command-line checks, driven through main(argv)."""

import io
import json
import sys
import time

import pytest

from aifv.cli import main
from aifv.formats import (dumps_document, loads_document, parse_tree_set,
                          tree_set_to_doc)
from aifv import examples


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


def test_decode_bits_argument(capsys, trees_path):
    code, out, _ = run(capsys, "decode", trees_path,
                       "--bits", "10011", "--length", "5")
    assert (code, out) == (0, "a b b a a\n")
    code, _, err = run(capsys, "decode", trees_path, "--bits", "10011")
    assert code == 2 and "--length" in err
    code, _, err = run(capsys, "decode", trees_path,
                       "--bits", "10z", "--length", "1")
    assert code == 2


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


def test_analyze_rejects_nan_probabilities(capsys, trees_path, tmp_path):
    dist_path = tmp_path / "dist.json"
    dist_path.write_text("[NaN, NaN]\n")
    code, _, err = run(capsys, "analyze", trees_path,
                       "--dist", str(dist_path))
    assert code == 2 and "probabilities" in err


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


def test_delay_command(capsys, trees_path):
    code, out, _ = run(capsys, "delay", trees_path)
    assert (code, out) == (0, "3\n")


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
